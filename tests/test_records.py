"""The record contract: every record type of the package is a NamedTuple
that refuses attribute assignment, prints and compares as the frozen
dataclass it replaced did, and validates its fields as that did.

The repr strings and refusal messages below were captured from the
dataclass records, so a record built from the same fields must print
them byte for byte.  As tuples, records also unpack, and compare equal
to equal tuples (see the README's API notes).
"""

import math
import re
from fractions import Fraction

import pytest

from dilatorus.errors import (DegenerateDoor, NonOrientedBasis,
                              NonSimplePentagon, OutsideQ)
from dilatorus.geometry import (DilationParams, GluedSide, SL2Matrix, Vec2,
                                build_room, square_room)
from dilatorus.intervalmaps import (AffineBranch, AffineChart, PeriodicCycle,
                                    PiecewiseAffineMap, TwoSlopeMap)
from dilatorus.rauzy import InductionStep, RauzyOutcome, Subdivision
from dilatorus.surface import (Cylinder, DirectionClass,
                               ScanResult, SectionReduction)
from dilatorus.teichmuller import FlowSample, MonitorReport
from dilatorus.twists import (ContractionResult, HolonomyClass, ReachReport,
                              WordResult)

HALF = Fraction(1, 2)


def _tsm():
    return TwoSlopeMap(HALF, Fraction(1, 3), HALF)


def _cycle():
    return PeriodicCycle((0.25, 0.75), 0.25)


def _cylinder():
    return Cylinder(3.75, 4.0, "RLL", 2.0)


def _sample():
    return FlowSample(0.5, 1.25, 2.0, frozenset({"Criterion1Fired"}),
                      False)


# type name -> (a function building one instance, its repr)
RECORDS = {
    "Vec2": (lambda: Vec2(1.5, -2.0), "Vec2(x=1.5, y=-2.0)"),
    "SL2Matrix": (lambda: SL2Matrix(2.0, 1.0, 1.0, 1.0),
                  "SL2Matrix(a=2.0, b=1.0, c=1.0, d=1.0)"),
    "DilationParams": (lambda: DilationParams(0.5, Fraction(1, 3)),
                       "DilationParams(mu1=0.5, mu2=Fraction(1, 3))"),
    "GluedSide": (
        lambda: GluedSide(0, Vec2(0.0, 0.0), Vec2(1.0, 0.0), False, 0.5,
                          Vec2(0.5, 1.0)),
        "GluedSide(index=0, start=Vec2(x=0.0, y=0.0), end=Vec2(x=1.0, "
        "y=0.0), is_door=False, factor=0.5, "
        "transport_offset=Vec2(x=0.5, y=1.0))"),
    "Room": (lambda: square_room(1.0, 0.5),
             "Room(e1=Vec2(x=1.0, y=0.0), e2=Vec2(x=0.0, y=1.0), "
             "params=DilationParams(mu1=1.0, mu2=0.5))"),
    "TwoSlopeMap": (_tsm, "TwoSlopeMap(rho_a=Fraction(1, 2), "
                          "rho_b=Fraction(1, 3), x_t=Fraction(1, 2))"),
    "PeriodicCycle": (_cycle, "PeriodicCycle(points=(0.25, 0.75), "
                              "multiplier=0.25)"),
    "AffineBranch": (lambda: AffineBranch(0.0, 0.5, 0.5, 0.5),
                     "AffineBranch(lo=0.0, hi=0.5, slope=0.5, "
                     "intercept=0.5)"),
    # the last two branches continue one law, so they are stored merged
    "PiecewiseAffineMap": (
        lambda: PiecewiseAffineMap((AffineBranch(0.0, 0.5, 0.5, 0.5),
                                    AffineBranch(0.5, 0.75, 0.5, -0.25),
                                    AffineBranch(0.75, 1.0, 0.5, -0.25))),
        "PiecewiseAffineMap(branches=(AffineBranch(lo=0.0, hi=0.5, "
        "slope=0.5, intercept=0.5), AffineBranch(lo=0.5, hi=1.0, "
        "slope=0.5, intercept=-0.25)))"),
    "AffineChart": (lambda: AffineChart(2.0, -0.5),
                    "AffineChart(scale=2.0, offset=-0.5)"),
    "InductionStep": (
        lambda: InductionStep(_tsm(), "L", AffineChart(2.0, -0.5)),
        "InductionStep(induced=TwoSlopeMap(rho_a=Fraction(1, 2), "
        "rho_b=Fraction(1, 3), x_t=Fraction(1, 2)), "
        "letter='L', "
        "chart=AffineChart(scale=2.0, offset=-0.5))"),
    "Subdivision": (lambda: Subdivision(HALF, Fraction(1, 3)),
                    "Subdivision(rho_a=Fraction(1, 2), "
                    "rho_b=Fraction(1, 3))"),
    "RauzyOutcome": (
        lambda: RauzyOutcome("LR", "halt", _cycle()),
        "RauzyOutcome(word='LR', terminal='halt', "
        "cycle=PeriodicCycle(points=(0.25, 0.75), multiplier=0.25))"),
    "SectionReduction": (
        lambda: SectionReduction(_tsm(), AffineChart(2.0, -0.5),
                                 (0, 2)),
        "SectionReduction(two_slope=TwoSlopeMap(rho_a=Fraction(1, 2), "
        "rho_b=Fraction(1, 3), x_t=Fraction(1, 2)), "
        "chart=AffineChart(scale=2.0, offset=-0.5), "
        "section=(0, 2))"),
    "DirectionClass": (
        lambda: DirectionClass("cylinder", "RLL", 2.0, None, None),
        "DirectionClass(kind='cylinder', "
        "word='RLL', multiplier=2.0, reduction=None, outcome=None)"),
    "Cylinder": (_cylinder, "Cylinder(theta1=3.75, theta2=4.0, "
                            "word='RLL', multiplier=2.0)"),
    "ScanResult": (lambda: ScanResult((_cylinder(),), False, 21),
                   "ScanResult(cylinders=(Cylinder(theta1=3.75, "
                   "theta2=4.0, word='RLL', multiplier=2.0),), "
                   "exhausted=False, n_samples=21)"),
    "FlowSample": (_sample, "FlowSample(t=0.5, theta_sup=1.25, "
                            "max_multiplier=2.0, verdict_flags=frozenset("
                            "{'Criterion1Fired'}), budget_exhausted=False)"),
    "MonitorReport": (
        lambda: MonitorReport((_sample(),), (_cylinder(),), True, False),
        "MonitorReport(samples=(FlowSample(t=0.5, theta_sup=1.25, "
        "max_multiplier=2.0, verdict_flags=frozenset({'Criterion1Fired'}), "
        "budget_exhausted=False),), "
        "tracked=(Cylinder(theta1=3.75, theta2=4.0, word='RLL', "
        "multiplier=2.0),), criterion1=True, criterion2=False)"),
    "WordResult": (
        lambda: WordResult(square_room(1.0, 0.5), ((1.0, 0.5), (1.0, 1.5))),
        "WordResult(room=Room(e1=Vec2(x=1.0, y=0.0), e2=Vec2(x=0.0, "
        "y=1.0), params=DilationParams(mu1=1.0, mu2=0.5)), "
        "mu_path=((1.0, 0.5), (1.0, 1.5)))"),
    "ContractionResult": (
        lambda: ContractionResult("a", (("a", 1),),
                                  DilationParams(0.5, 0.25)),
        "ContractionResult(word='a', blocks=(('a', 1),), "
        "final=DilationParams(mu1=0.5, mu2=0.25))"),
    "ReachReport": (
        lambda: ReachReport("B", (("start", (1.0, 2.0)),),
                            0.001, DilationParams(1.0, 2.0)),
        "ReachReport(word='B', "
        "mu_checkpoints=(('start', (1.0, 2.0)),), final_error=0.001, "
        "final_params=DilationParams(mu1=1.0, mu2=2.0))"),
    "HolonomyClass": (lambda: HolonomyClass("non_discrete"),
                      "HolonomyClass(verdict='non_discrete', "
                      "witness=None)"),
}

# (type name, a call that builds it from refused fields, error, message),
# each under an id of its own, so that deleting a row renames no other
# case; the numbers in the ids are labels, not positions
REFUSALS = [
    pytest.param(
        "SL2Matrix", lambda: SL2Matrix(math.nan, 0.0, 0.0, 1.0), ValueError,
        "matrix entries (nan, 0.0, 0.0, 1.0) must be finite",
        id="SL2Matrix-0"),
    pytest.param(
        "SL2Matrix", lambda: SL2Matrix(1e200, 1e200, 0.0, 1e200), ValueError,
        "matrix entries (1e+200, 1e+200, 0.0, 1e+200) overflow the float "
        "range in the determinant",
        id="SL2Matrix-1"),
    pytest.param(
        "SL2Matrix", lambda: SL2Matrix(2.0, 0.0, 0.0, 1.0), ValueError,
        "determinant 2.0 is not 1",
        id="SL2Matrix-2"),
    pytest.param(
        "Room", lambda: build_room((math.inf, 0.0), (0.0, 1.0), (1.0, 1.0)),
        ValueError, "basis coordinates and parameters must be finite, got "
        "e1=(inf, 0.0), e2=(0.0, 1.0), mu=(1.0, 1.0)",
        id="Room-3"),
    pytest.param(
        "Room", lambda: build_room((0.0, 1.0), (1.0, 0.0), (1.0, 1.0)),
        NonOrientedBasis, "basis determinant -1.0 must be positive",
        id="Room-4"),
    pytest.param(
        "Room", lambda: square_room(-1.0, -1.0), OutsideQ,
        "parameters (-1.0, -1.0) are in the excluded negative quadrant",
        id="Room-5"),
    pytest.param(
        "Room", lambda: square_room(0.0, 0.0), DegenerateDoor,
        "both parameters vanish; the door has length 0",
        id="Room-6"),
    pytest.param(
        "Room", lambda: square_room(700.0, 0.5), ValueError,
        "vertices V2 and V3 coincide in unit-basis coordinates at "
        "parameters (700.0, 0.5)",
        id="Room-7"),
    pytest.param(
        "Room", lambda: square_room(-0.5, 0.0), NonSimplePentagon,
        "vertex chain [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), "
        "(-0.6487212707001282, 1.0), (0.0, 1.0)] self-intersects in "
        "unit-basis coordinates: neither dilation factor in "
        "nu = (0.6065306597126334, 1.0) exceeds 1",
        id="Room-8"),
    pytest.param(
        "TwoSlopeMap", lambda: TwoSlopeMap(0.0, 0.5, 0.5), ValueError,
        "slopes must be positive",
        id="TwoSlopeMap-9"),
    pytest.param(
        "TwoSlopeMap", lambda: TwoSlopeMap(2.0, 1.5, 0.5), ValueError,
        "slopes may not both exceed 1",
        id="TwoSlopeMap-10"),
    pytest.param(
        "TwoSlopeMap", lambda: TwoSlopeMap(0.5, 0.5, 1.0), ValueError,
        "break point 1.0 must lie in (0, 1)",
        id="TwoSlopeMap-11"),
    pytest.param(
        "TwoSlopeMap", lambda: TwoSlopeMap(HALF, Fraction(2), HALF),
        ValueError, "branch images overlap: rho_b*(1-x_t)=1 exceeds "
        "1-rho_a*x_t=3/4",
        id="TwoSlopeMap-12"),
    pytest.param(
        "TwoSlopeMap", lambda: TwoSlopeMap(0.5, 0.5, 0.0), ValueError,
        "break point 0.0 must lie in (0, 1)",
        id="TwoSlopeMap-13"),
    pytest.param(
        "AffineBranch", lambda: AffineBranch(0.5, 0.5, 1.0, 0.0), ValueError,
        "branch interval is empty",
        id="AffineBranch-14"),
    pytest.param(
        "AffineBranch", lambda: AffineBranch(0.0, 0.5, -1.0, 0.0), ValueError,
        "branches must be orientation-preserving",
        id="AffineBranch-15"),
    pytest.param(
        "PiecewiseAffineMap", lambda: PiecewiseAffineMap(()), ValueError,
        "need at least one branch",
        id="PiecewiseAffineMap-16"),
    pytest.param(
        "PiecewiseAffineMap",
        lambda: PiecewiseAffineMap((AffineBranch(0.0, 0.4, 0.5, 0.0),
                                    AffineBranch(0.5, 1.0, 0.5, 0.0))),
        ValueError, "branch intervals must be contiguous",
        id="PiecewiseAffineMap-17"),
    pytest.param(
        "PiecewiseAffineMap",
        lambda: PiecewiseAffineMap((AffineBranch(0.0, 0.5, 1.0, 0.0),
                                    AffineBranch(0.5, 1.0, 1.0, -0.25))),
        ValueError, "branch images overlap; map is not injective",
        id="PiecewiseAffineMap-18"),
    pytest.param(
        "PiecewiseAffineMap",
        lambda: PiecewiseAffineMap((AffineBranch(0.0, 0.5, 0.5, 0.0),
                                    AffineBranch(0.5, Fraction(10 ** 400),
                                                 0.5, 0.0))),
        ValueError, "the domain's high end lies outside the float range",
        id="PiecewiseAffineMap-19"),
    pytest.param(
        "AffineChart", lambda: AffineChart(0, 1), ValueError,
        "chart must be invertible",
        id="AffineChart-20"),
]


def test_the_table_covers_every_record_type():
    assert len(RECORDS) == 23
    validated = {row.values[0] for row in REFUSALS}
    assert validated == {"SL2Matrix", "Room", "TwoSlopeMap",
                         "AffineBranch", "PiecewiseAffineMap",
                         "AffineChart"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_prints_and_compares_as_before(name):
    make, text = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert isinstance(record, tuple) and len(record) == len(record._fields)
    assert repr(record) == text
    twin = make()
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert record._replace(**{record._fields[0]: object()}) != record


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_refuses_attribute_assignment(name):
    record = RECORDS[name][0]()
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "extra")


def test_cached_state_stays_out_of_eq_and_repr():
    # Room caches its tables and PiecewiseAffineMap its tolerance in
    # the instance dict, which assignment cannot reach either
    room, fresh = square_room(1.0, 0.5), square_room(1.0, 0.5)
    geom = room.geom
    assert room.geom is geom and room == fresh
    assert repr(room) == repr(fresh)
    pam = RECORDS["PiecewiseAffineMap"][0]()
    assert vars(pam) == {"_tol": 1e-12}
    with pytest.raises(AttributeError):
        pam._tol = 0.0
    assert pam._tol == 1e-12


@pytest.mark.parametrize("name, call, error, message", REFUSALS)
def test_a_validated_record_refuses_as_before(name, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
