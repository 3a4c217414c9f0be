"""Refusals and branches that no other test reaches, one row each."""

import math
import operator
import re
from fractions import Fraction

import pytest

import oracles
from dilatorus import rauzy, surface
from dilatorus.errors import (AtDiscontinuity, NonConvergence, NotReducible,
                              NotTransverse, RationalRatio)
from dilatorus.geometry import (DilationParams, build_room, canonicalize,
                                square_room)
from dilatorus.intervalmaps import (AffineBranch, AffineChart,
                                    PiecewiseAffineMap, TwoSlopeMap,
                                    evaluate, restrict_to_image)
from dilatorus.quadratics import QuadraticNumber
from dilatorus.rauzy import subdivision, survivor_intervals
from dilatorus.surface import (Direction, RayTrace, first_return_map,
                               rotation_number)
from dilatorus.teichmuller import distortion
from dilatorus.twists import (ContractionResult, HolonomyClass, ReachReport,
                              apply_word, gauss_contraction, holonomy_class,
                              mu_path, reach_target, twist_mu)

ROOM = square_room(math.log(2.0), math.log(2.0))
# mu1 < 0 puts V3 past V2: the chord V0V3 leaves the pentagon
REFLEX = build_room((1.0, 0.2), (0.3, 1.1), (-0.5, 1.0))
# the middle of REFLEX's outward half-circle
OUTWARD = sum(REFLEX.inward_directions()) / 2 + math.pi
TSM = TwoSlopeMap(0.5, 0.5, 0.5)
HALF = Fraction(1, 2)
EXACT_TSM = TwoSlopeMap(HALF, HALF, HALF)
PARAMS = DilationParams(0.5, 0.7)
# slope 1, then slope 2: the branches meet at (1, 1), a kink, no jump
KINK = PiecewiseAffineMap((AffineBranch(0.0, 1.0, 1.0, 0.0),
                           AffineBranch(1.0, 2.0, 2.0, -1.0)))
# images [0.25, 0.5] and [0, 0.25 + 8e-13] on the image interval
# [0, 0.5]: they overlap by 8e-13, within the map's MERGE_TOL slack of
# 1e-12, but by 1.6e-12 once rescaled to [0, 1], past INJECTIVITY_SLACK
OVERLAP = PiecewiseAffineMap((
    AffineBranch(0.0, 0.25, 1.0, 0.25),
    AffineBranch(0.25, 0.5, 1.0 + 3.2e-12, -0.25 * (1.0 + 3.2e-12))))
# images [-5e-13, 1e-6] on [0, 5e-7) and [0, 5e-13] on (5e-7, 1]: they
# overlap by 5e-13, within MERGE_TOL, so the map is accepted, but the
# left branch sends the image interval's low end 0 to -5e-13, past its
# margin of IMAGE_TOL times the width 1e-6
SPILL = PiecewiseAffineMap((
    AffineBranch(0.0, 5e-7, (1e-6 + 5e-13) / 5e-7, -5e-13),
    AffineBranch(5e-7, 1.0, 5e-13 / (1.0 - 5e-7),
                 -5e-13 / (1.0 - 5e-7) * 5e-7)))
# p - q*sqrt(2) for convergents p/q of sqrt(2): the value lies within
# 1e-16 of 0, while float() cancels to 2.0 and to -4.0, so a floor
# read off the float would be 3 too high and 4 too low
BELOW_ZERO = QuadraticNumber(14398739476117879, -10181446324101389, 2)
ABOVE_ZERO = QuadraticNumber(34761632124320657, -24580185800219268, 2)
MIXED = DilationParams(QuadraticNumber(0, 1, 2), QuadraticNumber(0, 1, 3))
MIXED_SLOPES = (QuadraticNumber(0, 1, 2) / 2, QuadraticNumber(0, 1, 3) / 4)
MIXED_ROOM = build_room((1.0, 0.0), (0.0, 1.0), MIXED)
UNIT_BASIS = [(1.0, 0.0), (0.0, 1.0)]



def basis_of(room):
    """The basis as a list, which the table reads as a value."""
    return [room.e1.as_floats(), room.e2.as_floats()]


# each row: a call, then its value or the (error, message) it raises,
# a plain tuple
CASES = [
    # the square room's door and its diagonal V0V2 both run at pi/4
    pytest.param(lambda: first_return_map(Direction(ROOM, math.pi / 4),
                                          (0, 2)),
                 (NotTransverse, "parallel to the section"),
                 id="return-map-section-parallel-to-the-flow"),
    pytest.param(lambda: first_return_map(Direction(ROOM, 3 * math.pi / 4),
                                          (0, 2)),
                 (ValueError, "must point into the surface"),
                 id="return-map-outward-direction"),
    pytest.param(lambda: Direction(ROOM, math.pi / 4).heading(
                     (0, 2)),
                 (NotTransverse, "parallel to the section"),
                 id="heading-section-parallel-to-the-flow"),
    # a section off the room is refused before an outward direction
    pytest.param(lambda: first_return_map(Direction(REFLEX, OUTWARD),
                                          (0, 3)),
                 (ValueError, "not an interior diagonal"),
                 id="return-map-outward-direction-off-the-room"),
    pytest.param(lambda: first_return_map(Direction(ROOM, 1.0), (0, 1)),
                 (ValueError, "not a pentagon diagonal"),
                 id="cross-section-on-a-side"),
    pytest.param(lambda: Direction(ROOM, 1.0).heading((2, 3)),
                 (ValueError, r"^\(2, 3\) is not a pentagon diagonal$"),
                 id="heading-section-on-a-side"),
    pytest.param(lambda: rotation_number(2.0, 0.5, max_iter=0),
                 (ValueError, "max_iter must be at least 1"),
                 id="rotation-number-no-iterations"),
    pytest.param(lambda: distortion(math.nan),
                 (ValueError, "defined for t >= 0"),
                 id="distortion-nan-time"),
    pytest.param(BELOW_ZERO.floor, -1, id="floor-corrects-downward"),
    pytest.param(ABOVE_ZERO.floor, 0, id="floor-corrects-upward"),
    pytest.param(lambda: evaluate(TSM, 1.5),
                 (ValueError, "outside \\[0, 1\\]"),
                 id="two-slope-evaluate-outside-the-unit-interval"),
    pytest.param(lambda: subdivision(0, 1),
                 (ValueError, "slopes must be positive"),
                 id="subdivision-zero-slope"),
    # the survivor walk's rule: an infinite slope gave lengths with a nan
    pytest.param(lambda: subdivision(math.inf, 0.5),
                 (ValueError, "slopes must be finite"),
                 id="subdivision-infinite-slope"),
    pytest.param(lambda: survivor_intervals(0.5, 0.5, -1),
                 (ValueError, "depth must be nonnegative"),
                 id="survivor-intervals-negative-depth"),
    pytest.param(lambda: gauss_contraction(DilationParams(-1, 0.5), 1e-3),
                 (ValueError, "strictly positive parameters"),
                 id="gauss-contraction-negative-parameter"),
    # a NaN eps ended the loop at once and returned the start as if
    # contracted; a negative one ran on to a tie
    pytest.param(lambda: gauss_contraction(DilationParams(1.0, 2 ** 0.5),
                                           math.nan),
                 (ValueError, "eps must be nonnegative, got nan"),
                 id="gauss-contraction-nan-eps"),
    pytest.param(lambda: gauss_contraction(DilationParams(1.0, 2 ** 0.5),
                                           -1e-3),
                 (ValueError, "eps must be nonnegative, got -0.001"),
                 id="gauss-contraction-negative-eps"),
    # eps 0, which `reach --tol=0` passes on, lies below every float
    # spacing: the float loop, which once ran on to a tie, is refused
    pytest.param(lambda: gauss_contraction(DilationParams(1.0, 2 ** 0.5),
                                           0.0),
                 (ValueError, "tolerance 0.0 is not above the float spacing "
                              "2.220446049250313e-16"),
                 id="gauss-contraction-zero-eps-runs-to-a-tie"),
    # an infinite start would end in a claim about its ratio
    pytest.param(lambda: gauss_contraction(DilationParams(math.inf, 1.0),
                                           0.1),
                 (ValueError, "start \\(inf, 1.0\\) must be finite floats"),
                 id="gauss-contraction-infinite-start"),
    pytest.param(lambda: gauss_contraction(DilationParams(0.3, 0.1), 1e-3),
                 (RationalRatio, "cannot certify"),
                 id="gauss-contraction-rational-ratio"),
    # a ratio past the float range leaves no remainder to certify
    pytest.param(lambda: gauss_contraction(DilationParams(1e300, 1e-10),
                                           1e-3),
                 (RationalRatio, "cannot certify a positive remainder"),
                 id="gauss-contraction-ratio-past-the-float-range"),
    # two quadratic fields have no common arithmetic: refused with
    # ValueError where they are first combined
    pytest.param(lambda: gauss_contraction(MIXED, 1e-3),
                 (ValueError, r"two quadratic fields, sqrt\(2\) and "
                              r"sqrt\(3\)"),
                 id="gauss-contraction-two-quadratic-fields"),
    pytest.param(lambda: reach_target(MIXED, (1, 1), 1e-2),
                 (ValueError, r"two quadratic fields, sqrt\(2\) and "
                              r"sqrt\(3\)"),
                 id="reach-target-two-quadratic-fields"),
    pytest.param(lambda: rotation_number(QuadraticNumber(2, 1, 2),
                                         QuadraticNumber(0, 1, 3) / 4),
                 (ValueError, r"two quadratic fields, sqrt\(2\) and "
                              r"sqrt\(3\)"),
                 id="rotation-number-two-quadratic-fields"),
    # the survivor walk refuses them at its first step, for each caller
    *[pytest.param(lambda walk=walk, n=n: walk(*MIXED_SLOPES, n),
                   (ValueError, r"two quadratic fields, sqrt\(2\) and "
                                r"sqrt\(3\)"),
                   id=f"{name}-two-quadratic-fields")
      for name, walk, n in (("survivor-measure", rauzy.survivor_measure, 2),
                            ("survivor-intervals", survivor_intervals, 2))],
    # so does every other call that combines them, the order included
    *[pytest.param(call, (ValueError, r"two quadratic fields, sqrt\(2\) and "
                                      r"sqrt\(3\)"),
                   id=f"{name}-two-quadratic-fields")
      for name, call in (
          ("two-slope-map",
           lambda: TwoSlopeMap(*MIXED_SLOPES, Fraction(1, 2))),
          ("subdivision-lengths",
           lambda: subdivision(*MIXED_SLOPES).lengths()),
          ("twist-mu", lambda: twist_mu("A", MIXED)),
          ("mu-path", lambda: list(mu_path("A", MIXED))),
          ("apply-word", lambda: apply_word("A", MIXED_ROOM)),
          ("quadratic-order",
           lambda: QuadraticNumber(0, 1, 2) < QuadraticNumber(0, 1, 3)))],
    # a call that combines nothing answers exactly: two fields are
    # refused where they are first combined, not where they enter
    pytest.param(lambda: gauss_contraction(MIXED, math.inf),
                 ContractionResult("", (), MIXED),
                 id="gauss-contraction-two-fields-at-an-infinite-eps"),
    pytest.param(lambda: reach_target(MIXED, (math.sqrt(2), math.sqrt(3)),
                                      1e-2),
                 ReachReport("", (("start", (math.sqrt(2), math.sqrt(3))),),
                             0.0, MIXED),
                 id="reach-target-two-fields-from-the-target"),
    pytest.param(lambda: [rauzy.survivor_measure(*MIXED_SLOPES, 0),
                          survivor_intervals(*MIXED_SLOPES, 0)],
                 [1, [(0, 1)]],
                 id="survivor-walk-two-fields-at-depth-0"),
    pytest.param(lambda: list(mu_path("", MIXED)), [MIXED],
                 id="mu-path-two-fields-along-the-empty-word"),
    pytest.param(lambda: reach_target(DilationParams(-0.5, 0.5), (1, 1),
                                      1e-2),
                 (ValueError, "starts from the open positive quadrant"),
                 id="reach-target-start-outside-the-quadrant"),
    pytest.param(lambda: reach_target(DilationParams(math.inf, 1.0), (1, 1),
                                      1e-2),
                 (ValueError, r"start \(inf, 1.0\) must be finite"),
                 id="reach-target-start-past-the-float-range"),
    pytest.param(lambda: reach_target(DilationParams(0.5, 0.5), (-1, 1),
                                      1e-2),
                 (ValueError, "target must lie in the open positive"),
                 id="reach-target-target-outside-the-quadrant"),
    pytest.param(lambda: holonomy_class(DilationParams(0, 0)),
                 (ValueError, "zero parameters"),
                 id="holonomy-class-zero-parameters"),
    pytest.param(lambda: holonomy_class(DilationParams(0.5, 0.0)),
                 HolonomyClass("discrete", (1, 0)),
                 id="holonomy-class-second-parameter-zero"),
    pytest.param(lambda: holonomy_class(DilationParams(0.0, 0.5)),
                 HolonomyClass("discrete", (0, 1)),
                 id="holonomy-class-first-parameter-zero"),
    pytest.param(lambda: QuadraticNumber(1, 1, 2) / 0,
                 (ZeroDivisionError, "division by zero"),
                 id="quadratic-division-by-zero"),
    pytest.param(lambda: (1 + QuadraticNumber(0, 1, 2)).as_fraction(),
                 (ValueError, "value is irrational"),
                 id="quadratic-irrational-as-fraction"),
    # a float operand is refused by each operator (NotImplemented) and
    # then by float's reflected one
    *[pytest.param(lambda op=op: op(QuadraticNumber(1, 1, 2), 0.5),
                   (TypeError, "unsupported operand type"),
                   id=f"quadratic-{op.__name__}-float")
      for op in (operator.add, operator.sub, operator.mul,
                 operator.truediv)],
    # a float part or a radicand that is not an int is refused, as
    # `quadratic` refuses a float, not truncated (2.7 would read as 2) or
    # read as its dyadic value
    *[pytest.param(lambda parts=parts: QuadraticNumber(*parts),
                   (TypeError, "exact arithmetic does not accept the parts"),
                   id=f"quadratic-refuses-{name}")
      for name, parts in (("a-float-radicand", (0, 1, 2.7)),
                          ("float-parts", (0.1, 0.5, 2)),
                          ("a-float-irrational-part", (1, 0.5, 2)),
                          ("a-fraction-radicand", (0, 1, Fraction(2))))],
    pytest.param(lambda: setattr(QuadraticNumber(1, 1, 2), "a", 2),
                 (AttributeError, "QuadraticNumber is immutable"),
                 id="quadratic-set-a-field"),
    pytest.param(lambda: build_room((1, 0), (0, 1), PARAMS).params is PARAMS,
                 True, id="build-room-keeps-a-params-record"),
    # the exact determinants 1e400 and 1e-400 leave the float range
    *[pytest.param(lambda s=s: basis_of(canonicalize(
          build_room((s, 0.0), (0.0, s), (1, 1)))), UNIT_BASIS,
                   id=f"canonicalize-a-basis-at-{s:g}")
      for s in (1e200, 1e-200)],
    # a mixed basis crossed its floats and cancelled, while its twin of
    # Fractions crossed exactly
    pytest.param(lambda: basis_of(canonicalize(
        build_room((Fraction(1, 3), 3.0), (1e8, 9e8 + 1), (1, 1)))),
                 basis_of(canonicalize(build_room(
                     (Fraction(1, 3), Fraction(3)),
                     (Fraction(10 ** 8), Fraction(9 * 10 ** 8 + 1)),
                     (1, 1)))),
                 id="canonicalize-a-mixed-basis-as-its-fraction-twin"),
    # no float geometry can be built on a quadratic coordinate
    pytest.param(lambda: build_room((QuadraticNumber(0, 1, 2), 0),
                                    (0, QuadraticNumber(3)), (1, 1)),
                 (TypeError, "Rational instance"),
                 id="room-refuses-a-quadratic-coordinate"),
    # no float geometry can be built on an exact coordinate past the
    # float range, and the NaN refusal's message reads none
    *[pytest.param(lambda e1=e1, e2=e2: build_room(e1, e2, (1, 1)),
                   (ValueError, "a basis coordinate lies outside the float "
                                "range"),
                   id=f"room-refuses-{name}-past-the-float-range")
      for name, e1, e2 in (
          ("an-int", (10 ** 400, 0), (0, 1)),
          ("a-fraction-beside-a-nan", (math.nan, 0.0),
           (Fraction(10 ** 400, 3), 1)))],
    # 1 + rho_a rounds the 1 away: the R factor's matrix [[0, 1],
    # [-rho_a, 1 + rho_a]] would leave the R leaf dividing by 0, and the
    # walk on images of 0 and 1 reads it within the stated bound
    *[pytest.param(lambda call=call: oracles.meets_float_walk_bound(
          call, 1e16, 1e-17, 1), True, id=f"float-{name}-divides-by-0")
      for name, call in (
          ("survivor-intervals", lambda a, b: survivor_intervals(a, b, 1)),
          ("survivor-measure", lambda a, b: rauzy.survivor_measure(a, b, 1)))],
    # 1e-200 * 1e200 and 0.75 * (1/0.75) round to 1.0, but the exact
    # products of the floats lie below 1: the letter L is free, as in
    # the exact walk, and the measure is 1, not 1e-200 or 3/7
    *[pytest.param(lambda a=a, b=b, call=call: oracles.meets_float_walk_bound(
          call, a, b, 1), True, id=f"float-{name}-on-a-product-rounded-to-1")
      for name, a, b, call in (
          ("survivor-intervals", 1e-200, 1e200,
           lambda a, b: survivor_intervals(a, b, 1)),
          ("survivor-measure", 0.75, 1 / 0.75,
           lambda a, b: rauzy.survivor_measure(a, b, 1)))],
    # a float slope beside an int: the pair is read as two floats, so
    # the float 1/3 times 3, which rounds to 1.0, is decided on its exact
    # side of 1 too
    *[pytest.param(lambda call=call: oracles.meets_float_walk_bound(
          call, 1 / 3, 3, 1), True,
          id=f"mixed-{name}-on-a-product-rounded-to-1")
      for name, call in (
          ("survivor-intervals", lambda a, b: survivor_intervals(a, b, 1)),
          ("survivor-measure", lambda a, b: rauzy.survivor_measure(a, b, 1)))],
    # a few leaves' entries overflow, and their endpoints read inf/inf;
    # in the second, an s alone overflows, and its endpoint read 0.0 where
    # the exact one is 1e-250
    *[pytest.param(lambda a=a, b=b, n=n: survivor_intervals(a, b, n),
                   (ValueError, re.escape(f"slopes ({a!r}, {b!r}) to depth "
                                          f"{n} left the float range")),
                   id=f"float-survivor-intervals-{kind}-past-the-float-range")
      for kind, a, b, n in (("nan", 5e-324, 1e200, 8),
                            ("zero", 1e250, 5e-324, 6))],
    pytest.param(KINK.jumps, [], id="kink-has-no-jumps"),
    pytest.param(lambda: restrict_to_image(OVERLAP),
                 (NotReducible, "restricted map is not a valid two-slope "
                                "map: branch images overlap"),
                 id="restrict-to-image-overlap-past-the-rescaled-slack"),
    pytest.param(lambda: restrict_to_image(SPILL),
                 (NotReducible, "restriction does not map the image "
                                "interval into itself"),
                 id="restrict-to-image-spills-below-the-image"),
    # TSM halts at once with the 2-cycle (1/6, 5/6); a chart that is not
    # its map's sends the lift's seed off the cycle
    pytest.param(lambda: rauzy._pull_back_cycle(TSM, TSM, [AffineChart(2, 0)],
                                                2),
                 (NonConvergence, "cycle lift does not return to its first "
                                  "point after its period of 2 steps"),
                 id="pull-back-cycle-through-a-foreign-chart"),
    # the exact TSM's cycle seed is 1/6, and a chart that shifts it by
    # 1/3 or by 11/6 pulls it back onto the break point or out of [0, 1]
    pytest.param(lambda: rauzy._pull_back_cycle(
                     EXACT_TSM, EXACT_TSM, [(1, Fraction(1, 6) - HALF)], 2),
                 (AtDiscontinuity, r"^map is undefined at its break point "
                                   r"1/2$"),
                 id="pull-back-cycle-seed-on-the-break-point"),
    pytest.param(lambda: rauzy._pull_back_cycle(
                     EXACT_TSM, EXACT_TSM, [(1, Fraction(1, 6) - 2)], 2),
                 (ValueError, r"^2 is outside \[0, 1\]$"),
                 id="pull-back-cycle-seed-outside-the-unit-interval"),
]


@pytest.mark.parametrize("call, expected", CASES)
def test_edge_path(call, expected):
    if type(expected) is tuple:
        exc, match = expected
        with pytest.raises(exc, match=match):
            call()
    else:
        assert call() == expected


def test_floor_rows_start_from_a_wrong_float_floor():
    assert (float(BELOW_ZERO), float(ABOVE_ZERO)) == (2.0, -4.0)
    assert -1 < BELOW_ZERO < 0 < ABOVE_ZERO < 1


def test_a_flight_that_reaches_the_door_has_no_return(monkeypatch):
    # no float input is known to reach the door within DOOR_ANGLE_TOL
    # of door-parallel, so the tracer is stubbed to end each flight there
    def to_the_door(heading, start):
        return RayTrace((), 1.0, "door", (0.0, 0.0))

    monkeypatch.setattr(surface, "trace_ray", to_the_door)
    theta = sum(ROOM.inward_directions()) / 2
    with pytest.raises(NotTransverse, match="off the section reaches the "
                                            "door"):
        first_return_map(Direction(ROOM, theta), (0, 2))
