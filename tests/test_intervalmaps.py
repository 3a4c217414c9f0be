"""Two-slope maps, hole cycles, and piecewise-affine plumbing."""

import math
import random
from fractions import Fraction

import pytest

from dilatorus.errors import AtDiscontinuity, NotInHole, NotReducible
from dilatorus.intervalmaps import (AffineBranch, PiecewiseAffineMap,
                                    TwoSlopeMap,
                                    attracting_cycle_in_hole, downward_jump,
                                    evaluate, restrict_to_image,
                                    thresholds)
from dilatorus import rauzy
from dilatorus.quadratics import QuadraticNumber
import oracles

SEED = 20260817
HALF = Fraction(1, 2)


def test_constructor_guards():
    with pytest.raises(ValueError):
        TwoSlopeMap(1.5, 1.5, 0.5)       # both slopes above 1
    with pytest.raises(ValueError):
        TwoSlopeMap(0.5, 0.5, 1.5)       # break point outside (0, 1)
    with pytest.raises(ValueError):
        TwoSlopeMap(Fraction(1, 2), Fraction(3, 2), Fraction(1, 10))


def test_evaluate_branches_and_discontinuity():
    tsm = TwoSlopeMap(HALF, HALF, HALF)
    assert evaluate(tsm, Fraction(1, 6)) == Fraction(5, 6)
    assert evaluate(tsm, Fraction(5, 6)) == Fraction(1, 6)
    with pytest.raises(AtDiscontinuity):
        evaluate(tsm, HALF)


def test_injectivity_bound_is_enforced():
    # rho_b*(1-x_t) > 1 - rho_a*x_t overlaps the branch images
    with pytest.raises(ValueError):
        TwoSlopeMap(Fraction(3, 2), Fraction(1, 2), Fraction(3, 5))


def test_exact_cycle_in_hole():
    tsm = TwoSlopeMap(HALF, HALF, HALF)
    cycle = attracting_cycle_in_hole(tsm)
    assert cycle.period == 2
    assert set(cycle.points) == {Fraction(1, 6), Fraction(5, 6)}
    assert cycle.multiplier == Fraction(1, 4)
    assert cycle.multiplier < 1


def test_no_hole_no_cycle():
    # x_t in the B-winner region: the break point is captured
    with pytest.raises(NotInHole):
        attracting_cycle_in_hole(TwoSlopeMap(HALF, HALF, Fraction(1, 5)))


def test_cycle_matches_brute_force_oracle():
    rng = random.Random(SEED)
    hits = 0
    while hits < 40:
        ra = math.exp(rng.uniform(-1.5, 0.8))
        rb = math.exp(rng.uniform(-1.5, 0.8))
        if ra > 1.0 and rb > 1.0:
            continue
        xt = rng.uniform(0.05, 0.95)
        try:
            tsm = TwoSlopeMap(ra, rb, xt)
            cycle = attracting_cycle_in_hole(tsm)
        except (ValueError, NotInHole):
            continue
        oracle = oracles.find_periodic_oracle(tsm)
        assert oracle.period == cycle.period
        assert min(abs(p - q) for p in cycle.points
                   for q in oracle.points) < 1e-8
        hits += 1


def _law_at(pam, y):
    """The value at y of the law of the branch whose [lo, hi] holds y."""
    branch, = (b for b in pam.branches if b.lo <= y <= b.hi)
    return branch.value(y)


def test_restrict_to_image_recovers_conjugated_map():
    # TwoSlopeMap(2, 1/3, 1/4) conjugated onto [1, 3] by y = 2x + 1
    pam = PiecewiseAffineMap((
        AffineBranch(Fraction(1), Fraction(3, 2), Fraction(2), Fraction(0)),
        AffineBranch(Fraction(3, 2), Fraction(3), Fraction(1, 3),
                     Fraction(1, 2)),
    ))
    reduced, chart = restrict_to_image(pam)
    assert reduced.rho_a == 2
    assert reduced.rho_b == Fraction(1, 3)
    assert reduced.x_t == Fraction(1, 4)
    # the chart conjugates the restriction to the normal form
    for y in (Fraction(11, 10), Fraction(7, 5), Fraction(2), Fraction(14, 5)):
        assert chart.apply(_law_at(pam, y)) == evaluate(reduced,
                                                        chart.apply(y))


def test_an_exact_jump_below_the_float_tolerance_is_kept():
    tiny = Fraction(1, 10 ** 15)
    pam = PiecewiseAffineMap((
        AffineBranch(Fraction(0), HALF, HALF, HALF),
        AffineBranch(HALF, Fraction(1), HALF, HALF + tiny),
    ))
    assert len(pam.branches) == 2
    assert pam.jumps() == [(HALF, Fraction(3, 4), Fraction(3, 4) + tiny)]
    # the same jump in floats lies inside MERGE_TOL and merges away
    floats = PiecewiseAffineMap(tuple(
        AffineBranch(*map(float, (b.lo, b.hi, b.slope, b.intercept)))
        for b in pam.branches))
    assert len(floats.branches) == 1 and floats.jumps() == []


def _split(cuts, law_of):
    """Branches between consecutive `cuts`, each with the law
    `law_of(lo)` gives as (slope, intercept)."""
    return tuple(AffineBranch(lo, hi, *law_of(lo))
                 for lo, hi in zip(cuts, cuts[1:]))


def test_a_map_is_stored_merged_whatever_its_split():
    # law (1/2, 1/2) on [0, 1/2) and (1/2, -1/4) on [1/2, 1]
    def law(lo):
        return (HALF, HALF) if lo < HALF else (HALF, -Fraction(1, 4))

    fine_left = PiecewiseAffineMap(_split(
        (0, Fraction(1, 8), Fraction(3, 8), HALF, 1), law))
    fine_right = PiecewiseAffineMap(_split(
        (0, HALF, Fraction(5, 8), Fraction(7, 8), 1), law))
    coarse = PiecewiseAffineMap(_split((0, HALF, 1), law))
    assert fine_left == fine_right == coarse
    assert fine_left.branches == fine_right.branches == coarse.branches
    assert len(coarse.branches) == 2
    # building from stored branches fuses nothing more
    assert PiecewiseAffineMap(coarse.branches).branches == coarse.branches


def test_a_same_law_pair_must_still_be_contiguous():
    for gap in (Fraction(1, 4), Fraction(1, 10 ** 15)):
        with pytest.raises(ValueError, match="contiguous"):
            PiecewiseAffineMap((AffineBranch(Fraction(0), HALF, HALF, HALF),
                                AffineBranch(HALF + gap, Fraction(1), HALF,
                                             HALF)))
    with pytest.raises(ValueError, match="contiguous"):
        PiecewiseAffineMap((AffineBranch(0.0, 0.5, 0.5, 0.5),
                            AffineBranch(0.5 + 1e-6, 1.0, 0.5, 0.5)))


def test_refusals_print_exact_values_past_the_float_range():
    # float() of these values overflowed before the refusal was raised
    big = Fraction(10 ** 400)
    with pytest.raises(ValueError, match="branch images overlap"):
        TwoSlopeMap(HALF, big, HALF)
    pam = PiecewiseAffineMap((
        AffineBranch(Fraction(0), big / 2, Fraction(1, 4), big / 4),
        AffineBranch(big / 2, big, Fraction(1, 4), -big / 8),
    ))                                  # image [0, 3*big/8] misses big/2
    with pytest.raises(NotReducible, match="not interior"):
        restrict_to_image(pam)
    # float values print as they did through float()
    with pytest.raises(ValueError) as info:
        TwoSlopeMap(0.5, 1.5, 0.1)
    assert str(info.value) == (f"branch images overlap: rho_b*(1-x_t)="
                               f"{1.5 * (1 - 0.1)!r} exceeds 1-rho_a*x_t="
                               f"{1 - 0.5 * 0.1!r}")


def test_mixed_data_with_an_exact_domain_past_the_float_range_is_refused():
    # the float slope makes the allowance a float, scaled by the domain
    # ends; float() of the exact end overflowed before the refusal
    with pytest.raises(ValueError, match="high end lies outside the float"):
        PiecewiseAffineMap((AffineBranch(Fraction(0), Fraction(10 ** 400),
                                         0.5, 0.0),))


def test_exact_branches_must_meet_exactly():
    with pytest.raises(ValueError, match="contiguous"):
        PiecewiseAffineMap((
            AffineBranch(Fraction(0), HALF, HALF, Fraction(0)),
            AffineBranch(HALF + Fraction(1, 10 ** 15), Fraction(1), HALF,
                         HALF),
        ))


def test_an_exact_map_past_the_float_range_is_read_exactly():
    # its allowance is 0 without reading the domain ends as floats
    big = Fraction(10 ** 400)
    pam = PiecewiseAffineMap((
        AffineBranch(Fraction(0), big, HALF, big),
        AffineBranch(big, 2 * big, HALF, Fraction(0)),
    ))
    assert pam.jumps() == [(big, HALF * big + big, HALF * big)]
    assert restrict_to_image(pam)[0] == TwoSlopeMap(HALF, HALF, HALF)


def test_restrict_to_image_keeps_quadratic_data_exact():
    r2 = QuadraticNumber(0, 1, 2)
    pam = PiecewiseAffineMap((
        AffineBranch(QuadraticNumber(0), QuadraticNumber(HALF), r2 / 4,
                     QuadraticNumber(HALF)),
        AffineBranch(QuadraticNumber(HALF), QuadraticNumber(1), r2 / 4,
                     -r2 / 8),
    ))
    reduced, chart = restrict_to_image(pam)
    width = HALF + r2 / 8          # the image interval is [0, 1/2 + sqrt2/8]
    assert reduced == TwoSlopeMap(r2 / 4, r2 / 4, HALF / width)
    assert (chart.scale, chart.offset) == (1 / width, 0)
    for y in (Fraction(1, 10), Fraction(2, 5), Fraction(3, 5)):
        assert chart.apply(_law_at(pam, y)) == evaluate(reduced,
                                                        chart.apply(y))


def test_restrict_to_image_rejects_upward_jump():
    pam = PiecewiseAffineMap((
        AffineBranch(0.0, 0.5, 0.2, 0.0),     # image [0, 0.1]
        AffineBranch(0.5, 1.0, 0.2, 0.8),     # image [0.9, 1.0]
    ))
    with pytest.raises(NotReducible):
        restrict_to_image(pam)


def test_downward_jump_decodes_the_one_jump_of_two_branches():
    down = PiecewiseAffineMap((
        AffineBranch(0.0, 0.5, 0.5, 0.5),     # image [0.5, 0.75]
        AffineBranch(0.5, 1.0, 0.5, -0.25),   # image [0, 0.25]
    ))
    assert downward_jump(down) == (0.5, 0.0, 0.75)
    up = PiecewiseAffineMap((
        AffineBranch(0.0, 0.5, 0.2, 0.0),
        AffineBranch(0.5, 1.0, 0.2, 0.8),
    ))
    with pytest.raises(NotReducible, match="the jump goes upward"):
        downward_jump(up)
    single = PiecewiseAffineMap((AffineBranch(0.0, 1.0, 0.5, 0.25),))
    with pytest.raises(NotReducible,
                       match="found 1 branches and 0 jumps"):
        downward_jump(single)
    # restrict_to_image reports the decoder's refusal unchanged
    with pytest.raises(NotReducible, match="the jump goes upward"):
        restrict_to_image(up)


def test_thresholds_are_the_hole_of_the_cycle_and_of_rauzy():
    assert rauzy.thresholds is thresholds
    lo, hi = thresholds(HALF, HALF)
    assert (lo, hi) == (Fraction(1, 3), Fraction(2, 3))
    attracting_cycle_in_hole(TwoSlopeMap(HALF, HALF, HALF))
    for x_t in (lo, hi):
        with pytest.raises(NotInHole, match="not strictly inside"):
            attracting_cycle_in_hole(TwoSlopeMap(HALF, HALF, x_t))
