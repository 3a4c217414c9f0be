"""Renormalization of two-slope maps and the survivor-set bookkeeping."""

import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dilatorus import rauzy
from dilatorus.errors import DilatorusError, NonConvergence, NotRenormalizable
from dilatorus.geometry import square_room
from dilatorus.intervalmaps import AffineChart, TwoSlopeMap, evaluate
from dilatorus.quadratics import QuadraticNumber
from dilatorus.rauzy import (classify_step, induce, iterate_induction,
                             subdivision, survivor_intervals,
                             survivor_measure, thresholds)
from dilatorus.surface import classify_direction
import oracles

SEED = 20260817
HALF = Fraction(1, 2)
LN2 = math.log(2.0)


def test_subdivision_exact_thirds():
    sub = subdivision(HALF, HALF)
    assert sub.lengths() == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_subdivision_lengths_random():
    rng = random.Random(SEED)
    for _ in range(500):
        ra = math.exp(rng.uniform(-2.0, 2.0))
        rb = math.exp(rng.uniform(-2.0, 2.0))
        left, hole, right = subdivision(ra, rb).lengths()
        assert abs(left - rb / (1.0 + rb)) < 1e-12
        want_hole = max(1.0 - ra * rb, 0.0) / ((1.0 + ra) * (1.0 + rb))
        assert abs(hole - want_hole) < 1e-12
        assert abs(right - ra / (1.0 + ra)) < 1e-12
        # the three pieces tile the parameter interval when a hole exists
        if ra * rb < 1.0:
            assert abs(left + hole + right - 1.0) < 1e-12


def test_classify_step_regions():
    thr_b, thr_a = thresholds(HALF, HALF)
    assert (thr_b, thr_a) == (Fraction(1, 3), Fraction(2, 3))
    assert classify_step(*TwoSlopeMap(HALF, HALF, Fraction(1, 4))) == "L"
    assert classify_step(*TwoSlopeMap(HALF, HALF, HALF)) == "halt"
    assert classify_step(*TwoSlopeMap(HALF, HALF, Fraction(3, 4))) == "R"
    assert classify_step(*TwoSlopeMap(HALF, HALF, Fraction(1, 3))) \
        == "boundary"


def test_induce_slope_rule_exact():
    rng = random.Random(SEED + 1)
    for _ in range(200):
        ra = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        rb = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        if ra > 1 and rb > 1:
            continue
        thr_b, thr_a = thresholds(ra, rb)
        window = oracles.valid_break_window(float(ra), float(rb))
        for xt, want in ((thr_b / 2, (ra * rb, rb)),
                         ((thr_a + 1) / 2, (ra, ra * rb))):
            if not (window[0] < float(xt) < window[1]):
                continue
            try:
                step = induce(TwoSlopeMap(ra, rb, xt))
            except ValueError:
                continue
            assert (step.induced.rho_a, step.induced.rho_b) == want


def test_induce_requires_winner():
    with pytest.raises(NotRenormalizable):
        induce(TwoSlopeMap(HALF, HALF, HALF))


def test_induce_matches_first_return_oracle():
    def closed_form(ra, rb, xt):
        step = induce(TwoSlopeMap(ra, rb, xt))
        return tuple(map(float, step.induced))

    worst = oracles.compare_induction_to_simulation(closed_form, 150)
    assert worst <= 1e-9


def test_iterate_induction_halts_with_pulled_back_cycle():
    tsm = TwoSlopeMap(HALF, HALF, Fraction(1, 4))   # one B step, then halt
    outcome = iterate_induction(tsm, budget=10)
    assert outcome.terminal == "halt"
    assert outcome.word == "L"
    cycle = outcome.cycle
    assert cycle is not None
    # the lifted cycle really is periodic for the original map
    x = cycle.points[0]
    for _ in range(cycle.period):
        x = evaluate(tsm, x)
    assert x == cycle.points[0]


def test_iterate_induction_budget():
    # a parameter deep in the survivor set outlives a short budget
    lo, hi = oracles.word_interval_oracle(HALF, HALF, "LR" * 10)
    tsm = TwoSlopeMap(HALF, HALF, (lo + hi) / 2)
    outcome = iterate_induction(tsm, budget=7)
    assert outcome.terminal == "budget_exhausted"
    assert outcome.word == "LRLRLRL"


def test_iterate_induction_rejects_negative_budget():
    tsm = TwoSlopeMap(HALF, HALF, Fraction(1, 4))
    with pytest.raises(ValueError, match="budget"):
        iterate_induction(tsm, budget=-1)
    # budget 0 still classifies the first step
    assert iterate_induction(tsm, budget=0).terminal == "budget_exhausted"
    assert iterate_induction(TwoSlopeMap(HALF, HALF, HALF),
                             budget=0).terminal == "halt"


def _outcome_bits(outcome):
    """An outcome with every float as its hex string, so that equal means
    bit-equal."""
    def bits(x):
        return x.hex() if isinstance(x, float) else x
    cycle = outcome.cycle
    return (outcome.word, outcome.terminal,
            None if cycle is None else (tuple(map(bits, cycle.points)),
                                        cycle.period, bits(cycle.multiplier)))


def _exact_maps(rng: random.Random, count: int) -> list:
    """Fraction maps: seeded winner triples made rational, break points
    inside deep word intervals, which outlast short budgets, and the
    word intervals' inner ends, where a later step ties a threshold."""
    maps = []
    while len(maps) < count:
        ra, rb, xt, _ = oracles.random_winner_triple(rng)
        try:
            maps.append(TwoSlopeMap(*(Fraction(v).limit_denominator(10 ** 4)
                                      for v in (ra, rb, xt))))
        except ValueError:
            continue
    for word in ("LR" * 6, "LLR" * 3, "RRL" * 3):
        lo, hi = oracles.word_interval_oracle(HALF, Fraction(2, 3), word)
        maps.append(TwoSlopeMap(HALF, Fraction(2, 3), (lo + hi) / 2))
    for word in ("LLR", "RRL", "LRL"):
        for end in oracles.word_interval_oracle(HALF, Fraction(2, 3), word):
            maps.append(TwoSlopeMap(HALF, Fraction(2, 3), end))
    return maps


def _near_rotation_maps(rng: random.Random, count: int) -> list:
    """Float maps with slopes (2^-s, 2^s), whose product is 1, and a
    break point just inside the injectivity boundary x*, where the map is
    close to a circle rotation: their holes open late, after hundreds of
    steps, on cycles of hundreds to thousands of points."""
    maps = []
    for _ in range(count):
        s = rng.choice((1, 2, 3))
        ra, rb = rng.choice(((2.0 ** -s, 2.0 ** s), (2.0 ** s, 2.0 ** -s)))
        x_star = (1.0 - rb) / (ra - rb)
        offset = 10.0 ** rng.uniform(-5.0, -2.0)
        maps.append(TwoSlopeMap(ra, rb, x_star + offset if rb > 1.0
                                else x_star - offset))
    return maps


def _outcome_or_refusal(fn, tsm, budget):
    """`_outcome_bits` of fn(tsm, budget), or the type and message of
    the domain error it raises."""
    try:
        return _outcome_bits(fn(tsm, budget))
    except DilatorusError as exc:
        return type(exc), str(exc)


def test_iterate_induction_matches_the_plain_loop_oracle():
    rng = random.Random(SEED + 14)
    floats = []
    for _ in range(500):
        ra, rb, xt, _ = oracles.random_winner_triple(rng)
        floats.append(TwoSlopeMap(ra, rb, xt))
    # a slope past FLOAT_SLOPE_MIN stops the induction on its guard
    floats.append(TwoSlopeMap(0.5, 1e-151, 1e-152))
    terminals = set()
    for tsm in floats + _exact_maps(rng, 60):
        budget = rng.randint(0, 600)
        got = iterate_induction(tsm, budget)
        want = oracles.iterate_induction_oracle(tsm, budget)
        assert _outcome_bits(got) == _outcome_bits(want), (tsm, budget)
        terminals.add(got.terminal)
    assert terminals == {"halt", "budget_exhausted", "boundary"}
    # long lifts: the library's inline branch laws against one
    # intervalmaps.evaluate per point
    periods = []
    for tsm in _near_rotation_maps(rng, 80):
        got = iterate_induction(tsm, 600)
        want = oracles.iterate_induction_oracle(tsm, 600)
        assert _outcome_bits(got) == _outcome_bits(want), tsm
        if got.cycle is not None:
            periods.append(got.cycle.period)
    assert sum(period >= 1000 for period in periods) >= 3
    # the refusals: an induced map that rounding made invalid, and a
    # period past RECONSTRUCT_CAP, with the same messages
    refusals = set()
    for tsm in _boundary_maps():
        got = _outcome_or_refusal(iterate_induction, tsm, 3000)
        want = _outcome_or_refusal(oracles.iterate_induction_oracle, tsm,
                                   3000)
        assert got == want, tsm
        refusals.add(got[0])
    assert refusals == {NotRenormalizable, NonConvergence}


def _winner_maps(rng: random.Random, count: int, exact: bool) -> list:
    """Seeded maps whose step has a winner by `oracles.induction_step_oracle`:
    Fraction maps when `exact`, else float maps whose x_t is a multiple
    of 2^-30, so that 1 - x_t is a float too."""
    maps = []
    while len(maps) < count:
        ra, rb, xt, _ = oracles.random_winner_triple(rng)
        if exact:
            ra, rb, xt = (Fraction(v).limit_denominator(10 ** 4)
                          for v in (ra, rb, xt))
        else:
            xt = round(xt * 2.0 ** 30) / 2.0 ** 30
        try:
            tsm = TwoSlopeMap(ra, rb, xt)
        except ValueError:
            continue
        if oracles.induction_step_oracle(*map(Fraction, (ra, rb, xt))):
            maps.append(tsm)
    return maps


def _step_of(tsm):
    step = induce(tsm)
    induced = step.induced
    return (step.letter, (induced.rho_a, induced.rho_b, induced.x_t),
            (step.chart.scale, step.chart.offset))


def test_induce_equals_the_exact_first_return_oracle():
    maps = _winner_maps(random.Random(SEED + 16), 240, exact=True)
    for tsm in maps:
        want = oracles.induction_step_oracle(tsm.rho_a, tsm.rho_b, tsm.x_t)
        assert _step_of(tsm) == want, tsm
    assert {_step_of(tsm)[0] for tsm in maps} == {"L", "R"}


def test_induce_rounds_once_where_its_formulas_round_once():
    # With 1 - x_t a float, the induced slope product and the chart's
    # scale and offset are each one rounding of exact operands, so the
    # float step gives the exact step correctly rounded.  An
    # algebraically equal but longer formula rounds twice.
    for tsm in _winner_maps(random.Random(SEED + 17), 400, exact=False):
        letter, (ra, rb, _), (scale, offset) = _step_of(tsm)
        want_letter, (wa, wb, _), (w_scale, w_offset) = \
            oracles.induction_step_oracle(*map(Fraction, (tsm.rho_a,
                                                          tsm.rho_b,
                                                          tsm.x_t)))
        assert letter == want_letter, tsm
        assert (ra, rb, scale, offset) == tuple(
            map(float, (wa, wb, w_scale, w_offset))), tsm


def test_iterate_induction_classifies_each_step_once(monkeypatch):
    calls = []
    real = rauzy.classify_step

    def counted(*triple):
        calls.append(triple)
        return real(*triple)

    monkeypatch.setattr(rauzy, "classify_step", counted)
    rng = random.Random(SEED + 15)
    for tsm in _exact_maps(rng, 20):
        for budget in (0, 3, 40):
            calls.clear()
            outcome = iterate_induction(tsm, budget)
            assert len(calls) == len(outcome.word) + 1, (tsm, budget)


def _maps_and_charts_built(fn) -> int:
    """How many TwoSlopeMaps and AffineCharts fn() builds and how many
    times it calls intervalmaps.evaluate, counted by a profile hook."""
    codes = {TwoSlopeMap.__new__.__code__, AffineChart.__new__.__code__,
             evaluate.__code__}
    built = 0

    def hook(frame, event, _arg):
        nonlocal built
        built += event == "call" and frame.f_code in codes
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return built


def test_iterate_induction_builds_no_map_or_chart_per_step():
    # maps near the circle rotation with slopes (1/2, 2), whose
    # injectivity boundary is x* = 2/3, run the whole budget; the one
    # from the flow monitor takes 520 letters, then lifts a cycle of
    # 5,169 points
    near = TwoSlopeMap(0.5, 2.0, 2.0 / 3.0 + 1e-7)
    rotation = TwoSlopeMap(0.5, 2.0, float.fromhex("0x1.558db13899badp-1"))
    runs = [(TwoSlopeMap(0.5, 0.5, 0.25), 10),      # "L", then a 3-cycle
            (near, 40), (near, 600), (rotation, 600)]
    outcomes = [iterate_induction(tsm, budget) for tsm, budget in runs]
    assert [len(o.word) for o in outcomes] == [1, 40, 600, 520]
    assert outcomes[-1].cycle.period == 5169
    counts = [_maps_and_charts_built(lambda: iterate_induction(tsm, budget))
              for tsm, budget in runs]
    assert counts == [counts[0]] * len(runs)
    # the guard sees the oracle's map, chart and evaluation per step
    assert _maps_and_charts_built(
        lambda: oracles.iterate_induction_oracle(rotation, 600)) > 5169


def test_cycle_reconstruction_cap_raises_nonconvergence(monkeypatch):
    tsm = TwoSlopeMap(HALF, HALF, Fraction(1, 4))   # halts on a 3-cycle
    assert iterate_induction(tsm, budget=10).cycle.period == 3
    monkeypatch.setattr(rauzy, "RECONSTRUCT_CAP", 0)
    with pytest.raises(NonConvergence) as info:
        iterate_induction(tsm, budget=10)
    assert info.value.bracket is None


def test_counted_period_is_the_least_return_of_the_exact_cycle():
    # the lift runs t_a + t_b steps; on exact data the cycle's first
    # point comes back exactly then and at no earlier step
    halts = 0
    for tsm in _exact_maps(random.Random(SEED + 21), 60):
        outcome = iterate_induction(tsm, budget=40)
        if outcome.terminal != "halt":
            continue
        first = outcome.cycle.points[0]
        x, k = evaluate(tsm, first), 1
        while x != first and k <= outcome.cycle.period:
            x, k = evaluate(tsm, x), k + 1
        assert k == outcome.cycle.period, tsm
        halts += 1
    assert halts >= 50


# Directions on square_room(ln 2, ln 2) whose contracting cycle passes
# within CYCLE_CLOSE_TOL of its first point before it closes; a lift
# that stopped at the first near-return reported 2^27 and 2^31.
@pytest.mark.parametrize("theta, period, multiplier", [
    (3.9935589807256697, 198, 2.0 ** 28),
    (4.877537657733258, 23, 2.0 ** 34),
])
def test_cycle_lift_does_not_stop_at_a_near_return(theta, period, multiplier):
    verdict = classify_direction(square_room(LN2, LN2), theta, budget=600)
    cycle = verdict.outcome.cycle
    assert (cycle.period, verdict.multiplier) == (period, multiplier)
    first = cycle.points[0]
    assert min(abs(x - first) for x in cycle.points[1:]) \
        < rauzy.CYCLE_CLOSE_TOL
    # the reduced map's exact twin has the same cycle
    twin = TwoSlopeMap(*map(Fraction, map(float, verdict.reduction.two_slope)))
    exact = iterate_induction(twin, budget=600).cycle
    assert (exact.period, 1 / exact.multiplier) == (period, multiplier)


def _boundary_maps():
    """60 float maps on the injectivity boundary x_t = x*, where
    rounding leaves induction either an invalid induced map or a hole
    whose cycle is far too long to lift."""
    rng = random.Random(5)
    maps = []
    for _ in range(60):
        ra, rb = rng.uniform(1.05, 4.0), rng.uniform(0.05, 0.95)
        maps.append(TwoSlopeMap(ra, rb, (1.0 - rb) / (ra - rb)))
    return maps


def test_boundary_maps_raise_only_domain_errors():
    # an induced map that rounding made invalid once escaped as ValueError
    for tsm in _boundary_maps():
        try:
            iterate_induction(tsm, budget=3000)
        except DilatorusError:
            pass


def test_an_overlong_cycle_is_refused_before_it_is_lifted(monkeypatch):
    # a lift starts from the final map's 2-cycle, so no seed means no
    # lifted point
    calls = []
    real = rauzy.attracting_cycle_in_hole

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(rauzy, "attracting_cycle_in_hole", counted)
    for tsm in _boundary_maps():
        with pytest.raises((NotRenormalizable, NonConvergence)):
            iterate_induction(tsm, budget=3000)
    assert calls == []


def test_word_intervals_contain_their_parameters():
    ra, rb = HALF, HALF
    for n in (1, 2, 3):
        intervals = survivor_intervals(ra, rb, n)
        # every word is feasible at (1/2, 1/2)
        assert len(intervals) == 2 ** n
        # every word over L, R of length n, L before R
        words = map("".join, itertools.product("LR", repeat=n))
        for word, (lo, hi) in zip(words, intervals):
            assert 0 <= lo < hi <= 1
            xt = (lo + hi) / 2
            outcome = iterate_induction(TwoSlopeMap(ra, rb, xt), budget=n)
            # the realized word matches letter for letter
            assert outcome.word[:n] == word


@pytest.mark.parametrize("ra, rb", [
    (-1.0, 0.5), (0.0, 0.5), (0.5, -Fraction(1, 2)), (Fraction(0), HALF),
    (math.nan, 0.5), (math.inf, 0.5), (0.5, math.inf),
])
def test_survivor_intervals_refuse_bad_slopes(ra, rb):
    # a negative slope divided by zero mid-walk; NaN and inf gave a NaN
    # measure, and an infinite slope the interval (nan, nan)
    with pytest.raises(ValueError, match="slopes must be"):
        survivor_intervals(ra, rb, 3)
    with pytest.raises(ValueError, match="slopes must be"):
        survivor_measure(ra, rb, 3)


def test_survivor_measure_frozen_values():
    assert survivor_measure(HALF, HALF, 0) == 1
    assert survivor_measure(HALF, HALF, 1) == Fraction(2, 3)
    assert survivor_measure(HALF, HALF, 2) == Fraction(8, 21)


def test_survivor_measure_decays_geometrically():
    for n in range(13):
        assert survivor_measure(HALF, HALF, n) <= Fraction(2, 3) ** n


def test_survivor_intervals_nest():
    outer = survivor_intervals(HALF, HALF, 1)
    inner = survivor_intervals(HALF, HALF, 2)
    for lo, hi in inner:
        assert any(a <= lo and hi <= b for a, b in outer)


# (3, 1/2) forces L at the root, (1/3, 5/2) forces R after an L, and
# (3, 2) admits no letter
EXACT_SLOPES = [(HALF, HALF), (Fraction(2, 3), Fraction(4, 5)),
                (Fraction(3), HALF), (Fraction(1, 3), Fraction(5, 2)),
                (Fraction(3), Fraction(2))]


@pytest.mark.parametrize("depth", range(10))
@pytest.mark.parametrize("ra,rb", EXACT_SLOPES, ids=str)
def test_survivor_intervals_equal_bottom_up_oracle(ra, rb, depth):
    got = survivor_intervals(ra, rb, depth)
    assert got == oracles.survivor_intervals_oracle(ra, rb, depth)
    assert all(type(x) is Fraction for interval in got for x in interval)


@pytest.mark.parametrize("ra,rb", [
    (QuadraticNumber(HALF, Fraction(1, 5), 2),
     QuadraticNumber(Fraction(1, 3), Fraction(1, 7), 2)),
    (QuadraticNumber(Fraction(3, 2), -HALF, 5),
     QuadraticNumber(Fraction(1, 3), Fraction(1, 9), 5)),
], ids=["sqrt2", "sqrt5"])
def test_survivor_intervals_equal_oracle_on_quadratic_slopes(ra, rb):
    for depth in range(7):
        assert (survivor_intervals(ra, rb, depth)
                == oracles.survivor_intervals_oracle(ra, rb, depth))


@pytest.mark.parametrize("ra,rb", EXACT_SLOPES, ids=str)
def test_survivor_intervals_near_oracle_on_floats(ra, rb):
    ra, rb = float(ra), float(rb)
    for depth in range(10):
        got = survivor_intervals(ra, rb, depth)
        want = oracles.survivor_intervals_oracle(ra, rb, depth)
        assert len(got) == len(want)
        for (lo, hi), (want_lo, want_hi) in zip(got, want):
            assert abs(lo - want_lo) <= 1e-12 and abs(hi - want_hi) <= 1e-12


# the benchmark's measure slopes: every p/q in [0.3, 0.9] with q in {5, 6, 7}
MEASURE_SLOPES = sorted({Fraction(p, q) for q in (5, 6, 7)
                         for p in range(1, q) if 0.3 <= p / q <= 0.9})
SAME_FIELD_PAIRS = [
    (QuadraticNumber(Fraction(2, 5), Fraction(1, 7), 3),
     QuadraticNumber(Fraction(5, 6), -Fraction(1, 4), 3)),
    (QuadraticNumber(Fraction(1, 3), Fraction(1, 4), 7),
     QuadraticNumber(Fraction(3, 2), -Fraction(1, 3), 7)),
]


@pytest.mark.parametrize("ra", MEASURE_SLOPES, ids=str)
def test_scaled_walk_equals_unscaled_walk_on_fractions(ra):
    for rb in MEASURE_SLOPES:
        got = survivor_intervals(ra, rb, 8)
        want = oracles.survivor_intervals_topdown_oracle(ra, rb, 8)
        assert got == want
        assert all(type(x) is Fraction for interval in got for x in interval)
        # the measure from leaf lengths is the oracle's running sum
        measure = survivor_measure(ra, rb, 8)
        assert type(measure) is Fraction
        assert measure == sum((hi - lo for lo, hi in want), Fraction(0))


# a few of those pairs are also walked to the float measures' depths in
# the benchmark, 8 and 11
DEEP_PAIRS = {(MEASURE_SLOPES[0], MEASURE_SLOPES[-1]),
              (MEASURE_SLOPES[5], MEASURE_SLOPES[5]),
              (MEASURE_SLOPES[-1], MEASURE_SLOPES[3])}


@pytest.mark.parametrize("ra", MEASURE_SLOPES, ids=str)
def test_scaled_walk_is_bit_identical_on_floats(ra):
    for rb in MEASURE_SLOPES:
        fa, fb = float(ra), float(rb)
        deep = (8, 11) if (ra, rb) in DEEP_PAIRS else ()
        for depth in (*range(7), *deep):
            leaves = oracles.survivor_leaves_topdown_oracle(fa, fb, depth)
            assert [(lo.hex(), hi.hex())
                    for lo, hi in survivor_intervals(fa, fb, depth)] \
                == [((q / s).hex(), (u / v).hex())
                    for q, s, u, v, _ in leaves]
            # the float measure is the correctly rounded sum of the
            # oracle's lengths, bit for bit
            total = math.fsum(det / s / v for _, s, _, v, det in leaves)
            assert survivor_measure(fa, fb, depth).hex() == total.hex()
            if depth in deep:
                # the exact walk of the same floats takes minutes there
                continue
            # and both lie within the stated bound of the exact walk of
            # the same floats
            for call in (survivor_intervals, survivor_measure):
                assert oracles.meets_float_walk_bound(
                    lambda a, b: call(a, b, depth), fa, fb, depth)


# from the least subnormal float to near the largest, 50 decades apart
EXTREME_SLOPES = [5e-324, *(10.0 ** e for e in range(-300, 301, 50)), 1.7e308]


def test_float_walk_gives_numbers_in_the_unit_interval_or_refuses():
    for ra, rb in itertools.product(EXTREME_SLOPES, repeat=2):
        for depth in (1, 2, 3, 4, 6, 8):
            for call in (survivor_intervals, survivor_measure):
                try:
                    got = call(ra, rb, depth)
                except ValueError as exc:
                    assert str(exc).endswith("left the float range")
                    continue
                values = [got] if type(got) is float else [
                    x for interval in got for x in interval]
                assert all(0 <= x <= 1 for x in values), (ra, rb, depth)


def test_float_walk_walks_the_exact_walks_tree():
    # 1e-250 * 1e250 rounds to 1.0, but the exact product of the two
    # floats lies below 1: the float walk decides each such product on
    # its exact side of 1, so it keeps the words the exact walk keeps
    assert survivor_measure(1e-200, 1e200, 1) == 1.0
    for ra, rb in itertools.product(EXTREME_SLOPES, repeat=2):
        for depth in (1, 2, 3, 4):
            assert (len(survivor_intervals(ra, rb, depth))
                    == len(survivor_intervals(Fraction(ra), Fraction(rb),
                                              depth))), (ra, rb, depth)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-100, max_value=0.99),
       st.integers(min_value=1, max_value=3), st.booleans())
def test_float_walk_keeps_the_exact_tree_near_a_product_of_1(a, m, swap):
    # b = a**-m rounded: the slope product a**m * b lies within rounding
    # of 1, on one side or the other
    b = a ** -m
    ra, rb = (b, a) if swap else (a, b)
    for depth in (m + 1, m + 3):
        assert (len(survivor_intervals(ra, rb, depth))
                == len(survivor_intervals(Fraction(ra), Fraction(rb),
                                          depth))), (ra, rb, depth)


@pytest.mark.parametrize("ra,rb", [(0.6, 1.3), (0.75, 1 / 0.75),
                                   (1e-250, 1e250), (2.0 ** 0.5, 0.5)])
def test_straddle_products_lie_on_the_exact_side_of_1(ra, rb):
    # the path of nodes whose slopes straddle 1, walked on the exact
    # values of the same floats: each product the float walk reads is on
    # its exact product's side of 1
    path = rauzy._straddle_products(ra, rb, 20)
    x, y, fx, fy = Fraction(ra), Fraction(rb), ra, rb
    replaced = 0
    for k in reversed(range(20)):
        if not (x < 1 < y or y < 1 < x):
            break
        exact, got = x * y, path.get((k, fx, fy), fx * fy)
        replaced += (k, fx, fy) in path
        assert (got < 1) == (exact < 1) and got != 1, (k, got)
        assert math.isclose(got, exact, rel_tol=1e-9)
        if (exact < 1) == (x < 1):
            x, fx = exact, got
        else:
            y, fy = exact, got
    # only the products that rounded to 1 or past it are held
    assert len(path) == replaced
    assert bool(path) == ((ra, rb) in ((0.75, 1 / 0.75), (1e-250, 1e250)))


@pytest.mark.parametrize("row", [0, 1], ids=["numerators", "denominators"])
def test_word_intervals_refuse_row_walks_of_different_lengths(monkeypatch,
                                                              row):
    # the walks of the two rows are zipped strictly: a walk one leaf short
    # raises where a plain zip would drop the other walk's last leaf
    walk = rauzy._walk

    def short_of_a_leaf(root, path):
        leaves = list(walk(root, path))
        return leaves[:-1] if root[4] == row else leaves

    monkeypatch.setattr(rauzy, "_walk", short_of_a_leaf)
    with pytest.raises(ValueError, match="zip"):
        survivor_intervals(Fraction(1, 2), Fraction(1, 2), 3)
    with pytest.raises(ValueError, match="zip"):
        survivor_intervals(0.5, 0.5, 3)


def test_a_pair_with_a_float_slope_walks_as_two_floats():
    # the Fraction 1/3 is read as the float 1/3, whose product with 3.0
    # lies below 1, where the exact 1/3 * 3 is 1
    for depth in range(6):
        assert (survivor_measure(Fraction(1, 3), 3.0, depth)
                == survivor_measure(1 / 3, 3.0, depth))
        assert (survivor_intervals(3, 1 / 3, depth)
                == survivor_intervals(3.0, 1 / 3, depth))


@pytest.mark.parametrize("ra,rb", SAME_FIELD_PAIRS, ids=["sqrt3", "sqrt7"])
def test_scaled_walk_equals_unscaled_walk_on_quadratic_slopes(ra, rb):
    for depth in range(7):
        assert (survivor_intervals(ra, rb, depth)
                == oracles.survivor_intervals_topdown_oracle(ra, rb, depth))
    want = 0
    for lo, hi in oracles.survivor_intervals_topdown_oracle(ra, rb, 6):
        want = want + (hi - lo)
    assert survivor_measure(ra, rb, 6) == want


@pytest.mark.parametrize("ra,rb", [(Fraction(3, 5), Fraction(5, 7)),
                                   (HALF, Fraction(4, 5))], ids=str)
def test_pairwise_exact_measure_equals_running_sum(ra, rb):
    for depth in (0, 1, 5, 9):
        want = Fraction(0)
        for lo, hi in oracles.survivor_intervals_topdown_oracle(ra, rb, depth):
            want += hi - lo
        assert survivor_measure(ra, rb, depth) == want
    # no feasible word: the measure is an exact zero
    assert survivor_measure(Fraction(3), Fraction(2), 1) == 0


def _running_sum_of_oracle(ra, rb, depth) -> Fraction:
    intervals = oracles.survivor_intervals_topdown_oracle(
        Fraction(ra), Fraction(rb), depth)
    return sum((hi - lo for lo, hi in intervals), Fraction(0))


@pytest.mark.parametrize("ra,rb", [
    (1, 1), (2, 1), (1, 3), (3, 1), (3, 2),     # int slopes
    (Fraction(3), HALF), (Fraction(1, 3), Fraction(5, 2)),  # forced chains
    (Fraction(3), Fraction(2)),                 # no letter at all
], ids=str)
def test_leaf_length_measure_equals_running_sum(ra, rb):
    assert survivor_measure(ra, rb, 0) == 1
    for depth in range(10):
        got = survivor_measure(ra, rb, depth)
        assert got == _running_sum_of_oracle(ra, rb, depth)
        # an exact zero, with no leaf, keeps the slopes' type
        assert type(got) is (Fraction if got else type(ra))


def test_int_slopes_give_fraction_endpoints():
    assert survivor_intervals(2, 1, 3) == [(0, Fraction(1, 4))]
    assert survivor_intervals(2, 1, 2) == [(0, Fraction(1, 3))]
    assert survivor_intervals(1, 1, 2)[1] == (Fraction(1, 3), HALF)
    for interval in (*survivor_intervals(1, 1, 4),
                     *survivor_intervals(2, 1, 2)):
        assert all(type(x) is Fraction for x in interval)
    assert survivor_measure(1, 1, 4) == survivor_measure(Fraction(1),
                                                         Fraction(1), 4)
    assert type(survivor_measure(1, 1, 4)) is Fraction


def test_exact_survivor_measure_refuses_more_leaves_than_the_cap(
        monkeypatch):
    monkeypatch.setattr(rauzy, "EXACT_MEASURE_MAX_LEAVES", 4)
    q_half = QuadraticNumber(HALF)
    # (1/2, 1/2) has 2^n leaves, on Fraction and on QuadraticNumber slopes
    for ra, rb in ((HALF, HALF), (q_half, q_half)):
        assert survivor_measure(ra, rb, 2) == Fraction(8, 21)
        with pytest.raises(ValueError, match="EXACT_MEASURE_MAX_LEAVES = 4"):
            survivor_measure(ra, rb, 3)
    # one leaf at any depth, and floats are not capped
    assert survivor_measure(Fraction(2), Fraction(1), 50) == Fraction(1, 51)
    assert survivor_measure(0.5, 0.5, 3) > 0


def test_a_measure_past_the_cap_is_refused_before_the_tree_is_walked(
        monkeypatch):
    # (1/2, 1/2) has 2^200 leaves at depth 200: the walk yields them one
    # at a time, so the refusal comes at the fifth, as at depth 3
    monkeypatch.setattr(rauzy, "EXACT_MEASURE_MAX_LEAVES", 4)
    with pytest.raises(ValueError, match="EXACT_MEASURE_MAX_LEAVES = 4"):
        survivor_measure(HALF, HALF, 200)
    with pytest.raises(ValueError, match="at depth 3 sums"):
        rauzy.check_exact_measures(HALF, HALF, 200)


def test_survivor_intervals_forced_chain_is_not_recursive():
    # forced L at every depth: one interval, the pull-back of [0, 1]
    # through y -> y/(1+y) taken 3000 times
    assert survivor_intervals(Fraction(2), Fraction(1), 3000) \
        == [(0, Fraction(1, 3001))]


SLOPES = st.fractions(min_value=Fraction(1, 10), max_value=3,
                      max_denominator=60).filter(lambda x: Fraction(1, 10) < x < 3)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(SLOPES, SLOPES, st.integers(min_value=0, max_value=6))
def test_float_survivor_measure_agrees_with_exact(ra, rb, depth):
    exact = survivor_measure(ra, rb, depth)
    approx = survivor_measure(float(ra), float(rb), depth)
    assert math.isclose(approx, float(exact), rel_tol=1e-9, abs_tol=0.0)


def test_float_survivor_measure_holds_no_list_of_intervals():
    # 2^14 intervals: listing them first took 1.7 MB at this depth
    tracemalloc.start()
    try:
        m = survivor_measure(0.5, 0.5, 14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    # the correctly rounded sum of the reference walk's lengths, which
    # test_scaled_walk_is_bit_identical_on_floats holds to the bound
    leaves = oracles.survivor_leaves_topdown_oracle(0.5, 0.5, 14)
    assert m.hex() == math.fsum(det / s / v
                                for _, s, _, v, det in leaves).hex()
