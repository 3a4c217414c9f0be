"""Twist moves, parameter contraction, and holonomy classification."""

import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from dilatorus import twists
from dilatorus.errors import (BudgetExhausted, InadmissibleAtStep,
                              RationalRatio)
from dilatorus.geometry import DilationParams, square_room
from dilatorus.quadratics import QuadraticNumber
from dilatorus.twists import (apply_word, gauss_contraction, holonomy_class,
                              mu_after, mu_path, reach_target, twist_basis,
                              twist_mu, word_from_string)

SEED = 20260817
GENERATORS = "AaBb"


def rational_params(rng: random.Random) -> DilationParams:
    return DilationParams(Fraction(rng.randint(1, 30), rng.randint(1, 9)),
                          Fraction(rng.randint(1, 30), rng.randint(1, 9)))


def test_t1_on_unit_basis_frozen_example():
    room = apply_word("A", square_room(math.log(2.0), math.log(3.0))).room
    e1, e2, params = room.e1, room.e2, room.params
    assert e1.as_floats() == pytest.approx((1.0, 2.0))
    assert e2.as_floats() == pytest.approx((0.0, 2.0))
    m1, m2 = params.as_floats()
    assert m1 == pytest.approx(math.log(2.0))
    assert m2 == pytest.approx(math.log(6.0))


def test_mu_action_matrices():
    e1 = DilationParams(Fraction(1), Fraction(0))
    e2 = DilationParams(Fraction(0), Fraction(1))

    def matrix_of(g):
        c1 = twist_mu(g, e1)
        c2 = twist_mu(g, e2)
        return ((c1.mu1, c2.mu1), (c1.mu2, c2.mu2))

    assert matrix_of("A") == ((1, 0), (1, 1))
    assert matrix_of("B") == ((1, 1), (0, 1))
    assert matrix_of("a") == ((1, 0), (-1, 1))
    assert matrix_of("b") == ((1, -1), (0, 1))


def test_generator_roundtrips_exact_in_rational_mode():
    rng = random.Random(SEED)
    for _ in range(200):
        params = rational_params(rng)
        for g in GENERATORS:
            there = twist_mu(g, params)
            back = twist_mu(g.swapcase(), there)
            assert back.mu1 == params.mu1 and back.mu2 == params.mu2


@st.composite
def exact_params(draw) -> DilationParams:
    """Two positive rationals, or two positive values of one real
    quadratic field."""
    d = draw(st.sampled_from((0, 2, 3, 5)))

    def one():
        a = draw(st.fractions(min_value=Fraction(1, 9), max_value=1,
                              max_denominator=9))
        b = draw(st.fractions(min_value=0, max_value=Fraction(1, 3),
                              max_denominator=9))
        return QuadraticNumber(a, b, d) if d else a

    return DilationParams(one(), one())


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(exact_params(), st.text(alphabet="AaBb", min_size=1, max_size=6))
def test_word_then_inverse_word_round_trips_exactly(params, letters):
    word = word_from_string(letters)
    try:
        mu_after(word, params)
    except InadmissibleAtStep:
        assume(False)
    there = apply_word(word, square_room(params.mu1, params.mu2))
    inverse = word[::-1].swapcase()
    back = apply_word(inverse, there.room)
    assert back.room.params.mu1 == params.mu1
    assert back.room.params.mu2 == params.mu2
    assert back.mu_path == there.mu_path[::-1]
    # the basis comes back up to rounding, which scales with the largest
    # entry the word reached
    big = max(abs(c) for v in (there.room.e1, there.room.e2)
              for c in v.as_floats())
    got = (*back.room.e1.as_floats(), *back.room.e2.as_floats())
    assert all(abs(a - b) <= 1e-9 * big
               for a, b in zip(got, (1.0, 0.0, 0.0, 1.0)))


def test_apply_word_tracks_mu_path():
    room = square_room(Fraction(1), Fraction(2))
    result = apply_word(word_from_string("AB"), room)
    assert result.mu_path[0] == (1.0, 2.0)
    assert result.mu_path[1] == (1.0, 3.0)   # T1: (m1, m1+m2)
    assert result.mu_path[2] == (4.0, 3.0)   # T2: (m1+m2, m2)
    assert result.room.params.mu1 == 4 and result.room.params.mu2 == 3


def test_apply_word_rejects_inadmissible_prefix():
    room = square_room(Fraction(1), Fraction(3))
    with pytest.raises(InadmissibleAtStep):
        apply_word(word_from_string("b"), room)  # mu1 - mu2 = -2
    # at once (index 0), or after one harmless prefix move (index 1)
    for text, step in (("b", 0), ("Ab", 1)):
        with pytest.raises(InadmissibleAtStep) as exc:
            mu_after(word_from_string(text), room.params)
        assert exc.value.step == step
    mu_after(word_from_string("AB"), room.params)  # admissible: no refusal


def _fold(path_fn, word, params):
    """(repr of every yielded value, step of InadmissibleAtStep or None)."""
    values = []
    try:
        for p in path_fn(word, params):
            assert type(p) is DilationParams
            values.append(repr(p))
    except InadmissibleAtStep as exc:
        return values, exc.step
    return values, None


def test_mu_path_matches_the_twist_mu_fold_oracle():
    rng = random.Random(SEED)
    exits = completed = 0
    for i in range(200):
        kind = i % 3
        if kind == 0:
            params = DilationParams(rng.uniform(-0.2, 2.0), rng.uniform(0.1, 2.0))
        elif kind == 1:
            params = rational_params(rng)
            if rng.random() < 0.5:
                # j moves b reach mu1 = 0 exactly, on the quadrant's edge
                params = DilationParams(params.mu2 * rng.randint(1, 3),
                                        params.mu2)
        else:
            d = rng.choice((2, 3, 5))
            params = DilationParams(*(QuadraticNumber(
                Fraction(rng.randint(1, 20), rng.randint(1, 9)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 9)), d)
                for _ in range(2)))
        # mostly positive moves, so that many words stay admissible
        letters = rng.choice(("AB", "ABab", "AABBab", "Bb"))
        word = word_from_string("".join(rng.choice(letters)
                                        for _ in range(rng.randint(0, 30))))
        got = _fold(mu_path, word, params)
        want = _fold(oracles.mu_path_oracle, word, params)
        assert got == want, (params, word)
        # the fold to the end: the oracle's last value, or its refusal
        try:
            end = mu_after(word, params)
        except InadmissibleAtStep as exc:
            assert exc.step == want[1] is not None
        else:
            assert want[1] is None and type(end) is DilationParams
            assert repr(end) == want[0][-1]
        exits += got[1] is not None
        completed += got[1] is None and len(word) > 0
    assert exits > 30 and completed > 30


def test_mu_path_folds_twist_mu_and_stops_at_the_exit():
    params = DilationParams(Fraction(1), Fraction(3))
    word = word_from_string("AAaB")
    path = list(mu_path(word, params))
    assert path[0] == params and len(path) == len(word) + 1
    for g, before, after in zip(word, path, path[1:]):
        assert after == twist_mu(g, before)
    assert path[-1] == apply_word(word, square_room(1, 3)).room.params
    # the start is checked only for a nonempty word
    outside = DilationParams(Fraction(-1), Fraction(3))
    assert list(mu_path("", outside)) == [outside]
    with pytest.raises(InadmissibleAtStep) as exc:
        list(mu_path(word_from_string("Ab"), outside))
    assert exc.value.step == 0
    with pytest.raises(InadmissibleAtStep) as exc:
        list(mu_path(word_from_string("Bbb"), params))
    assert exc.value.step == 2
    # mu_after ends where mu_path ends, and refuses where it refuses
    assert mu_after(word, params) == path[-1]
    assert mu_after("", outside) is outside
    for text, step in (("Ab", 0), ("Bbb", 2)):
        start = outside if step == 0 else params
        with pytest.raises(InadmissibleAtStep) as exc:
            mu_after(word_from_string(text), start)
        assert exc.value.step == step


def test_a_basis_past_the_float_range_is_refused_before_a_later_exit():
    # T1 adds mu1 to mu2, so nu2 = exp(1 + k) overflows at move 709, and
    # the first b leaves the quadrant only at move 720
    word = word_from_string("A" * 720 + "b")
    room = square_room(1, 1)
    with pytest.raises(InadmissibleAtStep) as exc:
        mu_after(word, room.params)
    assert exc.value.step == 720
    with pytest.raises(ValueError, match="float range"):
        apply_word(word, room)


def test_word_string_roundtrip():
    assert word_from_string("AaBb") == "AaBb"
    with pytest.raises(ValueError):
        word_from_string("AXB")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.text(alphabet="AaBb", max_size=12),
       st.characters(exclude_characters="AaBb"), st.integers(0, 12))
def test_a_word_is_its_letters_and_any_other_character_is_refused(
        word, other, at):
    assert word_from_string(word) == word
    with pytest.raises(ValueError, match="invalid word letter"):
        word_from_string(word[:at] + other + word[at:])


# each call refuses before its first move: mu_path yields not even its
# start
@pytest.mark.parametrize("call", [
    pytest.param(lambda w, room: next(mu_path(w, room.params)), id="mu_path"),
    pytest.param(lambda w, room: mu_after(w, room.params), id="mu_after"),
    pytest.param(lambda w, room: apply_word(w, room), id="apply_word"),
    pytest.param(lambda w, room: twist_mu(w, room.params), id="twist_mu"),
    pytest.param(lambda w, room: twist_basis(w, room.e1, room.e2,
                                             room.params), id="twist_basis"),
])
@pytest.mark.parametrize("text", ["AXB", "Ac", "X"])
def test_a_letter_outside_the_four_moves_is_refused(call, text):
    room = square_room(Fraction(1), Fraction(2))
    with pytest.raises(ValueError, match="invalid"):
        call(text, room)


def test_gauss_contraction_golden_pair():
    params = DilationParams(Fraction(1), QuadraticNumber(0, 1, 2))
    result = gauss_contraction(params, 1e-3)
    m1, m2 = result.final.as_floats()
    assert math.hypot(m1, m2) < 1e-3
    mu_after(result.word, params)  # admissible: no refusal
    # block counts follow the continued fraction of sqrt(2): 1,2,2,2,...
    counts = [k for _, k in result.blocks]
    assert counts[0] == 1 and counts[1:4] == [2, 2, 2]


@pytest.mark.parametrize("eps, letters", [(1e-9, 49), (1e-12, 65)])
def test_exact_contraction_stops_on_the_true_norm(eps, letters):
    # a float hypot of the exact values would stop both at one 45-letter
    # word, whose end has a true norm of 4.1e-9
    params = DilationParams(Fraction(1), QuadraticNumber(0, 1, 2))
    result = gauss_contraction(params, eps)
    assert len(result.word) == letters
    assert oracles.decimal_norm(*result.final) < Decimal(eps)
    assert mu_after(result.word, params) == result.final


def test_exact_contractions_end_below_eps():
    # 50 seeded starts in Q(sqrt 2), Q(sqrt 3) and Q(sqrt 5), at eps
    # from 1e-3 to 1e-15, read by a 60-digit decimal oracle
    rng = random.Random(SEED + 24)
    checked = 0
    while checked < 50:
        d = (2, 3, 5)[checked % 3]
        a1, b1, a2, b2 = (Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                          for _ in range(4))
        if a1 * b2 == a2 * b1:      # a rational ratio runs to a tie
            continue
        params = DilationParams(QuadraticNumber(a1, b1, d),
                                QuadraticNumber(a2, b2, d))
        if not params.in_positive_quadrant():
            continue
        eps = 10.0 ** -(3 + checked % 13)
        result = gauss_contraction(params, eps)
        assert oracles.decimal_norm(*result.final) < Decimal(eps), \
            (params, eps)
        assert mu_after(result.word, params) == result.final
        checked += 1


def test_exact_contraction_meets_an_infinite_eps_at_once():
    params = DilationParams(Fraction(1), QuadraticNumber(0, 1, 2))
    assert gauss_contraction(params, math.inf) == ("", (), params)


def test_gauss_contraction_rational_pair_fails():
    with pytest.raises(RationalRatio):
        gauss_contraction(DilationParams(Fraction(2), Fraction(3)), 1e-6)


def test_contraction_refuses_a_block_past_the_cap_before_building_it():
    # the first block has about 10^7 letters, which as a list take 80 MB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExhausted, match="generator cap") as info:
            gauss_contraction(DilationParams(1.0, 9.87654321e-8), 1e-3,
                              max_generators=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert info.value.partial == ("", [])


def test_exact_block_count_is_the_largest_positive_remainder():
    r2 = QuadraticNumber(0, 1, 2)
    for x, y in ((Fraction(3), Fraction(1)), (Fraction(7, 2), Fraction(1)),
                 (Fraction(5), Fraction(2)), (3 * r2, Fraction(1)),
                 (Fraction(3), r2), (1 + r2, r2), (4, 2 * r2)):
        k = twists._exact_block_count(x, y)
        assert k >= 1 and x - k * y > 0 and not x - (k + 1) * y > 0, (x, y)


def spread_word(exponents):
    """The moves of R^t0 L^t1 R^t2 ...: right to left, S2 for each R and
    S1 for each L, as reach_target builds its spread."""
    return "".join(("A" if i % 2 else "B") * exponents[i]
                   for i in reversed(range(len(exponents))))


def test_complete_to_unimodular_gives_the_least_nonnegative_completion():
    pairs = [(a, c) for a in range(1, 61) for c in range(1, 61)
             if math.gcd(a, c) == 1]
    assert len(pairs) == 2203
    for a, c in pairs:
        b, d, exponents = twists._spread_exponents(a, c)
        assert a * d - c * b == 1 and b >= 0 and d >= 0, (a, c)
        # one step back along (a, c) leaves the nonnegative quadrant
        assert b - a < 0 or d - c < 0, (a, c)
        # R^t0 L^t1 R^t2 ... is [[a, b], [c, d]]
        m = (1, 0, 0, 1)
        for i, t in enumerate(exponents):
            r11, r12, r21, r22 = m
            m = ((r11, r12 + t * r11, r21, r22 + t * r21) if i % 2 == 0
                 else (r11 + t * r12, r12, r21 + t * r22, r22))
        assert m == (a, b, c, d), (a, c)


def test_decompose_sl2n_examples():
    # (a, c) = (2, 1): [[2, 1], [1, 1]] = RL
    assert twists._spread_exponents(2, 1) == (1, 1, [1, 1])
    # the continued fraction [1, 2] of 3/2 has an even count, and 1/1's
    # one term 1 splits into 0 and 1: L alone
    assert twists._spread_exponents(3, 2) == (1, 1, [1, 2])
    assert twists._spread_exponents(1, 1) == (0, 1, [0, 1])


def test_sl2n_word_to_twists_is_admissible_from_positive():
    # the spread word of [[a, b], [c, d]] moves (1, 1) to (a + b, c + d)
    rng = random.Random(SEED + 1)
    checked = 0
    while checked < 50:
        a, c = rng.randint(1, 40), rng.randint(1, 40)
        if math.gcd(a, c) != 1:
            continue
        b, d, exponents = twists._spread_exponents(a, c)
        word = spread_word(exponents)
        assert len(word) == sum(exponents)
        params = DilationParams(Fraction(1), Fraction(1))
        assert mu_after(word, params) == (a + b, c + d)   # admissible
        checked += 1


def test_reach_target_simple():
    params = DilationParams(Fraction(1), QuadraticNumber(0, 1, 2))
    report = reach_target(params, (0.5, 0.5), 1e-2, budget=10 ** 5)
    assert report.final_error < 1e-2
    mu_after(report.word, params)  # admissible: no refusal
    # the report's trajectory ends where the verified parameters sit
    end = report.final_params.as_floats()
    assert math.hypot(end[0] - 0.5, end[1] - 0.5) < 1e-2


def test_reach_target_exhaustion_names_the_predicted_error():
    # no word within 30 letters: the error is that of the closed-form
    # trajectory, which mu_path has not verified
    with pytest.raises(BudgetExhausted, match="best predicted error"):
        reach_target(DilationParams(Fraction(1), QuadraticNumber(0, 1, 2)),
                     (0.5, 0.5), 1e-2, budget=30)


def test_reach_target_reports_a_start_within_eps_below_the_noise_floor():
    # a search toward the target ratio 1e-15 is refused at its first
    # convergent, whose contraction tolerance lies below the float
    # spacing (tests/test_cli.py), but a start already within eps needs
    # none
    report = reach_target(DilationParams(1e-3, 1.0), (1e-15, 1.0), 1e-2)
    assert report.word == "" and report.final_error < 1e-2


# the first re-folded word from this start toward this target has 4,668
# letters and reaches it, and the next convergent's, of 5,101, does too
REFOLD_START = DilationParams(Fraction(1), QuadraticNumber(0, 1, 2))
REFOLD_TARGET = (2.0, math.pi)


def _patch_refold(monkeypatch, replace):
    """Patch `twists.mu_after`, which `reach_target` re-folds each
    candidate word with: `replace(k)` for the k-th call (from 1) is an
    error to raise, parameters to return, or None for the true fold.
    Returns the list of the re-folded words."""
    words = []

    def refold(word, params):
        words.append(word)
        got = replace(len(words))
        if isinstance(got, Exception):
            raise got
        return mu_after(word, params) if got is None else got

    monkeypatch.setattr(twists, "mu_after", refold)
    return words


@pytest.mark.parametrize("first", [
    InadmissibleAtStep(3),
    # a true end (5, 5) lies far past eps of the target
    DilationParams(5.0, 5.0),
], ids=["inadmissible", "true-error-past-eps"])
def test_reach_target_moves_on_from_a_refold_that_fails(monkeypatch, first):
    words = _patch_refold(monkeypatch, lambda k: first if k == 1 else None)
    report = reach_target(REFOLD_START, REFOLD_TARGET, 1e-2)
    assert len(words) == 2 and report.word == words[1] != words[0]
    assert report.final_error <= 1e-2
    assert report.final_params == mu_after(report.word, REFOLD_START)


def test_reach_target_whose_every_refold_fails_exhausts(monkeypatch):
    words = _patch_refold(monkeypatch, lambda k: InadmissibleAtStep(0))
    with pytest.raises(BudgetExhausted, match="no admissible word within "
                                              "budget reached the target"):
        reach_target(REFOLD_START, REFOLD_TARGET, 1e-2)
    assert len(words) >= 2


def test_holonomy_exact_dichotomy():
    discrete = holonomy_class(DilationParams(Fraction(1), Fraction(2)))
    assert discrete.verdict == "discrete"
    assert discrete.orbit_closure == "closed"
    assert discrete.witness == (1, 2)

    dense = holonomy_class(DilationParams(Fraction(1), QuadraticNumber(0, 1, 2)))
    assert dense.verdict == "non_discrete"
    assert dense.orbit_closure == "dense"


def test_holonomy_float_screening():
    assert holonomy_class(DilationParams(0.5, 0.25)).verdict == "discrete"
    undecided = holonomy_class(DilationParams(1.0, math.sqrt(2.0)))
    assert undecided.verdict == "undecided_float"
    assert undecided.orbit_closure == "unknown"


def test_holonomy_float_witness_is_a_convergent_of_the_float():
    # the float 44787310884004.72 is 1433193948288151/32 exactly; a float
    # expansion by rounded steps once named 1119682772100118/25, which is
    # no convergent of it
    screened = holonomy_class(DilationParams(44787310884004.72, -1.0))
    assert screened.witness == (-1433193948288151, 32)
    assert Fraction(44787310884004.72) == Fraction(1433193948288151, 32)
