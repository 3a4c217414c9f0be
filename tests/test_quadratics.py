"""Exact quadratic arithmetic and continued-fraction helpers."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from dilatorus.quadratics import (MAX_RADICAND, QuadraticNumber,
                                  convergents, integer_form, one_field,
                                  quadratic, slack, surd_sign)

SEED = 20260817


def random_quadratic(rng: random.Random, d: int) -> QuadraticNumber:
    a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    b = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    return QuadraticNumber(a, b, d)


def test_field_arithmetic_matches_floats():
    rng = random.Random(SEED)
    for _ in range(300):
        d = rng.choice([2, 3, 5, 7, 13])
        x = random_quadratic(rng, d)
        y = random_quadratic(rng, d)
        assert math.isclose(float(x + y), float(x) + float(y),
                            rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(float(x * y), float(x) * float(y),
                            rel_tol=1e-12, abs_tol=1e-12)
        if y != 0:
            assert math.isclose(float(x / y), float(x) / float(y),
                                rel_tol=1e-12, abs_tol=1e-9)
            assert (x / y) * y == x


def test_exactness_no_drift():
    # repeated inverse pairs cancel exactly
    x = QuadraticNumber(Fraction(1, 3), Fraction(2, 7), 5)
    acc = x
    for _ in range(50):
        acc = (acc * x) / x
    assert acc == x


def test_square_root_squares_back():
    r2 = QuadraticNumber(0, 1, 2)
    assert r2 * r2 == 2
    assert float(r2) == pytest.approx(math.sqrt(2), rel=1e-15)
    # non-squarefree radicands normalize into the same field
    r8 = QuadraticNumber(0, 1, 8)
    assert r8 == 2 * r2


def test_rational_detection():
    assert QuadraticNumber(Fraction(3, 4), 0, 7).is_rational
    assert not QuadraticNumber(0, 1, 7).is_rational
    assert QuadraticNumber(Fraction(3, 4), 0, 7).as_fraction() == Fraction(3, 4)
    # b*sqrt(d) with square d collapses to a rational
    assert QuadraticNumber(1, 1, 9).is_rational


def test_ordering_agrees_with_floats():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        d = rng.choice([2, 3, 5])
        x = random_quadratic(rng, d)
        y = random_quadratic(rng, d)
        if x == y:
            continue
        assert (x < y) == (float(x) < float(y))


def test_floor_on_both_signs():
    r2 = QuadraticNumber(0, 1, 2)
    assert r2.floor() == 1
    assert (-r2).floor() == -2
    assert (3 * r2).floor() == 4
    assert QuadraticNumber(Fraction(7, 2), 0, 0).floor() == 3
    assert (QuadraticNumber(7) / 2).floor() == 3
    assert ((1 + r2) / r2).floor() == 1


def test_floor_is_exact_past_the_float_range():
    big = 10 ** 400
    assert QuadraticNumber(big).floor() == big
    assert QuadraticNumber(big, 1, 2).floor() == big + 1
    assert QuadraticNumber(-big, -1, 2).floor() == -big - 2
    assert QuadraticNumber(Fraction(1, big), 0, 0).floor() == 0
    assert QuadraticNumber(Fraction(-1, big), 0, 0).floor() == -1
    assert QuadraticNumber(0, big, 3).floor() == math.isqrt(3 * big * big)


def test_floor_brackets_the_value():
    rng = random.Random(SEED)
    for _ in range(300):
        d = rng.choice([2, 3, 5, 7])
        x = random_quadratic(rng, d) * Fraction(10) ** rng.randint(-400, 400)
        n = x.floor()
        assert n <= x < n + 1, x


def test_continued_fraction_roundtrip():
    # 649/200 = [3; 4, 12, 4]
    expansion = list(convergents(649, 200))
    assert [t for t, _, _ in expansion] == [3, 4, 12, 4]
    assert expansion[-1][1:] == (649, 200)
    # a pair not in lowest terms ends at its reduced ratio
    assert list(convergents(4, 6))[-1][1:] == (2, 3)


def test_float_convergents_approximate():
    x = math.pi
    best = None
    for _, p, q in convergents(*x.as_integer_ratio()):
        err = abs(x - p / q)
        if best is not None:
            assert err < best  # strictly improving
        best = err
        if q > 1000:
            break
    assert best < 1e-6


def fraction_expansion(f: Fraction) -> list[int]:
    """The continued fraction of f by the plain Fraction loop: t = floor(f),
    then f = 1/(f - t) until f is an integer."""
    terms = [math.floor(f)]
    while f != terms[-1]:
        f = 1 / (f - terms[-1])
        terms.append(math.floor(f))
    return terms


def check_float_expansion(x: float) -> None:
    expansion = list(convergents(*x.as_integer_ratio()))
    assert [t for t, _, _ in expansion] == fraction_expansion(Fraction(x))
    _, p, q = expansion[-1]
    assert Fraction(p, q) == Fraction(x)


@pytest.mark.parametrize("x", [1 / 1.3, math.pi, 5e-324, 1.7e308])
def test_a_float_expands_exactly_to_its_own_value(x):
    # 1/1.3 runs on past 10/13, where a float expansion once stopped at
    # a remainder below 1e-14, with the term 86,607,685,141,740
    check_float_expansion(x)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0, exclude_min=True, allow_infinity=False))
def test_float_expansions_match_the_fraction_loop(x):
    check_float_expansion(x)


# --- the package's exactness rule ---

def test_slack_is_the_tolerance_for_floats_and_zero_for_exact_data():
    exact = (3, Fraction(1, 3), QuadraticNumber(0, 1, 2), True)
    assert slack(1e-9, *exact) == 0
    assert slack(1e-9) == 0
    for at in range(len(exact) + 1):
        mixed = exact[:at] + (0.5,) + exact[at:]
        assert slack(1e-9, *mixed) == 1e-9


def test_quadratic_lifts_exact_scalars_and_refuses_floats():
    r2 = QuadraticNumber(0, 1, 2)
    assert quadratic(r2) is r2
    assert quadratic(3) == QuadraticNumber(3)
    assert quadratic(Fraction(-2, 7)).a == Fraction(-2, 7)
    with pytest.raises(TypeError, match="does not accept float"):
        quadratic(0.5)


def test_max_denominator_reads_every_rational_coordinate():
    max_denominator = oracles.max_denominator
    assert max_denominator(7) == 1
    assert max_denominator(Fraction(3, 8)) == 8
    assert max_denominator(QuadraticNumber(Fraction(1, 3), Fraction(1, 5),
                                           2)) == 5
    assert max_denominator(QuadraticNumber(Fraction(1, 9), 1, 3)) == 9


def test_integer_form_is_each_value_over_the_least_common_denominator():
    rng = random.Random(SEED)
    for _ in range(200):
        d = rng.choice((2, 3, 5))
        xs = [random_quadratic(rng, d) for _ in range(rng.randint(1, 4))]
        xs.append(rng.choice((rng.randint(-5, 5),
                              Fraction(rng.randint(-9, 9), rng.randint(1, 9)))))
        field, D, pairs = integer_form(*xs)
        assert D > 0 and len(pairs) == len(xs)
        assert field == max(quadratic(x).d for x in xs)
        for x, (m, n) in zip(xs, pairs):
            assert QuadraticNumber(Fraction(m, D), Fraction(n, D), d) == x
        assert D == math.lcm(*(c.denominator for x in xs
                               for c in (quadratic(x).a, quadratic(x).b)))
        # alone, a value's triple is in lowest terms: its canonical key
        _, D1, ((m, n),) = integer_form(xs[0])
        assert math.gcd(m, n, D1) == 1
    assert integer_form(Fraction(3, 4), 2) == (0, 4, [(3, 0), (8, 0)])
    with pytest.raises(ValueError, match=r"sqrt\(2\) and sqrt\(3\)"):
        integer_form(QuadraticNumber(0, 1, 2), QuadraticNumber(0, 1, 3))
    # the field rule integer_form applies, on its own
    assert one_field(QuadraticNumber(1, 1, 8), 2, Fraction(1, 2)) == 2
    assert one_field(Fraction(3, 4), 2) == 0 and one_field() == 0
    with pytest.raises(ValueError, match=r"sqrt\(2\) and sqrt\(3\)"):
        one_field(QuadraticNumber(0, 1, 3), QuadraticNumber(0, 1, 2))


def test_surd_sign_reads_integer_and_fraction_parts_alike():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        d = rng.choice((2, 3, 7))
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
        want = (a + b * math.sqrt(d) > 0) - (a + b * math.sqrt(d) < 0)
        assert surd_sign(a, b, d) == want
        assert surd_sign(Fraction(a, 7), Fraction(b, 7), d) == want
    # a^2 == b^2 d only at zero, where the sign is 0
    assert surd_sign(0, 0, 2) == 0 and surd_sign(6, -2, 9) == 0
    assert surd_sign(-4, 0, 0) == -1 and surd_sign(0, 3, 5) == 1


def test_a_rational_quadratic_number_is_its_fraction_as_a_key():
    half = QuadraticNumber(Fraction(1, 2))
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert hash(half) == hash(Fraction(1, 2))
    assert hash(QuadraticNumber(3)) == hash(3)
    assert {Fraction(1, 2): "f"}[half] == "f"
    assert {half: "q"}[Fraction(1, 2)] == "q"
    # irrational values hash by their normalized coordinates
    r2, r8 = QuadraticNumber(0, 1, 2), QuadraticNumber(0, 1, 8)
    assert hash(r8) == hash(2 * r2)
    assert len({r8, 2 * r2, r2}) == 2


def test_equality_and_truth_read_the_normal_form():
    # the normal form (a, b, d) is unique, so == and bool agree with the
    # exact sign of the difference and of the value; small coordinates
    # and radicands 8 and 12 (2*sqrt2, 2*sqrt3) make equal pairs common
    rng = random.Random(SEED + 7)
    values = [0, 1, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2)]
    for _ in range(120):
        values.append(QuadraticNumber(
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
            rng.choice([0, 1, 2, 3, 4, 8, 12])))
    equal_pairs = 0
    for x in values:
        assert bool(quadratic(x)) == (quadratic(x)._sign() != 0)
        for y in values:
            try:
                want = (quadratic(x) - quadratic(y))._sign() == 0
            except ValueError:              # two quadratic fields
                want = False
            assert (quadratic(x) == y) is want and (y == quadratic(x)) is want
            if want:
                assert hash(quadratic(x)) == hash(y)
                equal_pairs += x is not y
    assert equal_pairs > 100
    assert QuadraticNumber(1).__eq__(1.0) is NotImplemented


def test_truth_order_absolute_value_and_repr():
    r2 = QuadraticNumber(0, 1, 2)
    assert not QuadraticNumber(1, 1, 1) - 2 and bool(r2 - 1)
    assert r2 <= r2 and r2 <= Fraction(3, 2) and not r2 <= Fraction(7, 5)
    assert abs(1 - r2) == r2 - 1 and abs(r2) == r2
    assert repr(QuadraticNumber(Fraction(1, 2))) == "QuadraticNumber(1/2)"
    assert repr(QuadraticNumber(1, Fraction(-1, 3), 2)) == \
        "QuadraticNumber(1, -1/3, 2)"


def test_two_quadratic_fields_raise_value_error():
    with pytest.raises(ValueError, match=r"sqrt\(2\) and sqrt\(3\)"):
        QuadraticNumber(0, 1, 2) + QuadraticNumber(0, 1, 3)
    # equality of two fields is decided, not raised
    assert QuadraticNumber(0, 1, 2) != QuadraticNumber(0, 1, 3)


def test_a_negative_radicand_is_refused():
    # it was once dropped with its b, so that 2 + sqrt(-2) read as 2
    with pytest.raises(ValueError, match="negative radicand -2"):
        QuadraticNumber(2, 1, -2)
    with pytest.raises(ValueError, match="negative radicand"):
        QuadraticNumber(2, 0, -1)



def test_a_radicand_past_the_cap_is_refused_at_once():
    # the square-free split divides by trial up to sqrt(d): a 40-digit d
    # never finished
    with pytest.raises(ValueError, match="MAX_RADICAND"):
        QuadraticNumber(1, 1, MAX_RADICAND + 1)
    with pytest.raises(ValueError, match="MAX_RADICAND"):
        QuadraticNumber(1, 1, 10 ** 40 + 1)
    # a rational value runs no split, whatever its d
    assert QuadraticNumber(3, 0, 10 ** 40 + 1) == 3
    # below the cap the split still runs: 999983 is prime
    assert QuadraticNumber(1, 1, 999983 ** 2) == 999984


def _parts(q: QuadraticNumber) -> tuple:
    return q.a, q.b, q.d, hash(q)


def test_field_results_are_in_normal_form():
    # the field operations skip __init__'s normalization; each result must
    # still equal the full normalization of its parts, in its (a, b, d)
    # triple and its hash, cancellations to a rational included
    rng = random.Random(SEED)
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}
    cancelled = 0
    for _ in range(600):
        d = rng.choice((0, 2, 3, 5, 7))
        x = random_quadratic(rng, d)
        roll = rng.random()
        if roll < 0.2:
            y = QuadraticNumber(Fraction(rng.randint(-9, 9), 4), -x.b, d)
        elif roll < 0.35:
            y = QuadraticNumber(Fraction(rng.randint(-9, 9), 5))
        else:
            y = random_quadratic(rng, d)
        # int and Fraction operands on either side go through `quadratic`
        k = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        cases = [(name, left, right) for name in ops
                 for left, right in ((x, y), (y, x), (x, k), (k, x))]
        for name, left, right in cases:
            if name == "/" and right == 0:
                continue
            got = ops[name](left, right)
            want = oracles.quadratic_op_oracle(name, quadratic(left),
                                               quadratic(right))
            assert _parts(got) == _parts(want), (name, left, right)
            assert type(got.a) is Fraction and type(got.b) is Fraction
            cancelled += got.d == 0 and d != 0
        for value in (x, y):
            assert _parts(-value) == _parts(
                oracles.quadratic_op_oracle("neg", value))
    assert cancelled > 20
