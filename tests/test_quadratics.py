"""Exact quadratic arithmetic and continued-fraction helpers."""

import math
import random
from fractions import Fraction

import pytest

from dilatorus.quadratics import (QuadraticNumber, cf_convergents,
                                  float_convergents, sqrt_int)

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
    r2 = sqrt_int(2)
    assert r2 * r2 == 2
    assert float(r2) == pytest.approx(math.sqrt(2), rel=1e-15)
    # non-squarefree radicands normalize into the same field
    r8 = sqrt_int(8)
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
    r2 = sqrt_int(2)
    assert r2.floor() == 1
    assert (-r2).floor() == -2
    assert (3 * r2).floor() == 4
    assert QuadraticNumber(Fraction(7, 2), 0, 0).floor() == 3
    assert (QuadraticNumber(7) / 2).floor() == 3
    assert ((1 + r2) / r2).floor() == 1


def test_continued_fraction_roundtrip():
    # 649/200 = [3; 4, 12, 4]
    convergents = list(cf_convergents([3, 4, 12, 4]))
    p, q = convergents[-1]
    assert Fraction(p, q) == Fraction(649, 200)


def test_float_convergents_approximate():
    x = math.pi
    best = None
    for p, q in float_convergents(x):
        err = abs(x - p / q)
        if best is not None:
            assert err < best  # strictly improving
        best = err
        if q > 1000:
            break
    assert best < 1e-6
