"""Exact arithmetic in real quadratic fields.

Values of the form a + b*sqrt(d) with a, b rational and d a nonnegative
integer, normalized so that d is square-free and d == 0 whenever the value
is rational.  Supports exact comparison, floor, and field arithmetic, which
is all the parameter-contraction and holonomy code needs.  Floats are
deliberately rejected: this module is the exact track.

It also decides exactness for the whole package, through `is_exact`,
the tolerance rule `slack`, the coercion `quadratic`, the field rule
`one_field` and the integer form `integer_form`, whose sign rule is
`surd_sign`.  Values from two fields are refused by `one_field`, with
ValueError, wherever they are first combined: in a sum, product,
quotient or comparison, or in `integer_form`.  So no caller checks the
field itself, and a call that combines nothing answers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = int | Fraction

# An irrational value's radicand d is at most MAX_RADICAND: its
# square-free part is found by trial division up to sqrt(d), which for
# a prime d near the cap takes 0.15 s on a 2-vCPU x86-64 host.
MAX_RADICAND = 10 ** 12


def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (s, f) with d == s*s*f and f square-free, for d >= 0."""
    s, f, p = 1, d, 2
    while p * p <= f:
        while f % (p * p) == 0:
            f //= p * p
            s *= p
        p += 1 if p == 2 else 2
    return s, f


class QuadraticNumber:
    """Immutable exact value a + b*sqrt(d).

    `__init__` normalizes parts a, b that are ints or Fractions and an
    int radicand d, and refuses any other, a float included, with
    TypeError; the field operations build their results, whose parts are
    normal already, through `_normal`.  A sum, product, quotient or
    comparison of values from two fields raises `one_field`'s
    ValueError; equality of two fields is False.  Their oracle is
    `tests/oracles.quadratic_op_oracle`, which normalizes every result in
    full."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 0):
        if not (isinstance(a, RationalLike) and isinstance(b, RationalLike)
                and isinstance(d, int)):
            raise TypeError(f"exact arithmetic does not accept the parts "
                            f"({a!r}, {b!r}, {d!r})")
        a, b = Fraction(a), Fraction(b)
        if d < 0:
            raise ValueError(f"negative radicand {d}")
        if b != 0 and d > 0:
            if d > MAX_RADICAND:
                raise ValueError(f"radicand {d} exceeds MAX_RADICAND = "
                                 f"{MAX_RADICAND}")
            s, f = _squarefree_split(d)
            if f <= 1:
                a, b, d = a + b * s, Fraction(0), 0
            else:
                b, d = b * s, f
        else:
            b, d = Fraction(0), 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticNumber is immutable")

    # --- properties ---

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("value is irrational")
        return self.a

    # --- arithmetic ---

    def _same_field(self, other: "QuadraticNumber") -> int:
        """Common radicand for a binary op; two fields are refused by
        `one_field`."""
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        return one_field(self, other)

    def __add__(self, other):
        try:
            o = quadratic(other)
        except TypeError:
            return NotImplemented
        d = self._same_field(o)
        return _normal(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return _normal(-self.a, -self.b, self.d)

    def __sub__(self, other):
        try:
            o = quadratic(other)
        except TypeError:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            o = quadratic(other)
        except TypeError:
            return NotImplemented
        d = self._same_field(o)
        a = self.a * o.a + self.b * o.b * d
        b = self.a * o.b + self.b * o.a
        return _normal(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            o = quadratic(other)
        except TypeError:
            return NotImplemented
        d = self._same_field(o)
        # multiply by the conjugate; the norm a^2 - b^2 d is rational
        norm = o.a * o.a - o.b * o.b * d
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        conj = _normal(o.a, -o.b, d)
        num = self * conj
        return _normal(num.a / norm, num.b / norm, d)

    def __rtruediv__(self, other):
        return quadratic(other) / self

    def __abs__(self):
        return -self if self < 0 else self

    # --- exact sign and order ---

    def _sign(self) -> int:
        return surd_sign(self.a, self.b, self.d)

    def __eq__(self, other):
        # the normal form is unique: equal values have equal (a, b, d)
        try:
            o = quadratic(other)
        except TypeError:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __lt__(self, other):
        return (self - quadratic(other))._sign() < 0

    def __le__(self, other):
        return (self - quadratic(other))._sign() <= 0

    def __gt__(self, other):
        return (self - quadratic(other))._sign() > 0

    def __ge__(self, other):
        return (self - quadratic(other))._sign() >= 0

    def __hash__(self):
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # --- conversions ---

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def floor(self) -> int:
        """Exact floor at any magnitude, in integer arithmetic alone."""
        if not self.b:
            return math.floor(self.a)
        # the value is (m + n*sqrt(d)) / D; n^2 d is no square, so
        # r < |n|*sqrt(d) < r + 1 and the numerator lies strictly between
        # consecutive integers
        _, D, ((m, n),) = integer_form(self)
        r = math.isqrt(n * n * self.d)
        return (m + r if n > 0 else m - r - 1) // D

    def __repr__(self):
        if self.is_rational:
            return f"QuadraticNumber({self.a})"
        return f"QuadraticNumber({self.a}, {self.b}, {self.d})"


_new = object.__new__
_set_a, _set_b, _set_d = (QuadraticNumber.a.__set__, QuadraticNumber.b.__set__,
                          QuadraticNumber.d.__set__)


def _normal(a: Fraction, b: Fraction, d: int) -> QuadraticNumber:
    """a + b*sqrt(d) from parts in normal form but for b: Fractions a and
    b and a square-free d, which becomes 0 when b == 0.  A sum, product or
    quotient of two values of one field has such parts, so it skips the
    coercion and the square-free split of `__init__`."""
    q = _new(QuadraticNumber)
    _set_a(q, a)
    _set_b(q, b)
    _set_d(q, d if b else 0)
    return q


def quadratic(x) -> QuadraticNumber:
    """x as a QuadraticNumber: itself, or an int or a Fraction lifted.
    Anything else, a float included, raises TypeError."""
    if isinstance(x, QuadraticNumber):
        return x
    if isinstance(x, RationalLike):
        return QuadraticNumber(x)
    raise TypeError(f"exact arithmetic does not accept {type(x).__name__}")


def surd_sign(a, b, d: int) -> int:
    """Exact sign of a + b*sqrt(d), for ints or Fractions a and b and a
    radicand d >= 0 that is positive whenever b is not 0: when a and b
    differ in sign, a^2 is compared with b^2 d."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    lhs, rhs = a * a, b * b * d
    return sa if lhs > rhs else (sb if lhs < rhs else 0)


def one_field(*xs) -> int:
    """The radicand d of the one field that holds the exact values `xs`,
    0 when all are rational.  Values from two fields, which no arithmetic
    combines, raise ValueError naming their radicands: the one refusal
    of two fields, which `QuadraticNumber`'s operations and
    `integer_form` raise."""
    fields = {quadratic(x).d for x in xs} - {0}
    if len(fields) > 1:
        raise ValueError("exact values from two quadratic fields, "
                         + " and ".join(f"sqrt({d})" for d in sorted(fields))
                         + ", cannot be combined")
    return max(fields, default=0)


def integer_form(*xs) -> tuple[int, int, list[tuple[int, int]]]:
    """Exact values of one field over one denominator: (d, D, [(m, n),
    ...]) with each x == (m + n*sqrt(d)) / D, d their common radicand (0
    when all are rational) and D > 0 the least common denominator of
    their rational coordinates.  For one value gcd(m, n, D) == 1, so the
    triple (m, n, D) is its canonical key.  Values from two fields raise
    `one_field`'s ValueError, as their arithmetic does."""
    qs = [quadratic(x) for x in xs]
    d = one_field(*qs)
    D = math.lcm(*(c.denominator for q in qs for c in (q.a, q.b)))
    return (d, D,
            [(q.a.numerator * (D // q.a.denominator),
              q.b.numerator * (D // q.b.denominator)) for q in qs])


# What the rest of the package computes with: the exact track plus floats.
Scalar = Union[int, Fraction, float, QuadraticNumber]


def is_exact(*values) -> bool:
    """Whether every one of `values` belongs to the exact track (int,
    Fraction, QuadraticNumber); true of no values at all.

    A float, the common case on the float track, is answered by its type
    alone, before the isinstance test that Fraction's abstract base class
    makes slow."""
    for x in values:
        if type(x) is float or not isinstance(
                x, (int, Fraction, QuadraticNumber)):
            return False
    return True


def slack(tol: float, *values: Scalar) -> float:
    """The tolerance a comparison of `values` gets: `tol` if one is a
    float, and 0 when every one is exact, so exact data compares
    exactly."""
    return 0 if is_exact(*values) else tol


def as_float(x: Scalar, name: str) -> float:
    """float(x), refusing with ValueError an exact x past the float range,
    for which float() raises OverflowError; `name` names x in the
    message."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{name} lies outside the float range") from None


def as_ratio(x: Scalar) -> tuple[Scalar, Scalar]:
    """x as (numerator, positive denominator): a Fraction's two ints,
    (x, 1.0) for a float, and (x, 1) for an int or a QuadraticNumber."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return x, (1.0 if isinstance(x, float) else 1)


# --- continued fractions ---


def convergents(p: int, q: int):
    """Yield (t, h, k) for each partial quotient t of the continued
    fraction of p/q (ints, q > 0), with h/k the convergent that t ends:
    Euclid on (p, q), so the expansion is exact and finite and its last
    convergent is p/q in lowest terms.  A float x is expanded exactly as
    convergents(*x.as_integer_ratio())."""
    h0, k0, h1, k1 = 1, 0, 0, 1
    while q:
        t, (p, q) = p // q, (q, p % q)
        h0, k0, h1, k1 = t * h0 + h1, t * k0 + k1, h0, k0
        yield t, h0, k0
