"""Pentagon room models of dilation tori with one boundary component.

A room is an oriented plane basis (e1, e2) together with two log-dilation
parameters (mu1, mu2).  The five model vertices are

    V0 = 0,  V1 = e1,  V2 = e1 + e2,
    V3 = e1 + e2 - e1/nu1,  V4 = e2/nu2,      nu_i = exp(mu_i),

with the segment V3 -> V4 acting as the open boundary (the door), side
V0V1 glued to V3V2 by a dilation of ratio nu1 and side V1V2 glued to
V0V4 by a dilation of ratio nu2.  SL(2,R) acts on the basis and leaves
the parameters untouched.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import (
    DegenerateDoor,
    NonOrientedBasis,
    NonSimplePentagon,
    OutsideQ,
)
from .quadratics import Scalar, as_float

# A ray is parallel to a side when |u x e| <= PARALLEL_EPS * max(|e|, 1)
# for the unit direction u and the side's edge vector e.
PARALLEL_EPS: float = 1e-14
# SL2Matrix accepts |det - 1| up to SL2_DET_TOL * scale, where scale is
# |a*d| + |b*c| (at least 1): the size of the two products whose
# difference is the determinant, so the slack follows their rounding, not
# the size of the entries.
SL2_DET_TOL: float = 1e-9
TWO_PI: float = 2.0 * math.pi


# --- plane primitives ---

class Vec2(NamedTuple):
    """Plane vector; coordinates may be floats or exact rationals."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, s) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        return self.x * other.y - self.y * other.x

    def angle(self) -> float:
        return math.atan2(float(self.y), float(self.x))

    def as_floats(self) -> tuple[float, float]:
        return (float(self.x), float(self.y))


def unit(theta: float) -> Vec2:
    return Vec2(math.cos(theta), math.sin(theta))


def _wrap(theta: float, period: float) -> float:
    """theta reduced into [0, period).  fmod is exact, but adding the
    period to a negative remainder tinier than half an ulp of the period
    rounds to the period itself, which is read as 0.0."""
    t = math.fmod(theta, period)
    if t < 0:
        t += period
        if t == period:
            return 0.0
    return t


def wrap_2pi(theta: float) -> float:
    """Reduce an angle into [0, 2*pi)."""
    return _wrap(theta, TWO_PI)


def wrap_pi(theta: float) -> float:
    """Reduce a direction into [0, pi) (unoriented line angle)."""
    return _wrap(theta, math.pi)


def angle_dist_mod_pi(a: float, b: float) -> float:
    """Distance between two line directions, in [0, pi/2]."""
    d = abs(wrap_pi(a) - wrap_pi(b))
    return min(d, math.pi - d)


# --- SL(2, R) ---

class _SL2Fields(NamedTuple):
    a: float
    b: float
    c: float
    d: float


class SL2Matrix(_SL2Fields):
    """2x2 real matrix, finite, with determinant 1 (checked to tolerance)."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float, d: float) -> SL2Matrix:
        entries = (a, b, c, d)
        if not all(math.isfinite(x) for x in entries):
            raise ValueError(f"matrix entries {entries} must be finite")
        ad, bc = a * d, b * c
        scale = max(1.0, abs(float(ad)) + abs(float(bc)))
        if not math.isfinite(scale):
            raise ValueError(f"matrix entries {entries} overflow the float "
                             "range in the determinant")
        det = ad - bc
        if not abs(float(det) - 1.0) <= SL2_DET_TOL * scale:
            raise ValueError(f"determinant {det} is not 1")
        return tuple.__new__(cls, entries)

    @staticmethod
    def rotation(alpha: float) -> "SL2Matrix":
        if not math.isfinite(alpha):
            raise ValueError(f"rotation angle {alpha!r} must be finite")
        c, s = math.cos(alpha), math.sin(alpha)
        return SL2Matrix(c, -s, s, c)

    def __matmul__(self, other: "SL2Matrix") -> "SL2Matrix":
        return SL2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, v: Vec2) -> Vec2:
        return Vec2(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)


def geodesic_matrix(t: float) -> SL2Matrix:
    """Teichmuller geodesic flow matrix diag(e^(-t/2), e^(t/2)).

    Past |t| = 1419.5 or so e^(|t|/2) leaves the float range, and this
    raises ValueError.
    """
    try:
        return SL2Matrix(math.exp(-t / 2.0), 0.0, 0.0, math.exp(t / 2.0))
    except OverflowError:
        raise ValueError(f"geodesic flow time {t!r} takes e^(|t|/2) out of "
                         "the float range") from None


def projective_action(m: SL2Matrix, theta: float) -> float:
    """Action on semi-lines: angle of m applied to the unit vector of theta."""
    v = m.apply(unit(theta))
    return wrap_2pi(v.angle())


# --- parameters ---

class DilationParams(NamedTuple):
    """Log-dilation parameter pair; float or exact (Fraction / quadratic)."""

    mu1: Scalar
    mu2: Scalar

    def as_floats(self) -> tuple[float, float]:
        """(mu1, mu2) as floats; ValueError for an exact one past the
        float range."""
        return (as_float(self.mu1, "parameter mu1"),
                as_float(self.mu2, "parameter mu2"))

    def nu(self) -> tuple[float, float]:
        """The dilation factors (exp(mu1), exp(mu2)).

        Each factor and its inverse must be a finite nonzero float:
        mu1 = 1000 overflows exp, -800 underflows it to 0, and -745
        leaves a subnormal whose inverse is infinite.
        """
        out = []
        for k, m in enumerate(self.as_floats(), start=1):
            try:
                nu = math.exp(m)
            except OverflowError:
                nu = math.inf
            if not (0.0 < nu < math.inf and 1.0 / nu < math.inf):
                raise ValueError(
                    f"dilation factor nu{k} = exp({m!r}) or its inverse "
                    "leaves the float range")
            out.append(nu)
        return (out[0], out[1])

    def in_positive_quadrant(self) -> bool:
        return self.mu1 > 0 and self.mu2 > 0

    def is_zero(self) -> bool:
        return self.mu1 == 0 and self.mu2 == 0


# --- rooms ---

def _pentagon_vertices(e1: tuple, e2: tuple, nu1: float,
                       nu2: float) -> tuple[tuple, ...]:
    """V0..V4 of the pentagon model over the basis (e1, e2), as (x, y)
    pairs of scalars: each coordinate is the one `Vec2` arithmetic
    gives, the same operations on the same types in the same order."""
    (e1x, e1y), (e2x, e2y) = e1, e2
    s1, s2 = 1.0 / nu1, 1.0 / nu2
    v2x, v2y = e1x + e2x, e1y + e2y
    return ((0.0, 0.0), (e1x, e1y), (v2x, v2y),
            (v2x - e1x * s1, v2y - e1y * s1), (e2x * s2, e2y * s2))


_DIAGONAL_PAIRS: tuple[tuple[int, int], ...] = ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))
# The side that each side's gluing maps it onto, by index in the order of
# `Room.sides()`: bottom V0V1 <-> top V2V3, right V1V2 <-> left V4V0; the
# door V3V4 has none.  The gluing maps a side's start to its partner's
# end, so the point at fraction s of side k lands at 1 - s of its partner.
_PARTNERS: tuple = (2, 4, 0, None, 1)


def _interior_pairs(nu1: float, nu2: float) -> tuple[tuple[int, int], ...]:
    """Pairs of `_DIAGONAL_PAIRS` whose chord lies inside the pentagon.

    A linear map of positive determinant keeps the answer, so the
    unit-basis pentagon (0, 0), (1, 0), (1, 1), (1 - 1/nu1, 1),
    (0, 1/nu2) decides it: V3 lies right of the line x = 0 iff nu1 > 1,
    V4 below y = 1 iff nu2 > 1, and the chord from V1 toward V3 (or V4)
    passes above V4 (right of V3) iff nu1*nu2 > 1, a product taken
    exactly so that the rule is the exact geometry of the float room:
    n1*n2 > d1*d2 on the integer ratios n/d of the two factors.
    """
    (n1, d1), (n2, d2) = nu1.as_integer_ratio(), nu2.as_integer_ratio()
    wide = n1 * n2 > d1 * d2
    inside = {(0, 2): True, (0, 3): nu1 > 1.0, (1, 3): nu1 > 1.0 or wide,
              (1, 4): nu2 > 1.0 or wide, (2, 4): nu2 > 1.0}
    return tuple(pair for pair in _DIAGONAL_PAIRS if inside[pair])


def _is_oriented(e1: Vec2, e2: Vec2) -> bool:
    """Whether det(e1, e2) > 0, decided exactly even for heavily sheared
    bases.

    Long twist words drive the entries to 1e8 and beyond while the true
    determinant stays moderate; the float cross product then cancels
    catastrophically.  With each coordinate read as its integer ratio
    n/d (d > 0), the sign test x1*y2 > y1*x2 is the integer test
    n1x*n2y*d1y*d2x > n1y*n2x*d1x*d2y, exact at any scale.  A coordinate
    that is neither an int nor a float is read through its Fraction, so
    one no Fraction can hold, such as a QuadraticNumber, on which no
    float geometry can be built either, raises TypeError.
    """
    (n1x, d1x), (n1y, d1y), (n2x, d2x), (n2y, d2y) = [
        (c if isinstance(c, (int, float)) else Fraction(c)).as_integer_ratio()
        for c in (*e1, *e2)]
    return n1x * n2y * d1y * d2x > n1y * n2x * d1x * d2y


def _basis_det(e1: Vec2, e2: Vec2) -> Fraction:
    """Determinant of the basis in Fractions, exact at any scale; read
    only to print a refused one and to canonicalize."""
    return (Fraction(e1.x) * Fraction(e2.y)
            - Fraction(e1.y) * Fraction(e2.x))


def _quarter_split(det: Fraction) -> tuple[float, int]:
    """(m, k) with det = m * 4^k and 1/2 < |m| < 4, m rounded to a float.

    float(det) overflows past the float range and rounds to 0 below it;
    m and k hold any determinant of float coordinates.
    """
    k = (det.numerator.bit_length() - det.denominator.bit_length()) // 2
    return float(det / Fraction(4) ** k), k


class GluedSide(NamedTuple):
    """One pentagon side: geometry plus the transport across its gluing,
    which maps z to z*factor + transport_offset (the identity for the
    door)."""

    index: int
    start: Vec2
    end: Vec2
    is_door: bool
    factor: float
    transport_offset: Vec2


class RoomGeometry(NamedTuple):
    """Derived geometry of a room; `Room.geom` computes it once.

    Each row of `sides` is the float tuple
    (ax, ay, ex, ey, parallel_floor, factor, ox, oy): the side runs from
    (ax, ay) along the edge vector (ex, ey), a ray is parallel to it when
    |u x e| <= parallel_floor, and its gluing maps z to
    z*factor + (ox, oy).  Rows are in the order of `Room.sides()`; the
    door, row 3, is the one side `_PARTNERS` glues to none, and its row
    holds the identity.  `diagonals` maps each ordered diagonal (i, j),
    in both orientations, to the first five entries of such a row for
    the chord from vertex i to vertex j.  `interior` lists the
    pairs of `_DIAGONAL_PAIRS` whose chord lies inside the pentagon.

    The rows are built from the vertices as (x, y) pairs of scalars, by
    the operations `Vec2` would apply, on the same types and in the same
    order: an edge is end - start in the basis' own scalars, rounded to
    a float once, so every row is that of the `Vec2` forms bit for bit,
    for int, float and Fraction bases alike.  A reversed diagonal's edge
    is its own difference, not the forward edge negated, which would
    turn a zero coordinate into -0.0.
    """

    vertices: tuple[Vec2, ...]
    diameter: float
    sides: tuple[tuple, ...]
    diagonals: dict[tuple[int, int], tuple[float, ...]]
    interior: tuple[tuple[int, int], ...]


# The chords `Room.geom` tabulates: the five sides in order, then each
# diagonal in both orientations.
_CHORDS: tuple[tuple[int, int], ...] = (
    *((k, (k + 1) % 5) for k in range(5)),
    *((i, j) for pair in _DIAGONAL_PAIRS for i, j in (pair, pair[::-1])))


class _RoomFields(NamedTuple):
    e1: Vec2
    e2: Vec2
    params: DilationParams


class Room(_RoomFields):
    """Validated pentagon model of a dilation torus with one boundary.

    Basis coordinates are ints, floats or Fractions; another type, which
    `_is_oriented` cannot read exactly, raises TypeError, and an int or
    Fraction past the float range, on which no float geometry can be
    built, raises ValueError.

    Two sign tests are exact, on integers: the basis must be positively
    oriented, n1x*n2y*d1y*d2x > n1y*n2x*d1x*d2y on the coordinates'
    integer ratios n/d (`_is_oriented`), and the chords from V1 toward
    V3 and V4 lie inside when nu1*nu2 > 1, read as n1*n2 > d1*d2 on the
    factors' ratios (`_interior_pairs`).  No Fraction is built for a
    float room: the determinant's, in `_basis_det`, only for the message
    of a refused basis and for `canonicalize`.

    Float basis coordinates and parameters must be finite: NaN or an
    infinite parameter would pass the other checks and put NaN vertices,
    or V3 on V2, into the model.  So must the dilation factors and their
    inverses (`DilationParams.nu`), and no two consecutive vertices may
    coincide in unit-basis coordinates: mu1 = 700 is finite throughout
    but leaves 1 - 1/nu1 equal to 1, so V3 would sit on V2.  Each of
    these raises ValueError.  So does, once `geom` is first read, a basis
    so long that the square of the room's diameter overflows.
    """

    def __new__(cls, e1: Vec2, e2: Vec2, params: DilationParams) -> Room:
        x1, y1, x2, y2 = map(as_float, (*e1, *e2), ["a basis coordinate"] * 4)
        if not all(math.isfinite(c) for c in (x1, y1, x2, y2, *params)
                   if isinstance(c, float)):
            raise ValueError(
                "basis coordinates and parameters must be finite, got "
                f"e1={(x1, y1)}, e2={(x2, y2)}, mu={params.as_floats()}")
        if not _is_oriented(e1, e2):
            det = _basis_det(e1, e2)
            m, k = _quarter_split(det)
            shown = (float(det) if not det or sys.float_info.min <= -det
                     <= sys.float_info.max else f"{m} * 4**{k}")
            raise NonOrientedBasis(
                f"basis determinant {shown} must be positive")
        if params.mu1 < 0 and params.mu2 < 0:
            raise OutsideQ(f"parameters {params.as_floats()} are in the "
                           "excluded negative quadrant")
        if params.is_zero():
            raise DegenerateDoor("both parameters vanish; the door has length 0")
        nu1, nu2 = params.nu()
        verts = _pentagon_vertices((1.0, 0.0), (0.0, 1.0), nu1, nu2)
        for k in range(5):
            if verts[k] == verts[(k + 1) % 5]:
                raise ValueError(
                    f"vertices V{k} and V{(k + 1) % 5} coincide in unit-basis "
                    f"coordinates at parameters {params.as_floats()}")
        # with nu1, nu2 <= 1 the door meets the left or the top side
        if not (nu1 > 1.0 or nu2 > 1.0):
            raise NonSimplePentagon(
                f"vertex chain {list(verts)} "
                "self-intersects in unit-basis coordinates: neither "
                f"dilation factor in nu = {(nu1, nu2)} exceeds 1")
        return tuple.__new__(cls, (e1, e2, params))

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: "
                             f"cannot set or delete {name!r}")

    __delattr__ = __setattr__

    # --- derived geometry ---

    @cached_property
    def geom(self) -> "RoomGeometry":
        """Vertices, diameter, side and diagonal tables, computed once
        per instance.

        functools.cached_property stores the value in the instance dict,
        which `__setattr__` leaves alone; eq, hash and repr are the
        tuple's, over the fields only, so equal rooms stay equal whether
        traced or not.
        """
        nu1, nu2 = self.params.nu()
        verts = _pentagon_vertices(self.e1, self.e2, nu1, nu2)
        points = [(float(x), float(y)) for x, y in verts]
        rows = []
        for i, j in _CHORDS:
            (ax, ay), (bx, by) = verts[i], verts[j]
            ex, ey = float(bx - ax), float(by - ay)
            # max(h, 1.0) for an h that is never NaN, without a call
            h = math.hypot(ex, ey)
            rows.append((*points[i], ex, ey,
                         PARALLEL_EPS * (h if h > 1.0 else 1.0)))
        e1x, e1y = points[1]
        v3x, v3y = points[3]
        # (factor, offset x, offset y) of each transport
        transports = (
            # bottom -> top copy: z maps to z/nu1 + V3
            (1.0 / nu1, v3x, v3y),
            # right -> left copy: z maps to (z - e1)/nu2
            (1.0 / nu2, -e1x * (1.0 / nu2), -e1y * (1.0 / nu2)),
            # top -> bottom copy: z maps to nu1*(z - V3)
            (nu1, v3x * (-nu1), v3y * (-nu1)),
            (1.0, 0.0, 0.0),
            # left -> right copy: z maps to nu2*z + e1
            (nu2, e1x, e1y),
        )
        sides = tuple((*row, *transport)
                      for row, transport in zip(rows, transports))
        diagonals = dict(zip(_CHORDS[5:], rows[5:]))
        diam = max(math.hypot(x, y) for x, y in points)
        # the tracer multiplies two coordinates (cross products of points
        # and edge vectors), which must stay in the float range
        if diam * diam == math.inf:
            raise ValueError(f"room diameter {diam!r} is too large: its "
                             "square leaves the float range")
        return RoomGeometry(tuple(Vec2(x, y) for x, y in verts), diam, sides,
                            diagonals, _interior_pairs(nu1, nu2))

    def vertices(self) -> list[Vec2]:
        """V0..V4 of the pentagon model."""
        return list(self.geom.vertices)

    def diameter(self) -> float:
        return self.geom.diameter

    def sides(self) -> list[GluedSide]:
        """Boundary sides in order V0V1, V1V2, V2V3, V3V4 (door), V4V0."""
        v = self.geom.vertices
        return [GluedSide(k, v[k], v[(k + 1) % 5], _PARTNERS[k] is None,
                          factor, Vec2(ox, oy))
                for k, (*_, factor, ox, oy) in enumerate(self.geom.sides)]

    # --- directions ---

    def door_direction(self) -> float:
        """Direction of the door segment, reduced mod pi into [0, pi).
        The door is the side V3V4, row 3 of `geom.sides`."""
        _, _, ex, ey, *_ = self.geom.sides[3]
        return wrap_pi(math.atan2(ey, ex))

    def _inward_normal(self) -> tuple[float, float]:
        """Unit normal of the door pointing into the pentagon: its edge
        vector (ex, ey) turned by +pi/2."""
        _, _, ex, ey, *_ = self.geom.sides[3]
        if not (ex or ey):
            raise ValueError("the door V3V4 has length 0 in float coordinates")
        inv = 1.0 / math.hypot(-ey, ex)
        return (-ey * inv, ex * inv)

    def inward_directions(self) -> tuple[float, float]:
        """Open half-circle (lo, lo + pi) of directions entering at the door."""
        nx, ny = self._inward_normal()
        lo = wrap_2pi(math.atan2(ny, nx) - math.pi / 2.0)
        return (lo, lo + math.pi)

    def is_inward(self, theta: float) -> bool:
        nx, ny = self._inward_normal()
        return math.cos(theta) * nx + math.sin(theta) * ny > 0.0


def build_room(e1, e2, mu) -> Room:
    """Validated constructor from raw basis coordinates and parameters;
    non-finite floats among them, and parameters out of the float range
    (see `Room`), raise ValueError."""
    if not isinstance(e1, Vec2):
        e1 = Vec2(*e1)
    if not isinstance(e2, Vec2):
        e2 = Vec2(*e2)
    if not isinstance(mu, DilationParams):
        m1, m2 = mu
        mu = DilationParams(m1, m2)
    return Room(e1, e2, mu)


def square_room(mu1: Scalar, mu2: Scalar) -> Room:
    """Room over the standard unit basis."""
    return build_room((1.0, 0.0), (0.0, 1.0), (mu1, mu2))


def apply_sl2(m: SL2Matrix, room: Room) -> Room:
    """Linear action on the basis; parameters are untouched."""
    return Room(m.apply(room.e1), m.apply(room.e2), room.params)


def canonicalize(room: Room) -> Room:
    """Rescale the basis so that det(e1, e2) = 1."""
    m, k = _quarter_split(_basis_det(room.e1, room.e2))
    # 2^-k goes onto each coordinate before 1/sqrt(m), since their
    # product leaves the float range below det = 1e-616 or so, and in two
    # float halves, since a coordinate past the range must read inf for
    # Room to refuse, where math.ldexp raises OverflowError
    half = -k // 2
    lo, hi, s = 2.0 ** half, 2.0 ** (-k - half), 1.0 / math.sqrt(m)
    return Room(room.e1 * lo * hi * s, room.e2 * lo * hi * s, room.params)
