"""Two-slope interval maps with a single discontinuity.

The family is parametrised by slopes (rho_a, rho_b) and a break point x_t:

    T(x) = rho_a * x + (1 - rho_a * x_t)   on  [0, x_t)
    T(x) = rho_b * (x - x_t)               on  (x_t, 1]

so the left limit at the break is 1 and the right limit is 0.  Injectivity
amounts to rho_b*(1 - x_t) <= 1 - rho_a*x_t; equality is the circle-map case
where the two branch images share an endpoint.  Maps produced as first
returns of boundary flows arrive as general piecewise-affine data and are
brought to this normal form by restricting to the image interval.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .errors import AtDiscontinuity, NotInHole, NotReducible
from .quadratics import Scalar, as_float, slack

# Every tolerance below applies to float data only: through
# quadratics.slack, data whose numbers are all exact compares exactly.
# In the [0, 1] coordinate of a float TwoSlopeMap: how far
# rho_b*(1 - x_t) may exceed 1 - rho_a*x_t.
INJECTIVITY_SLACK: float = 1e-12
# Agreement of two affine laws or two one-sided limits.  AffineBranch.same_law
# applies it absolutely, to the slope (unitless) and to the intercept
# (domain units); PiecewiseAffineMap scales it by max(1, |domain ends|)
# in its contiguity, overlap and jump tests.
MERGE_TOL: float = 1e-12
# Slack of restrict_to_image's containment and interior-jump tests: in
# domain units against the domain ends, and as a fraction of the image
# width around the jump and the image interval.
IMAGE_TOL: float = 1e-9


def check_two_slope(rho_a: Scalar, rho_b: Scalar, x_t: Scalar,
                    tol: float) -> None:
    """ValueError unless (rho_a, rho_b, x_t) is a two-slope map: positive
    slopes, not both above 1, a break point inside (0, 1), and branch
    images that overlap by at most `tol`, which is
    `slack(INJECTIVITY_SLACK, rho_a, rho_b, x_t)`."""
    if not (rho_a > 0 and rho_b > 0):
        raise ValueError("slopes must be positive")
    if rho_a > 1 and rho_b > 1:
        raise ValueError("slopes may not both exceed 1")
    if not (0 < x_t < 1):
        raise ValueError(f"break point {x_t} must lie in (0, 1)")
    lhs = rho_b * (1 - x_t)
    rhs = 1 - rho_a * x_t
    if lhs > rhs + tol:
        raise ValueError(
            f"branch images overlap: rho_b*(1-x_t)={lhs} exceeds "
            f"1-rho_a*x_t={rhs}")


class _TwoSlopeFields(NamedTuple):
    rho_a: Scalar
    rho_b: Scalar
    x_t: Scalar


class TwoSlopeMap(_TwoSlopeFields):
    __slots__ = ()

    def __new__(cls, rho_a: Scalar, rho_b: Scalar, x_t: Scalar) -> TwoSlopeMap:
        check_two_slope(rho_a, rho_b, x_t,
                        slack(INJECTIVITY_SLACK, rho_a, rho_b, x_t))
        return tuple.__new__(cls, (rho_a, rho_b, x_t))


def evaluate(tsm: TwoSlopeMap, x: Scalar) -> Scalar:
    """Branch value at x; the break point raises AtDiscontinuity."""
    ra, rb, xt = tsm
    if not (0 <= x <= 1):
        raise ValueError(f"{x} is outside [0, 1]")
    if x == xt:
        raise AtDiscontinuity(f"map is undefined at its break point {x}")
    if x < xt:
        return ra * x + (1 - ra * xt)
    return rb * (x - xt)


class PeriodicCycle(NamedTuple):
    """The points of a periodic orbit, in orbit order, and the slope
    product along it."""

    points: tuple[Scalar, ...]
    multiplier: Scalar

    @property
    def period(self) -> int:
        return len(self.points)


def thresholds(rho_a: Scalar, rho_b: Scalar) -> tuple[Scalar, Scalar]:
    """The hole's ends: B wins below the first, A above the second."""
    return (rho_b / (1 + rho_b), 1 / (1 + rho_a))


def attracting_cycle_in_hole(tsm: TwoSlopeMap) -> PeriodicCycle:
    """Closed-form period-2 attractor when the break point misses the image.

    With x_t strictly inside the hole (`thresholds`) the image of [0,1]
    avoids x_t, both branches map across the break, and T^2 contracts
    with factor rho_a*rho_b < 1 toward a unique 2-cycle.  `tsm` may be
    any (rho_a, rho_b, x_t) triple of a valid map.
    """
    ra, rb, xt = tsm
    lo, hi = thresholds(ra, rb)
    if not (lo < xt < hi):
        raise NotInHole(
            f"x_t={xt} is not strictly inside the hole ({lo}, {hi})")
    mult = ra * rb
    intercept_a = 1 - ra * xt
    x_star = rb * (intercept_a - xt) / (1 - mult)
    y_star = ra * x_star + intercept_a
    return PeriodicCycle((x_star, y_star), mult)


# --- general piecewise-affine data and reduction to the normal form ---

class _BranchFields(NamedTuple):
    lo: Scalar
    hi: Scalar
    slope: Scalar
    intercept: Scalar


class AffineBranch(_BranchFields):
    __slots__ = ()

    def __new__(cls, lo: Scalar, hi: Scalar, slope: Scalar,
                intercept: Scalar) -> AffineBranch:
        if not lo < hi:
            raise ValueError("branch interval is empty")
        if not slope > 0:
            raise ValueError("branches must be orientation-preserving")
        return tuple.__new__(cls, (lo, hi, slope, intercept))

    def value(self, x: Scalar) -> Scalar:
        return self.slope * x + self.intercept

    def same_law(self, other: "AffineBranch") -> bool:
        tol = slack(MERGE_TOL, self.slope, self.intercept, other.slope,
                    other.intercept)
        return (abs(self.slope - other.slope) <= tol
                and abs(self.intercept - other.intercept) <= tol)


class _PiecewiseFields(NamedTuple):
    branches: tuple[AffineBranch, ...]


class PiecewiseAffineMap(_PiecewiseFields):
    """Finitely many increasing affine branches on contiguous intervals,
    stored merged: no two neighbours continue the same affine law.

    `_tol`, the one allowance of every test below, is decided at
    construction and kept in the instance dict, out of eq and repr.
    """

    def __new__(cls, branches: tuple[AffineBranch, ...]
                ) -> PiecewiseAffineMap:
        if not branches:
            raise ValueError("need at least one branch")
        tol = slack(MERGE_TOL, *chain.from_iterable(branches))
        if tol:     # float data: scaled by the domain ends
            lo, hi = branches[0].lo, branches[-1].hi
            tol *= max(1.0, abs(as_float(lo, "the domain's low end")),
                       abs(as_float(hi, "the domain's high end")))
        for left, right in zip(branches, branches[1:]):
            if abs(left.hi - right.lo) > tol:
                raise ValueError("branch intervals must be contiguous")
        images = [(b.value(b.lo), b.value(b.hi)) for b in branches]
        for i, (lo_i, hi_i) in enumerate(images):
            for lo_j, hi_j in images[i + 1:]:
                if min(hi_i, hi_j) - max(lo_i, lo_j) > tol:
                    raise ValueError("branch images overlap; map is not injective")
        # validated as given, stored merged: a neighbour that continues the
        # same affine law is fused into the first branch's law, so one
        # pass leaves no such pair and a second would change nothing
        fused = [branches[0]]
        for b in branches[1:]:
            if fused[-1].same_law(b):
                fused[-1] = AffineBranch(fused[-1].lo, b.hi, fused[-1].slope,
                                         fused[-1].intercept)
            else:
                fused.append(b)
        self = tuple.__new__(cls, (tuple(fused),))
        self.__dict__["_tol"] = tol
        return self

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: "
                             f"cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def domain(self) -> tuple[Scalar, Scalar]:
        return (self.branches[0].lo, self.branches[-1].hi)

    def jumps(self) -> list[tuple[Scalar, Scalar, Scalar]]:
        """(point, left limit, right limit) at each interior breakpoint
        where the limits genuinely disagree."""
        out = []
        for left, right in zip(self.branches, self.branches[1:]):
            a, b = left.value(left.hi), right.value(right.lo)
            if abs(a - b) > self._tol:
                out.append((left.hi, a, b))
        return out


class _ChartFields(NamedTuple):
    scale: Scalar
    offset: Scalar


class AffineChart(_ChartFields):
    """Invertible affine coordinate change y = scale * x + offset."""

    __slots__ = ()

    def __new__(cls, scale: Scalar, offset: Scalar) -> AffineChart:
        if scale == 0:
            raise ValueError("chart must be invertible")
        return tuple.__new__(cls, (scale, offset))

    def apply(self, x: Scalar) -> Scalar:
        return self.scale * x + self.offset

    def invert(self, y: Scalar) -> Scalar:
        return (y - self.offset) / self.scale


def downward_jump(pam: PiecewiseAffineMap) -> tuple[Scalar, Scalar, Scalar]:
    """(jump point, image start, image end) of a two-branch map that
    jumps down between its branches; NotReducible for any other."""
    jumps = pam.jumps()
    if len(pam.branches) != 2 or len(jumps) != 1:
        raise NotReducible(
            f"need exactly one jump between two affine branches, found "
            f"{len(pam.branches)} branches and {len(jumps)} jumps")
    x_d, left_limit, right_limit = jumps[0]
    if right_limit > left_limit:
        raise NotReducible(
            "the jump goes upward; the image has an interior gap and the "
            "map is not conjugate to a two-slope normal form")
    return x_d, right_limit, left_limit


def restrict_to_image(pam: PiecewiseAffineMap
                      ) -> tuple[TwoSlopeMap, AffineChart]:
    """Normal form of an injective one-jump map on its image interval.

    The smallest closed interval containing the image is bounded by the two
    one-sided limits at the jump; restricting there and rescaling to [0,1]
    yields a TwoSlopeMap together with the chart that conjugates them.  The
    jump must go downward: affine conjugation in either orientation keeps
    the jump direction, so an upward jump can never reach the normal form
    whose break spans the whole interval from below.
    """
    x_d, j_lo, j_hi = downward_jump(pam)
    width = j_hi - j_lo
    dom_lo, dom_hi = pam.domain
    tol = slack(IMAGE_TOL, j_lo, j_hi, x_d, dom_lo, dom_hi)
    if j_lo < dom_lo - tol or j_hi > dom_hi + tol:
        raise NotReducible("image interval escapes the domain")
    margin = tol * width
    if not (j_lo + margin < x_d < j_hi - margin):
        raise NotReducible(
            f"jump point {x_d} is not interior to the image interval "
            f"[{j_lo}, {j_hi}]")
    left, right = pam.branches
    if (left.value(max(left.lo, j_lo)) < j_lo - margin
            or right.value(min(right.hi, j_hi)) > j_hi + margin):
        raise NotReducible("restriction does not map the image interval "
                           "into itself")
    chart = AffineChart(1 / width, -j_lo / width)
    try:
        tsm = TwoSlopeMap(left.slope, right.slope, chart.apply(x_d))
    except ValueError as exc:
        raise NotReducible(f"restricted map is not a valid two-slope map: "
                           f"{exc}") from exc
    return tsm, chart
