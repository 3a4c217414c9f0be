"""Geodesic flow on rooms and trend-based divergence monitoring.

The diagonal flow squeezes the vertical basis direction and stretches
the horizontal one while leaving the dilation parameters alone, so
cylinders of the starting room persist with the same multiplier while
their direction intervals move projectively.  Divergence of the flowed
family cannot be certified by a finite computation; the monitor instead
samples a time grid and raises explicit trend flags: cylinder angles
approaching 0 or pi (criterion 1), or multipliers of bounded-angle
cylinders blowing up past MULTIPLIER_THRESHOLD (criterion 2).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .geometry import (
    Room,
    SL2Matrix,
    apply_sl2,
    geodesic_matrix,
    projective_action,
    wrap_2pi,
)
from .surface import (UNDECIDED_ERRORS, Cylinder, _runs, classify_direction,
                      find_cylinders)

# Criterion 1 fires within DEFAULT_THETA_TOL radians of 0 or pi, and a
# step of the theta_sup series counts as monotone up to TREND_SLACK
# radians against the trend.  Criterion 2 fires at a multiplier
# (unitless) above MULTIPLIER_THRESHOLD.  The window probes cover flowed
# angles within PROBE_WINDOW radians of horizontal on either side.
DEFAULT_THETA_TOL = 0.05
MULTIPLIER_THRESHOLD = 1e6
PROBE_WINDOW = 1.2
TREND_SLACK = 1e-9
# Window probes join one run while their multipliers agree within this
# fraction (unitless) of the run's first multiplier.
MULTIPLIER_RUN_TOL = 1e-9


def flow(room: Room, t: float) -> Room:
    """Room moved time t along the diagonal geodesic flow."""
    return apply_sl2(geodesic_matrix(t), room)


def track_direction_interval(m: SL2Matrix,
                             interval: tuple[float, float]) -> tuple[float, float]:
    """Image of a direction interval under the projective action.

    The action commutes with the antipodal map, so an interval shorter
    than pi (one projective chart) maps to an interval shorter than pi;
    the result keeps the endpoint order and the length interpretation.
    An image length of pi or more is therefore rounding: of an arc
    within an ulp of pi, as for an interval straddling the horizontal
    late in the flow, which is clamped to pi, or of an arc within an ulp
    of 0 whose endpoints swapped, which is clamped to 0.
    """
    t1, t2 = interval
    if not 0.0 < t2 - t1 < math.pi:
        raise ValueError("interval must have length in (0, pi)")
    d1 = projective_action(m, t1)
    d2 = projective_action(m, t2)
    length = wrap_2pi(d2 - d1)
    if length >= math.pi:
        length = math.pi if length < 1.5 * math.pi else 0.0
    return (d1, d1 + length)


def distortion(t: float) -> float:
    """Bound on the derivative ratio of the flow's projective action.

    Over the directions that land in [-pi/4, pi/4] at time t, the
    derivative e^t (1 + e^{-2t} u^2) / (1 + u^2) with u = e^t tan(theta)
    attains its extremes at u = 0 and u = 1, giving the closed form
    2 / (1 + e^{-2t}): equal to 1 at t = 0 and increasing to 2.
    """
    if not t >= 0:
        raise ValueError("distortion is defined for t >= 0")
    return 2.0 / (1.0 + math.exp(-2.0 * t))


# --- divergence monitor ---

class FlowSample(NamedTuple):
    """One sample of the monitor: `verdict_flags` holds
    "Criterion1Fired" and "Criterion2Fired" for the criteria that fired
    at time t."""

    t: float
    theta_sup: float
    max_multiplier: float
    verdict_flags: frozenset[str]
    budget_exhausted: bool


class MonitorReport(NamedTuple):
    samples: tuple[FlowSample, ...]
    # the time-0 cylinders, followed through the flow by interval images
    tracked: tuple[Cylinder, ...]
    criterion1: bool
    criterion2: bool


def _window_hits(room: Room, t: float, eps_angle: float, budget: int
                 ) -> tuple[list[tuple[float, float]], bool]:
    """Cylinders near horizontal at flow time t, as (flowed angle, multiplier).

    Probes are uniform in the flowed angle, within PROBE_WINDOW of the
    horizontal and eps_angle clear of the vertical, and pulled back to
    the base room, where classification stays well conditioned at every
    t; the multiplier is a flow invariant, so no flowed-room computation
    is needed.  Runs are grouped by multiplier (renormalization words vary
    with the reducing section even for one cylinder), and the run extent
    in flowed angle is the coarse angle the caller compares to eps.
    """
    emt = math.exp(-t)
    step = eps_angle / 2.0
    half = min(PROBE_WINDOW, math.pi / 2.0 - 2.0 * step)
    # an eps_angle of pi/2 or more leaves no window, and no probe
    n = max(2, math.ceil(2.0 * half / step)) if half > 0.0 else 0
    exhausted = False
    mults: list[Optional[float]] = []
    for k in range(n):
        phi = -half + (k + 0.5) * (2.0 * half / n)
        theta = math.atan(emt * math.tan(phi))
        try:
            v = classify_direction(room, theta, budget=budget)
        except UNDECIDED_ERRORS:
            mults.append(None)
            continue
        exhausted = exhausted or v.exhausted
        mults.append(v.multiplier if v.kind == "cylinder" else None)
    runs = _runs(mults, lambda m, x: abs(x - m) <= MULTIPLIER_RUN_TOL * m)
    hits = [((k_end - k + 1) * (2.0 * half / n), mults[k])
            for k, k_end in runs]
    return hits, exhausted


def divergence_monitor(room: Room, t_max: float, steps: int,
                       eps_angle: float, budget: int,
                       theta_tol: float = DEFAULT_THETA_TOL) -> MonitorReport:
    """Sample the flow on a uniform grid and raise divergence trend flags.

    Criterion 1 fires when theta_sup sits within theta_tol of 0 or pi
    and the last quarter of the series trends that way monotonically.
    Criterion 2 fires when max_multiplier exceeds MULTIPLIER_THRESHOLD;
    since max_multiplier only counts cylinders whose angle is still
    >= eps_angle at the sample, the blowup is always witnessed by a
    cylinder of bounded angle.  Per-sample budget exhaustion is flagged,
    never fatal.  The baseline `find_cylinders` refuses an eps_angle that
    is not positive and finite before any sample, and its first
    `classify_direction` a negative budget before any flight.
    """
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError("t_max must be finite and nonnegative, "
                         f"got {t_max!r}")
    if not (math.isfinite(theta_tol) and theta_tol >= 0):
        raise ValueError("theta_tol must be finite and nonnegative, "
                         f"got {theta_tol!r}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps!r}")
    # t_max is the largest sample time, and the flow matrix leaves the
    # float range as |t| grows, so one past it is refused before any scan
    geodesic_matrix(t_max)
    baseline = find_cylinders(room, eps_angle, budget=budget)
    if t_max == 0 or steps == 0:
        times = [0.0]
    else:
        times = [t_max * k / steps for k in range(steps + 1)]

    samples: list[FlowSample] = []
    sup_series: list[float] = []
    fired1 = fired2 = False
    for t in times:
        g = geodesic_matrix(t)
        spans = []
        for c in baseline.cylinders:
            d1, d2 = track_direction_interval(g, (c.theta1, c.theta2))
            spans.append((d2 - d1, c.multiplier))
        hits, window_exhausted = _window_hits(room, t, eps_angle, budget)
        exhausted = baseline.exhausted or window_exhausted
        max_mult = 1.0
        theta_sup_t = 0.0
        for angle, mult in spans + hits:
            theta_sup_t = max(theta_sup_t, angle)
            if angle >= eps_angle:
                max_mult = max(max_mult, mult)
        sup_series.append(theta_sup_t)

        flags = set()
        quarter = sup_series[-max(2, (len(sup_series) + 3) // 4):]
        if len(sup_series) >= 2:
            toward_pi = (theta_sup_t >= math.pi - theta_tol
                         and all(b >= a - TREND_SLACK
                                 for a, b in zip(quarter, quarter[1:])))
            toward_zero = (theta_sup_t <= theta_tol
                           and all(b <= a + TREND_SLACK
                                   for a, b in zip(quarter, quarter[1:])))
            if toward_pi or toward_zero:
                flags.add("Criterion1Fired")
        if max_mult > MULTIPLIER_THRESHOLD:
            flags.add("Criterion2Fired")
        fired1 = fired1 or "Criterion1Fired" in flags
        fired2 = fired2 or "Criterion2Fired" in flags
        samples.append(FlowSample(t, theta_sup_t, max_mult,
                                  frozenset(flags), exhausted))
    return MonitorReport(tuple(samples), baseline.cylinders, fired1, fired2)
