"""Brute-force oracles used to validate the fast paths.

The oracles are written directly from the definitions: orbits are
iterated point by point and first returns are observed, not computed in
closed form.  One oracle shares package code on purpose:
`iterate_induction_oracle` is a plain loop over the public single steps
`rauzy.classify_step` and `rauzy.induce`, with the halting 2-cycle taken
from `intervalmaps.attracting_cycle_in_hole`, so it checks how
`rauzy.iterate_induction` chains the steps and lifts the cycle, not the
steps themselves.  That is sound because each shared step is held to an
independent oracle of its own: `induction_step_oracle` reads the winner,
induced map and chart off exact first returns, acceptance criterion 02
holds `induce` to simulated first returns, and `find_periodic_oracle`
finds the 2-cycle by iteration.
"""

from __future__ import annotations

import argparse
import decimal
import math
import random
from fractions import Fraction
from typing import Callable, Optional, Sequence

from dilatorus import cli, rauzy
from dilatorus.errors import (BudgetExhausted, InadmissibleAtStep,
                              NonConvergence, NotTransverse, VertexHit)
from dilatorus.geometry import (PARALLEL_EPS, DilationParams, Room, SL2Matrix,
                                Vec2, angle_dist_mod_pi, unit)
from dilatorus.intervalmaps import (AffineBranch, AffineChart,
                                    PeriodicCycle, PiecewiseAffineMap,
                                    TwoSlopeMap, attracting_cycle_in_hole,
                                    evaluate)
from dilatorus.quadratics import QuadraticNumber, Scalar, is_exact, slack
from dilatorus.rauzy import (FLOAT_SLOPE_MAX, FLOAT_SLOPE_MIN, RauzyOutcome,
                             classify_step, induce)
from dilatorus.surface import (BRANCH_BISECT_TOL, BRANCH_MIN_GAP,
                               BRANCH_VERIFY_TOL, CLEARANCE,
                               DOOR_ANGLE_TOL, EXACT_DENOMINATOR_CAP,
                               EXACT_ORBIT_CAP, MAX_CROSSINGS, MIN_STEP,
                               RETURN_SAMPLES, ROTATION_ANCHOR_RADIUS,
                               ROTATION_CYCLE_TOL, TRANSVERSALITY_FLOOR,
                               VERTEX_TOL, RayTrace)
from dilatorus.twists import twist_mu


class _RaisingParser(argparse.ArgumentParser):
    """argparse that raises `cli.UsageError` instead of printing usage
    and exiting."""

    def error(self, message):
        raise cli.UsageError(message)


def argparse_grammar(command: Optional[str] = None):
    """The CLI grammar as argparse reads it, built from the
    `cli._COMMANDS` rows with prefix matching off: of `command` alone,
    or of every command under one top-level parser.  The reference the
    CLI's own parser, `cli._Grammar`, is compared against."""
    def declare(parser, name):
        for flag, keywords in cli._COMMANDS[name][2]:
            parser.add_argument(flag, **keywords)
        return parser

    if command is not None:
        return declare(_RaisingParser(prog=f"dilatorus {command}",
                                      allow_abbrev=False), command)
    top = _RaisingParser(prog="dilatorus", allow_abbrev=False)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, help_line, _) in cli._COMMANDS.items():
        declare(sub.add_parser(name, help=help_line, allow_abbrev=False),
                name)
    return top


def random_sl2(rng: random.Random, spread: float = 0.6) -> SL2Matrix:
    """rot @ diag(e^s, e^-s) @ rot with uniform rotation angles and the
    log-stretch s uniform in [-spread, spread]."""
    rot1 = SL2Matrix.rotation(rng.uniform(0.0, 2.0 * math.pi))
    rot2 = SL2Matrix.rotation(rng.uniform(0.0, 2.0 * math.pi))
    lam = math.exp(rng.uniform(-spread, spread))
    stretch = SL2Matrix(lam, 0.0, 0.0, 1.0 / lam)
    return rot1 @ stretch @ rot2


def two_slope_value(ra: float, rb: float, xt: float, x: float) -> float:
    if x < xt:
        return ra * x + (1.0 - ra * xt)
    return rb * (x - xt)


def simulate_first_return(ra: float, rb: float, xt: float, x: float,
                          winner: str, cap: int = 256) -> float:
    """Iterate until the orbit re-enters the induced subinterval."""
    if winner == "A":
        in_sub: Callable[[float], bool] = lambda y: 0.0 <= y < xt
    else:
        in_sub = lambda y: xt < y <= 1.0
    y = two_slope_value(ra, rb, xt, x)
    for _ in range(cap):
        if in_sub(y):
            return y
        y = two_slope_value(ra, rb, xt, y)
    raise RuntimeError("orbit did not return; not a winner configuration?")


def normalize(xt: float, winner: str, u: float) -> float:
    """Affine chart from the induced subinterval onto [0, 1]."""
    if winner == "A":
        return u / xt
    return (u - xt) / (1.0 - xt)


def valid_break_window(ra: float, rb: float) -> tuple[float, float]:
    """Open interval of break points giving injective maps."""
    if ra <= 1.0 and rb <= 1.0:
        return (0.0, 1.0)
    x_star = (1.0 - rb) / (ra - rb)
    if ra > 1.0:
        return (0.0, x_star)
    return (x_star, 1.0)


def random_winner_triple(rng: random.Random) -> tuple[float, float, float, str]:
    """Random valid (rho_a, rho_b, x_t) whose step has a winner."""
    while True:
        ra = pow(2.718281828459045, rng.uniform(-2.0, 2.0))
        rb = pow(2.718281828459045, rng.uniform(-2.0, 2.0))
        if ra > 1.0 and rb > 1.0:
            continue
        lo, hi = valid_break_window(ra, rb)
        thr_b = rb / (1.0 + rb)
        thr_a = 1.0 / (1.0 + ra)
        regions = []
        b_lo, b_hi = max(lo, 0.0), min(hi, thr_b)
        if b_hi - b_lo > 1e-6:
            regions.append(("B", b_lo, b_hi))
        a_lo, a_hi = max(lo, thr_a), min(hi, 1.0)
        if a_hi - a_lo > 1e-6:
            regions.append(("A", a_lo, a_hi))
        if not regions:
            continue
        winner, w_lo, w_hi = rng.choice(regions)
        margin = 1e-4 * (w_hi - w_lo)
        xt = rng.uniform(w_lo + margin, w_hi - margin)
        return (ra, rb, xt, winner)


def compare_induction_to_simulation(induce_fn, n_triples: int,
                                    seed: int = 20260817,
                                    samples_per_triple: int = 17) -> float:
    """Sup-norm disagreement between closed-form induction and simulation.

    `induce_fn(ra, rb, xt)` must return the induced map's data as a triple
    (rho_a', rho_b', x_t') in normalized coordinates.
    """
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n_triples):
        ra, rb, xt, winner = random_winner_triple(rng)
        ca, cb, cxt = induce_fn(ra, rb, xt)
        if winner == "A":
            sub_lo, sub_hi = 0.0, xt
        else:
            sub_lo, sub_hi = xt, 1.0
        for k in range(1, samples_per_triple + 1):
            x = sub_lo + (sub_hi - sub_lo) * k / (samples_per_triple + 1.0)
            u = normalize(xt, winner, x)
            # skip points that straddle either discontinuity
            if abs(u - cxt) < 1e-6 or abs(x - xt) < 1e-9:
                continue
            got = normalize(xt, winner, simulate_first_return(ra, rb, xt, x, winner))
            want = two_slope_value(ca, cb, cxt, u)
            worst = max(worst, abs(got - want))
    return worst


def lift_cycle_oracle(tsm: TwoSlopeMap, final: TwoSlopeMap,
                      charts: list[AffineChart], period: int) -> PeriodicCycle:
    """The cycle of `tsm` that the 2-cycle of its induced map `final`
    lifts to, through the AffineCharts of the steps: one cycle point is
    sent back by `AffineChart.invert`, and the others follow by one
    `intervalmaps.evaluate` per point, for `period` points.  Refused
    with NonConvergence as `rauzy` refuses it: a period past
    `rauzy.RECONSTRUCT_CAP` before any step, and a lift that is not back
    within `rauzy.CYCLE_CLOSE_TOL` of its first point after its period."""
    if period > rauzy.RECONSTRUCT_CAP:
        raise NonConvergence(f"cycle period {period} exceeds the "
                             f"reconstruction cap {rauzy.RECONSTRUCT_CAP}")
    seed = attracting_cycle_in_hole(final).points[0]
    for chart in reversed(charts):
        seed = chart.invert(seed)
    ra, rb, xt = tsm
    pts = [seed]
    mult = ra if seed < xt else rb
    x = evaluate(tsm, seed)
    for _ in range(period - 1):
        pts.append(x)
        mult = mult * (ra if x < xt else rb)
        x = evaluate(tsm, x)
    tol = slack(rauzy.CYCLE_CLOSE_TOL, ra, rb, xt, seed)
    if not abs(x - seed) <= tol:        # a NaN never closes
        raise NonConvergence(
            f"cycle lift does not return to its first point after its period "
            f"of {period} steps; the chart pullback must be wrong")
    return PeriodicCycle(tuple(pts), mult)


def iterate_induction_oracle(tsm: TwoSlopeMap, budget: int) -> RauzyOutcome:
    """`rauzy.iterate_induction` as a plain loop over the public
    `classify_step` and `induce`, which classifies each step a second
    time and builds each induced map and chart as a TwoSlopeMap and an
    AffineChart.  A halt is lifted to the original map by
    `lift_cycle_oracle`, for the period that the loop counts: the
    current map's branches return to the original map after `times` =
    (t_a, t_b) steps, and each induced branch is one old branch followed
    by the other or by itself alone."""
    current = tsm
    charts = []
    word = ""
    times = (1, 1)
    while True:
        verdict = classify_step(*current)
        if verdict == "halt":
            return RauzyOutcome(word, "halt",
                                lift_cycle_oracle(tsm, current, charts,
                                                  sum(times)))
        if verdict == "boundary":
            return RauzyOutcome(word, "boundary", None)
        if len(word) == budget:
            break
        if not is_exact(*current) and not all(
                FLOAT_SLOPE_MIN < float(rho) < FLOAT_SLOPE_MAX
                for rho in (current.rho_a, current.rho_b)):
            break
        step = induce(current)
        t_a, t_b = times
        word += step.letter
        if step.letter == "L":                  # induced on the B branch
            times = (t_b + t_a, t_b)
        else:                                   # induced on the A branch
            times = (t_a, t_a + t_b)
        charts.append(step.chart)
        current = step.induced
    return RauzyOutcome(word, "budget_exhausted", None)


def induction_step_oracle(ra: Fraction, rb: Fraction, xt: Fraction
                          ) -> Optional[tuple[str, tuple, tuple]]:
    """One renormalization step of the exact map TwoSlopeMap(ra, rb, xt),
    read off its first return without `rauzy`: (letter, (rho_a, rho_b,
    x_t) of the induced map, (scale, offset) of the chart), or None
    without a winner.

    B wins (letter L) when x_t lies inside the right branch's image,
    x_t < T(1) = rb*(1 - xt), and the step induces on J = (x_t, 1]; A
    wins (letter R) when x_t > T(0) = 1 - ra*xt, inducing on J = [0, x_t).
    The chart is the increasing affine map of J onto [0, 1].  The first
    return to J is evaluated exactly at the two rescaled points eps and
    1 - eps, one on each branch of the normal form: its slope there is
    the product of the slopes along the orbit, and its intercept follows
    from the value.  The left law reaches 1 and the right law leaves 0
    at the same break point, which checks the normal form.
    """
    eps = Fraction(1, 10 ** 40)

    def step(x):
        if x < xt:
            return ra * x + 1 - ra * xt, ra
        return rb * (x - xt), rb

    if xt < rb * (1 - xt):
        letter, lo, hi = "L", xt, Fraction(1)
    elif xt > 1 - ra * xt:
        letter, lo, hi = "R", Fraction(0), xt
    else:
        return None
    scale, offset = 1 / (hi - lo), -lo / (hi - lo)
    laws = []
    for u in (eps, 1 - eps):
        x, slope = step(lo + u * (hi - lo))
        for _ in range(100):
            if lo < x < hi:
                break
            assert x != xt, "a first return hit the break point"
            x, factor = step(x)
            slope *= factor
        else:
            raise AssertionError("no first return within 100 steps")
        laws.append((slope, scale * x + offset - slope * u))
    (rho_a, c_a), (rho_b, c_b) = laws
    x_new = (1 - c_a) / rho_a
    assert x_new == -c_b / rho_b, "the return is not in normal form"
    assert eps < x_new < 1 - eps
    return letter, (rho_a, rho_b, x_new), (scale, offset)


# --- ray tracing on Vec2, straight from the room's public sides ---

# Gluing of the pentagon model: bottom <-> top, right <-> left; side 3,
# from V3 to V4, is the door.
_GLUED = {0: 2, 1: 4, 2: 0, 4: 1}


def _leaves_through(u: Vec2, a: Vec2, b: Vec2) -> bool:
    """Whether a ray along u leaves the counter-clockwise pentagon
    through its side from a to b: u x (b - a) exceeds the side's
    parallel floor."""
    e = b - a
    return u.cross(e) > PARALLEL_EPS * max(e.length(), 1.0)


def _leg_law(b: Vec2, f: Vec2, u: Vec2, a: Vec2,
             e: Vec2) -> tuple[float, float, float, float]:
    """(S0, S1, T0, T1) of the crossing of the segment a + s*e by the ray
    along u from b + sigma*f: with d = a - b it sits at
    s = S0 + S1*sigma and t = T0 + T1*sigma."""
    denom = u.cross(e)
    d = a - b
    return (d.cross(u) / denom, u.cross(f) / denom, d.cross(e) / denom,
            e.cross(f) / denom)


def _least_t_exit(laws: list[tuple], sigma: float, t_base: float
                  ) -> Optional[tuple]:
    """The (side, S0, S1, T0, T1) of least t > t_base among those whose
    s lies within VERTEX_TOL of [0, 1] at sigma, the first on a tie."""
    best = None
    for law in laws:
        t = law[3] + law[4] * sigma
        s = law[1] + law[2] * sigma
        if (t_base < t and -VERTEX_TOL <= s <= 1.0 + VERTEX_TOL
                and (best is None or t < best[3] + best[4] * sigma)):
            best = law
    return best


def _side_leg(laws: list[tuple], sigma: float, top: float,
              t_base: float) -> Optional[tuple]:
    """The exit a leg at sigma takes, by the rule of the leg tables in
    `surface.Heading.legs`, worked out afresh: the laws' cuts in
    (0, top), where an s reaches -VERTEX_TOL or 1 + VERTEX_TOL, a t
    reaches t_base or two t meet, bound the piece of sigma, and the
    exit of least t at the piece's midpoint is taken."""
    cuts = []
    for _, s0, s1, t0, t1 in laws:
        if s1:
            cuts += [(-VERTEX_TOL - s0) / s1, (1.0 + VERTEX_TOL - s0) / s1]
        if t1:
            cuts.append((t_base - t0) / t1)
    for n, a in enumerate(laws):
        for b in laws[n + 1:]:
            if a[4] != b[4]:
                cuts.append((b[3] - a[3]) / (a[4] - b[4]))
    cuts = [c for c in cuts if 0.0 < c < top]
    lo = max([c for c in cuts if c <= sigma], default=0.0)
    hi = min([c for c in cuts if c > sigma], default=top)
    return _least_t_exit(laws, 0.5 * (lo + hi), t_base)


def trace_ray_oracle(room: Room, p: float, theta: float, max_crossings: int,
                     section: tuple[int, int]) -> RayTrace:
    """`surface.trace_ray` written over Vec2, `Room.sides()` and the
    section's endpoints, with no side, diagonal or leg table; it must
    agree with the fast tracer bit for bit.

    `p` is the arc-length coordinate of a point on `section`, a
    section that theta crosses, as `surface.Direction.heading` requires.  Every
    leg starts on a side or on the section at a coordinate sigma, takes
    the laws of every exit and of the section from scratch (`_leg_law`)
    and its exit by the rule of the leg tables (`_side_leg`); a
    transport through a side at s lands on its partner at
    sigma = 1 - s.  End points, (x, y) pairs of floats, are taken on the
    side or section crossed."""
    sides = room.sides()
    diam = room.diameter()
    u = unit(theta)
    t_base = MIN_STEP * diam
    t_clear = CLEARANCE * diam
    a, b = (room.geom.vertices[k] for k in section)
    sec_e = b - a
    exits = [side for side in sides
             if _leaves_through(u, side.start, side.end)]

    crossed: list[int] = []
    gain = 1.0
    length = sec_e.length()
    if not 0.0 <= p <= length:
        raise ValueError(f"section coordinate {p!r} is not in "
                         f"[0, {length!r}]")
    tangent = sec_e * (1.0 / length)
    laws = [(side.index, *_leg_law(a, tangent, u, side.start,
                                   side.end - side.start))
            for side in exits]
    law = _side_leg(laws, p, length, t_base)
    if law is None:
        raise VertexHit(
            "ray passes a cone point closer than float resolution",
            trace=RayTrace((), gain, "vertex",
                           (a + tangent * p).as_floats()))
    best_side, best_s = law[0], law[1] + law[2] * p

    while True:
        if best_side == -1:
            q = a + sec_e * best_s
        else:
            side = sides[best_side]
            q = side.start + (side.end - side.start) * best_s
        if best_s < VERTEX_TOL or best_s > 1.0 - VERTEX_TOL:
            raise VertexHit("ray hits a pentagon vertex; the flow is "
                            "undefined through the cone point",
                            trace=RayTrace(tuple(crossed), gain,
                                           "vertex", q.as_floats()))
        if best_side == -1:
            return RayTrace(tuple(crossed), gain, "section",
                            q.as_floats())
        if side.is_door:
            return RayTrace(tuple(crossed), gain, "door",
                            q.as_floats())
        if len(crossed) >= max_crossings:
            return RayTrace(tuple(crossed), gain, "budget",
                            q.as_floats())
        crossed.append(side.index)
        gain *= side.factor
        entry = sides[_GLUED[side.index]]
        sigma = 1.0 - best_s
        f = entry.end - entry.start
        laws = [(out.index, *_leg_law(entry.start, f, u, out.start,
                                      out.end - out.start))
                for out in exits]
        law = _side_leg(laws, sigma, 1.0, t_base)
        best_t = math.inf if law is None else law[3] + law[4] * sigma
        sec_s0, sec_s1, sec_t0, sec_t1 = _leg_law(entry.start, f, u, a, sec_e)
        if t_clear < sec_t0 + sec_t1 * sigma < best_t - t_base:
            s = sec_s0 + sec_s1 * sigma
            if -VERTEX_TOL <= s <= 1.0 + VERTEX_TOL:
                best_side, best_s = -1, s
                continue
        if law is None:
            raise VertexHit(
                "ray passes a cone point closer than float resolution",
                trace=RayTrace(tuple(crossed), gain, "vertex",
                               (entry.start + f * sigma).as_floats()))
        best_side, best_s = law[0], law[1] + law[2] * sigma


def first_return_map_oracle(room: Room, theta: float,
                            section: tuple[int, int]) -> PiecewiseAffineMap:
    """`surface.first_return_map` with its section coordinate in Vec2
    arithmetic, flying every flight from its section coordinate through
    `trace_ray_oracle`; it must build the same map, or raise the same
    error with the same message.

    `section` is a pentagon diagonal (i, j).  The oracle refuses in the
    library's order: a non-finite theta, a section theta cannot cross,
    a section whose chord is not inside the room's exact twin
    (`exact_shape`), and a direction out of the door: one neither
    inward nor within DOOR_ANGLE_TOL of the door's direction mod pi."""
    if not math.isfinite(theta):
        raise ValueError(f"direction theta must be finite, got {theta!r}")
    a, b = (room.geom.vertices[k] for k in section)
    length = (b - a).length()
    tangent = (b - a) * (1.0 / length)
    if angle_dist_mod_pi(theta, (b - a).angle()) < TRANSVERSALITY_FLOOR:
        raise NotTransverse("direction is parallel to the section")
    pair = (min(section), max(section))
    twin = twin_vertices(room.e1, room.e2, room.params.nu())
    if pair not in exact_shape(twin):
        raise ValueError(f"{section} is not an interior diagonal of "
                         "the room")
    v3, v4 = room.geom.vertices[3:5]
    if not (room.is_inward(theta) or angle_dist_mod_pi(
            theta, (v4 - v3).angle()) <= DOOR_ANGLE_TOL):
        raise ValueError("direction must point into the surface at the door")

    def flight(s: float) -> tuple[float, float, tuple[int, ...]]:
        tr = trace_ray_oracle(room, s, theta, max_crossings=MAX_CROSSINGS,
                              section=section)
        if tr.terminal == "budget":
            raise BudgetExhausted("no return to the section within "
                                  f"{MAX_CROSSINGS} crossings",
                                  partial=tr)
        if tr.terminal == "door":
            raise NotTransverse("trajectory off the section reaches the "
                                "door; no first-return map in this "
                                "direction")
        s_back = (Vec2(*tr.end_point) - a).dot(tangent)
        return s_back, tr.cumulative_factor, tr.crossed_sides

    grid = [length * (k + 0.5) / RETURN_SAMPLES
            for k in range(RETURN_SAMPLES)]
    keys: list[Optional[tuple[int, ...]]] = []
    for s in grid:
        try:
            keys.append(flight(s)[2])
        except VertexHit:
            keys.append(None)

    def same_key(s: float, key: tuple[int, ...]) -> bool:
        try:
            return flight(s)[2] == key
        except VertexHit:
            return False

    tol = BRANCH_BISECT_TOL * length
    cuts: list[float] = []
    for k in range(RETURN_SAMPLES - 1):
        left, right = keys[k], keys[k + 1]
        if left == right:
            continue
        # halve [lo, hi] keeping the key change inside it: lo is on the
        # left key's side, or off the right key's when the left is None
        lo, hi = grid[k], grid[k + 1]
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if (same_key(mid, left) if left is not None
                    else not same_key(mid, right)):
                lo = mid
            else:
                hi = mid
        cuts.append(0.5 * (lo + hi))

    boundaries = [0.0]
    for c in sorted(cuts):
        if c - boundaries[-1] > BRANCH_MIN_GAP * tol:
            boundaries.append(c)
    boundaries.append(length)

    branches = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        width = hi - lo
        law = None
        for frac1, frac2 in ((0.5, 0.8), (0.38, 0.66), (0.29, 0.71)):
            try:
                s1 = lo + frac1 * width
                s2 = lo + frac2 * width
                back1, factor1, key1 = flight(s1)
                back2, factor2, key2 = flight(s2)
            except VertexHit:
                continue
            if key1 != key2:
                continue
            intercept = back1 - factor1 * s1
            if abs(back2 - (factor1 * s2 + intercept)) > BRANCH_VERIFY_TOL * length:
                raise NotTransverse("return map is not affine between "
                                    "detected branch boundaries; section "
                                    "sampling too coarse for this direction")
            law = (factor1, intercept)
            break
        if law is None:
            raise NotTransverse("could not probe a branch away from "
                                "singular orbits")
        branches.append(AffineBranch(lo, hi, law[0], law[1]))
    return PiecewiseAffineMap(tuple(branches))


# --- exact ray tracing in Fractions, the arbiter of float traces ---

ExactPoint = tuple[Fraction, Fraction]

def twin_vertices(e1: Vec2, e2: Vec2,
                  nu: tuple[float, float]) -> list[ExactPoint]:
    """V0..V4 of the exact twin of the room over the float basis
    (e1, e2) with the float dilation factors nu.

    Every float is a rational number.  The twin takes the Fractions of
    the basis coordinates and of nu1, nu2, and builds V0 = 0, V1 = e1,
    V2 = e1 + e2, V3 = V2 - e1/nu1 and V4 = e2/nu2 exactly.  It needs no
    `Room`, so it also describes a room the library refuses.
    """
    e1x, e1y, e2x, e2y = (Fraction(c) for c in (e1.x, e1.y, e2.x, e2.y))
    nu1, nu2 = (Fraction(n) for n in nu)
    v2 = (e1x + e2x, e1y + e2y)
    return [(Fraction(0), Fraction(0)), (e1x, e1y), v2,
            (v2[0] - e1x / nu1, v2[1] - e1y / nu1), (e2x / nu2, e2y / nu2)]


def exact_twin(room: Room) -> list[tuple]:
    """Sides of the room's exact twin, in the order V0V1, V1V2, V2V3,
    V3V4 (the door), V4V0: (start, end, scale, offset) with Fraction
    points, the gluing being z -> scale*z + offset (None for the door).

    The vertices are `twin_vertices`; each side is glued onto its
    partner by the dilation with a positive factor that maps the side's
    start to the partner's end and its end to the partner's start.  The
    twin of `square_room(ln 2, ln 2)` is that room itself: its floats
    are dyadic, and exp(log 2.0) == 2.0.
    """
    verts = twin_vertices(room.e1, room.e2, room.params.nu())
    sides = []
    for k in range(5):
        a, b = verts[k], verts[(k + 1) % 5]
        if k not in _GLUED:
            sides.append((a, b, None, None))
            continue
        pa, pb = verts[_GLUED[k]], verts[(_GLUED[k] + 1) % 5]
        # scale * (b - a) = pa - pb: the partner, run backwards
        if b[0] != a[0]:
            scale = (pa[0] - pb[0]) / (b[0] - a[0])
        else:
            scale = (pa[1] - pb[1]) / (b[1] - a[1])
        sides.append((a, b, scale, (pb[0] - scale * a[0],
                                    pb[1] - scale * a[1])))
    return sides


IntPoint = tuple[int, int]


def _open_chord_meets(p: IntPoint, q: IntPoint, a: IntPoint,
                      b: IntPoint) -> bool:
    """Whether the open segment from p to q meets the closed segment
    from a to b; integer points, so exact."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    ex, ey = b[0] - a[0], b[1] - a[1]
    wx, wy = a[0] - p[0], a[1] - p[1]
    denom = dx * ey - dy * ex
    # p + (t/denom)*(q - p) = a + (s/denom)*(b - a)
    t, s = wx * ey - wy * ex, wx * dy - wy * dx
    if denom < 0:
        denom, t, s = -denom, -t, -s
    if denom:
        return 0 < t < denom and 0 <= s <= denom
    if s:
        return False            # parallel, on distinct lines
    # collinear: a and b sit at p + (t/norm)*(q - p) for these t
    norm = dx * dx + dy * dy
    ta = wx * dx + wy * dy
    tb = (b[0] - p[0]) * dx + (b[1] - p[1]) * dy
    return max(ta, tb) > 0 and min(ta, tb) < norm


def _strictly_inside(pt: IntPoint, verts: list[IntPoint]) -> bool:
    """Crossing number of an integer point off the boundary."""
    x, y = pt
    inside = False
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        if (y0 > y) != (y1 > y):
            # x < x0 + (y - y0)*(x1 - x0)/(y1 - y0), times y1 - y0
            lhs, rhs = (x - x0) * (y1 - y0), (y - y0) * (x1 - x0)
            if (lhs < rhs) if y1 > y0 else (lhs > rhs):
                inside = not inside
    return inside


def exact_shape(verts: list[ExactPoint]
                ) -> Optional[tuple[tuple[int, int], ...]]:
    """The diagonal pairs (i, j), i < j, whose open chord lies inside
    the pentagon `verts` (say `twin_vertices`), or None when the vertex
    chain is not simple; exact, with no tolerance.

    The chain is simple when its vertices are distinct, non-adjacent
    closed sides meet nowhere and no side folds back onto the one
    before it.  A chord is interior when the open chord meets no closed
    side, so it passes no vertex, and its midpoint is inside by crossing
    number; an open chord off the boundary lies wholly inside or
    wholly outside.  The Fractions are put over twice their common
    denominator first, so that every test, chord midpoints included,
    runs on integers.
    """
    n = len(verts)
    den = 2 * math.lcm(*(c.denominator for v in verts for c in v))
    pts = [(int(x * den), int(y * den)) for x, y in verts]
    if len(set(pts)) < n:
        return None
    for k in range(n):
        p, q, r = pts[k], pts[(k + 1) % n], pts[(k + 2) % n]
        ux, uy = q[0] - p[0], q[1] - p[1]
        vx, vy = r[0] - q[0], r[1] - q[1]
        if ux * vy - uy * vx == 0 and ux * vx + uy * vy < 0:
            return None
        # side k against side k + 2 covers each non-adjacent pair of a
        # pentagon once; with distinct vertices, two closed sides meet
        # only where the open part of one meets the other
        a, b = pts[(k + 2) % n], pts[(k + 3) % n]
        if _open_chord_meets(p, q, a, b) or _open_chord_meets(a, b, p, q):
            return None
    out = []
    for i in range(n):
        for j in range(i + 2, n - (i == 0)):
            p, q = pts[i], pts[j]
            if any(_open_chord_meets(p, q, pts[k], pts[(k + 1) % n])
                   for k in range(n)):
                continue
            mid = ((p[0] + q[0]) // 2, (p[1] + q[1]) // 2)
            if _strictly_inside(mid, pts):
                out.append((i, j))
    return tuple(out)


def trace_ray_exact(sides: list[tuple], start: ExactPoint, u: ExactPoint,
                    section: tuple[ExactPoint, ExactPoint],
                    max_crossings: int
                    ) -> tuple[tuple[int, ...], str, ExactPoint,
                               Fraction]:
    """`surface.trace_ray` on an exact twin, in Fractions and with no
    tolerance, from `start` on `section` along the direction u.

    The ray leaves through a side whose edge e has u x e > 0; the side
    so crossed first at t > 0 wins, unless the section is crossed at
    t > 0 no later (the start sits on it at t = 0).  A crossing at s = 0
    or s = 1 of its segment is a vertex hit.  Returns (crossed sides,
    terminal, end point, margin): the margin is the least min(s, 1 - s)
    over the flight's crossings, its last one included, so 0 after a
    vertex hit, whose terminal is VERTEX.
    """
    px, py = start
    ux, uy = u
    (sax, say), (sbx, sby) = section
    sex, sey = sbx - sax, sby - say
    sec_denom = ux * sey - uy * sex
    crossed: list[int] = []
    margin = Fraction(1, 2)
    while True:
        best = None
        for k, ((ax, ay), (bx, by), _, _) in enumerate(sides):
            ex, ey = bx - ax, by - ay
            denom = ux * ey - uy * ex
            if denom <= 0:
                continue
            wx, wy = ax - px, ay - py
            t = (wx * ey - wy * ex) / denom
            s = (wx * uy - wy * ux) / denom
            if t > 0 and 0 <= s <= 1 and (best is None or t < best[0]):
                best = (t, s, k)
        if sec_denom:
            wx, wy = sax - px, say - py
            t = (wx * sey - wy * sex) / sec_denom
            s = (wx * uy - wy * ux) / sec_denom
            if t > 0 and 0 <= s <= 1 and (best is None or t <= best[0]):
                best = (t, s, None)
        t, s, k = best      # a ray from inside the pentagon leaves it
        q = (px + ux * t, py + uy * t)
        margin = min(margin, s, 1 - s)
        if margin == 0:
            return tuple(crossed), "vertex", q, margin
        if k is None:
            return tuple(crossed), "section", q, margin
        _, _, scale, offset = sides[k]
        if scale is None:
            return tuple(crossed), "door", q, margin
        if len(crossed) >= max_crossings:
            return tuple(crossed), "budget", q, margin
        crossed.append(k)
        px, py = scale * q[0] + offset[0], scale * q[1] + offset[1]



def cylinder_certificate(room: Room, itinerary: Sequence[int],
                         theta: float) -> Optional[Fraction]:
    """The holonomy factor lambda of the closed leaf of direction theta
    that crosses the glued sides `itinerary` in turn, cyclically, or
    None when no such leaf is proved.  The proof is exact, on the room's
    exact twin (`exact_twin`) and the Fractions of
    u = (cos theta, sin theta), and independent of the tracer.

    Crossing side k glues by g_k(z) = scale*z + offset, so the leaf
    develops through copies G_i^-1(P) of the pentagon P, with G_0 = id
    and G_i = g_ki o ... o g_k1, and its holonomy is H = G_n:
    z -> lambda*z + c.  H fixes the leaf's line, so the line passes H's
    centre z0 = c/(1 - lambda).  Each g_k keeps u, so G_i takes that
    line to the line z x u = tau_i of P, with tau_0 = z0 x u and
    tau_i = scale*tau_(i-1) + offset x u for the side crossed.  The leaf
    is proved when in each copy the line leaves through the next side
    of the itinerary strictly inside that side, ahead of where it came
    in (so on the leaf's half-line), and meets no other side of P on
    the way, which only a non-convex pentagon can fail; a line along a
    side is refused.

    The plane is scaled to integers, which keeps every s, sign and
    order.  tau has O(n) digits for a leaf of n crossings, too many to
    carry exactly (a leaf of 5,506 crossings took 24 s), so each tau_i
    is carried as an interval with ends of K binary places, rounded
    outward, K enough for the widest growth of the intervals.  Every
    test is linear in tau, so it holds for the exact tau_i whenever it
    holds at both ends of its interval.
    """
    sides = exact_twin(room)
    if not itinerary or any(sides[k][2] is None for k in itinerary):
        return None
    lam = math.prod(sides[k][2] ** itinerary.count(k) for k in set(itinerary))
    if lam == 1:
        return None
    cos, sin = Fraction(math.cos(theta)), Fraction(math.sin(theta))
    ux, uy = (int(c * math.lcm(cos.denominator, sin.denominator))
              for c in (cos, sin))
    plane = math.lcm(*(c.denominator for a, _, _, offset in sides
                       for c in (*a, *(offset or ()))))
    # an interval's width grows by at most the largest product of
    # scales over a run of the cyclic itinerary
    growth = widest = 0.0
    for k in (*itinerary, *itinerary):
        growth = max(0.0, growth + math.log2(sides[k][2]))
        widest = max(widest, growth)
    places = 256 + math.ceil(widest) + len(itinerary).bit_length()
    one = 1 << places
    # per side: a x u, w = e x u, a.u and e.u for its start a and edge
    # e, in the scaled plane, and its glue on tau as (top, bottom,
    # shift): scale = top/bottom and shift = offset x u, in units of one
    rows = []
    for (ax, ay), (bx, by), scale, offset in sides:
        ax, ay = int(ax * plane), int(ay * plane)
        ex, ey = int(bx * plane) - ax, int(by * plane) - ay
        glue = None if scale is None else (
            scale.numerator, scale.denominator,
            (int(offset[0] * plane) * uy - int(offset[1] * plane) * ux)
            * one)
        rows.append((ax * uy - ay * ux, ex * uy - ey * ux,
                     ax * ux + ay * uy, ex * ux + ey * uy, glue))

    def scaled(ends: tuple[int, int], k: int) -> tuple[int, int]:
        top, bottom, _ = rows[k][4]
        return top * ends[0] // bottom, -(-top * ends[1] // bottom)

    def glued(ends: tuple[int, int], k: int) -> tuple[int, int]:
        lo, hi = scaled(ends, k)
        return lo + rows[k][4][2], hi + rows[k][4][2]

    # H on tau, lambda*tau + c, as intervals; then tau_0 = c/(1 - lambda)
    slope, c = (one, one), (0, 0)
    for k in itinerary:
        slope, c = scaled(slope, k), glued(c, k)
    lo, hi = one - slope[1], one - slope[0]
    if lo <= 0 <= hi:
        return None
    if hi < 0:
        lo, hi, c = -hi, -lo, (-c[1], -c[0])
    ends = (min(c[0] * one // lo, c[0] * one // hi),
            max(-(-c[1] * one // lo), -(-c[1] * one // hi)))

    def s_of(m: int, t: int) -> int:
        # s*w*one at the crossing of side m by the line tau = t/one
        return t - rows[m][0] * one

    def before(x: int, y: int, t: int) -> bool:
        # whether the line meets side x before side y along u: rho the
        # position along u of a crossing, rho*w*one = a.u*w*one + s*e.u
        wx, wy = rows[x][1], rows[y][1]
        rx = rows[x][2] * wx * one + s_of(x, t) * rows[x][3]
        ry = rows[y][2] * wy * one + s_of(y, t) * rows[y][3]
        diff = rx * wy - ry * wx
        return diff < 0 if wx * wy > 0 else diff > 0

    for prev, k in zip((itinerary[-1], *itinerary[:-1]), itinerary):
        j = _GLUED[prev]
        wj, wk = rows[j][1], rows[k][1]
        if not (wk < 0 < wj and all(
                wk * one < s_of(k, t) < 0 < s_of(j, t) < wj * one
                and before(j, k, t) for t in ends)):
            return None
        for m, (_, w, *_) in enumerate(rows):
            if m in (j, k):
                continue
            if not w:
                if s_of(m, ends[0]) * s_of(m, ends[1]) <= 0:
                    return None
                continue
            # the leg meets side m when all of these hold; it is clear
            # of m when one of them fails at both ends
            meets = (lambda t: s_of(m, t) * w >= 0,
                     lambda t: (w * one - s_of(m, t)) * w >= 0,
                     lambda t: before(j, m, t),
                     lambda t: not before(k, m, t))
            if all(test(ends[0]) or test(ends[1]) for test in meets):
                return None
        ends = glued(ends, k)
    return lam


# --- leaf windows: every closed leaf of a few crossings, by its itinerary ---

def leaf_words(max_crossings: int) -> list[tuple[int, ...]]:
    """Every itinerary of a closed leaf of at most `max_crossings`
    crossings, as a cyclic word over the glued sides {0, 1, 2, 4}: each
    in its least rotation and primitive, and no letter following its
    partner, cyclically, since a leaf never leaves by the side it came
    in by."""
    words = []

    def grow(word: list[int]) -> None:
        if _GLUED[word[-1]] != word[0]:
            n = len(word)
            rotations = [tuple(word[r:] + word[:r]) for r in range(n)]
            if min(rotations) == rotations[0] and rotations.count(
                    rotations[0]) == 1:
                words.append(rotations[0])
        if len(word) < max_crossings:
            for k in _GLUED:
                # a least rotation starts with its least letter
                if k >= word[0] and k != _GLUED[word[-1]]:
                    grow(word + [k])

    for first in _GLUED:
        grow([first])
    return words


def _leg_passes(p: tuple[float, float], theta: float, verts: list,
                entry: int, exit_: int) -> bool:
    """Whether the line through p along theta crosses the pentagon
    `verts` in from side `entry` and out by side `exit_`, both strictly
    inside, with no side met between them; floats."""
    ux, uy = math.cos(theta), math.sin(theta)
    hits = []
    for m in range(5):
        (ax, ay), (bx, by) = verts[m], verts[(m + 1) % 5]
        ex, ey = bx - ax, by - ay
        denom = ux * ey - uy * ex
        if not denom:
            continue
        wx, wy = ax - p[0], ay - p[1]
        t = (wx * ey - wy * ex) / denom
        s = (wx * uy - wy * ux) / denom
        if 0.0 <= s <= 1.0:
            hits.append((t, m, 0.0 < s < 1.0, denom > 0.0))
    hits.sort()
    return any(a[1] == entry and b[1] == exit_ and a[2] and b[2]
               and not a[3] and b[3] for a, b in zip(hits, hits[1:]))


def leaf_windows(room: Room, max_crossings: int
                 ) -> list[tuple[float, float, tuple[int, ...], Fraction]]:
    """(theta1, theta2, itinerary, lambda) for each arc of directions
    theta1 < theta < theta2, with 0 <= theta1 < 2*pi and theta2 - theta1
    < 2*pi, on which a closed leaf crosses the glued sides `itinerary`
    in turn (`leaf_words`), lambda its holonomy factor, exact on the
    room's exact twin.

    Crossing side k glues by g_k(z) = scale*z + offset (`exact_twin`),
    so the leaf's holonomy H = g_kn o ... o g_k1 is z -> lambda*z + c,
    and the leaf lies on a line through its centre z0 = c/(1 - lambda)
    when lambda is not 1.  The line develops through the copies of the
    pentagon: in copy i it passes G_i(z0), where G_0 = id and
    G_i = g_ki o G_(i-1).  Along theta the line enters copy i by the
    partner of the letter before and leaves by letter i (`_leg_passes`);
    that can change only where the line through G_i(z0) passes a
    vertex.  So the window is the union of the sub-arcs between the
    directions, mod pi, from each developed centre to the five vertices,
    on whose midpoints every copy passes.  Floats throughout: a window
    is only as good as `cylinder_certificate`'s proof of it.
    """
    sides = exact_twin(room)
    verts = [(float(x), float(y)) for (x, y), *_ in sides]
    glue = {k: (float(sides[k][2]), float(sides[k][3][0]),
                float(sides[k][3][1])) for k in _GLUED}
    out = []
    for word in leaf_words(max_crossings):
        f, cx, cy = 1.0, 0.0, 0.0
        for k in word:
            scale, ox, oy = glue[k]
            f, cx, cy = scale * f, scale * cx + ox, scale * cy + oy
        lam = math.prod(sides[k][2] for k in word)
        # no centre, or one past float resolution: on REFLEX,
        # nu1^2 * nu2 = e^-1 * e rounds to 1
        if lam == 1 or f == 1.0:
            continue
        p = (cx / (1.0 - f), cy / (1.0 - f))
        arcs = [(0.0, math.tau)]
        for i, k in enumerate(word):
            cuts = sorted((math.atan2(vy - p[1], vx - p[0]) + turn) % math.tau
                          for vx, vy in verts for turn in (0.0, math.pi))
            entry = _GLUED[word[i - 1]]
            pieces = []
            for lo, hi in arcs:
                ends = [lo, *(c for c in cuts if lo < c < hi), hi]
                pieces += [(a, b) for a, b in zip(ends, ends[1:])
                           if _leg_passes(p, 0.5 * (a + b), verts, entry, k)]
            arcs = pieces
            if not arcs:
                break
            scale, ox, oy = glue[k]
            p = (scale * p[0] + ox, scale * p[1] + oy)
        merged: list[list[float]] = []
        for lo, hi in arcs:
            if merged and merged[-1][1] == lo:
                merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        # an arc through direction 0 comes in two pieces: join them
        if (len(merged) > 1 and merged[0][0] == 0.0
                and merged[-1][1] == math.tau):
            last = merged.pop()
            merged[0] = [last[0], math.tau + merged[0][1]]
        out += [(lo, hi, word, lam) for lo, hi in merged]
    return out


# --- periodic cycles of two-slope maps ---

_ORACLE_SEEDS = (0.1234567891, 0.9876543211, 0.3141592653,
                 0.7182818284, 0.5772156649)
# how close to the break point x_t an orbit point counts as hitting it
HIT_TOL = 1e-15


def _detect_period(tail: Sequence[float], tol: float) -> Optional[int]:
    n = len(tail)
    for p in range(1, min(128, n // 2) + 1):
        if all(abs(tail[-1 - i] - tail[-1 - i - p]) < tol for i in range(p)):
            return p
    return None


def find_periodic_oracle(tsm: TwoSlopeMap, max_iter: int = 10 ** 4,
                         tol: float = 1e-8) -> Optional[PeriodicCycle]:
    """Brute-force cycle finder: iterate a few fixed seeds and look for a
    repeating tail.  Independent of the closed-form solvers on purpose."""
    ra, rb, xt = map(float, tsm)
    for seed in _ORACLE_SEEDS:
        x = seed
        tail: list[float] = []
        broke = False
        for _ in range(max_iter):
            if abs(x - xt) <= HIT_TOL:
                broke = True
                break
            x = ra * x + (1 - ra * xt) if x < xt else rb * (x - xt)
            tail.append(x)
            if len(tail) > 512:
                del tail[0]
        if broke or not tail:
            continue
        period = _detect_period(tail, tol)
        if period is None:
            continue
        cycle = tail[-period:]
        start = min(range(period), key=lambda i: cycle[i])
        pts = tuple(cycle[start:] + cycle[:start])
        mult = 1.0
        ok = True
        for p in pts:
            if abs(p - xt) <= HIT_TOL:
                ok = False
                break
            mult *= ra if p < xt else rb
        if not ok:
            continue
        # confirm the loop closes on itself
        y = pts[0]
        for _ in range(period):
            y = ra * y + (1 - ra * xt) if y < xt else rb * (y - xt)
        if abs(y - pts[0]) > 10 * tol:
            continue
        return PeriodicCycle(pts, mult)
    return None


# --- survivor intervals: the letter-feasibility test, the top-down walks
# on unscaled Moebius factors in the slopes' own scalar type, and the
# float walk's error bound ---

def _letter_feasible(rho_a: Scalar, rho_b: Scalar, letter: str) -> bool:
    """Whether any valid break point takes this letter.

    With rho_a*rho_b >= 1 the injectivity constraint confines valid break
    points to one side: below the B-threshold when rho_a > 1 (forced L),
    above the A-threshold when rho_b > 1 (forced R).
    """
    if rho_a * rho_b >= 1:
        if letter == "R" and rho_a > 1:
            return False
        if letter == "L" and rho_b > 1:
            return False
    return True


def _identity(rho: Scalar) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """The identity pull-back (p, q, r, s), y -> (p*y + q)/(r*y + s), in
    the scalar type of rho."""
    zero = 0 * rho
    return (1 + zero, zero, zero, 1 + zero)


def _descend(rho_a: Scalar, rho_b: Scalar, letter: str, p: Scalar,
             q: Scalar, r: Scalar, s: Scalar
             ) -> tuple[Scalar, Scalar, Scalar, Scalar, Scalar, Scalar]:
    """The child of one letter: its slopes, then its composed pull-back.

    The pull-back from the child's break parameter to the root's is the
    parent's, [[p, q], [r, s]], times the letter's Moebius factor on the
    right: y -> rho_b*y / (1 + rho_b*y) for L, y -> 1 / (1 + rho_a*(1 - y))
    for R.
    """
    if letter == "L":
        # [[p, q], [r, s]] @ [[rho_b, 0], [rho_b, 1]]
        return (rho_a * rho_b, rho_b, (p + q) * rho_b, q, (r + s) * rho_b, s)
    if letter == "R":
        # [[p, q], [r, s]] @ [[0, 1], [-rho_a, 1 + rho_a]]
        t = 1 + rho_a
        return (rho_a, rho_a * rho_b, -q * rho_a, p + q * t, -s * rho_a,
                r + s * t)
    raise ValueError(f"invalid word letter {letter!r}")


def _image_of_unit(p: Scalar, q: Scalar, r: Scalar,
                   s: Scalar) -> tuple[Scalar, Scalar]:
    """The pull-back's images of 0 and 1."""
    return (q / s, (p + q) / (r + s))


def word_interval_oracle(rho_a: Scalar, rho_b: Scalar,
                         word: str) -> tuple[Scalar, Scalar]:
    """The closed parameter interval whose induction word starts with
    `word`: the image of [0, 1] under the word's composed pull-back, one
    unscaled Moebius factor per letter in the slopes' own scalar type.
    ValueError for a letter other than L or R, or one that no valid
    break point takes at its node's slopes."""
    ra, rb, (p, q, r, s) = rho_a, rho_b, _identity(rho_a)
    for letter in word:
        if not _letter_feasible(ra, rb, letter):
            raise ValueError(f"letter {letter} is unreachable at slopes "
                             f"({ra}, {rb})")
        ra, rb, p, q, r, s = _descend(ra, rb, letter, p, q, r, s)
    return _image_of_unit(p, q, r, s)


def survivor_intervals_topdown_oracle(rho_a: Scalar, rho_b: Scalar,
                                      depth: int
                                      ) -> list[tuple[Scalar, Scalar]]:
    """The word tree walked top-down on an explicit stack, each node
    carrying its slopes and its composed pull-back in the slopes' own
    scalar type: one division per endpoint, so Fraction slopes reduce at
    every product."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not all(math.isfinite(x) for x in (rho_a, rho_b)
               if isinstance(x, float)):
        raise ValueError(f"slopes must be finite, got ({rho_a!r}, {rho_b!r})")
    if not (rho_a > 0 and rho_b > 0):
        raise ValueError("slopes must be positive")
    out: list[tuple[Scalar, Scalar]] = []
    stack = [(rho_a, rho_b, *_identity(rho_a), depth)]
    while stack:
        ra, rb, p, q, r, s, k = stack.pop()
        if k == 0:
            out.append(_image_of_unit(p, q, r, s))
            continue
        for letter in ("R", "L"):          # L is popped, and listed, first
            if _letter_feasible(ra, rb, letter):
                stack.append((*_descend(ra, rb, letter, p, q, r, s), k - 1))
    return out


def survivor_leaves_topdown_oracle(rho_a: Scalar, rho_b: Scalar,
                                   depth: int) -> list[tuple]:
    """The same walk carrying, per node, the images of 0 and 1 under its
    pull-back as homogeneous pairs q/s and u/v, and det, the product of
    the unscaled factors' determinants (rho_b for L, rho_a for R): the
    leaves (q, s, u, v, det), a word's interval (q/s, u/v) and its length
    det/s/v."""
    zero = 0 * rho_a
    one = 1 + zero
    out: list[tuple] = []
    stack = [(rho_a, rho_b, zero, one, one, one, one, depth)]
    while stack:
        ra, rb, q, s, u, v, det, k = stack.pop()
        if k == 0:
            out.append((q, s, u, v, det))
            continue
        if _letter_feasible(ra, rb, "R"):  # L is popped, and listed, first
            stack.append((ra, ra * rb, u + q * ra, v + s * ra, u, v,
                          det * ra, k - 1))
        if _letter_feasible(ra, rb, "L"):
            stack.append((ra * rb, rb, q, s, u * rb + q, v * rb + s,
                          det * rb, k - 1))
    return out


def float_walk_bounds(depth: int) -> tuple[Fraction, Fraction]:
    """The relative error bounds (endpoint, measure) that the `rauzy`
    docstring states for a float survivor walk to `depth`, against the
    exact walk of the same floats: gamma_N = N*u / (1 - N*u) with
    u = 2^-53, for N = 2F(n+3) + 2n - 3 and 3F(n+3) + 2n - 3."""
    fib = [0, 1]
    while len(fib) < depth + 4:
        fib.append(fib[-1] + fib[-2])
    f = fib[depth + 3]

    def gamma(n: int) -> Fraction:
        return Fraction(n, 2 ** 53 - n)

    return gamma(2 * f + 2 * depth - 3), gamma(3 * f + 2 * depth - 3)


def within(got: float, exact: Fraction, bound: Fraction) -> bool:
    """Whether the float `got` lies within `bound` of `exact`, relative
    to `exact`: |got - exact| <= bound*|exact|, cross-multiplied over
    ints so that no Fraction is normalized."""
    a, b = got.as_integer_ratio()
    p, q = exact.numerator, exact.denominator
    return (abs(a * q - p * b) * bound.denominator
            <= bound.numerator * abs(p) * b)


def meets_float_walk_bound(call: Callable, rho_a: float, rho_b: float,
                           depth: int) -> bool:
    """Whether `call(rho_a, rho_b)`, a survivor measure or a list of word
    intervals at `depth`, lies within `float_walk_bounds` of `call` on
    the exact values of the same floats: a measure within the measure
    bound, and every endpoint within the endpoint bound."""
    got, want = call(rho_a, rho_b), call(Fraction(rho_a), Fraction(rho_b))
    endpoint, measure = float_walk_bounds(depth)
    if type(got) is float:
        return within(got, want, measure)
    return len(got) == len(want) and all(
        within(x, y, endpoint)
        for interval, exact in zip(got, want) for x, y in zip(interval, exact))


# --- survivor intervals by bottom-up recursion ---

def _child_slopes(rho_a: Scalar, rho_b: Scalar, letter: str
                  ) -> tuple[Scalar, Scalar]:
    if letter == "L":
        return (rho_a * rho_b, rho_b)
    if letter == "R":
        return (rho_a, rho_a * rho_b)
    raise ValueError(f"invalid word letter {letter!r}")


def _pull_back_endpoint(rho_a: Scalar, rho_b: Scalar, letter: str,
                        y: Scalar) -> Scalar:
    """Inverse of the break-parameter Moebius map of one letter."""
    if letter == "L":
        return y * rho_b / (1 + y * rho_b)
    return 1 / (1 + rho_a * (1 - y))


def survivor_intervals_oracle(rho_a: Scalar, rho_b: Scalar,
                              depth: int) -> list[tuple[Scalar, Scalar]]:
    """Each child's intervals pulled back through the parent's letter,
    one endpoint at a time: n*2^(n+1) Moebius evaluations at depth n.
    Only the letter-feasibility test is shared with the top-down oracle."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth == 0:
        return [(0 * rho_a, 1 + 0 * rho_a)]
    out: list[tuple[Scalar, Scalar]] = []
    for letter in ("L", "R"):
        if not _letter_feasible(rho_a, rho_b, letter):
            continue
        ca, cb = _child_slopes(rho_a, rho_b, letter)
        for lo, hi in survivor_intervals_oracle(ca, cb, depth - 1):
            out.append((_pull_back_endpoint(rho_a, rho_b, letter, lo),
                        _pull_back_endpoint(rho_a, rho_b, letter, hi)))
    return out


# --- the exact track's long loops, one call per step ---

def mu_path_oracle(word: str, params: DilationParams):
    """The parameters before `word` and after each move: `twist_mu` once
    per move, each result tested by `in_positive_quadrant`.  Raises
    InadmissibleAtStep where `twists.mu_path` must."""
    if word and not params.in_positive_quadrant():
        raise InadmissibleAtStep(0, "start parameters are not in the "
                                    "positive quadrant")
    yield params
    for k, g in enumerate(word):
        params = twist_mu(g, params)
        if not params.in_positive_quadrant():
            raise InadmissibleAtStep(k)
        yield params


def decimal_norm(m1: Scalar, m2: Scalar, digits: int = 60) -> decimal.Decimal:
    """sqrt(m1^2 + m2^2) of exact values a + b*sqrt(d), each part read
    as a `decimal` quotient with `digits` significant digits: no
    QuadraticNumber arithmetic and no float."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        parts = []
        for x in (m1, m2):
            a, b, d = ((x.a, x.b, x.d) if isinstance(x, QuadraticNumber)
                       else (Fraction(x), Fraction(0), 0))
            parts.append(ctx.divide(a.numerator, a.denominator)
                         + ctx.divide(b.numerator, b.denominator)
                         * ctx.sqrt(d))
        return ctx.sqrt(parts[0] * parts[0] + parts[1] * parts[1])


def max_denominator(x: Scalar) -> int:
    """The largest denominator of an exact x: its own for an int or a
    Fraction, the larger of a's and b's for a + b*sqrt(d)."""
    if isinstance(x, QuadraticNumber):
        return max(x.a.denominator, x.b.denominator)
    return x.denominator


def _circle_step(ra: Scalar, rb: Scalar):
    """The break x* and the step x -> (F(x) mod 1, turns) of the lift F
    of the continuous two-slope circle map."""
    x_star = (1 - rb) / (ra - rb)
    b_a = rb * (1 - x_star)

    def step(x: Scalar) -> tuple[Scalar, int]:
        if x < x_star:
            return ra * x + b_a, 0
        return rb * (x - x_star), 1

    return x_star, step


def rotation_number_oracle(rho_a: Scalar, rho_b: Scalar, tol: float,
                           max_iter: int):
    """`surface.rotation_number` on valid slopes with one call of the step
    per iterate: the exact orbit of the break until it repeats, then the
    float orbit with its anchor returns, verification loops and doubling
    Birkhoff caps, and the same NonConvergence bracket."""
    exact = all(isinstance(x, (int, Fraction, QuadraticNumber))
                for x in (rho_a, rho_b))
    if exact:
        x_star, step = _circle_step(rho_a, rho_b)
        seen: dict = {}
        x, gain = x_star, 0
        for n in range(EXACT_ORBIT_CAP):
            if x in seen:
                n0, g0 = seen[x]
                return Fraction(gain - g0, n - n0)
            seen[x] = (n, gain)
            x, g = step(x)
            gain += g
            if max_denominator(x) > EXACT_DENOMINATOR_CAP:
                break
    x_star, step = _circle_step(float(rho_a), float(rho_b))
    x, gain, n = x_star, 0, 0
    anchor_x, anchor_gain, anchor_n = x, 0, 0
    next_anchor = 64
    estimates: list[float] = []
    cap = min(1 << 10, max_iter)
    while cap <= max_iter:
        while n < cap:
            x, g = step(x)
            gain += g
            n += 1
            if abs(x - anchor_x) < ROTATION_ANCHOR_RADIUS:
                q, p = n - anchor_n, gain - anchor_gain
                xv, gv = x, 0
                for _ in range(q):
                    xv, g2 = step(xv)
                    gv += g2
                if abs(xv - x) < ROTATION_CYCLE_TOL and gv == p:
                    return Fraction(p, q)
            if n == next_anchor:
                anchor_x, anchor_gain, anchor_n = x, gain, n
                next_anchor *= 2
        estimates.append((gain + x - x_star) / n)
        if len(estimates) >= 2 and abs(estimates[-1] - estimates[-2]) <= tol:
            return estimates[-1]
        cap *= 2
    disp = gain + x - x_star
    raise NonConvergence("rotation number did not settle",
                         bracket=((disp - 1.0) / n, (disp + 1.0) / n))


def quadratic_op_oracle(op: str, x: QuadraticNumber,
                        y: Optional[QuadraticNumber] = None
                        ) -> QuadraticNumber:
    """x op y ("+", "-", "*", "/"), or -x for "neg", by the field formulas
    on (a, b) over the common radicand, normalized in full by
    QuadraticNumber(a, b, d)."""
    if op == "neg":
        return QuadraticNumber(-x.a, -x.b, x.d)
    d = x.d or y.d
    if op == "+":
        a, b = x.a + y.a, x.b + y.b
    elif op == "-":
        a, b = x.a - y.a, x.b - y.b
    elif op == "*":
        a, b = x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a
    else:
        norm = y.a * y.a - y.b * y.b * d
        a = (x.a * y.a - x.b * y.b * d) / norm
        b = (x.b * y.a - x.a * y.b) / norm
    return QuadraticNumber(a, b, d)
