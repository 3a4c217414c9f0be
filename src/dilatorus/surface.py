"""Straight-line flow on a room and its cross-section dynamics.

A room's sides are glued in pairs by affine maps with positive factors,
so a ray leaving through a glued side re-enters through the partner side
travelling in the same direction, with lengths multiplied by the side's
factor.  The door is genuine boundary: rays reaching it stop.  This
module traces such rays, assembles the first-return map to a diagonal
cross-section (piecewise affine, injective, orientation preserving),
reduces it to the two-slope normal form, and classifies directions as
door-parallel, cylinder-carrying, or Cantor-like.  It also computes
rotation numbers for the continuous circle maps that sit on the
boundary between the expanding and contracting regimes.

For a fixed direction, where a ray entering through a side at
coordinate sigma next crosses the boundary is affine in sigma, on
pieces cut where the ray passes a vertex: the flow's return to the
sides is an affine interval exchange.  A `Heading` tabulates these
pieces for each side a flight enters and for its section, so every leg
of a flight is one table lookup and one multiply-add.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Union

from .errors import (
    BudgetExhausted,
    NonConvergence,
    NotReducible,
    NotTransverse,
    VertexHit,
)
from .geometry import (
    _DIAGONAL_PAIRS,
    _PARTNERS,
    Room,
    Vec2,
    angle_dist_mod_pi,
    wrap_2pi,
)
from .intervalmaps import (
    AffineBranch,
    AffineChart,
    PiecewiseAffineMap,
    TwoSlopeMap,
    downward_jump,
    evaluate as evaluate_two_slope,
    restrict_to_image,
)
from .quadratics import Scalar, as_float, is_exact, max_denominator
from .rauzy import RauzyOutcome, TerminalKind, iterate_induction

# Tolerances for the tracer are relative to the room diameter; those for
# the return map are relative to the section length, so squashed rooms
# far along the diagonal flow stay tractable.  PARALLEL_EPS, the floor
# below which a ray counts as parallel to a side, lives in geometry with
# the side table it is baked into.
VERTEX_TOL = 1e-12          # of the side's length: s within it of 0 or 1
# Minimum step of a ray before it may cross, in units of the room
# diameter: MIN_STEP for a side, CLEARANCE for the heading's section.
# A leg starts on a side the ray enters through, which is never its
# exit, and the first leg of a flight, from its section, cannot cross
# that section, so no crossing needs more than MIN_STEP.  CLEARANCE
# stays only as the defect of ROADMAP item 1a, which skips a return
# landing within it of the section just after a transport; the
# benchmark's anchor counts (`ANCHOR_CALLS`) pin it until that re-pin.
CLEARANCE = 1e-9
MIN_STEP = 1e-15
BRANCH_BISECT_TOL = 1e-13   # of the section's length
BRANCH_MIN_GAP = 8.0        # bisection tolerances; closer cuts merge
BRANCH_VERIFY_TOL = 1e-9    # of the section's length
TRANSVERSALITY_FLOOR = 1e-9  # radians between the flow and a section
DOOR_ANGLE_TOL = 1e-12      # radians between the flow and the door
INWARD_SLACK = 1e-12        # of the cosine: door-parallel flow is inward
CYLINDER_EDGE_TOL = 1e-10   # radians
# rotation_number's float orbit, in the [0, 1) coordinate of the circle:
# a return within ROTATION_ANCHOR_RADIUS of an anchor point proposes a
# cycle, and one more loop that closes within ROTATION_CYCLE_TOL (with
# the same gain) confirms it.
ROTATION_ANCHOR_RADIUS = 1e-12
ROTATION_CYCLE_TOL = 1e-11
# _verify_reduction, in the [0, 1] coordinate of the normal form, skips
# probes within VERIFY_END_MARGIN of 0 or 1 or VERIFY_BREAK_MARGIN of the
# break point, and rejects a probe that returns off by over VERIFY_TOL.
VERIFY_END_MARGIN = 1e-9
VERIFY_BREAK_MARGIN = 1e-6
VERIFY_TOL = 1e-8
# A collapsed return map, in units of the section's length: the jump
# misses the image by more than COLLAPSE_JUMP_MARGIN, the fixed point
# lies COLLAPSE_FIXED_MARGIN inside the ends, and the trace from it
# returns within COLLAPSE_CLOSE_TOL.  Its slope stays
# COLLAPSE_SLOPE_MARGIN (unitless) below 1.
COLLAPSE_JUMP_MARGIN = 1e-9
COLLAPSE_FIXED_MARGIN = 1e-6
COLLAPSE_SLOPE_MARGIN = 1e-9
COLLAPSE_CLOSE_TOL = 1e-6

DEFAULT_RETURN_SAMPLES = 48
DEFAULT_MAX_CROSSINGS = 512
DEFAULT_INDUCTION_BUDGET = 3000
# find_cylinders refuses an eps_angle whose grid on the inward
# half-circle would hold more samples: eps_angle below about 6.3e-5
MAX_SCAN_SAMPLES = 10 ** 5

# What classify_direction raises for a direction it cannot decide; scans
# and monitors count such a direction as a miss.  Vertex hits and
# exhausted crossing budgets are absorbed per section, so they never
# escape, and any other error is a bug that must reach the caller.
UNDECIDED_ERRORS = (NotTransverse, NotReducible)


# --- cross-sections ---

class _SectionFields(NamedTuple):
    i: int
    j: int


class CrossSection(_SectionFields):
    """One of the five pentagon diagonals, oriented from vertex i to j.

    All five vertices project to the single cone point of the glued
    surface, so every diagonal closes up to a circle there; the return
    map of a transverse direction is a circle map in disguise.
    """

    __slots__ = ()

    def __new__(cls, i: int, j: int) -> CrossSection:
        if (min(i, j), max(i, j)) not in _DIAGONAL_PAIRS:
            raise ValueError(f"({i}, {j}) is not a pentagon diagonal")
        return tuple.__new__(cls, (i, j))

    def endpoints(self, room: Room) -> tuple[Vec2, Vec2]:
        verts = room.geom.vertices
        return verts[self.i], verts[self.j]

    def direction(self, room: Room) -> float:
        _, _, ex, ey, _ = room.geom.diagonals[self.i, self.j]
        return math.atan2(ey, ex)


def _candidate_sections(room: Room, theta: float) -> list[CrossSection]:
    """Interior diagonals that theta crosses, most transversal first.

    Vertex indices break ties between equal margins.
    """
    scored = []
    for i, j in room.interior_diagonals():
        sec = CrossSection(i, j)
        margin = angle_dist_mod_pi(theta, sec.direction(room))
        if margin >= TRANSVERSALITY_FLOOR:
            scored.append((-margin, i, j, sec))
    scored.sort(key=lambda item: item[:3])
    return [item[3] for item in scored]


# --- ray tracing ---

class TraceEnd(Enum):
    DOOR = "door"
    SECTION = "section"
    BUDGET = "budget"
    VERTEX = "vertex"


def _require_finite(theta: float) -> None:
    """Refuse a NaN or infinite direction before any other work."""
    if not math.isfinite(theta):
        raise ValueError(f"direction theta must be finite, got {theta!r}")


class _HeadingFields(NamedTuple):
    exits: tuple[tuple, ...]
    sides: tuple[tuple, ...]
    ux: float
    uy: float
    t_base: float
    t_clear: float
    section_row: Optional[tuple[float, float, float, float, float]]
    frame: tuple[float, float, float, float, float]


# `Heading.legs` slot of the section's leg table; slots 0-4 are the sides'
SECTION_LEG = 5
# the exit of a leg table's piece on which a ray meets no side: its t is
# infinite, and its s NaN, which fails the test for a crossing clear of
# the vertices, so that a leg there raises VertexHit
_NO_EXIT = (None, None, 1.0, math.nan, 0.0, math.inf, 0.0)
# the section law of a leg that cannot cross the section
_NO_SECTION = (-math.inf, 0.0, 0.0, 0.0)


class Heading(_HeadingFields):
    """Direction-only set-up of the rays of one (room, theta, section).

    A crossing of the ray p + t*u with the side a + s*e solves, with
    w = a - p, t = (w x e)/(u x e) and s = (w x u)/(u x e).  The
    denominators u x e depend on the direction only, so `Heading.of`
    takes them once per heading, and every flight of a return map
    shares them.
    On the counter-clockwise pentagon the ray leaves through a side
    whose u x e exceeds the side's parallel floor.  `exits` holds
    (k, ax, ay, ex, ey, u x e) for those sides k, in the order of
    `sides`, the room's side table (`Room.geom`), which the transports
    read.  (ux, uy) is the unit direction.  `t_base` and `t_clear` are
    MIN_STEP and CLEARANCE in units of the room diameter.
    `section_row` is (ax, ay, ex, ey, u x e) of the section when the
    ray can cross it, else None.  `frame` is the section's arc-length
    frame (ax, ay, tx, ty, length): the point at s is
    (ax + tx*s, ay + ty*s), and a point (x, y) on the section sits at
    s = (x - ax)*tx + (y - ay)*ty, the float operations of the Vec2
    forms a + tangent*s and (q - a).dot(tangent).

    A leg that starts on side j at sigma, its fraction of the side's
    edge vector, or on the section at sigma, its arc-length coordinate,
    starts at b + sigma*f for the side's start b and edge f (the
    frame's start and unit tangent), so w = (a - b) - sigma*f, and the
    crossing of every exit and of the section is affine in sigma:
    s = S0 + S1*sigma and t = T0 + T1*sigma.  `leg_table(j)` tabulates
    these laws for side j or for the section (j = SECTION_LEG) and cuts
    the leg's domain, [0, 1] on a side and [0, length] on the section,
    where the exit changes.  Its cuts are the sigma at which an exit's
    s reaches -VERTEX_TOL or 1 + VERTEX_TOL, its t reaches t_base, or
    the t of two exits meet.  Between two cuts the exits a ray may take
    (t_base < t, s within VERTEX_TOL of [0, 1]) and their order by t
    stay the same, so each piece's exit is the one of least t among
    them at the piece's midpoint, and neighbours with the same exit
    merge.  The section's own table has no section law: a flight
    crosses a side before it can return.  `legs` holds the tables,
    each built on its first use; like `Room.geom` it is kept in the
    instance dict, out of the tuple's eq, hash and repr.
    """

    @classmethod
    def of(cls, room: Room, theta: float, section: CrossSection) -> Heading:
        """The heading of direction theta in `room`, stopping at
        `section`.  A non-finite theta raises ValueError."""
        _require_finite(theta)
        geom = room.geom
        ux, uy = math.cos(theta), math.sin(theta)
        exits = []
        for k, (ax, ay, ex, ey, par, *_) in enumerate(geom.sides):
            denom = ux * ey - uy * ex
            if denom > par:
                exits.append((k, ax, ay, ex, ey, denom))
        ax, ay, ex, ey, par = geom.diagonals[section.i, section.j]
        denom = ux * ey - uy * ex
        section_row = (ax, ay, ex, ey, denom) if abs(denom) > par else None
        length = math.hypot(ex, ey)
        inv = 1.0 / length
        return cls(tuple(exits), geom.sides, ux, uy,
                   MIN_STEP * geom.diameter, CLEARANCE * geom.diameter,
                   section_row, (ax, ay, ex * inv, ey * inv, length))

    @cached_property
    def legs(self) -> list[Optional[tuple]]:
        """The leg table of each side and of the section, None until
        `leg_table` builds it."""
        return [None] * (SECTION_LEG + 1)

    def leg_table(self, j: int) -> tuple[tuple[float, ...], tuple[tuple, ...]]:
        """(cuts, pieces) of the legs from side j, or from the section
        for j = SECTION_LEG, built once and kept in `legs`.

        The piece of sigma is pieces[bisect_right(cuts, sigma)], a row
        (k, partner, factor, S0, S1, T0, T1, C0, C1, D0, D1): the exit
        side k, the side its transport lands on (None for the door) and
        its factor, the exit's s and t laws, and the section's
        t = C0 + C1*sigma and s = D0 + D1*sigma.  A piece where no exit
        is taken is `_NO_EXIT`'s, and C0 = -inf where the leg cannot
        cross the section."""
        exits, rows, ux, uy, t_base, _, sec, frame = self
        if j == SECTION_LEG:
            bx, by, fx, fy, top = frame
            sec_law = _NO_SECTION
        else:
            bx, by, fx, fy = rows[j][:4]
            top = 1.0
            sec_law = _NO_SECTION if sec is None else _laws(bx, by, fx, fy,
                                                             ux, uy, *sec)
        laws: list[tuple] = []
        cuts: list[float] = []
        for k, ax, ay, ex, ey, denom in exits:
            t0, t1, s0, s1 = _laws(bx, by, fx, fy, ux, uy, ax, ay, ex, ey,
                                   denom)
            if s1:
                cuts += ((_S_LO - s0) / s1, (_S_HI - s0) / s1)
            if t1:
                cuts.append((t_base - t0) / t1)
            for other in laws:
                if other[6] != t1:
                    cuts.append((t0 - other[5]) / (other[6] - t1))
            laws.append((k, _PARTNERS[k], rows[k][6], s0, s1, t0, t1))
        cuts = sorted([c for c in cuts if 0.0 < c < top])
        kept: list[float] = []
        pieces: list[tuple] = []
        lo = 0.0
        for hi in (*cuts, top):
            mid = 0.5 * (lo + hi)
            taken, best_t = _NO_EXIT, math.inf
            for law in laws:
                t = law[5] + law[6] * mid
                if t_base < t < best_t:
                    s = law[3] + law[4] * mid
                    if _S_LO <= s <= _S_HI:
                        taken, best_t = law, t
            if not pieces or pieces[-1][0] != taken[0]:
                if pieces:
                    kept.append(lo)
                pieces.append(taken + sec_law)
            lo = hi
        table = (tuple(kept), tuple(pieces))
        self.legs[j] = table
        return table


def _laws(bx: float, by: float, fx: float, fy: float, ux: float, uy: float,
          ax: float, ay: float, ex: float, ey: float, denom: float
          ) -> tuple[float, float, float, float]:
    """(T0, T1, S0, S1): the ray along u from (bx + fx*sigma,
    by + fy*sigma) crosses the segment from (ax, ay) along (ex, ey),
    whose u x e is denom, at t = T0 + T1*sigma and s = S0 + S1*sigma."""
    dx, dy = ax - bx, ay - by
    return ((dx * ey - dy * ex) / denom, (fy * ex - fx * ey) / denom,
            (dx * uy - dy * ux) / denom, (fy * ux - fx * uy) / denom)


class RayTrace(NamedTuple):
    """Itinerary of one ray: the glued sides it crossed, in flight order,
    and where and how it stopped.

    `cumulative_factor` is the product of the crossed sides' dilation
    factors, taken in crossing order: the derivative of the flow between
    the start and `end_point`, an (x, y) pair of floats.  `trace_ray`
    builds one per flight; as a NamedTuple it costs no per-field
    `__setattr__`, and its fields stay read-only.
    """

    crossed_sides: tuple[int, ...]
    cumulative_factor: float
    terminal: TraceEnd
    end_point: tuple[float, float]

    @property
    def crossings(self) -> int:
        return len(self.crossed_sides)


# Bound once, not per flight: a side's s counts as crossed within
# [_S_LO, _S_HI] and as a vertex outside [_S_IN_LO, _S_IN_HI], and an
# enum member read on its class costs several global reads.
_S_LO, _S_HI = -VERTEX_TOL, 1.0 + VERTEX_TOL
_S_IN_LO, _S_IN_HI = VERTEX_TOL, 1.0 - VERTEX_TOL
_DOOR, _SECTION = TraceEnd.DOOR, TraceEnd.SECTION
_BUDGET, _VERTEX = TraceEnd.BUDGET, TraceEnd.VERTEX
# builds a RayTrace from its fields, skipping the NamedTuple's Python __new__
_new_trace = tuple.__new__


def _vertex_hit(heading: Heading, k: Optional[int], s: float,
                crossed: list[int], gain: float, j: int,
                sigma: float) -> VertexHit:
    """The VertexHit of a crossing at s of side k, or of the section,
    within VERTEX_TOL of its ends, or, for k None, of a leg from sigma
    on side j or the section that meets no exit."""
    if k is None:
        # the leg starts within rounding distance of a cone point, so
        # that it meets no exit: the passage is singular at float
        # resolution, the same as a direct vertex strike
        bx, by, fx, fy, *_ = (heading.frame if j == SECTION_LEG
                              else heading.sides[j])
        return VertexHit(
            "ray passes a cone point closer than float resolution",
            trace=_new_trace(RayTrace, (tuple(crossed), gain, _VERTEX,
                                        (bx + fx * sigma, by + fy * sigma))))
    ax, ay, ex, ey, *_ = (heading.section_row if k == SECTION_LEG
                          else heading.sides[k])
    return VertexHit("ray hits a pentagon vertex; the flow is undefined "
                     "through the cone point",
                     trace=_new_trace(RayTrace, (tuple(crossed), gain,
                                                 _VERTEX,
                                                 (ax + ex * s, ay + ey * s))))


def trace_ray(heading: Heading, start: float,
              max_crossings: int = DEFAULT_MAX_CROSSINGS) -> RayTrace:
    """Trace the ray along `heading` through the glued sides from
    `start`, the arc-length coordinate of a point on the heading's
    section, a float in [0, length].

    Stops at the door, at a transverse crossing of the heading's
    section, or after `max_crossings` transports.  A hit within
    VERTEX_TOL of a side endpoint raises VertexHit carrying the
    itinerary up to the hit, since the flow is undefined through the
    cone point.  A start that is not finite or lies outside
    [0, length] raises ValueError before any leg.

    Every leg starts on a side or on the section, at a coordinate sigma
    of its leg table (`Heading.leg_table`): it takes the piece of sigma
    by one bisection of the table's cuts and the exit's s by one
    multiply-add; a second multiply-add gives the section's t, and the
    exit's t and the section's s follow only when that t passes
    t_clear.  The section is crossed when t_clear < its t < the exit's
    t - t_base and its s lies within VERTEX_TOL of [0, 1]; the first
    leg, from the section, cannot cross it.  A crossing whose s lies
    within VERTEX_TOL of 0 or 1 raises VertexHit, and so does a piece
    with no exit, where the leg starts within float resolution of a
    cone point.  A transport through side k at s lands on its partner
    side at sigma = 1 - s.
    End points are taken on the side or the section crossed, a + s*e of
    its row, so a flight builds no Vec2 and keeps only its crossed sides
    and the running product of their factors.  Nothing is cached beyond
    the heading and the room's own tables, so nothing outlives them
    (nor, in the CLI, a `cli.main` call).

    After the first transport every leg depends on its side and sigma
    alone, so a flight whose post-transport (side, sigma) repeats
    exactly is trapped in a cycle until its budget runs out.  Brent's
    method finds the repeat: the (side, sigma) after transport 1, 2, 4,
    8, ... is saved, and each later one is compared with the last one
    saved.  On a repeat the flight skips whole periods at once,
    appending their sides and multiplying their factors into the gain in
    crossing order, so the RayTrace is the one the legs would have built.
    """
    _, rows, _, _, t_base, t_clear, sec, frame = heading
    if not 0.0 <= start <= frame[4]:
        raise ValueError(f"section coordinate {start!r} is not in "
                         f"[0, {frame[4]!r}]")
    legs = heading.legs
    # the leg's start, which only a leg that meets no exit reports
    j, sigma = SECTION_LEG, start
    cuts, pieces = legs[SECTION_LEG] or heading.leg_table(SECTION_LEG)
    (k, partner, factor, s0, s1, t0, t1,
     c0, c1, d0, d1) = pieces[bisect_right(cuts, start)]
    s = s0 + s1 * start

    crossed: list[int] = []
    gain = 1.0
    transports_left = max_crossings
    # Brent's saved (side, sigma), which none equals before the first
    # save, the transports left when it was saved, and those left at the
    # next save
    seen_side, seen_sigma = -1, math.nan
    seen_left = 0
    save_at = max_crossings - 1

    while True:
        if not _S_IN_LO <= s <= _S_IN_HI:
            raise _vertex_hit(heading, k, s, crossed, gain, j, sigma)
        if k == SECTION_LEG:
            ax, ay, ex, ey, _ = sec
            return _new_trace(RayTrace, (tuple(crossed), gain, _SECTION,
                                         (ax + ex * s, ay + ey * s)))
        if partner is None or transports_left <= 0:
            ax, ay, ex, ey, *_ = rows[k]
            return _new_trace(RayTrace, (
                tuple(crossed), gain, _DOOR if partner is None else _BUDGET,
                (ax + ex * s, ay + ey * s)))
        transports_left -= 1
        crossed.append(k)
        gain *= factor
        j, sigma = partner, 1.0 - s
        if j == seen_side and sigma == seen_sigma:
            # skip as many whole periods of the cycle just closed as
            # the budget holds
            period = seen_left - transports_left
            skipped = crossed[-period:] * (transports_left // period)
            for k in skipped:
                gain *= rows[k][6]
            crossed += skipped
            transports_left -= len(skipped)
        elif transports_left == save_at:
            seen_side, seen_sigma, seen_left = j, sigma, transports_left
            # the next save comes after twice the transports so far
            save_at = 2 * transports_left - max_crossings

        cuts, pieces = legs[j] or heading.leg_table(j)
        (k, partner, factor, s0, s1, t0, t1,
         c0, c1, d0, d1) = pieces[bisect_right(cuts, sigma)]
        s = s0 + s1 * sigma
        if t_clear < c0 + c1 * sigma < t0 + t1 * sigma - t_base:
            s_sec = d0 + d1 * sigma
            if _S_LO <= s_sec <= _S_HI:
                k, s = SECTION_LEG, s_sec


# --- first-return map to a cross-section ---

def _bisect(inside: float, outside: float, pred: Callable[[float], bool],
            tol: float) -> float:
    """Edge of {pred} between inside, where pred holds, and outside, where
    it does not; the bracket may run either way along the line."""
    while abs(outside - inside) > tol:
        mid = 0.5 * (inside + outside)
        if pred(mid):
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


def _flight(heading: Heading, s: float) -> RayTrace:
    """The flight from s back to the section of `heading`, s in the
    section's arc-length coordinate.

    It runs one `trace_ray` from s and returns the RayTrace once the
    flight is known to end on the section; `_back` reads where it did.
    Raises BudgetExhausted when the flight takes more than
    DEFAULT_MAX_CROSSINGS transports, NotTransverse when it reaches the
    door, and VertexHit from the tracer.
    """
    tr = trace_ray(heading, s)
    terminal = tr.terminal
    if terminal is _BUDGET:
        raise BudgetExhausted("no return to the section within "
                              f"{DEFAULT_MAX_CROSSINGS} crossings",
                              partial=tr)
    if terminal is _DOOR:
        raise NotTransverse("trajectory off the section reaches the "
                            "door; no first-return map in this "
                            "direction")
    return tr


def _back(heading: Heading, tr: RayTrace) -> float:
    """Section coordinate of the end point of `tr`, a `_flight` of
    `heading`."""
    ax, ay, tx, ty, _ = heading.frame
    x, y = tr.end_point
    return (x - ax) * tx + (y - ay) * ty


def first_return_map(room: Room, theta: float,
                     section: CrossSection) -> PiecewiseAffineMap:
    """Return map of the direction-theta flow to a diagonal section.

    The section is arc-length parametrized from vertex i to vertex j.
    Branches correspond to itineraries of glued-side crossings; on each
    the map is affine with slope equal to the product of the crossed
    factors.  Branch boundaries (orbits of the cone point) are located
    by bisection on the itinerary, between DEFAULT_RETURN_SAMPLES
    midpoints of equal cells.  A non-finite theta raises ValueError
    before any other check.
    """
    _require_finite(theta)
    if angle_dist_mod_pi(theta, section.direction(room)) < TRANSVERSALITY_FLOOR:
        raise NotTransverse("direction is parallel to the section")
    # Directions parallel to the door are allowed: their flow is tangent
    # to the boundary leaf and never crosses the door transversally.
    if not room.is_inward(theta, margin=-INWARD_SLACK):
        raise ValueError("direction must point into the surface at the door")
    heading = Heading.of(room, theta, section)
    length = heading.frame[4]

    grid = [length * (k + 0.5) / DEFAULT_RETURN_SAMPLES
            for k in range(DEFAULT_RETURN_SAMPLES)]
    keys: list[Optional[tuple[int, ...]]] = []
    for s in grid:
        try:
            keys.append(_flight(heading, s).crossed_sides)
        except VertexHit:
            keys.append(None)

    def on_key(s: float) -> bool:
        # `key`, set in the loop below, is the itinerary being bisected
        try:
            return _flight(heading, s).crossed_sides == key
        except VertexHit:
            return False

    tol = BRANCH_BISECT_TOL * length
    cuts: list[float] = []
    for k in range(DEFAULT_RETURN_SAMPLES - 1):
        left, right = keys[k], keys[k + 1]
        if left == right:
            continue
        # bisect from the grid point whose flight has a key
        if left is not None:
            inside, outside, key = grid[k], grid[k + 1], left
        else:
            inside, outside, key = grid[k + 1], grid[k], right
        cuts.append(_bisect(inside, outside, on_key, tol))

    boundaries = [0.0]
    for c in sorted(cuts):
        if c - boundaries[-1] > BRANCH_MIN_GAP * tol:
            boundaries.append(c)
    if length - boundaries[-1] > BRANCH_MIN_GAP * tol:
        boundaries.append(length)
    else:
        boundaries[-1] = length

    branches = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        width = hi - lo
        law = None
        for frac1, frac2 in ((0.5, 0.8), (0.38, 0.66), (0.29, 0.71)):
            try:
                s1 = lo + frac1 * width
                s2 = lo + frac2 * width
                tr1 = _flight(heading, s1)
                tr2 = _flight(heading, s2)
            except VertexHit:
                continue
            if tr1.crossed_sides != tr2.crossed_sides:
                continue
            factor1 = tr1.cumulative_factor
            intercept = _back(heading, tr1) - factor1 * s1
            if (abs(_back(heading, tr2) - (factor1 * s2 + intercept))
                    > BRANCH_VERIFY_TOL * length):
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


# --- reduction of a direction to the two-slope normal form ---

class SectionReduction(NamedTuple):
    """Two-slope normal form of a direction's return dynamics.

    `chart` maps the section's arc-length coordinate to the [0, 1]
    coordinate of `two_slope`.
    """

    two_slope: TwoSlopeMap
    chart: AffineChart
    section: CrossSection


def _verify_reduction(room: Room, theta: float, sec: CrossSection,
                      tsm: TwoSlopeMap, chart: AffineChart) -> None:
    """Check the normal form against traces the builder never saw.

    Branch boundaries can hide further branches below the sampling
    resolution; a reduction whose extrapolated laws disagree with an
    independent trace is rejected rather than silently kept.
    """
    heading = Heading.of(room, theta, sec)
    length = heading.frame[4]
    for k in range(16):
        s = length * math.modf(0.12345 + k * 0.6180339887498949)[0]
        x = float(chart.apply(s))
        if (not VERIFY_END_MARGIN < x < 1.0 - VERIFY_END_MARGIN
                or abs(x - float(tsm.x_t)) < VERIFY_BREAK_MARGIN):
            continue
        try:
            s_back = _back(heading, _flight(heading, s))
        except VertexHit:
            continue
        except (BudgetExhausted, NotTransverse):
            raise NotReducible("verification trace did not return to the "
                               "section") from None
        predicted = float(evaluate_two_slope(tsm, x))
        observed = float(chart.apply(s_back))
        if abs(predicted - observed) > VERIFY_TOL:
            raise NotReducible(
                f"normal form disagrees with an independent trace by "
                f"{abs(predicted - observed):.2e}; the section has branch "
                f"structure below the sampling resolution")


def direction_to_two_slope(room: Room, theta: float) -> SectionReduction:
    """Reduce the direction's return dynamics to a TwoSlopeMap.

    The first of `_candidate_sections` whose return map reduces wins.
    """
    candidates = _candidate_sections(room, theta)
    if not candidates:
        raise NotTransverse("direction is parallel to every interior "
                            "diagonal")
    failures = []
    for sec in candidates:
        try:
            pam = first_return_map(room, theta, sec)
            tsm, chart = restrict_to_image(pam)
            _verify_reduction(room, theta, sec, tsm, chart)
        except (NotTransverse, NotReducible, VertexHit, BudgetExhausted) as exc:
            failures.append(f"({sec.i},{sec.j}): {exc}")
            continue
        return SectionReduction(tsm, chart, sec)
    raise NotReducible("no section yields a two-slope normal form: "
                       + "; ".join(failures))


# --- direction classification ---

def _collapsed_cycle(pam: PiecewiseAffineMap) -> Optional[tuple[float, float]]:
    """(slope, fixed point) when the return map collapses onto one branch.

    If the closure of the image misses the jump point, every forward
    orbit settles into a single contracting affine branch, so the
    direction carries a period-1 attracting leaf that the two-slope
    normal form cannot express.  The fixed point must be interior to
    the section: a fixed point at an endpoint is a saddle loop through
    the cone point, not a cylinder.
    """
    dom_lo, dom_hi = pam.domain
    scale = float(dom_hi - dom_lo)
    if len(pam.branches) == 1:
        branch = pam.branches[0]
    else:
        try:
            x_d, j_lo, j_hi = map(float, downward_jump(pam))
        except NotReducible:
            return None
        if (j_lo - COLLAPSE_JUMP_MARGIN * scale <= x_d
                <= j_hi + COLLAPSE_JUMP_MARGIN * scale):
            return None
        branch = pam.branches[0] if x_d > j_hi else pam.branches[1]
    slope = float(branch.slope)
    if slope >= 1.0 - COLLAPSE_SLOPE_MARGIN:
        return None
    fixed = float(branch.intercept) / (1.0 - slope)
    if not (float(dom_lo) + COLLAPSE_FIXED_MARGIN * scale < fixed
            < float(dom_hi) - COLLAPSE_FIXED_MARGIN * scale):
        return None
    return slope, fixed


def _collapsed_direction(room: Room, theta: float
                         ) -> Optional[tuple[float, float, CrossSection]]:
    """Search the candidate sections for a collapsed return map.

    Returns (slope, fixed point, section) for the first of
    `_candidate_sections` whose return map has a single attracting branch
    confirmed by a trace from the fixed point itself, or None.
    """
    for sec in _candidate_sections(room, theta):
        try:
            pam = first_return_map(room, theta, sec)
        except (NotTransverse, BudgetExhausted):
            # direction_to_two_slope built this same map first, so only
            # the errors it absorbed can recur here
            continue
        col = _collapsed_cycle(pam)
        if col is None:
            continue
        slope, fixed = col
        heading = Heading.of(room, theta, sec)
        try:
            s_back = _back(heading, _flight(heading, fixed))
        except (NotTransverse, BudgetExhausted):
            continue
        except VertexHit:
            # The branch law was already verified at two probe points;
            # a singular hit exactly at the fixed point does not refute it.
            pass
        else:
            if abs(s_back - fixed) > COLLAPSE_CLOSE_TOL * heading.frame[4]:
                continue
        return slope, fixed, sec
    return None


class DirectionKind(Enum):
    DOOR = "door"
    CYLINDER = "cylinder"
    CANTOR_LIKE = "cantor_like"


class DirectionClass(NamedTuple):
    """Verdict for one flow direction.

    For cylinders, `multiplier` is the expansion of the return map
    around the periodic orbit, normalized above 1, and `word` is the
    renormalization word that found it.  Cantor-like verdicts carry the
    word prefix examined before the budget ran out or a renormalization
    boundary was hit.
    """

    kind: DirectionKind
    word: str
    multiplier: Optional[float]
    reduction: Optional[SectionReduction]
    outcome: Optional[RauzyOutcome]

    @property
    def exhausted(self) -> bool:
        """The induction budget ran out before a verdict was reached."""
        return (self.outcome is not None
                and self.outcome.terminal is TerminalKind.BUDGET_EXHAUSTED)


def classify_direction(room: Room, theta: float,
                       budget: int = DEFAULT_INDUCTION_BUDGET) -> DirectionClass:
    """Trichotomy for the flow in direction theta.

    Door-parallel directions are recognized first.  Otherwise theta is
    normalized into the inward half-circle (the verdict only depends on
    the direction mod pi), reduced to a two-slope map, and renormalized
    until it either halts in a hole (a cylinder) or exhausts the budget
    or hits a renormalization boundary (Cantor-like as far as this
    budget can tell).  A negative budget and a non-finite theta are
    refused on every path, not only on those that reach the induction.
    """
    if budget < 0:
        raise ValueError("induction budget must be nonnegative")
    _require_finite(theta)
    if angle_dist_mod_pi(theta, room.door_direction()) <= DOOR_ANGLE_TOL:
        return DirectionClass(DirectionKind.DOOR, "", None, None, None)
    th = wrap_2pi(theta)
    if not room.is_inward(th):
        th = wrap_2pi(th + math.pi)
    try:
        red = direction_to_two_slope(room, th)
    except NotReducible:
        collapsed = _collapsed_direction(room, th)
        if collapsed is None:
            raise
        return DirectionClass(DirectionKind.CYLINDER, "",
                              1.0 / collapsed[0], None, None)
    outcome = iterate_induction(red.two_slope, budget)
    if outcome.terminal is TerminalKind.HALT:
        mult = float(outcome.cycle.multiplier)
        if mult < 1.0:
            mult = 1.0 / mult
        return DirectionClass(DirectionKind.CYLINDER, outcome.word, mult,
                              red, outcome)
    return DirectionClass(DirectionKind.CANTOR_LIKE, outcome.word, None,
                          red, outcome)


# --- cylinder search over the direction circle ---

class Cylinder(NamedTuple):
    """Maximal found interval of directions sharing one halting word."""

    theta1: float
    theta2: float
    word: str
    multiplier: float

    @property
    def angle(self) -> float:
        return self.theta2 - self.theta1


def _runs(keys: list, same: Callable[[object, object], bool]
          ) -> list[tuple[int, int]]:
    """(first, last) index of each maximal run of keys other than None
    that match the run's first key under `same`."""
    runs = []
    k = 0
    while k < len(keys):
        if keys[k] is None:
            k += 1
            continue
        k_end = k
        while (k_end + 1 < len(keys) and keys[k_end + 1] is not None
               and same(keys[k], keys[k_end + 1])):
            k_end += 1
        runs.append((k, k_end))
        k = k_end + 1
    return runs


class ScanResult(NamedTuple):
    cylinders: tuple[Cylinder, ...]
    exhausted: bool
    n_samples: int


def find_cylinders(room: Room, eps_angle: float,
                   budget: int = DEFAULT_INDUCTION_BUDGET) -> ScanResult:
    """Scan the inward half-circle for cylinder direction intervals.

    The grid step eps_angle/2 guarantees at least two samples inside any
    cylinder of angle >= eps_angle; smaller ones are reported when a
    sample happens to land in them.  Interval edges are bisected to
    CYLINDER_EDGE_TOL.  `exhausted` records that some sample's
    renormalization ran out of budget, or that a run's bisected
    midpoint gave another verdict and the run was dropped, so absence
    of further cylinders is not certified.  An eps_angle whose grid
    would exceed MAX_SCAN_SAMPLES is refused before any sample is taken.
    """
    if not (eps_angle > 0 and math.isfinite(eps_angle)):
        raise ValueError("eps_angle must be positive and finite")
    lo, hi = room.inward_directions()
    if hi - lo > MAX_SCAN_SAMPLES * (eps_angle / 2.0):
        raise ValueError(f"eps_angle {eps_angle!r} needs a grid of over "
                         f"{MAX_SCAN_SAMPLES} samples")
    n = max(4, math.ceil((hi - lo) / (eps_angle / 2.0)))
    step = (hi - lo) / n
    thetas = [lo + (k + 0.5) * step for k in range(n)]

    exhausted = False

    def cylinder_at(theta: float) -> Optional[DirectionClass]:
        nonlocal exhausted
        try:
            verdict = classify_direction(room, theta, budget=budget)
        except UNDECIDED_ERRORS:
            return None
        exhausted = exhausted or verdict.exhausted
        return verdict if verdict.kind is DirectionKind.CYLINDER else None

    words = [None if v is None else v.word
             for v in map(cylinder_at, thetas)]
    cylinders = []
    for k, k_end in _runs(words, operator.eq):
        word = words[k]

        def in_run(theta: float) -> bool:
            v = cylinder_at(theta)
            return v is not None and v.word == word

        left_out = thetas[k - 1] if k > 0 else lo
        right_out = thetas[k_end + 1] if k_end + 1 < n else hi
        t1 = _bisect(thetas[k], left_out, in_run, CYLINDER_EDGE_TOL)
        t2 = _bisect(thetas[k_end], right_out, in_run, CYLINDER_EDGE_TOL)
        t1, t2 = min(t1, t2), max(t1, t2)
        mid = cylinder_at(0.5 * (t1 + t2))
        if mid is not None and mid.word == word:
            cylinders.append(Cylinder(t1, t2, word, mid.multiplier))
        else:
            exhausted = True
    return ScanResult(tuple(cylinders), exhausted, n)


# --- rotation numbers on the Herman boundary ---

ROTATION_MAX_ITER = 1 << 20
# the float estimate stops when two successive estimates of the rotation
# number (turns per iterate) agree within this
ROTATION_TOL = 1e-10
EXACT_ORBIT_CAP = 4096
EXACT_DENOMINATOR_CAP = 10**30


def _lift(ra: Scalar, rb: Scalar) -> tuple[Scalar, Scalar]:
    """The break x* = (1 - rb) / (ra - rb) that makes the two-slope circle
    map continuous and the offset b_a = rb*(1 - x*) of its lower branch,
    exact on exact slopes.  The lift F (see rotation_number) steps x to
    ra*x + b_a below x* and to rb*(x - x*), one turn on, above it."""
    x_star = (1 - rb) / (ra - rb)
    return x_star, rb * (1 - x_star)


def rotation_number(rho_a: Scalar, rho_b: Scalar,
                    tol: float = ROTATION_TOL,
                    max_iter: int = ROTATION_MAX_ITER) -> Union[Fraction, float]:
    """Rotation number of the continuous two-slope circle map.

    For rho_A > 1 > rho_B > 0 there is exactly one break point
    x* = (1 - rho_B) / (rho_A - rho_B) making the map a continuous
    degree-one circle homeomorphism; its lift is
    F(x) = rho_A x + rho_B (1 - x*) below x* and rho_B (x - x*) + 1
    above.  Exact input drives exact orbit-of-the-break cycle detection
    (returning a Fraction).  In float mode the orbit usually locks onto
    an attracting cycle, found by comparing against power-of-two anchor
    points and verified by one more loop around the candidate cycle;
    failing that, Birkhoff averages with doubling caps run until two
    consecutive estimates agree within tol.  Raises NonConvergence with
    the rigorous bracket (displacement +/- 1)/n if the cap is reached.
    A negative or NaN tol is refused: no two estimates could meet it.
    So is an infinite rho_a, whose map sends every point below x* to
    infinity, and an exact slope past the float range.

    Both orbits take the step of the lift inline; the oracle is
    `tests/oracles.rotation_number_oracle`, which calls the step once per
    iterate.
    """
    ra_f, rb_f = as_float(rho_a, "rho_a"), as_float(rho_b, "rho_b")
    if not (ra_f > 1.0 > rb_f > 0.0):
        raise ValueError("need rho_a > 1 > rho_b > 0")
    if ra_f == math.inf:
        raise ValueError("rho_a must be finite")
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    if is_exact(rho_a) and is_exact(rho_b):
        x_star, b_a = _lift(rho_a, rho_b)
        seen: dict = {}     # exact values hash by value
        x, gain = x_star, 0
        for n in range(EXACT_ORBIT_CAP):
            if x in seen:
                n0, g0 = seen[x]
                return Fraction(gain - g0, n - n0)
            seen[x] = (n, gain)
            if x < x_star:
                x = rho_a * x + b_a
            else:
                x = rho_b * (x - x_star)
                gain += 1
            if max_denominator(x) > EXACT_DENOMINATOR_CAP:
                break
        # fall through to the float estimate

    x_star_f, b_a = _lift(ra_f, rb_f)
    x, gain, n = x_star_f, 0, 0
    anchor_x, anchor_gain, anchor_n = x, 0, 0
    next_anchor = 64
    estimates: list[float] = []
    cap = min(1 << 10, max_iter)
    while cap <= max_iter:
        while n < cap:
            if x < x_star_f:
                x = ra_f * x + b_a
            else:
                x = rb_f * (x - x_star_f)
                gain += 1
            n += 1
            # Mode locking makes most float orbits converge to a cycle;
            # a return to the anchor's ROTATION_ANCHOR_RADIUS
            # neighbourhood after q steps means q is (a multiple of) the
            # period, and the Fraction reduces the multiple away.
            if abs(x - anchor_x) < ROTATION_ANCHOR_RADIUS:
                q = n - anchor_n
                p = gain - anchor_gain
                xv, gv = x, 0
                for _ in range(q):
                    if xv < x_star_f:
                        xv = ra_f * xv + b_a
                    else:
                        xv = rb_f * (xv - x_star_f)
                        gv += 1
                if abs(xv - x) < ROTATION_CYCLE_TOL and gv == p:
                    return Fraction(p, q)
            if n == next_anchor:
                anchor_x, anchor_gain, anchor_n = x, gain, n
                next_anchor *= 2
        estimates.append((gain + x - x_star_f) / n)
        if len(estimates) >= 2 and abs(estimates[-1] - estimates[-2]) <= tol:
            return estimates[-1]
        cap *= 2
    # The lift of a circle homeomorphism satisfies |X_n - X_0 - n*rho| < 1,
    # so this bracket is rigorous whatever the convergence behaviour.
    disp = gain + x - x_star_f
    raise NonConvergence("rotation number did not settle within "
                         f"{n} iterations",
                         bracket=((disp - 1.0) / n, (disp + 1.0) / n))
