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
sides is an affine interval exchange.  A `Heading` holds these pieces
for each side a flight can enter and for its section, so every leg of a
flight is one table lookup and one multiply-add.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from .errors import (
    BudgetExhausted,
    NonConvergence,
    NotReducible,
    NotTransverse,
    VertexHit,
)
from .geometry import (
    _PARTNERS,
    Room,
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
from .quadratics import Scalar, as_float, integer_form, is_exact, surd_sign
from .rauzy import RauzyOutcome, iterate_induction

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

RETURN_SAMPLES = 48
MAX_CROSSINGS = 512
DEFAULT_INDUCTION_BUDGET = 3000
# find_cylinders refuses an eps_angle whose grid on the inward
# half-circle would hold more samples: eps_angle below about 6.3e-5
MAX_SCAN_SAMPLES = 10 ** 5

# What classify_direction raises for a direction it cannot decide; scans
# and monitors count such a direction as a miss.  Vertex hits are
# absorbed per flight, by first_return_map and _verify_reduction, and
# exhausted crossing budgets per section, by direction_to_two_slope, so
# neither escapes; any other error is a bug that must reach the caller.
UNDECIDED_ERRORS = (NotTransverse, NotReducible)


def _crossing_angle(theta: float, ux: float, uy: float,
                    chord: tuple[float, ...]) -> Optional[float]:
    """The angle, mod pi, between direction theta, of unit vector
    (ux, uy), and a diagonal's chord row (ax, ay, ex, ey, parallel
    floor) of `Room.geom`; None when the direction cannot cross the
    chord: that angle is below TRANSVERSALITY_FLOOR, or |u x e| is
    within the chord's parallel floor.  On a chord longer than about
    1e-5 the first rule implies the second."""
    _, _, ex, ey, par = chord
    margin = angle_dist_mod_pi(theta, math.atan2(ey, ex))
    if margin < TRANSVERSALITY_FLOOR or abs(ux * ey - uy * ex) <= par:
        return None
    return margin


# --- ray tracing ---

def _require_finite(theta: float) -> None:
    """Refuse a NaN or infinite direction before any other work."""
    if not math.isfinite(theta):
        raise ValueError(f"direction theta must be finite, got {theta!r}")


# `Heading.legs` slot of the section's leg table; slots 0-4 are the sides'
SECTION_LEG = 5
# the exit of a leg table's piece on which a ray meets no side: its t is
# infinite, and its s NaN, which fails the test for a crossing clear of
# the vertices, so that a leg there raises VertexHit
_NO_EXIT = (None, None, 1.0, math.nan, 0.0, math.inf, 0.0)


class Heading(NamedTuple):
    """Direction-only set-up of the rays of one (room, theta, section),
    an immutable value built whole by `Direction.heading`, and only for
    a section that theta crosses.  The headings of one `Direction`
    share its side tables; a caller that holds only (room, theta)
    builds one as `Direction(room, theta).heading(section)`.

    `sides` is the room's side table (`Room.geom`), which the transports
    read.  `t_base` and `t_clear` are MIN_STEP and CLEARANCE in units of
    the room diameter.  `section_row` is (ax, ay, ex, ey, u x e) of the
    section.  `frame` is the section's arc-length frame (ax, ay, tx, ty,
    length): the point at s is (ax + tx*s, ay + ty*s), and a point
    (x, y) on the section sits at s = (x - ax)*tx + (y - ay)*ty, the
    float operations of the Vec2 forms a + tangent*s and
    (q - a).dot(tangent).

    `legs[j]` is the table of the legs from side j, (cuts, pieces, C0,
    C1, D0, D1), and None for a side no ray of theta enters;
    `legs[SECTION_LEG]` is that of the legs from the section, (cuts,
    pieces).  The piece of sigma is pieces[bisect_right(cuts, sigma)],
    the row (k, partner, factor, S0, S1, T0, T1) of its exit: the exit
    side k, the side its transport lands on (None for the door) and its
    factor, and the exit's s and t laws.  A piece where no exit is taken
    is `_NO_EXIT`.  On every piece of side j the section is met at
    t = C0 + C1*sigma and s = D0 + D1*sigma.  The section's own table
    has no section law, since a flight crosses a side before it can
    return.  `Direction.tabulate` builds each (cuts, pieces).
    """

    sides: tuple[tuple, ...]
    t_base: float
    t_clear: float
    section_row: tuple[float, float, float, float, float]
    frame: tuple[float, float, float, float, float]
    legs: tuple[Optional[tuple], ...]


def _laws(bx: float, by: float, fx: float, fy: float, ux: float, uy: float,
          ax: float, ay: float, ex: float, ey: float, denom: float
          ) -> tuple[float, float, float, float]:
    """(T0, T1, S0, S1): the ray along u from (bx + fx*sigma,
    by + fy*sigma) crosses the segment from (ax, ay) along (ex, ey),
    whose u x e is denom, at t = T0 + T1*sigma and s = S0 + S1*sigma."""
    dx, dy = ax - bx, ay - by
    return ((dx * ey - dy * ex) / denom, (fy * ex - fx * ey) / denom,
            (dx * uy - dy * ux) / denom, (fy * ux - fx * uy) / denom)


class Direction:
    """The set-up of direction theta in `room` that every flight along
    it shares, built whole but for the headings: the room, the float
    theta, the unit direction (ux, uy), `t_base`, the exits, the
    candidate sections and `bases`, the (cuts, pieces) of the legs from
    each side a ray can enter, None for the others.  `heading` builds
    the heading of a section from them once.  A NaN or infinite theta
    raises ValueError before any of it is built.

    A section is one of the five pentagon diagonals, oriented from
    vertex i to vertex j and given as the pair (i, j).  All five
    vertices project to the single cone point of the glued surface, so
    every diagonal closes up to a circle there; the return map of a
    transverse direction is a circle map in disguise.  The candidates
    are the interior diagonals that theta crosses (`_crossing_angle`),
    most transversal first; vertex indices break ties between equal
    margins.

    `classify_direction` builds one per classification and hands it to
    each return map, verification and collapsed check it makes, so they
    all fly on the same headings.  The room keeps nothing of it: a
    caller that holds only (room, theta) builds its own.

    A crossing of the ray p + t*u with the side a + s*e solves, with
    w = a - p, t = (w x e)/(u x e) and s = (w x u)/(u x e).  The
    denominators u x e depend on the direction only, so they are taken
    once per direction.  On the counter-clockwise pentagon the ray
    leaves through a side whose u x e exceeds the side's parallel floor:
    `exits` holds (k, ax, ay, ex, ey, u x e) for those sides k, in the
    order of the side table.  A ray enters only the partners of the
    exits, so those are the sides that get a table.

    A leg that starts at sigma on the segment from b along f (a side's
    start and edge vector, sigma its fraction of the edge, or the
    section's start and unit tangent, sigma its arc length) has
    w = (a - b) - sigma*f, so the crossing of every exit and of the
    section is affine in sigma: s = S0 + S1*sigma and t = T0 + T1*sigma.
    `tabulate` cuts the leg's domain [0, top] where the exit changes:
    at the sigma at which an exit's s reaches -VERTEX_TOL or
    1 + VERTEX_TOL, its t reaches t_base, or the t of two exits meet.
    Between two cuts the exits a ray may take (t_base < t, s within
    VERTEX_TOL of [0, 1]) and their order by t stay the same, so each
    piece's exit is the one of least t among them at the piece's
    midpoint, and neighbours with the same exit merge.  A side's pieces
    depend on the room, theta and the side, not on the section, so all
    the direction's headings share them, each followed by the heading's
    section law.
    """

    __slots__ = ("room", "theta", "ux", "uy", "t_base", "exits",
                 "candidates", "bases", "headings")

    def __init__(self, room: Room, theta: float):
        _require_finite(theta)
        geom = room.geom
        ux, uy = math.cos(theta), math.sin(theta)
        self.room, self.theta, self.ux, self.uy = room, theta, ux, uy
        self.t_base = MIN_STEP * geom.diameter
        self.exits = exits = []
        for k, (ax, ay, ex, ey, par, *_) in enumerate(geom.sides):
            denom = ux * ey - uy * ex
            if denom > par:
                exits.append((k, ax, ay, ex, ey, denom))
        scored = []
        for i, j in geom.interior:
            margin = _crossing_angle(theta, ux, uy, geom.diagonals[i, j])
            if margin is not None:
                scored.append((-margin, i, j))
        self.candidates = [(i, j) for _, i, j in sorted(scored)]
        entered = {_PARTNERS[k] for k, *_ in exits}
        self.bases = [self.tabulate(*row[:4], 1.0) if j in entered else None
                      for j, row in enumerate(geom.sides)]
        self.headings: dict[tuple[int, int], Heading] = {}

    def heading(self, section: tuple[int, int]) -> Heading:
        """The heading of `section`, the diagonal from vertex i to
        vertex j given as the pair (i, j), built with its leg tables on
        first ask.  Before any table is built, a pair that is not a
        pentagon diagonal raises ValueError, then a section that theta
        cannot cross NotTransverse, and then one that is not an interior
        diagonal of the room ValueError."""
        found = self.headings.get(section)
        if found is not None:
            return found
        geom, ux, uy = self.room.geom, self.ux, self.uy
        chord = geom.diagonals.get(section)
        if chord is None:
            raise ValueError(f"{section} is not a pentagon diagonal")
        if _crossing_angle(self.theta, ux, uy, chord) is None:
            raise NotTransverse("direction is parallel to the section")
        if (min(section), max(section)) not in geom.interior:
            raise ValueError(f"{section} is not an interior diagonal of "
                             "the room")
        ax, ay, ex, ey, _ = chord
        length = math.hypot(ex, ey)
        inv = 1.0 / length
        frame = (ax, ay, ex * inv, ey * inv, length)
        sec = (ax, ay, ex, ey, ux * ey - uy * ex)
        legs = [None if base is None else
                base + _laws(*geom.sides[j][:4], ux, uy, *sec)
                for j, base in enumerate(self.bases)]
        legs.append(self.tabulate(*frame))
        found = self.headings[section] = Heading(
            geom.sides, self.t_base, CLEARANCE * geom.diameter, sec, frame,
            tuple(legs))
        return found

    def tabulate(self, bx: float, by: float, fx: float, fy: float,
                 top: float) -> tuple[tuple[float, ...], tuple[tuple, ...]]:
        """(cuts, pieces) of the legs from sigma in [0, top] on the
        segment from (bx, by) along (fx, fy), as `Heading` reads them."""
        ux, uy, t_base = self.ux, self.uy, self.t_base
        rows = self.room.geom.sides
        laws: list[tuple] = []
        cuts: list[float] = []
        for k, ax, ay, ex, ey, denom in self.exits:
            t0, t1, s0, s1 = _laws(bx, by, fx, fy, ux, uy, ax, ay, ex, ey,
                                   denom)
            if s1:
                cuts += ((_S_LO - s0) / s1, (_S_HI - s0) / s1)
            if t1:
                cuts.append((t_base - t0) / t1)
            for other in laws:
                if other[6] != t1:
                    cuts.append((t0 - other[5]) / (other[6] - t1))
            laws.append((k, _PARTNERS[k], rows[k][5], s0, s1, t0, t1))
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
                pieces.append(taken)
            lo = hi
        return tuple(kept), tuple(pieces)


class RayTrace(NamedTuple):
    """Itinerary of one ray: the glued sides it crossed, in flight order,
    and where and how it stopped.

    `terminal` says how: "door" (the ray reached the door), "section"
    (it crossed the heading's section), "budget" (it made MAX_CROSSINGS
    transports) or "vertex" (it hit a cone point; only the trace a
    VertexHit carries ends so).

    `cumulative_factor` is the product of the crossed sides' dilation
    factors, taken in crossing order: the derivative of the flow between
    the start and `end_point`, an (x, y) pair of floats.  `trace_ray`
    builds one per flight.
    """

    crossed_sides: tuple[int, ...]
    cumulative_factor: float
    terminal: str
    end_point: tuple[float, float]

    @property
    def crossings(self) -> int:
        return len(self.crossed_sides)


# Bound once, not per flight: a side's s counts as crossed within
# [_S_LO, _S_HI] and as a vertex outside [_S_IN_LO, _S_IN_HI].
_S_LO, _S_HI = -VERTEX_TOL, 1.0 + VERTEX_TOL
_S_IN_LO, _S_IN_HI = VERTEX_TOL, 1.0 - VERTEX_TOL
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
            trace=_new_trace(RayTrace, (tuple(crossed), gain, "vertex",
                                        (bx + fx * sigma, by + fy * sigma))))
    ax, ay, ex, ey, *_ = (heading.section_row if k == SECTION_LEG
                          else heading.sides[k])
    return VertexHit("ray hits a pentagon vertex; the flow is undefined "
                     "through the cone point",
                     trace=_new_trace(RayTrace, (tuple(crossed), gain,
                                                 "vertex",
                                                 (ax + ex * s, ay + ey * s))))


def trace_ray(heading: Heading, start: float) -> RayTrace:
    """Trace the ray along `heading` through the glued sides from
    `start`, the arc-length coordinate of a point on the heading's
    section, a float in [0, length].

    Stops at the door, at a transverse crossing of the heading's
    section, or after MAX_CROSSINGS transports.  A hit within
    VERTEX_TOL of a side endpoint raises VertexHit carrying the
    itinerary up to the hit, since the flow is undefined through the
    cone point.  A start that is not finite or lies outside
    [0, length] raises ValueError before any leg.

    Every leg starts on a side or on the section, at a coordinate sigma
    of its leg table in `Heading.legs`, which a flight reads and never
    builds: it takes the piece of sigma by one bisection of the table's
    cuts and the exit's s by one multiply-add; a second multiply-add
    gives the section's t, and the exit's t and the section's s follow
    only when that t passes t_clear.  The section is crossed when
    t_clear < its t < the exit's t - t_base and its s lies within
    VERTEX_TOL of [0, 1].  A crossing whose s lies within VERTEX_TOL of
    0 or 1 raises VertexHit, and so does a piece with no exit, where the
    leg starts within float resolution of a cone point.  A transport
    through side k at s lands on its partner side at sigma = 1 - s.
    End points are taken on the side or the section crossed, a + s*e of
    its row, so a flight builds no Vec2 and keeps only its crossed sides
    and the running product of their factors.  Nothing is cached beyond
    the heading's tables and the room's own tables (`Room.geom`), so
    nothing outlives the heading and the room (nor, in the CLI, a
    `cli.main` call).

    A flight runs in three parts.  The first leg, from the section,
    cannot cross it; it ends at the door or in the first transport.
    The second leg's section test comes next, before the loop's set-up,
    since most flights return on that leg (about 87% of a scan's and 75%
    of a classification's).  Each pass of the loop then takes a leg's
    exit and transport and the next leg's section test.

    After the first transport every leg depends on its side and sigma
    alone, so a flight whose post-transport (side, sigma) repeats
    exactly is trapped in a cycle until its budget runs out.  Brent's
    method finds the repeat: the (side, sigma) after transport 1, 2, 4,
    8, ... is saved, and each later one is compared with the last one
    saved.  On a repeat the flight skips whole periods at once,
    appending their sides and multiplying their factors into the gain in
    crossing order, so the RayTrace is the one the legs would have built.
    """
    rows, t_base, t_clear, sec, frame, legs = heading
    if not 0.0 <= start <= frame[4]:
        raise ValueError(f"section coordinate {start!r} is not in "
                         f"[0, {frame[4]!r}]")
    # the first leg, from the section, which it cannot cross
    cuts, pieces = legs[SECTION_LEG]
    k, partner, factor, s0, s1, t0, t1 = pieces[bisect_right(cuts, start)]
    s = s0 + s1 * start
    if not _S_IN_LO <= s <= _S_IN_HI:
        raise _vertex_hit(heading, k, s, [], 1.0, SECTION_LEG, start)
    if partner is None:
        ax, ay, ex, ey, *_ = rows[k]
        return _new_trace(RayTrace, ((), 1.0, "door",
                                     (ax + ex * s, ay + ey * s)))

    # the second leg, after the first transport, on which most flights
    # return: its section test comes before the loop's set-up
    first, gain = k, factor
    j, sigma = partner, 1.0 - s
    cuts, pieces, c0, c1, d0, d1 = legs[j]
    k, partner, factor, s0, s1, t0, t1 = pieces[bisect_right(cuts, sigma)]
    if t_clear < c0 + c1 * sigma < t0 + t1 * sigma - t_base:
        s = d0 + d1 * sigma
        if _S_LO <= s <= _S_HI:
            if not _S_IN_LO <= s <= _S_IN_HI:
                raise _vertex_hit(heading, SECTION_LEG, s, [first], gain, j,
                                  sigma)
            ax, ay, ex, ey, _ = sec
            return _new_trace(RayTrace, ((first,), gain, "section",
                                         (ax + ex * s, ay + ey * s)))

    # Brent's method saves the (side, sigma) after the first transport
    # with the transports then left; the next save comes after twice the
    # transports so far.
    crossed = [first]
    transports_left = seen_left = MAX_CROSSINGS - 1
    seen_side, seen_sigma = j, sigma
    save_at = 2 * transports_left - MAX_CROSSINGS
    while True:
        s = s0 + s1 * sigma
        if not _S_IN_LO <= s <= _S_IN_HI:
            raise _vertex_hit(heading, k, s, crossed, gain, j, sigma)
        if partner is None or transports_left <= 0:
            ax, ay, ex, ey, *_ = rows[k]
            return _new_trace(RayTrace, (
                tuple(crossed), gain, "door" if partner is None else "budget",
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
                gain *= rows[k][5]
            crossed += skipped
            transports_left -= len(skipped)
        elif transports_left == save_at:
            seen_side, seen_sigma, seen_left = j, sigma, transports_left
            save_at = 2 * transports_left - MAX_CROSSINGS
        cuts, pieces, c0, c1, d0, d1 = legs[j]
        k, partner, factor, s0, s1, t0, t1 = pieces[bisect_right(cuts, sigma)]
        if t_clear < c0 + c1 * sigma < t0 + t1 * sigma - t_base:
            s = d0 + d1 * sigma
            if _S_LO <= s <= _S_HI:
                if not _S_IN_LO <= s <= _S_IN_HI:
                    raise _vertex_hit(heading, SECTION_LEG, s, crossed, gain,
                                      j, sigma)
                ax, ay, ex, ey, _ = sec
                return _new_trace(RayTrace, (tuple(crossed), gain, "section",
                                             (ax + ex * s, ay + ey * s)))


# --- first-return map to a cross-section ---

def _bisect(inside: float, outside: float, key_of: Callable[[float], object],
            key: object, tol: float) -> float:
    """Edge of {x : key_of(x) == key} between inside, where key_of gives
    key, and outside, where it does not; the bracket may run either way
    along the line.  The edge is the midpoint of a bracket that only
    shrinks, so it lies between inside and outside."""
    while abs(outside - inside) > tol:
        mid = 0.5 * (inside + outside)
        if key_of(mid) == key:
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
    MAX_CROSSINGS transports, NotTransverse when it reaches the
    door, and VertexHit from the tracer.
    """
    tr = trace_ray(heading, s)
    if tr.terminal == "budget":
        raise BudgetExhausted("no return to the section within "
                              f"{MAX_CROSSINGS} crossings")
    if tr.terminal == "door":
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


def first_return_map(direction: Direction,
                     section: tuple[int, int]) -> PiecewiseAffineMap:
    """Return map of the flow along `direction` to a diagonal section.

    The section, the pair (i, j), is arc-length parametrized from
    vertex i to vertex j.  Branches correspond to itineraries of
    glued-side crossings; on each the map is affine with slope equal to
    the product of the crossed factors.  Branch boundaries (orbits of
    the cone point) are located by bisection on the itinerary, between
    RETURN_SAMPLES midpoints of equal cells: one key, the
    flight's crossed sides (None on a VertexHit), serves the grid and
    every bisection.  Each cut lies between its own two grid midpoints,
    so the cuts arrive in order and join the boundaries in the one pass
    that finds them; a cut within BRANCH_MIN_GAP bisection tolerances of
    the last boundary merges into it.

    It refuses what `Direction.heading` refuses, in its order: a pair
    that is not a pentagon diagonal, a section theta cannot cross and a
    section that is not an interior diagonal.  Then it refuses, with
    ValueError, a direction that points out of the surface at the
    door.  A direction within DOOR_ANGLE_TOL of the door's, mod pi, is
    accepted, as `classify_direction` reads it: its flow is tangent to
    the boundary leaf and never crosses the door transversally.  (A
    non-finite theta has no `Direction`.)
    """
    heading = direction.heading(section)
    room, theta = direction.room, direction.theta
    if not (room.is_inward(theta) or angle_dist_mod_pi(
            theta, room.door_direction()) <= DOOR_ANGLE_TOL):
        raise ValueError("direction must point into the surface at the door")
    length = heading.frame[4]

    def itinerary(s: float) -> Optional[tuple[int, ...]]:
        try:
            return _flight(heading, s).crossed_sides
        except VertexHit:
            return None

    grid = [length * (k + 0.5) / RETURN_SAMPLES
            for k in range(RETURN_SAMPLES)]
    keys = [itinerary(s) for s in grid]
    tol = BRANCH_BISECT_TOL * length
    # a cut lies at least length/96 from either end, so only cuts merge
    boundaries = [0.0]
    for k in range(RETURN_SAMPLES - 1):
        left, right = keys[k], keys[k + 1]
        if left == right:
            continue
        # bisect from the grid point whose flight has a key
        if left is not None:
            cut = _bisect(grid[k], grid[k + 1], itinerary, left, tol)
        else:
            cut = _bisect(grid[k + 1], grid[k], itinerary, right, tol)
        if cut - boundaries[-1] > BRANCH_MIN_GAP * tol:
            boundaries.append(cut)
    boundaries.append(length)

    branches = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        width = hi - lo
        for frac1, frac2 in ((0.5, 0.8), (0.38, 0.66), (0.29, 0.71)):
            try:
                s1 = lo + frac1 * width
                s2 = lo + frac2 * width
                tr1 = _flight(heading, s1)
                tr2 = _flight(heading, s2)
            except VertexHit:
                continue
            if tr1.crossed_sides == tr2.crossed_sides:
                break
        else:
            raise NotTransverse("could not probe a branch away from "
                                "singular orbits")
        factor1 = tr1.cumulative_factor
        intercept = _back(heading, tr1) - factor1 * s1
        if (abs(_back(heading, tr2) - (factor1 * s2 + intercept))
                > BRANCH_VERIFY_TOL * length):
            raise NotTransverse("return map is not affine between "
                                "detected branch boundaries; section "
                                "sampling too coarse for this direction")
        branches.append(AffineBranch(lo, hi, factor1, intercept))
    return PiecewiseAffineMap(tuple(branches))


# --- reduction of a direction to the two-slope normal form ---

class SectionReduction(NamedTuple):
    """Two-slope normal form of a direction's return dynamics.

    `chart` maps the section's arc-length coordinate to the [0, 1]
    coordinate of `two_slope`.
    """

    two_slope: TwoSlopeMap
    chart: AffineChart
    section: tuple[int, int]


def _verify_reduction(direction: Direction, sec: tuple[int, int],
                      tsm: TwoSlopeMap, chart: AffineChart) -> None:
    """Check the normal form against traces the builder never saw.

    Branch boundaries can hide further branches below the sampling
    resolution; a reduction whose extrapolated laws disagree with an
    independent trace is rejected rather than silently kept.
    """
    heading = direction.heading(sec)
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


def direction_to_two_slope(direction: Direction) -> SectionReduction:
    """Reduce the direction's return dynamics to a TwoSlopeMap.

    The first of the direction's candidate sections whose return map
    reduces wins.  A section that fails is passed over; no VertexHit
    reaches this loop, since `first_return_map` and `_verify_reduction`
    absorb each one their flights raise.
    """
    if not direction.candidates:
        raise NotTransverse("direction is parallel to every interior "
                            "diagonal")
    failures = []
    for sec in direction.candidates:
        try:
            pam = first_return_map(direction, sec)
            tsm, chart = restrict_to_image(pam)
            _verify_reduction(direction, sec, tsm, chart)
        except (NotTransverse, NotReducible, BudgetExhausted) as exc:
            failures.append(f"({sec[0]},{sec[1]}): {exc}")
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


def _collapsed_direction(direction: Direction
                         ) -> Optional[tuple[float, float, tuple[int, int]]]:
    """Search the direction's candidate sections for a collapsed return
    map.

    Returns (slope, fixed point, section) for the first candidate whose
    return map has a single attracting branch confirmed by a trace from
    the fixed point itself, or None.
    """
    for sec in direction.candidates:
        try:
            pam = first_return_map(direction, sec)
        except (NotTransverse, BudgetExhausted):
            # direction_to_two_slope built this same map first, so only
            # the errors it absorbed can recur here
            continue
        col = _collapsed_cycle(pam)
        if col is None:
            continue
        slope, fixed = col
        heading = direction.heading(sec)
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


class DirectionClass(NamedTuple):
    """Verdict for one flow direction.

    `kind` is "door" (parallel to the door), "cylinder" or
    "cantor_like".  For cylinders, `multiplier` is the expansion of the
    return map around the periodic orbit, normalized above 1, and `word`
    is the renormalization word that found it.  Cantor-like verdicts
    carry the word prefix examined before the budget ran out or a
    renormalization boundary was hit.
    """

    kind: str
    word: str
    multiplier: Optional[float]
    reduction: Optional[SectionReduction]
    outcome: Optional[RauzyOutcome]

    @property
    def exhausted(self) -> bool:
        """The induction ended "budget_exhausted": its step budget ran
        out before a verdict was reached, or, on float slopes, a slope
        left (rauzy.FLOAT_SLOPE_MIN, rauzy.FLOAT_SLOPE_MAX) first."""
        return (self.outcome is not None
                and self.outcome.terminal == "budget_exhausted")


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
    One `Direction` of the normalized theta serves every return map,
    verification and collapsed check of the classification.
    """
    if budget < 0:
        raise ValueError("induction budget must be nonnegative")
    _require_finite(theta)
    if angle_dist_mod_pi(theta, room.door_direction()) <= DOOR_ANGLE_TOL:
        return DirectionClass("door", "", None, None, None)
    th = wrap_2pi(theta)
    if not room.is_inward(th):
        th = wrap_2pi(th + math.pi)
    direction = Direction(room, th)
    try:
        red = direction_to_two_slope(direction)
    except NotReducible:
        collapsed = _collapsed_direction(direction)
        if collapsed is None:
            raise
        return DirectionClass("cylinder", "", 1.0 / collapsed[0], None, None)
    outcome = iterate_induction(red.two_slope, budget)
    if outcome.terminal == "halt":
        mult = float(outcome.cycle.multiplier)
        if mult < 1.0:
            mult = 1.0 / mult
        return DirectionClass("cylinder", outcome.word, mult, red, outcome)
    return DirectionClass("cantor_like", outcome.word, None, red, outcome)


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
    CYLINDER_EDGE_TOL on one key, the cylinder word (None for any other
    verdict), which the grid samples too.  A run's left edge stays
    between its first sample and the sample before it, and its right
    edge between its last sample and the one after, so the edges come
    in order and need no swap.  `exhausted` records that some sample's
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
        return verdict if verdict.kind == "cylinder" else None

    def word_of(theta: float) -> Optional[str]:
        v = cylinder_at(theta)
        return None if v is None else v.word

    words = [word_of(theta) for theta in thetas]
    cylinders = []
    for k, k_end in _runs(words, operator.eq):
        word = words[k]
        left_out = thetas[k - 1] if k > 0 else lo
        right_out = thetas[k_end + 1] if k_end + 1 < n else hi
        t1 = _bisect(thetas[k], left_out, word_of, word, CYLINDER_EDGE_TOL)
        t2 = _bisect(thetas[k_end], right_out, word_of, word,
                     CYLINDER_EDGE_TOL)
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
    (returning a Fraction) on integers: each point is its canonical
    triple (m, n, D), the value (m + n*sqrt(d))/D with D > 0 and
    gcd(m, n, D) == 1 (`quadratics.integer_form`), so a step is a few
    integer products, one three-way gcd and, for the side of x*, the
    integer sign rule `surd_sign`; no Fraction or QuadraticNumber is
    built per step.  The search gives up to the float estimate after
    EXACT_ORBIT_CAP steps, or once a point has a denominator above
    EXACT_DENOMINATOR_CAP.  In float mode the orbit usually locks onto
    an attracting cycle, found by comparing against power-of-two anchor
    points and verified by one more loop around the candidate cycle;
    failing that, Birkhoff averages with doubling caps run until two
    consecutive estimates agree within tol.  Raises NonConvergence with
    the rigorous bracket (displacement +/- 1)/n if the cap is reached.
    A negative or NaN tol is refused: no two estimates could meet it.
    So is an infinite rho_a, whose map sends every point below x* to
    infinity, an exact slope past the float range, and exact slopes
    from two quadratic fields, by `quadratics.one_field`'s ValueError
    where the lift first combines them.

    Both orbits take the step of the lift inline; the oracle is
    `tests/oracles.rotation_number_oracle`, which calls the step once per
    iterate, on QuadraticNumbers in the exact search.
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

    if is_exact(rho_a, rho_b):
        x_star, b_a = _lift(rho_a, rho_b)
        # over one denominator L: x* as (xm, xn), and the branches x ->
        # rho*x + beta below and above x* as (p, q, u, v), where rho =
        # (p + q*sqrt(d))/L and beta = (u + v*sqrt(d))/L
        d, L, (ra, ba, rb, cb, (xm, xn)) = integer_form(
            rho_a, b_a, rho_b, -rho_b * x_star, x_star)
        below, above = ra + ba, rb + cb
        g = math.gcd(xm, xn, L)
        m, n, D = xm // g, xn // g, L // g    # x = (m + n*sqrt(d))/D, x*
        seen: dict = {}
        gain = 0
        for k in range(EXACT_ORBIT_CAP):
            key = m, n, D
            if key in seen:
                k0, g0 = seen[key]
                return Fraction(gain - g0, k - k0)
            seen[key] = (k, gain)
            # x < x*: the sign of (x - x*) * D * L
            if surd_sign(m * L - xm * D, n * L - xn * D, d) < 0:
                p, q, u, v = below
            else:
                p, q, u, v = above
                gain += 1
            m, n, D = p * m + q * n * d + u * D, p * n + q * m + v * D, L * D
            g = math.gcd(m, n, D)
            m, n, D = m // g, n // g, D // g
            # the larger denominator of x's coordinates m/D and n/D
            if D > EXACT_DENOMINATOR_CAP and max(
                    D // math.gcd(m, D),
                    D // math.gcd(n, D)) > EXACT_DENOMINATOR_CAP:
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
