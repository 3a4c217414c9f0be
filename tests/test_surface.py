"""Ray tracing, direction classification, and the cylinder scan."""

import ast
import importlib
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

import oracles
from dilatorus import cli, surface
from dilatorus.errors import (NonConvergence, NotReducible, NotTransverse,
                              VertexHit)
from dilatorus.geometry import (_DIAGONAL_PAIRS, PARALLEL_EPS, SL2Matrix,
                                Vec2, apply_sl2, build_room,
                                projective_action, square_room, unit)
from dilatorus.intervalmaps import (AffineBranch, PiecewiseAffineMap,
                                    TwoSlopeMap)
from dilatorus.quadratics import QuadraticNumber, sqrt_int
from dilatorus.rauzy import TerminalKind
from dilatorus.surface import (UNDECIDED_ERRORS, CrossSection,
                               DirectionKind, Heading, TraceEnd,
                               classify_direction, find_cylinders,
                               first_return_map, rotation_number, trace_ray)

SEED = 20260817
LN2 = math.log(2.0)
ROOM = square_room(LN2, LN2)
# mu1 < 0 puts V3 past V2, so V4 is a reflex vertex
REFLEX = build_room((1.0, 0.2), (0.3, 1.1), (-0.5, 1.0))


# --- ray tracing ---

def test_trace_reaches_door():
    # straight shot toward the door from (0.3, 0.3) on the diagonal
    trace = trace_ray(Heading.of(ROOM, math.atan2(1.0, -0.3),
                                 CrossSection(0, 2)), 0.3 * math.sqrt(2.0),
                      64)
    assert trace.terminal is TraceEnd.DOOR
    assert trace.crossings == len(trace.crossed_sides)


def test_trace_transport_factors_are_glue_factors():
    rng = random.Random(SEED)
    for _ in range(40):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        heading = Heading.of(ROOM, theta, CrossSection(2, 4))
        try:
            trace = trace_ray(heading, 0.29 * heading.frame[4], 12)
        except VertexHit:
            continue
        sides = ROOM.sides()
        assert trace.cumulative_factor == math.prod(
            sides[idx].factor for idx in trace.crossed_sides)


def test_trace_vertex_hit():
    # aim exactly at V2 = (1, 1), along the diagonal from (0.5, 0.5)
    heading = Heading.of(ROOM, math.pi / 4.0, CrossSection(0, 2))
    with pytest.raises(VertexHit) as info:
        trace_ray(heading, 0.5 * heading.frame[4], 64)
    assert info.value.trace.terminal is TraceEnd.VERTEX


def test_trace_max_crossings_budget():
    heading = Heading.of(ROOM, 0.1, CrossSection(2, 4))
    trace = trace_ray(heading, 0.29 * heading.frame[4], 5)
    assert trace.terminal is TraceEnd.BUDGET
    assert trace.crossings == 5


def test_a_section_start_next_to_a_vertex_traces():
    # a start on a section 1e-12 or 1e-9 of its length from an end is
    # never refused, and traces as the oracle does
    kinds = {"trace": 0, "vertex": 0}
    for room in (ROOM, REFLEX):
        for i, j in room.interior_diagonals():
            for section in (CrossSection(i, j), CrossSection(j, i)):
                for k in range(24):
                    theta = 2.0 * math.pi * (k + 0.37) / 24
                    heading = Heading.of(room, theta, section)
                    length = heading.frame[4]
                    for s in (1e-12 * length, 1e-9 * length):
                        fast = _trace_outcome(trace_ray, heading, s, 64)
                        slow = _trace_outcome(oracles.trace_ray_oracle,
                                              room, s, theta, 64, section)
                        assert fast[0] != "value", (room, theta, section)
                        assert fast == slow, (room, theta, section, s)
                        kinds[fast[0]] += 1
    assert all(count >= 10 for count in kinds.values()), kinds


def _trace_outcome(tracer, *args):
    """What a tracer did: its trace, the partial trace of a VertexHit,
    or the message of a ValueError."""
    try:
        return ("trace", tracer(*args))
    except VertexHit as exc:
        return ("vertex", exc.trace)
    except ValueError as exc:
        return ("value", str(exc))


def _oracle_rooms(rng: random.Random) -> list:
    """The square ln 2 room, the sheared room, a non-convex room, and a
    random SL(2, R) image of each."""
    sheared = build_room((1.0, 0.2), (0.3, 1.1), (0.4, 1.3))
    rooms = [ROOM, sheared, REFLEX]
    return rooms + [apply_sl2(oracles.random_sl2(rng), room)
                    for room in rooms]


def _start(rng: random.Random, room, section, theta: float,
           aimed: bool) -> float:
    """A section coordinate of a flight along theta, uniform on the
    section; or, when aimed, where the line along theta through a vertex
    ahead meets the section, for the first vertex in random order that
    has one."""
    a, b = section.endpoints(room)
    e = b - a
    length = e.length()
    u = unit(theta)
    if aimed and e.cross(u):
        verts = room.vertices()
        rng.shuffle(verts)
        for v in verts:
            # v - a = frac*e + t*u, with the vertex ahead at t > 0
            w = v - a
            frac = w.cross(u) / e.cross(u)
            if 0.0 < frac < 1.0 and w.cross(e) / u.cross(e) > 0.0:
                return frac * length
    return length * rng.random()


def _oracle_cases(rng: random.Random, n: int):
    """(room, s, theta, max_crossings, section) cases over six rooms:
    random directions from random section coordinates, one in ten
    aimed at a vertex."""
    rooms = _oracle_rooms(rng)
    for k in range(n):
        room = rooms[k % len(rooms)]
        section = CrossSection(*rng.choice(room.interior_diagonals()))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        s = _start(rng, room, section, theta, rng.random() < 0.1)
        yield (room, s, theta, rng.choice((3, 12, 64)), section)


def test_trace_ray_matches_vec2_oracle():
    # the float tracer must do the oracle's arithmetic in the oracle's
    # order: traces and partial traces agree exactly
    kinds = {"trace": 0, "vertex": 0}
    ends = set()
    for case in _oracle_cases(random.Random(SEED), 600):
        room, s, theta, max_crossings, section = case
        fast = _trace_outcome(trace_ray, Heading.of(room, theta, section),
                              s, max_crossings)
        slow = _trace_outcome(oracles.trace_ray_oracle, *case)
        assert fast == slow, case
        kinds[fast[0]] += 1
        if fast[0] == "trace":
            ends.add(fast[1].terminal)
    assert all(count >= 10 for count in kinds.values()), kinds
    assert ends == {TraceEnd.DOOR, TraceEnd.SECTION, TraceEnd.BUDGET}


def test_a_bad_section_coordinate_is_refused_before_any_leg():
    # a section coordinate must be a finite float in [0, length]; a
    # refused start leaves the heading's leg tables unbuilt
    heading = Heading.of(ROOM, 0.7, CrossSection(1, 3))
    length = heading.frame[4]
    for bad in (math.nan, math.inf, -math.inf, -1e-300, -0.5,
                math.nextafter(length, math.inf), 2.0 * length):
        with pytest.raises(ValueError, match="not in"):
            trace_ray(heading, bad, 64)
    assert heading.legs == [None] * (surface.SECTION_LEG + 1)
    # both ends are starts, each at a vertex
    for s in (0.0, length):
        fast = _trace_outcome(trace_ray, heading, s, 64)
        assert fast[0] == "vertex"
        assert fast == _trace_outcome(oracles.trace_ray_oracle, ROOM, s,
                                      0.7, 64, CrossSection(1, 3))


def test_leg_tables_are_invisible():
    # tables built by flights change neither eq, hash nor repr
    heading = Heading.of(REFLEX, 1.3, CrossSection(0, 2))
    twin = Heading.of(REFLEX, 1.3, CrossSection(0, 2))
    before = (repr(heading), hash(heading))
    for k in range(40):
        try:
            trace_ray(heading, heading.frame[4] * (k + 0.5) / 40, 64)
        except VertexHit:
            pass
    assert any(table is not None for table in heading.legs)
    assert heading == twin
    assert (repr(heading), hash(heading)) == before == (repr(twin),
                                                         hash(twin))


def test_a_trapped_flight_traces_as_the_oracle_does():
    # a flight from a section that settles on a periodic leaf repeats
    # its post-transport point exactly and runs out of budget; trace_ray
    # skips whole periods of that cycle, and must still give the
    # oracle's sides, gain and end point, whether the budget ends before
    # the repeat is found or long after
    rng = random.Random(SEED + 9)
    sheared = build_room((1.0, 0.2), (0.3, 1.1), (0.4, 1.3))
    periods = []
    for room in (ROOM, sheared):
        found = 0
        while found < 30:
            theta = rng.uniform(0.0, 2.0 * math.pi)
            if not room.is_inward(theta):
                theta += math.pi
            section = CrossSection(*rng.choice(room.interior_diagonals()))
            heading = Heading.of(room, theta, section)
            s = heading.frame[4] * rng.random()
            try:
                sides = trace_ray(heading, s, 512).crossed_sides
            except VertexHit:
                continue
            period = next((q for q in range(1, 5)
                           if sides[-64:] == sides[-64 - q:-q]), None)
            if len(sides) < 512 or period is None:
                continue
            for n in (64, 512):
                assert trace_ray(heading, s, n) == oracles.trace_ray_oracle(
                    room, s, theta, n, section), (room, theta, s)
            periods.append(period)
            found += 1
    assert len(periods) == 60 and len(set(periods)) >= 2, periods


def test_a_shared_heading_leaks_nothing_between_flights():
    # a return map flies all its rays on one Heading: in whichever order
    # the flights come, each must trace as the oracle does from scratch
    rng = random.Random(SEED + 8)
    kinds = {"trace": 0, "vertex": 0}
    for room in _oracle_rooms(rng):
        for _ in range(2):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            for i, j in room.interior_diagonals():
                section = CrossSection(i, j)
                # one start in six aimed along theta at a vertex
                flights = [(_start(rng, room, section, theta, k % 6 == 0),
                            rng.choice((3, 12, 64))) for k in range(60)]
                want = [_trace_outcome(oracles.trace_ray_oracle, room, s,
                                       theta, n, section)
                        for s, n in flights]
                heading = Heading.of(room, theta, section)
                forward = [_trace_outcome(trace_ray, heading, s, n)
                           for s, n in flights]
                backward = [_trace_outcome(trace_ray, heading, s, n)
                            for s, n in reversed(flights)]
                assert forward == want, (room, theta, section)
                assert backward[::-1] == want, (room, theta, section)
                for kind, _ in want:
                    kinds[kind] += 1
    assert all(count >= 10 for count in kinds.values()), kinds
    heading = Heading.of(ROOM, 0.1, CrossSection(2, 4))
    trace = trace_ray(heading, 0.29 * heading.frame[4], 5)
    with pytest.raises(AttributeError):
        trace.crossed_sides = ()
    with pytest.raises(AttributeError):
        trace.terminal = TraceEnd.DOOR


def test_float_traces_agree_with_exact_traces():
    # the exact twin of the dyadic square room is the room itself.  On
    # every flight from a section whose exact crossings all keep 1e-6 of
    # a side's length from its ends, the float tracer crosses the exact
    # sides, stops the same way, and ends within 1e-12 of the exact end
    sides = oracles.exact_twin(ROOM)
    assert ([(float(x), float(y)) for (x, y), *_ in sides]
            == [v.as_floats() for v in ROOM.vertices()])
    rng = random.Random(SEED + 12)
    compared = 0
    ends = set()
    for _ in range(200):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        i, j = rng.choice(ROOM.interior_diagonals())
        (ax, ay), (bx, by) = sides[i][0], sides[j][0]
        frac = Fraction(rng.random())
        start = (ax + frac * (bx - ax), ay + frac * (by - ay))
        u = (Fraction(math.cos(theta)), Fraction(math.sin(theta)))
        crossed, terminal, end, margin = oracles.trace_ray_exact(
            sides, start, u, ((ax, ay), (bx, by)), 64)
        if margin < Fraction(1, 10 ** 6):
            continue
        heading = Heading.of(ROOM, theta, CrossSection(i, j))
        trace = trace_ray(heading, float(frac) * heading.frame[4], 64)
        assert (trace.crossed_sides, trace.terminal) == (crossed, terminal)
        assert math.dist(trace.end_point,
                         (float(end[0]), float(end[1]))) <= 1e-12
        compared += 1
        ends.add(terminal)
    assert compared >= 190, compared
    assert ends == {TraceEnd.DOOR, TraceEnd.SECTION, TraceEnd.BUDGET}, ends


def test_cached_room_geometry_is_invisible():
    def fresh():
        return build_room((1.0, 0.2), (0.3, 1.1), (0.4, 1.3))

    room, twin = fresh(), fresh()
    before = (repr(room), hash(room))
    s, theta = 0.5, 0.7
    section = CrossSection(0, 2)
    first = trace_ray(Heading.of(room, theta, section), s, 64)
    assert room == twin
    assert (repr(room), hash(room)) == before == (repr(twin), hash(twin))
    # the lists handed out are copies of the cache
    verts = room.vertices()
    verts[1] = Vec2(9.0, 9.0)
    verts.reverse()
    sides = room.sides()
    sides[0] = sides[3]
    del sides[1:]
    diagonals = room.interior_diagonals()
    diagonals.append((0, 0))
    del diagonals[0]
    assert room.vertices() == twin.vertices()
    assert room.sides() == twin.sides()
    assert room.interior_diagonals() == twin.interior_diagonals()
    assert room.interior_diagonals() is not room.interior_diagonals()
    # the section's endpoints are the cached vertices themselves, so
    # they must refuse every change
    ends = section.endpoints(room)
    with pytest.raises(TypeError):
        ends[0] = Vec2(9.0, 9.0)
    with pytest.raises(AttributeError):
        ends[1].x = 9.0
    assert section.endpoints(room) == section.endpoints(twin)
    assert room.geom.diagonals == twin.geom.diagonals
    assert trace_ray(Heading.of(room, theta, section), s, 64) == first
    # an equal room built separately traces identically
    assert trace_ray(Heading.of(twin, theta, section), s, 64) == first
    assert trace_ray(Heading.of(fresh(), theta, section), s,
                     64) == first


def test_diagonal_rows_are_endpoint_floats():
    # each row is built as a side row is: the start vertex, the chord
    # vector and its parallel floor, all as floats, in both orientations
    rng = random.Random(SEED + 5)
    sheared = build_room((1.0, 0.2), (0.3, 1.1), (0.4, 1.3))
    exact = build_room((Fraction(1), Fraction(1, 5)),
                       (Fraction(3, 10), Fraction(11, 10)), (0.4, 1.3))
    for room in (ROOM, sheared, exact,
                 apply_sl2(oracles.random_sl2(rng), sheared)):
        assert len(room.geom.diagonals) == 2 * len(_DIAGONAL_PAIRS)
        for pair in _DIAGONAL_PAIRS:
            for i, j in (pair, pair[::-1]):
                a, b = CrossSection(i, j).endpoints(room)
                e = b - a
                assert room.geom.diagonals[i, j] == (
                    float(a.x), float(a.y), float(e.x), float(e.y),
                    PARALLEL_EPS * max(e.length(), 1.0))


def _return_map_outcome(builder, room, theta, section):
    try:
        return ("map", builder(room, theta, section))
    except Exception as exc:
        return ("error", type(exc))


def test_a_heading_refuses_a_non_finite_direction():
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            Heading.of(ROOM, theta, CrossSection(0, 2))


def test_first_return_map_refuses_a_non_finite_direction():
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            first_return_map(ROOM, theta, CrossSection(0, 2))


def test_first_return_map_matches_vec2_oracle():
    # the float section frame must land every flight where the Vec2
    # arithmetic did: same maps, or the same error type.  The non-convex
    # rooms put a reflex vertex's shadow on the leg tables, where a
    # table could pick the wrong piece
    rng = random.Random(SEED + 6)
    sheared = build_room((1.0, 0.2), (0.3, 1.1), (0.4, 1.3))
    rooms = [ROOM, sheared, apply_sl2(oracles.random_sl2(rng), ROOM),
             apply_sl2(oracles.random_sl2(rng), sheared), REFLEX,
             apply_sl2(oracles.random_sl2(rng), REFLEX)]
    outcomes = {"map": 0, "error": 0}
    for room in rooms:
        lo, hi = room.inward_directions()
        for k in range(4):
            theta = lo + (hi - lo) * (k + rng.random()) / 4
            for i, j in room.interior_diagonals():
                section = CrossSection(i, j)
                fast = _return_map_outcome(first_return_map, room, theta,
                                           section)
                slow = _return_map_outcome(oracles.first_return_map_oracle,
                                           room, theta, section)
                assert fast == slow, (room, theta, section)
                outcomes[fast[0]] += 1
    assert outcomes["map"] >= 40, outcomes


def test_bisect_is_the_same_float_either_way_round():
    # first_return_map bisects from whichever grid point has a key, so
    # swapping the bracket and negating the predicate must not move a bit
    rng = random.Random(SEED + 7)
    for _ in range(200):
        a, b = sorted(rng.uniform(-3.0, 3.0) for _ in range(2))
        edge = rng.uniform(a, b)
        tol = 10.0 ** rng.uniform(-14, -2) * (b - a)
        forward = surface._bisect(a, b, lambda x: x < edge, tol)
        backward = surface._bisect(b, a, lambda x: not x < edge, tol)
        assert forward == backward
        assert abs(forward - edge) <= tol


def test_scan_refuses_a_grid_over_the_cap():
    # refused before the grid is built: 1e-300 would ask for 6e300
    # samples, and 5e-324 halves to 0.0
    lo, hi = ROOM.inward_directions()
    just_over = 2.0 * (hi - lo) / (surface.MAX_SCAN_SAMPLES + 1)
    for eps in (1e-300, 5e-324, just_over):
        with pytest.raises(ValueError, match="samples"):
            find_cylinders(ROOM, eps)


def test_runs_group_neighbours_matching_the_first_key():
    keys = [None, 1.0, 1.0 + 1e-12, 2.0, None, 2.0, 2.0, 3.0]
    close = lambda m, x: abs(x - m) <= 1e-9 * m
    assert surface._runs(keys, close) == [(1, 2), (3, 3), (5, 6), (7, 7)]
    assert surface._runs(["", "", "L", None, "L"], operator.eq) == [
        (0, 1), (2, 2), (4, 4)]
    assert surface._runs([None, None], operator.eq) == []


# --- classification ---

def test_door_direction_classifies_door():
    verdict = classify_direction(ROOM, ROOM.door_direction() + math.pi)
    assert verdict.kind is DirectionKind.DOOR


def test_symmetric_room_frozen_cylinders():
    # the fattest cylinder of the symmetric room is the collapsed one
    # with multiplier 4; the LL cylinder has multiplier 32
    scan = find_cylinders(ROOM, 0.3, budget=600)
    fattest = max(scan.cylinders, key=lambda c: c.angle)
    assert fattest.word == ""
    assert fattest.multiplier == pytest.approx(4.0, rel=1e-9)
    by_word = {c.word: c for c in scan.cylinders}
    assert by_word["LL"].multiplier == pytest.approx(32.0, rel=1e-9)


def test_cylinder_multipliers_are_holonomy_powers():
    # every multiplier lies in the group generated by nu1 = nu2 = 2
    scan = find_cylinders(ROOM, 0.25, budget=800)
    assert scan.cylinders
    for cyl in scan.cylinders:
        power = math.log2(cyl.multiplier)
        assert abs(power - round(power)) < 1e-6


@st.composite
def sl2_matrices(draw) -> SL2Matrix:
    """rot @ diag(e^s, e^-s) @ rot, the log-stretch s within +-0.6."""
    angles = st.floats(0.0, 2.0 * math.pi)
    rot1 = SL2Matrix.rotation(draw(angles))
    stretch = SL2Matrix.diagonal(math.exp(draw(st.floats(-0.6, 0.6))))
    return rot1 @ stretch @ SL2Matrix.rotation(draw(angles))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.floats(0.3, 1.2), st.floats(0.3, 1.2),
       st.floats(0.05, math.pi - 0.05), sl2_matrices())
def test_classification_is_sl2_equivariant(mu1, mu2, inset, m):
    # theta lies at least 0.05 inside the inward half-circle (lo, lo + pi)
    room = square_room(mu1, mu2)
    theta = room.inward_directions()[0] + inset
    try:
        base = classify_direction(room, theta, budget=700)
        moved = classify_direction(apply_sl2(m, room),
                                   projective_action(m, theta), budget=700)
    except VertexHit:
        reject()
    if DirectionKind.CANTOR_LIKE in (base.kind, moved.kind):
        # budget-limited verdicts depend on the iteration count only
        return
    assert base.kind is moved.kind
    if base.kind is DirectionKind.CYLINDER:
        assert moved.multiplier == pytest.approx(base.multiplier, rel=1e-9)


def test_cylinder_outcome_consistency():
    scan = find_cylinders(ROOM, 0.3, budget=600)
    probe = max(scan.cylinders, key=lambda c: c.angle)
    verdict = classify_direction(ROOM, 0.5 * (probe.theta1 + probe.theta2),
                                 budget=600)
    assert verdict.kind is DirectionKind.CYLINDER
    if verdict.outcome is not None and verdict.word:
        assert verdict.outcome.terminal is TerminalKind.HALT


def test_scan_drops_undecided_directions_and_reports_bugs(monkeypatch):
    def raising(error):
        def classify(room, theta, budget):
            raise error("from classify_direction")
        return classify

    for error in UNDECIDED_ERRORS:
        monkeypatch.setattr(surface, "classify_direction", raising(error))
        scan = find_cylinders(ROOM, 0.3, budget=600)
        assert scan.cylinders == () and not scan.exhausted
    # a bare ValueError is a bug, not an undecided direction
    monkeypatch.setattr(surface, "classify_direction", raising(ValueError))
    with pytest.raises(ValueError, match="from classify_direction"):
        find_cylinders(ROOM, 0.3, budget=600)


def test_scan_drops_a_run_whose_midpoint_probe_fails(monkeypatch):
    # a run whose bisected edges hold but whose midpoint is undecided is
    # dropped, and the scan no longer certifies that nothing was missed
    lo, hi = ROOM.inward_directions()
    a, b = lo + 0.2 * (hi - lo), lo + 0.6 * (hi - lo)
    middle = 0.5 * (a + b)

    def fake(hole):
        def classify(room, theta, budget):
            if a < theta < b and abs(theta - middle) > hole:
                return surface.DirectionClass(DirectionKind.CYLINDER, "R",
                                              2.0, None, None)
            raise NotReducible("outside the fake cylinder")
        return classify

    monkeypatch.setattr(surface, "classify_direction", fake(0.0))
    scan = find_cylinders(ROOM, 0.3, budget=600)
    assert not scan.exhausted and len(scan.cylinders) == 1
    cyl = scan.cylinders[0]
    assert abs(cyl.theta1 - a) < 1e-9 and abs(cyl.theta2 - b) < 1e-9
    monkeypatch.setattr(surface, "classify_direction", fake(1e-6))
    scan = find_cylinders(ROOM, 0.3, budget=600)
    assert scan.cylinders == () and scan.exhausted


def test_verify_reduction_refuses_a_moved_break_point():
    theta = 4.0055
    red = surface.direction_to_two_slope(ROOM, theta)
    tsm = red.two_slope
    surface._verify_reduction(ROOM, theta, red.section, tsm, red.chart)
    moved = TwoSlopeMap(tsm.rho_a, tsm.rho_b, tsm.x_t + 1e-3)
    with pytest.raises(NotReducible, match="disagrees with an independent"):
        surface._verify_reduction(ROOM, theta, red.section, moved, red.chart)


def test_collapsed_cycle_needs_a_decodable_contracting_branch():
    def pam(*branches):
        return PiecewiseAffineMap(tuple(AffineBranch(*b) for b in branches))

    assert surface._collapsed_cycle(pam((0.0, 1.0, 0.5, 0.25))) == (0.5, 0.5)
    # an upward jump: downward_jump refuses to decode it
    assert surface._collapsed_cycle(
        pam((0.0, 0.5, 0.5, 0.0), (0.5, 1.0, 0.5, 0.5))) is None
    # the one branch does not contract
    assert surface._collapsed_cycle(pam((0.0, 1.0, 1.0, 0.0))) is None


def test_collapsed_direction_needs_the_cycle_to_close(monkeypatch):
    theta = 5.4192
    found = surface._collapsed_direction(ROOM, theta)
    assert found is not None and found[0] == pytest.approx(0.25)
    real = surface._collapsed_cycle

    def shifted(pam):
        col = real(pam)
        if col is None:
            return None
        lo, hi = pam.domain
        return col[0], col[1] + 1e-4 * (hi - lo)

    # a fixed point off the true one returns elsewhere: every section's
    # confirmation fails
    monkeypatch.setattr(surface, "_collapsed_cycle", shifted)
    assert surface._collapsed_direction(ROOM, theta) is None


def test_first_return_map_refuses_a_bent_branch(monkeypatch):
    # the two probes of a branch share its itinerary but not its line
    real = surface._back

    def bent(heading, tr):
        s_back = real(heading, tr)
        return s_back + 1e-3 * s_back * s_back

    monkeypatch.setattr(surface, "_back", bent)
    with pytest.raises(NotTransverse, match="not affine"):
        first_return_map(ROOM, 5.5, CrossSection(0, 2))


class _TraceRayReads(ast.NodeVisitor):
    """(module, enclosing function) of every read of the name trace_ray."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id == "trace_ray":
            self.found.append((self.module, ".".join(self.scope)))

    def visit_Attribute(self, node):
        if node.attr == "trace_ray":
            self.found.append((self.module, ".".join(self.scope)))
        self.generic_visit(node)


def test_only_flight_calls_the_tracer():
    # every flight of the package goes through _flight's terminal checks
    package = Path(surface.__file__).resolve().parent
    reads = []
    for path in sorted(package.glob("*.py")):
        visitor = _TraceRayReads(path.stem)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        reads += visitor.found
    assert reads == [("surface", "_flight")]


def test_first_return_map_is_piecewise_affine_with_glue_slopes():
    pam = first_return_map(ROOM, 5.5, CrossSection(0, 2))
    assert len(pam.branches) >= 2
    for branch in pam.branches:
        power = math.log2(float(branch.slope))
        assert abs(power - round(power)) < 1e-6


# --- rotation numbers ---

def test_rotation_number_exact_half():
    value = rotation_number(2, Fraction(1, 2))
    assert value == Fraction(1, 2)
    assert isinstance(value, Fraction)


def test_rotation_number_exact_cycle_detection():
    # along rho_a * rho_b = 1 the break orbit is an exact 2-cycle
    for ra in (Fraction(3), Fraction(4), Fraction(7, 2)):
        value = rotation_number(ra, 1 / ra)
        assert value == Fraction(1, 2)
    # an attracting cycle locks the float estimator
    value = rotation_number(2.5, 0.3, tol=1e-8)
    assert 0.0 < value < 1.0


def test_rotation_number_on_quadratic_slopes():
    # a cap of one float iteration, which could only raise
    # NonConvergence, shows that the exact search found the value
    value = rotation_number(QuadraticNumber(2), QuadraticNumber(Fraction(1, 2)),
                            max_iter=1)
    assert value == Fraction(1, 2) and isinstance(value, Fraction)
    # an irrational pair: the exact break orbit passes
    # EXACT_DENOMINATOR_CAP (at its 56th point) without repeating, and
    # the float estimate answers
    r2 = sqrt_int(2)
    value = rotation_number(1 + r2 / 2, Fraction(1, 2) - r2 / 9, tol=1e-5)
    assert value == 0.3331795579118434


def test_rotation_number_monotone_in_rho_a():
    # raising the expanding slope advances the circle map
    vals = [float(rotation_number(ra, 0.5, tol=1e-6))
            for ra in (1.5, 2.0, 3.0, 5.0)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_rotation_number_nonconvergence_carries_bracket():
    try:
        value = rotation_number(1.8, 0.4, tol=1e-12, max_iter=1 << 12)
    except NonConvergence as exc:
        lo, hi = exc.bracket
        assert lo < hi
        assert hi - lo < 1e-2
    else:
        # locking onto a cycle is legitimate too
        assert 0 < float(value) < 1


ROTATION_TOL = 1e-6
ROTATION_CAP = 1 << 16


def _float_rotation(ra, rb):
    """The float estimate at float(ra), float(rb), or its NonConvergence
    bracket."""
    try:
        return rotation_number(float(ra), float(rb), tol=ROTATION_TOL,
                               max_iter=ROTATION_CAP)
    except NonConvergence as exc:
        return exc.bracket


def _agrees(exact, approx) -> bool:
    if isinstance(approx, tuple):
        return approx[0] <= exact <= approx[1]
    return abs(float(exact) - float(approx)) <= 1e-4


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.fractions(min_value=Fraction(10, 9), max_value=5,
                    max_denominator=9),
       st.integers(min_value=1, max_value=4))
def test_exact_rotation_number_on_closed_break_orbit_matches_float(ra, k):
    # at rho_a^k * rho_b = 1 the break point's orbit closes after k + 1
    # steps, one of them on the upper branch
    rb = 1 / ra ** k
    exact = rotation_number(ra, rb, tol=ROTATION_TOL, max_iter=ROTATION_CAP)
    assert exact == Fraction(1, k + 1)
    assert _agrees(exact, _float_rotation(ra, rb))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.fractions(min_value=Fraction(10, 9), max_value=8,
                    max_denominator=9),
       st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10),
                    max_denominator=10))
def test_exact_rotation_number_agrees_with_float(ra, rb):
    approx = _float_rotation(ra, rb)
    try:
        exact = rotation_number(ra, rb, tol=ROTATION_TOL,
                                max_iter=ROTATION_CAP)
    except NonConvergence as exc:
        # no exact cycle: the float fallback ran on the same floats
        assert exc.bracket == approx
        return
    if isinstance(exact, float):
        assert exact == approx
    else:
        assert _agrees(exact, approx)


def _rotation_outcome(fn, ra, rb, tol, max_iter):
    """repr of the value, or the NonConvergence bracket."""
    try:
        return repr(fn(ra, rb, tol, max_iter))
    except NonConvergence as exc:
        return exc.bracket


def _exact_pass_rotnums(monkeypatch):
    """(rho_a, rho_b, tol, max_iter) of the rotnum ops of the benchmark's
    exact pass 0 at seed 0, parsed as the CLI parses them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "perfbench"))
    workloads = importlib.import_module("workloads")
    out = []
    for op in workloads.make_pass("exact", 0, 0):
        if op.argv[0] == "rotnum":
            args = cli.build_parser().parse_args(op.argv)
            assert vars(args) == vars(
                oracles.argparse_grammar().parse_args(op.argv))
            out.append((*cli._parse_mu_pair(args, "rhoA", "rhoB"), args.tol,
                        args.budget))
    return out


def test_rotation_number_matches_the_one_call_per_step_oracle(monkeypatch):
    cases = _exact_pass_rotnums(monkeypatch)
    assert len(cases) == 20
    rng = random.Random(SEED)
    cases += [(rng.uniform(1.05, 6.0), rng.uniform(0.05, 0.95), 1e-5,
               surface.ROTATION_MAX_ITER) for _ in range(60)]
    # near rho_a^k * rho_b = 1 the float orbit locks onto a cycle, which
    # the anchor returns find and one more loop verifies
    cases += [(ra, ra ** -rng.randint(1, 3), 1e-5, surface.ROTATION_MAX_ITER)
              for ra in (rng.uniform(1.2, 4.0) for _ in range(20))]
    # caps below 2^20, most of which end in NonConvergence
    cases += [(ra, rb, tol, max_iter)
              for ra, rb in ((2.5, 0.3), (1.8, 0.4), (Fraction(7, 3),
                                                      Fraction(1, 5)))
              for tol, max_iter in ((0.0, 1), (1e-12, 1000), (1e-14, 5000),
                                    (1e-12, 1 << 12))]
    outcomes = []
    for ra, rb, tol, max_iter in cases:
        got = _rotation_outcome(rotation_number, ra, rb, tol, max_iter)
        assert got == _rotation_outcome(oracles.rotation_number_oracle, ra,
                                        rb, tol, max_iter), (ra, rb)
        outcomes.append(got)
    assert sum(isinstance(got, tuple) for got in outcomes) >= 6
    assert sum(str(got).startswith("Fraction")
               for got in outcomes[80:100]) >= 15


def test_rotation_number_rejects_bad_slopes():
    with pytest.raises(ValueError):
        rotation_number(0.5, 0.5)
