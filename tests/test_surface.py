"""Ray tracing, direction classification, and the cylinder scan."""

import ast
import functools
import importlib
import math
import operator
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

import oracles
from dilatorus import cli, quadratics, surface, teichmuller
from dilatorus.errors import (BudgetExhausted, NonConvergence, NotReducible,
                              NotTransverse, VertexHit)
from dilatorus.geometry import (_DIAGONAL_PAIRS, PARALLEL_EPS, SL2Matrix,
                                Vec2, apply_sl2, build_room,
                                projective_action, square_room, unit,
                                wrap_2pi)
from dilatorus.intervalmaps import (AffineBranch, PiecewiseAffineMap,
                                    TwoSlopeMap)
from dilatorus.quadratics import QuadraticNumber
from dilatorus.surface import (UNDECIDED_ERRORS, Direction, Heading,
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
    heading = Direction(ROOM, math.atan2(1.0, -0.3)).heading((0, 2))
    trace = trace_ray(heading, 0.3 * math.sqrt(2.0))
    assert trace.terminal == "door"
    assert trace.crossings == len(trace.crossed_sides)


def test_trace_transport_factors_are_glue_factors():
    rng = random.Random(SEED)
    for _ in range(40):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        heading = Direction(ROOM, theta).heading((2, 4))
        try:
            trace = trace_ray(heading, 0.29 * heading.frame[4])
        except VertexHit:
            continue
        sides = ROOM.sides()
        assert trace.cumulative_factor == math.prod(
            sides[idx].factor for idx in trace.crossed_sides)


def test_trace_vertex_hit():
    # aim exactly at V2 = (1, 1), along pi/4 from (2/3, 2/3), two thirds
    # of the way along the diagonal from V1 = (1, 0) to V3 = (0.5, 1)
    heading = Direction(ROOM, math.pi / 4.0).heading((1, 3))
    with pytest.raises(VertexHit) as info:
        trace_ray(heading, 2.0 / 3.0 * heading.frame[4])
    assert info.value.trace.terminal == "vertex"


def test_trace_max_crossings_budget(monkeypatch):
    monkeypatch.setattr(surface, "MAX_CROSSINGS", 5)
    heading = Direction(ROOM, 0.1).heading((2, 4))
    trace = trace_ray(heading, 0.29 * heading.frame[4])
    assert trace.terminal == "budget"
    assert trace.crossings == 5


def test_a_section_start_next_to_a_vertex_traces(monkeypatch):
    # a start on a section 1e-12 or 1e-9 of its length from an end is
    # never refused, and traces as the oracle does
    monkeypatch.setattr(surface, "MAX_CROSSINGS", 64)
    kinds = {"trace": 0, "vertex": 0}
    for room in (ROOM, REFLEX):
        for i, j in room.geom.interior:
            for section in ((i, j), (j, i)):
                for k in range(24):
                    theta = 2.0 * math.pi * (k + 0.37) / 24
                    heading = Direction(room, theta).heading(section)
                    length = heading.frame[4]
                    for s in (1e-12 * length, 1e-9 * length):
                        fast = _trace_outcome(trace_ray, heading, s)
                        slow = _trace_outcome(oracles.trace_ray_oracle,
                                              room, s, theta, 64, section)
                        assert fast[0] != "value", (room, theta, section)
                        assert fast == slow, (room, theta, section, s)
                        kinds[fast[0]] += 1
    assert all(count >= 10 for count in kinds.values()), kinds


def _budgeted_outcome(monkeypatch, heading, s: float, n: int):
    """`_trace_outcome` of `trace_ray` with a budget of n crossings."""
    monkeypatch.setattr(surface, "MAX_CROSSINGS", n)
    return _trace_outcome(trace_ray, heading, s)


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
    a, b = (room.geom.vertices[k] for k in section)
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
        section = rng.choice(room.geom.interior)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        s = _start(rng, room, section, theta, rng.random() < 0.1)
        yield (room, s, theta, rng.choice((3, 12, 64)), section)


def test_trace_ray_matches_vec2_oracle(monkeypatch):
    # the float tracer must do the oracle's arithmetic in the oracle's
    # order: traces and partial traces agree exactly.  Returns on the
    # second leg, which the tracer takes before the loop, are counted
    kinds = {"trace": 0, "vertex": 0}
    ends = set()
    second_leg_returns = 0
    for case in _oracle_cases(random.Random(SEED), 600):
        room, s, theta, max_crossings, section = case
        monkeypatch.setattr(surface, "MAX_CROSSINGS", max_crossings)
        fast = _trace_outcome(trace_ray,
                              Direction(room, theta).heading(section), s)
        slow = _trace_outcome(oracles.trace_ray_oracle, *case)
        assert fast == slow, case
        kinds[fast[0]] += 1
        if fast[0] == "trace":
            ends.add(fast[1].terminal)
            second_leg_returns += (fast[1].terminal == "section"
                                   and fast[1].crossings == 1)
    assert all(count >= 10 for count in kinds.values()), kinds
    assert ends == {"door", "section", "budget"}
    assert second_leg_returns >= 100, second_leg_returns


def _back_from(room, p: Vec2, u: Vec2, section):
    """(key, s) of the first side, or the section (key None), that the
    ray from p against u meets past 1e-9 of the room's diameter, s its
    fraction along the segment; None if it meets none."""
    d = u * -1.0
    a, b = (room.geom.vertices[k] for k in section)
    segments = [(side.index, side.start, side.end - side.start)
                for side in room.sides()] + [(None, a, b - a)]
    best = None
    for key, start, e in segments:
        if not d.cross(e):
            continue
        w = start - p
        t = w.cross(e) / d.cross(e)
        s = w.cross(d) / d.cross(e)
        if t > 1e-9 * room.diameter() and 0.0 < s < 1.0 and (
                best is None or t < best[0]):
            best = (t, key, s)
    return None if best is None else best[1:]


def _aimed_past_transports(rng: random.Random, room, section, theta: float,
                           transports: int, targets=None):
    """A section coordinate from which the ray along theta makes
    `transports` transports and then heads for a target point, the
    room's vertices unless `targets` are given, for the first target in
    random order that has one; or None.  It is found by going back from
    the target: each side met on the way back was entered at s from its
    partner's exit at 1 - s, and the way back must meet neither the door
    nor the section before its last step, whose end is on the section."""
    u = unit(theta)
    sides = room.sides()
    a, b = (room.geom.vertices[k] for k in section)
    verts = room.vertices() if targets is None else list(targets)
    rng.shuffle(verts)
    for vertex in verts:
        p = vertex
        for n in range(transports + 1):
            back = _back_from(room, p, u, section)
            if back is None:
                break
            key, s = back
            if n == transports:
                if key is None:
                    return s * (b - a).length()
                break
            if key is None or sides[key].is_door:
                break
            out = sides[oracles._GLUED[key]]
            p = out.start + (out.end - out.start) * (1.0 - s)
    return None


def test_a_vertex_past_a_transport_traces_as_the_oracle_does(monkeypatch):
    # starts aimed at a vertex one, two or three transports ahead: the
    # partial trace of each VertexHit (sides, gain, end point) is the
    # oracle's, which a vertex hit on the first leg cannot show
    monkeypatch.setattr(surface, "MAX_CROSSINGS", 64)
    rng = random.Random(SEED + 13)
    hits = {1: 0, 2: 0, 3: 0}
    for room in _oracle_rooms(rng):
        for k in range(450):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            section = rng.choice(room.geom.interior)
            transports = 1 + k % 3
            s = _aimed_past_transports(rng, room, section, theta, transports)
            if s is None:
                continue
            fast = _trace_outcome(trace_ray,
                                  Direction(room, theta).heading(section), s)
            slow = _trace_outcome(oracles.trace_ray_oracle, room, s, theta,
                                  64, section)
            assert fast == slow, (room, theta, section, s)
            if fast[0] == "vertex" and fast[1].crossings == transports:
                hits[transports] += 1
    assert all(count >= 20 for count in hits.values()), hits


def test_a_section_end_past_one_transport_traces_as_the_oracle_does(
        monkeypatch):
    # starts aimed past one transport at the section within VERTEX_TOL
    # of an end: most raise VertexHit on the section on the second leg,
    # where the tracer tests the section before the loop's set-up, and
    # the partial trace (one side, its factor, the end point) must be
    # the oracle's
    section_hits = []
    vertex_hit = surface._vertex_hit

    def spy(heading, k, s, crossed, *rest):
        if k == surface.SECTION_LEG:
            section_hits.append(len(crossed))
        return vertex_hit(heading, k, s, crossed, *rest)

    monkeypatch.setattr(surface, "_vertex_hit", spy)
    monkeypatch.setattr(surface, "MAX_CROSSINGS", 64)
    rng = random.Random(SEED + 14)
    for room in _oracle_rooms(rng):
        for _ in range(150):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            section = rng.choice(room.geom.interior)
            a, b = (room.geom.vertices[k] for k in section)
            ends = [a + (b - a) * f for f in (5e-13, 1.0 - 5e-13)]
            s = _aimed_past_transports(rng, room, section, theta, 1, ends)
            if s is None:
                continue
            fast = _trace_outcome(trace_ray,
                                  Direction(room, theta).heading(section), s)
            slow = _trace_outcome(oracles.trace_ray_oracle, room, s, theta,
                                  64, section)
            assert fast == slow, (room, theta, section, s)
    assert section_hits.count(1) >= 100, section_hits


def test_a_bad_section_coordinate_is_refused_before_any_leg(monkeypatch):
    # a section coordinate must be a finite float in [0, length]
    monkeypatch.setattr(surface, "MAX_CROSSINGS", 64)
    heading = Direction(ROOM, 0.7).heading((1, 3))
    length = heading.frame[4]
    for bad in (math.nan, math.inf, -math.inf, -1e-300, -0.5,
                math.nextafter(length, math.inf), 2.0 * length):
        with pytest.raises(ValueError, match="not in"):
            trace_ray(heading, bad)
    # both ends are starts, each at a vertex
    for s in (0.0, length):
        fast = _trace_outcome(trace_ray, heading, s)
        assert fast[0] == "vertex"
        assert fast == _trace_outcome(oracles.trace_ray_oracle, ROOM, s,
                                      0.7, 64, (1, 3))


def _sheared():
    return build_room((1.0, 0.2), (0.3, 1.1), (0.4, 1.3))


def _reflex():
    return build_room((1.0, 0.2), (0.3, 1.1), (-0.5, 1.0))


def _entered_sides(room, theta: float) -> list[int]:
    """The sides a ray along theta can enter: the partners of the glued
    sides it leaves through, worked out on Vec2."""
    u = unit(theta)
    return sorted(oracles._GLUED[side.index] for side in room.sides()
                  if not side.is_door
                  and oracles._leaves_through(u, side.start, side.end))


def test_flights_leave_a_heading_unchanged():
    # a heading is a value built whole: flights on it change neither
    # its eq, hash nor repr, and it equals the heading of an equal room
    # built separately
    heading = Direction(REFLEX, 1.3).heading((0, 2))
    twin = Direction(_reflex(), 1.3).heading((0, 2))
    before = (repr(heading), hash(heading))
    for k in range(40):
        try:
            trace_ray(heading, heading.frame[4] * (k + 0.5) / 40)
        except VertexHit:
            pass
    assert heading == twin and heading is not twin
    assert (repr(heading), hash(heading)) == before == (repr(twin),
                                                         hash(twin))
    with pytest.raises(AttributeError):
        heading.legs = ()
    assert isinstance(heading.legs, tuple)


def test_shared_headings_build_the_tables_of_a_fresh_heading():
    # the headings of one direction record share its side pieces: in
    # whichever order the sections are asked for, every heading's tables
    # equal, element by element (repr tells -0.0 from 0.0), those of the
    # heading of an equal room built separately, and exactly the sides
    # a ray can enter have one
    rng = random.Random(SEED + 14)
    for make in (lambda: square_room(LN2, LN2), _sheared, _reflex):
        room = make()
        sections = [pair
                    for i, j in room.geom.interior
                    for pair in ((i, j), (j, i))]
        for _ in range(12):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            entered = _entered_sides(room, theta)
            direction = Direction(room, theta)
            rng.shuffle(sections)
            for section in sections:
                shared = direction.heading(section)
                assert shared is direction.heading(section)
                fresh = Direction(make(), theta).heading(section)
                assert shared == fresh
                assert repr(shared.legs) == repr(fresh.legs), (
                    room, theta, section)
                assert [j for j, table in enumerate(shared.legs)
                        if table is not None] == entered + [
                            surface.SECTION_LEG]
            headings = list(direction.headings.values())
            assert len(headings) == len(sections)
            for j in entered:
                assert len({id(heading.legs[j][1])
                            for heading in headings}) == 1


def test_a_section_outside_the_room_is_refused():
    # on REFLEX the chord from V0 to V3 leaves the pentagon: in either
    # orientation it is no section, and no flight starts on it
    assert (0, 3) not in REFLEX.geom.interior
    lo, hi = REFLEX.inward_directions()
    for section in ((0, 3), (3, 0)):
        for k in range(8):
            theta = lo + (k + 0.5) * (hi - lo) / 8
            with pytest.raises(ValueError, match="not an interior"):
                Direction(REFLEX, theta).heading(section)
            with pytest.raises(ValueError, match="not an interior"):
                first_return_map(Direction(REFLEX, theta), section)


def test_one_rule_decides_whether_a_section_can_be_crossed():
    # a heading is built for a section exactly when the section is a
    # candidate of its direction, and then holds the section's u x e;
    # near each diagonal's direction the angle floor refuses it on the
    # unit square, and the parallel floor alone on a square of side
    # 1e-7, whose diagonals are too short for the angle floor
    tiny = build_room((1e-7, 0.0), (0.0, 1e-7), (LN2, LN2))
    refused_by = {"angle": 0, "parallel floor": 0}
    for room in (ROOM, tiny, REFLEX):
        for i, j in room.geom.interior:
            _, _, ex, ey, par = room.geom.diagonals[i, j]
            along = math.atan2(ey, ex)
            for off in (0.0, 5e-10, -5e-10, 1e-8, -1e-8, 1e-3, 0.7):
                theta = along + off
                direction = Direction(room, theta)
                for section in ((i, j), (j, i)):
                    if (i, j) in direction.candidates:
                        row = direction.heading(section).section_row
                        assert len(row) == 5 and all(
                            isinstance(x, float) for x in row)
                        assert abs(row[4]) > par
                        continue
                    with pytest.raises(NotTransverse, match="parallel"):
                        direction.heading(section)
                    u = unit(theta)
                    refused_by["parallel floor" if abs(u.cross(
                        Vec2(ex, ey))) <= par else "angle"] += 1
    assert all(count >= 4 for count in refused_by.values()), refused_by


def test_a_room_keeps_no_direction_state():
    # a direction's set-up lives on the record its caller holds: after a
    # classification, a return map or a heading, the room's instance
    # dict holds its geometry only, and two records of one theta build
    # equal headings, never shared ones
    room = _sheared()
    lo, hi = room.inward_directions()
    first, second = lo + 0.3 * (hi - lo), lo + 0.6 * (hi - lo)
    direction = Direction(room, first)
    assert direction.room is room and direction.theta == first
    sections = direction.candidates
    old = [direction.heading(sec) for sec in sections]
    assert list(direction.headings.values()) == old
    assert list(vars(room)) == ["geom"]
    verdict = classify_direction(room, second)
    assert verdict.reduction is not None
    assert list(vars(room)) == ["geom"]
    first_return_map(Direction(room, second), verdict.reduction.section)
    assert list(vars(room)) == ["geom"]
    again = Direction(room, first).heading(sections[0])
    assert again is not old[0] and repr(again) == repr(old[0])
    assert Direction(room, first).heading(sections[0]) is not again
    assert direction.heading(sections[0]) is old[0]
    assert list(vars(room)) == ["geom"]


def test_a_trapped_flight_traces_as_the_oracle_does(monkeypatch):
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
            section = rng.choice(room.geom.interior)
            heading = Direction(room, theta).heading(section)
            s = heading.frame[4] * rng.random()
            try:
                sides = trace_ray(heading, s).crossed_sides
            except VertexHit:
                continue
            period = next((q for q in range(1, 5)
                           if sides[-64:] == sides[-64 - q:-q]), None)
            if len(sides) < 512 or period is None:
                continue
            for n in (64, 512):
                monkeypatch.setattr(surface, "MAX_CROSSINGS", n)
                assert trace_ray(heading, s) == oracles.trace_ray_oracle(
                    room, s, theta, n, section), (room, theta, s)
            periods.append(period)
            found += 1
    assert len(periods) == 60 and len(set(periods)) >= 2, periods


def test_a_shared_heading_leaks_nothing_between_flights(monkeypatch):
    # a return map flies all its rays on one Heading: in whichever order
    # the flights come, each must trace as the oracle does from scratch
    rng = random.Random(SEED + 8)
    kinds = {"trace": 0, "vertex": 0}
    for room in _oracle_rooms(rng):
        for _ in range(2):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            for i, j in room.geom.interior:
                section = (i, j)
                # one start in six aimed along theta at a vertex
                flights = [(_start(rng, room, section, theta, k % 6 == 0),
                            rng.choice((3, 12, 64))) for k in range(60)]
                want = [_trace_outcome(oracles.trace_ray_oracle, room, s,
                                       theta, n, section)
                        for s, n in flights]
                heading = Direction(room, theta).heading(section)
                forward = [_budgeted_outcome(monkeypatch, heading, s, n)
                           for s, n in flights]
                backward = [_budgeted_outcome(monkeypatch, heading, s, n)
                            for s, n in reversed(flights)]
                assert forward == want, (room, theta, section)
                assert backward[::-1] == want, (room, theta, section)
                for kind, _ in want:
                    kinds[kind] += 1
    assert all(count >= 10 for count in kinds.values()), kinds
    heading = Direction(ROOM, 0.1).heading((2, 4))
    trace = trace_ray(heading, 0.29 * heading.frame[4])
    with pytest.raises(AttributeError):
        trace.crossed_sides = ()
    with pytest.raises(AttributeError):
        trace.terminal = "door"


def test_float_traces_agree_with_exact_traces(monkeypatch):
    # the exact twin of the dyadic square room is the room itself.  On
    # every flight from a section whose exact crossings all keep 1e-6 of
    # a side's length from its ends, the float tracer crosses the exact
    # sides, stops the same way, and ends within 1e-12 of the exact end
    monkeypatch.setattr(surface, "MAX_CROSSINGS", 64)
    sides = oracles.exact_twin(ROOM)
    assert ([(float(x), float(y)) for (x, y), *_ in sides]
            == [v.as_floats() for v in ROOM.vertices()])
    rng = random.Random(SEED + 12)
    compared = 0
    ends = set()
    for _ in range(200):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        i, j = rng.choice(ROOM.geom.interior)
        (ax, ay), (bx, by) = sides[i][0], sides[j][0]
        frac = Fraction(rng.random())
        start = (ax + frac * (bx - ax), ay + frac * (by - ay))
        u = (Fraction(math.cos(theta)), Fraction(math.sin(theta)))
        crossed, terminal, end, margin = oracles.trace_ray_exact(
            sides, start, u, ((ax, ay), (bx, by)), 64)
        if margin < Fraction(1, 10 ** 6):
            continue
        heading = Direction(ROOM, theta).heading((i, j))
        trace = trace_ray(heading, float(frac) * heading.frame[4])
        assert (trace.crossed_sides, trace.terminal) == (crossed, terminal)
        assert math.dist(trace.end_point,
                         (float(end[0]), float(end[1]))) <= 1e-12
        compared += 1
        ends.add(terminal)
    assert compared >= 190, compared
    assert ends == {"door", "section", "budget"}, ends


def test_cached_room_geometry_is_invisible():
    def fresh():
        return build_room((1.0, 0.2), (0.3, 1.1), (0.4, 1.3))

    room, twin = fresh(), fresh()
    before = (repr(room), hash(room))
    s, theta = 0.5, 0.7
    section = (0, 2)
    # a heading leaves nothing on the room beyond its geometry
    shared = Direction(room, theta).heading(section)
    first = trace_ray(shared, s)
    assert Direction(room, theta).heading(section) == shared
    assert list(vars(room)) == ["geom"] and list(vars(twin)) == []
    assert room == twin
    assert (repr(room), hash(room)) == before == (repr(twin), hash(twin))
    # the lists handed out are copies of the cache
    verts = room.vertices()
    verts[1] = Vec2(9.0, 9.0)
    verts.reverse()
    sides = room.sides()
    sides[0] = sides[3]
    del sides[1:]
    assert room.vertices() == twin.vertices()
    assert room.sides() == twin.sides()
    # the section's endpoints are the cached vertices themselves, and
    # the interior chords the cached pairs, so they must refuse every
    # change
    ends = room.geom.vertices
    with pytest.raises(TypeError):
        ends[section[0]] = Vec2(9.0, 9.0)
    with pytest.raises(AttributeError):
        ends[section[1]].x = 9.0
    with pytest.raises(TypeError):
        room.geom.interior[0] = (0, 0)
    assert room.geom.vertices == twin.geom.vertices
    assert room.geom.interior == twin.geom.interior
    assert room.geom.diagonals == twin.geom.diagonals
    assert trace_ray(Direction(room, theta).heading(section), s) == first
    # an equal room built separately traces identically, and shares
    # none of the set-up
    other = Direction(twin, theta).heading(section)
    assert other == shared and other is not shared
    assert list(vars(twin)) == list(vars(room)) == ["geom"]
    assert all(mine is not theirs for mine, theirs
               in zip(other.legs, shared.legs) if mine is not None)
    assert trace_ray(other, s) == first
    assert trace_ray(Direction(fresh(), theta).heading(section), s) == first


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
                a, b = room.geom.vertices[i], room.geom.vertices[j]
                e = b - a
                assert room.geom.diagonals[i, j] == (
                    float(a.x), float(a.y), float(e.x), float(e.y),
                    PARALLEL_EPS * max(e.length(), 1.0))


def _return_map(room, theta, section):
    return first_return_map(Direction(room, theta), section)


def _return_map_outcome(builder, room, theta, section):
    try:
        return ("map", builder(room, theta, section))
    except Exception as exc:
        return ("error", type(exc), str(exc))


@pytest.mark.parametrize("entry", [
    lambda theta: Direction(ROOM, theta).heading((0, 2)),
    lambda theta: first_return_map(Direction(ROOM, theta),
                                   (0, 2)),
    lambda theta: surface.direction_to_two_slope(Direction(ROOM, theta)),
    lambda theta: surface._collapsed_direction(Direction(ROOM, theta)),
], ids=["heading", "first_return_map", "direction_to_two_slope",
        "collapsed_direction"])
def test_a_non_finite_direction_is_refused(entry):
    # every path that sets up rays refuses it with one message, when its
    # direction record is built, before math.cos or a parallel test
    # sees it
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            entry(theta)


def test_first_return_map_matches_vec2_oracle():
    # the float section frame must land every flight where the Vec2
    # arithmetic did: same maps, or the same error and message.  The
    # non-convex rooms put a reflex vertex's shadow on the leg tables,
    # where a table could pick the wrong piece, and have diagonals that
    # are not interior.  Every diagonal is flown, and a NaN, the
    # direction of diagonal (0, 3) and an outward theta check the order
    # of the refusals
    rng = random.Random(SEED + 6)
    sheared = build_room((1.0, 0.2), (0.3, 1.1), (0.4, 1.3))
    rooms = [ROOM, sheared, apply_sl2(oracles.random_sl2(rng), ROOM),
             apply_sl2(oracles.random_sl2(rng), sheared), REFLEX,
             apply_sl2(oracles.random_sl2(rng), REFLEX)]
    outcomes = {"map": 0, "error": 0}
    for room in rooms:
        lo, hi = room.inward_directions()
        thetas = [lo + (hi - lo) * (k + rng.random()) / 4 for k in range(4)]
        v0, v3 = room.vertices()[0], room.vertices()[3]
        for theta in thetas + [math.nan, (v3 - v0).angle(),
                               0.5 * (lo + hi) + math.pi]:
            for i, j in _DIAGONAL_PAIRS:
                section = (i, j)
                fast = _return_map_outcome(_return_map, room, theta,
                                           section)
                slow = _return_map_outcome(oracles.first_return_map_oracle,
                                           room, theta, section)
                assert fast == slow, (room, theta, section)
                outcomes[fast[0]] += 1
    assert outcomes["map"] >= 40, outcomes


def test_bisect_is_the_same_float_either_way_round():
    # first_return_map bisects from whichever grid point has a key, so
    # swapping the bracket and the key must not move a bit
    rng = random.Random(SEED + 7)
    for _ in range(200):
        a, b = sorted(rng.uniform(-3.0, 3.0) for _ in range(2))
        edge = rng.uniform(a, b)
        tol = 10.0 ** rng.uniform(-14, -2) * (b - a)
        forward = surface._bisect(a, b, lambda x: x < edge, True, tol)
        backward = surface._bisect(b, a, lambda x: x < edge, False, tol)
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
    assert verdict.kind == "door"


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
    lam = math.exp(draw(st.floats(-0.6, 0.6)))
    stretch = SL2Matrix(lam, 0.0, 0.0, 1.0 / lam)
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
    if "cantor_like" in (base.kind, moved.kind):
        # budget-limited verdicts depend on the iteration count only
        return
    assert base.kind is moved.kind
    if base.kind == "cylinder":
        assert moved.multiplier == pytest.approx(base.multiplier, rel=1e-9)


def test_cylinder_outcome_consistency():
    scan = find_cylinders(ROOM, 0.3, budget=600)
    probe = max(scan.cylinders, key=lambda c: c.angle)
    verdict = classify_direction(ROOM, 0.5 * (probe.theta1 + probe.theta2),
                                 budget=600)
    assert verdict.kind == "cylinder"
    if verdict.outcome is not None and verdict.word:
        assert verdict.outcome.terminal == "halt"


def _leaf_key(room, theta: float, verdict) -> tuple[int, ...]:
    """The sides the closed leaf of a cylinder verdict crosses: one
    `_flight` from each point of its cycle in turn, or from the fixed
    point of its collapsed return map."""
    if verdict.reduction is None:
        _, fixed, section = surface._collapsed_direction(
            Direction(room, theta))
        starts = [fixed]
    else:
        section = verdict.reduction.section
        starts = [float(verdict.reduction.chart.invert(x))
                  for x in verdict.outcome.cycle.points]
    heading = Direction(room, theta).heading(section)
    return tuple(k for s in starts
                 for k in surface._flight(heading, s).crossed_sides)


def test_cylinder_verdicts_are_certified_exactly():
    # the closed leaf of every cylinder verdict passes the exact
    # certificate, whose holonomy is the verdict's multiplier, and fails
    # it in the direction pi/2 away; failures are collected, not skipped
    rng = random.Random(SEED + 17)
    failures, certified = [], []
    for index, room in enumerate(_oracle_rooms(rng)):
        lo, hi = room.inward_directions()
        for _ in range(20):
            theta = wrap_2pi(rng.uniform(lo, hi))
            assert room.is_inward(theta)
            try:
                verdict = classify_direction(room, theta)
            except UNDECIDED_ERRORS:
                continue
            if verdict.kind != "cylinder":
                continue
            key = _leaf_key(room, theta, verdict)
            lam = oracles.cylinder_certificate(room, key, theta)
            if lam is None:
                failures.append(("uncertified", room, theta, key))
                continue
            if not math.isclose(float(max(lam, 1 / lam)),
                                verdict.multiplier, rel_tol=1e-9):
                failures.append(("multiplier", room, theta, key,
                                 float(lam), verdict.multiplier))
            if oracles.cylinder_certificate(room, key,
                                            theta + 0.5 * math.pi):
                failures.append(("control certified", room, theta, key))
            certified.append((index, verdict.reduction is None))
    assert not failures, failures
    # every room has several, by the normal form and by the collapse
    assert all(sum(i == index for i, _ in certified) >= 4
               for index in range(6)), certified
    assert {collapsed for _, collapsed in certified} == {False, True}


@functools.lru_cache(maxsize=None)
def _proved_leaf_windows(room) -> tuple:
    """(theta1, theta2, itinerary, multiplier) for each window of
    `oracles.leaf_windows(room, 8)` that `cylinder_certificate` proves
    at 1e-9 of its width inside both edges; the multiplier is the
    leaf's holonomy factor lambda, normalized to max(lambda, 1/lambda)
    as a verdict's is.  Cached, since two tests read the same rooms."""
    windows = []
    for lo, hi, word, lam in oracles.leaf_windows(room, 8):
        edge = 1e-9 * (hi - lo)
        if all(oracles.cylinder_certificate(room, word, theta) == lam
               for theta in (lo + edge, hi - edge)):
            windows.append((lo, hi, word, float(max(lam, 1 / lam))))
    return tuple(windows)


def test_every_direction_in_a_proved_leaf_window_is_that_cylinder():
    # the reverse of the certificate test: the closed leaves of at most
    # 8 crossings, listed by itinerary and proved just inside both edges
    # of their windows, cover most of the circle, and every seeded
    # direction inside one must classify as its cylinder, with the
    # leaf's holonomy as multiplier
    rng = random.Random(SEED + 26)
    inside, failures = 0, []
    for room in (ROOM, _sheared(), REFLEX):
        windows = _proved_leaf_windows(room)
        for _ in range(400):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            found = [(word, mult) for lo, hi, word, mult in windows
                     if lo < theta < hi or lo < theta + 2.0 * math.pi < hi]
            if not found:
                continue
            inside += 1
            try:
                verdict = classify_direction(room, theta)
            except UNDECIDED_ERRORS as exc:
                failures.append((room, theta, found, repr(exc)))
                continue
            for word, mult in found:
                if not (verdict.kind == "cylinder" and math.isclose(
                        verdict.multiplier, mult, rel_tol=1e-6)):
                    failures.append((room, theta, word, mult, verdict.kind,
                                     verdict.multiplier))
    assert not failures, failures
    assert inside >= 900, inside


def test_every_wide_proved_leaf_window_meets_a_scanned_cylinder():
    # the scan's side of the check above: a proved window wider than two
    # grid steps holds at least two samples, so the scan must report an
    # interval that overlaps it with the leaf's multiplier.  A window and
    # its reverse, pi away, are one set of lines; the scan reads theta
    # mod pi in the inward half-circle, so each window is moved there and
    # split where it wraps past the half-circle's end
    misses, selected = [], []
    for room in (ROOM, _sheared(), REFLEX):
        windows = _proved_leaf_windows(room)
        lo_in, hi_in = room.inward_directions()
        for eps in (0.3, 0.1):
            scan = find_cylinders(room, eps, budget=600)
            step = (hi_in - lo_in) / scan.n_samples
            wide = [w for w in windows if w[1] - w[0] > 2.0 * step]
            selected.append(len(wide))
            for lo, hi, word, mult in wide:
                a = lo_in + (lo - lo_in) % math.pi
                b = a + (hi - lo)
                pieces = [(a, min(b, hi_in))]
                if b > hi_in:
                    pieces.append((lo_in, b - math.pi))
                if not any(max(p, c.theta1) < min(q, c.theta2)
                           and math.isclose(c.multiplier, mult,
                                            rel_tol=1e-6)
                           for p, q in pieces for c in scan.cylinders):
                    misses.append((room, eps, lo, hi, word, mult))
    assert not misses, misses
    # 6 and 10 on the square room, 4 and 12 on the sheared room and on
    # REFLEX, at eps 0.3 and 0.1
    assert all(n >= 4 for n in selected), selected


def test_a_leaf_that_leaves_a_non_convex_room_is_refused():
    # on REFLEX the line through the centre of the glue of side 2 along
    # theta crosses side 0 and then side 2 inside them, on the leaf's
    # half-line, but its chord between them meets a side by the reflex
    # vertex V4, so there is no closed leaf (2,)
    theta = 1.842973116867049
    assert oracles.cylinder_certificate(REFLEX, (2,), theta) is None
    sides = oracles.exact_twin(REFLEX)
    _, _, scale, (cx, cy) = sides[2]
    z0 = (cx / (1 - scale), cy / (1 - scale))
    u = (Fraction(math.cos(theta)), Fraction(math.sin(theta)))

    def crossing(k):
        # (r, s): z0 + r*u = a + s*(b - a) on side k
        (ax, ay), (bx, by), _, _ = sides[k]
        ex, ey = bx - ax, by - ay
        wx, wy = ax - z0[0], ay - z0[1]
        denom = u[0] * ey - u[1] * ex
        return ((wx * ey - wy * ex) / denom, (wx * u[1] - wy * u[0]) / denom)

    (r_in, s_in), (r_out, s_out) = crossing(0), crossing(2)
    assert 0 < s_in < 1 and 0 < s_out < 1
    # the glue takes the exit to the entry, and with scale < 1 the leaf
    # runs away from z0
    assert r_in == scale * r_out and scale < 1 and 0 < r_in < r_out
    ends = [(z0[0] + r * u[0], z0[1] + r * u[1]) for r in (r_in, r_out)]
    verts = [a for a, *_ in sides]
    den = math.lcm(*(c.denominator for pt in ends + verts for c in pt))
    p, q, *ints = [(int(x * den), int(y * den)) for x, y in ends + verts]
    assert [m for m in (1, 3, 4) if oracles._open_chord_meets(
        p, q, ints[m], ints[(m + 1) % 5])] == [3, 4]


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


def test_a_vertex_hit_from_a_return_map_reaches_the_caller(monkeypatch):
    # first_return_map absorbs every VertexHit of its own flights, so one
    # that escapes it is a bug, and the section loop passes it on rather
    # than trying the next section or the collapsed fallback
    sections = []

    def hitting(direction, section):
        sections.append(section)
        raise VertexHit("from first_return_map")

    monkeypatch.setattr(surface, "first_return_map", hitting)
    with pytest.raises(VertexHit, match="from first_return_map"):
        classify_direction(ROOM, 4.0055)
    candidates = Direction(ROOM, 4.0055).candidates
    assert len(candidates) > 1 and sections == [candidates[0]]


def test_scan_drops_a_run_whose_midpoint_probe_fails(monkeypatch):
    # a run whose bisected edges hold but whose midpoint is undecided is
    # dropped, and the scan no longer certifies that nothing was missed
    lo, hi = ROOM.inward_directions()
    a, b = lo + 0.2 * (hi - lo), lo + 0.6 * (hi - lo)
    middle = 0.5 * (a + b)

    def fake(hole):
        def classify(room, theta, budget):
            if a < theta < b and abs(theta - middle) > hole:
                return surface.DirectionClass("cylinder", "R",
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
    direction = Direction(ROOM, 4.0055)
    red = surface.direction_to_two_slope(direction)
    tsm = red.two_slope
    surface._verify_reduction(direction, red.section, tsm, red.chart)
    moved = TwoSlopeMap(tsm.rho_a, tsm.rho_b, tsm.x_t + 1e-3)
    with pytest.raises(NotReducible, match="disagrees with an independent"):
        surface._verify_reduction(direction, red.section, moved, red.chart)


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
    found = surface._collapsed_direction(Direction(ROOM, theta))
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
    assert surface._collapsed_direction(Direction(ROOM, theta)) is None


def test_a_collapsed_classification_sets_each_direction_up_once(monkeypatch):
    # the collapsed fallback flies again on the sections the reduction
    # tried, and its flights and the verifications take the headings the
    # return maps used: one direction record, each heading built once,
    # and each side a ray can enter tabulated once
    records, frames, tables = [], [], []
    init, tabulate = Direction.__init__, Direction.tabulate
    new = Heading.__new__

    def counted_init(rec, room, theta):
        records.append(rec)
        init(rec, room, theta)

    def counted_tabulate(rec, *segment):
        tables.append(segment)
        return tabulate(rec, *segment)

    def counted_new(cls, *fields):
        frames.append(fields[4])
        return new(cls, *fields)

    monkeypatch.setattr(Direction, "__init__", counted_init)
    monkeypatch.setattr(Direction, "tabulate", counted_tabulate)
    monkeypatch.setattr(Heading, "__new__", counted_new)
    theta = 5.4192
    room = square_room(LN2, LN2)
    verdict = classify_direction(room, theta)
    assert verdict.kind == "cylinder" and verdict.word == ""
    assert verdict.reduction is None
    [kept] = records
    assert kept.room is room and kept.theta == theta
    assert len(frames) >= 2 and len(set(frames)) == len(frames)
    assert frames == [heading.frame for heading in kept.headings.values()]
    # a side is the segment from its start along its edge, sigma in [0, 1]
    sides = [(*room.geom.sides[j][:4], 1.0)
             for j in _entered_sides(room, theta)]
    assert sorted(tables) == sorted(sides + frames)


def test_a_scan_builds_one_direction_record_per_classification(
        monkeypatch):
    # every return map, verification and collapsed check of a scan's
    # classifications flies on its classification's record: as many
    # records as classifications, each built by classify_direction
    # itself, none by the steps it hands its record to
    builders = []
    calls = {name: 0 for name in ("classify_direction", "first_return_map",
                                  "_verify_reduction",
                                  "_collapsed_direction")}
    init = Direction.__init__

    def counted_init(rec, room, theta):
        builders.append(sys._getframe(1).f_code.co_name)
        init(rec, room, theta)

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(Direction, "__init__", counted_init)
    for name in calls:
        monkeypatch.setattr(surface, name,
                            counted(name, getattr(surface, name)))
    find_cylinders(square_room(LN2, LN2), 1.0, budget=200)
    assert all(calls.values()), calls
    assert builders == ["classify_direction"] * calls["classify_direction"]


def test_first_return_map_refuses_a_bent_branch(monkeypatch):
    # the two probes of a branch share its itinerary but not its line
    real = surface._back

    def bent(heading, tr):
        s_back = real(heading, tr)
        return s_back + 1e-3 * s_back * s_back

    monkeypatch.setattr(surface, "_back", bent)
    with pytest.raises(NotTransverse, match="not affine"):
        first_return_map(Direction(ROOM, 5.5), (0, 2))


def _failing_flight(monkeypatch, error, when):
    """Make `surface._flight` raise `error` from each section coordinate
    s for which when(s) holds."""
    real = surface._flight

    def flight(heading, s):
        if when(s):
            raise error
        return real(heading, s)

    monkeypatch.setattr(surface, "_flight", flight)


@pytest.mark.parametrize("error, refused", [
    (VertexHit("hit"), False),
    (BudgetExhausted("out"), True),
    (NotTransverse("door"), True),
])
def test_verify_reduction_skips_a_vertex_hit_and_refuses_a_lost_probe(
        monkeypatch, error, refused):
    # a probe that hits a vertex is skipped, even where the normal form
    # is wrong; one that runs out of crossings or reaches the door
    # makes the reduction unverifiable
    direction = Direction(ROOM, 4.0055)
    red = surface.direction_to_two_slope(direction)
    tsm = red.two_slope
    moved = TwoSlopeMap(tsm.rho_a, tsm.rho_b, tsm.x_t + 1e-3)
    _failing_flight(monkeypatch, error, lambda s: True)
    if refused:
        with pytest.raises(NotReducible, match="did not return"):
            surface._verify_reduction(direction, red.section, moved,
                                      red.chart)
    else:
        surface._verify_reduction(direction, red.section, moved, red.chart)


@pytest.mark.parametrize("error, accepted", [
    (VertexHit("hit"), True),
    (BudgetExhausted("out"), False),
    (NotTransverse("door"), False),
])
def test_collapsed_direction_checks_its_fixed_point_flight(
        monkeypatch, error, accepted):
    # the flight from a collapsed map's fixed point confirms the cycle:
    # a section whose flight fails is skipped, while a vertex hit there
    # does not refute the branch law already checked at two probes
    theta = 5.4192
    found = surface._collapsed_direction(Direction(ROOM, theta))
    assert found is not None
    fixed_points = []
    real = surface._collapsed_cycle

    def recorded(pam):
        col = real(pam)
        if col is not None:
            fixed_points.append(col[1])
        return col

    monkeypatch.setattr(surface, "_collapsed_cycle", recorded)
    _failing_flight(monkeypatch, error, fixed_points.__contains__)
    got = surface._collapsed_direction(Direction(ROOM, theta))
    assert fixed_points
    assert got == (found if accepted else None)


def test_first_return_map_probes_again_where_two_probes_part(monkeypatch):
    # when the two probes of a branch return along different itineraries,
    # the next pair of probes gives the branch its law
    theta = 5.5
    pam = first_return_map(Direction(ROOM, theta), (0, 2))
    lo, hi = pam.branches[0].lo, pam.branches[0].hi
    first_pair = (lo + 0.5 * (hi - lo), lo + 0.8 * (hi - lo))
    next_pair = (lo + 0.38 * (hi - lo), lo + 0.66 * (hi - lo))
    real = surface._flight
    starts = []

    def parted(heading, s):
        starts.append(s)
        tr = real(heading, s)
        if s == first_pair[1]:
            return tr._replace(crossed_sides=tr.crossed_sides + (0,))
        return tr

    monkeypatch.setattr(surface, "_flight", parted)
    again = first_return_map(Direction(ROOM, theta), (0, 2))
    assert starts.index(next_pair[0]) > starts.index(first_pair[1])
    assert [(b.lo, b.hi, b.slope) for b in again.branches] == [
        (b.lo, b.hi, b.slope) for b in pam.branches]
    for old, new in zip(pam.branches, again.branches):
        assert new.intercept == pytest.approx(old.intercept, abs=1e-12)


def test_a_direction_along_every_diagonal_has_no_section():
    # far along the diagonal flow every interior diagonal of the square
    # room turns within TRANSVERSALITY_FLOOR of one direction
    room = teichmuller.flow(square_room(LN2, LN2), 60.0)
    _, _, ex, ey, _ = room.geom.diagonals[0, 2]
    theta = math.atan2(ey, ex)
    assert Direction(room, theta).candidates == []
    with pytest.raises(NotTransverse,
                       match="parallel to every interior diagonal"):
        surface.direction_to_two_slope(Direction(room, theta))


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
    pam = first_return_map(Direction(ROOM, 5.5), (0, 2))
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
    r2 = QuadraticNumber(0, 1, 2)
    value = rotation_number(1 + r2 / 2, Fraction(1, 2) - r2 / 9, tol=1e-5)
    assert value == 0.3331795579118434


def _exact_values_built(fn) -> int:
    """How many Fractions and QuadraticNumbers fn() builds: calls of
    their constructors, counted by a profile hook."""
    codes = {Fraction.__new__.__code__, QuadraticNumber.__init__.__code__,
             quadratics._normal.__code__}
    built = 0

    def hook(frame, event, _arg):
        nonlocal built
        built += event == "call" and frame.f_code in codes

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return built


def test_the_exact_rotation_orbit_builds_no_exact_value_per_step(
        monkeypatch):
    # the irrational pair above: its break orbit runs 56 steps to
    # EXACT_DENOMINATOR_CAP, and fewer to a lower cap
    r2 = QuadraticNumber(0, 1, 2)
    ra, rb = 1 + r2 / 2, Fraction(1, 2) - r2 / 9
    counts = []
    search = functools.partial(rotation_number, ra, rb, tol=1e-5)
    for cap in (10 ** 30, 10 ** 15, 10 ** 6):
        monkeypatch.setattr(surface, "EXACT_DENOMINATOR_CAP", cap)
        counts.append(_exact_values_built(search))
    # the set-up's exact values only, as many for the shorter orbits
    assert counts == [counts[0]] * 3
    # the guard sees the oracle's QuadraticNumber steps, many per point
    assert _exact_values_built(lambda: oracles.rotation_number_oracle(
        ra, rb, 1e-5, surface.ROTATION_MAX_ITER)) > 10 * 56


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
    # exact cycles in an irrational field: rho_a^j * rho_b = 1 closes the
    # break's orbit after j + 1 steps, which max_iter=1 leaves to the
    # exact search alone
    r2 = QuadraticNumber(0, 1, 2)
    cycles = [(k + r2 / 3, j) for k in (1, 2, 3) for j in (1, 2, 3)]
    first_cycle = len(cases)
    cases += [(ra, 1 / math.prod([ra] * j), 0.0, 1) for ra, j in cycles]
    # mixed int, Fraction and QuadraticNumber pairs, and the irrational
    # pair whose orbit runs 56 steps to EXACT_DENOMINATOR_CAP
    r5 = QuadraticNumber(0, 1, 5)
    cases += [(ra, rb, 1e-5, surface.ROTATION_MAX_ITER) for ra, rb in (
        (2, QuadraticNumber(Fraction(1, 2))), (3, Fraction(1, 2) - r2 / 9),
        (Fraction(5, 2), QuadraticNumber(Fraction(2, 5))),
        (Fraction(7, 3), (r5 - 1) / 2), (1 + r5 / 3, Fraction(1, 3)),
        (QuadraticNumber(3), Fraction(1, 9)), (2, Fraction(1, 4)),
        (1 + r2 / 2, Fraction(1, 2) - r2 / 9))]
    outcomes = []
    for ra, rb, tol, max_iter in cases:
        got = _rotation_outcome(rotation_number, ra, rb, tol, max_iter)
        assert got == _rotation_outcome(oracles.rotation_number_oracle, ra,
                                        rb, tol, max_iter), (ra, rb)
        outcomes.append(got)
    assert sum(isinstance(got, tuple) for got in outcomes) >= 6
    assert sum(str(got).startswith("Fraction")
               for got in outcomes[80:100]) >= 15
    assert outcomes[first_cycle:first_cycle + len(cycles)] == [
        repr(Fraction(1, j + 1)) for _, j in cycles]


def test_rotation_number_rejects_bad_slopes():
    with pytest.raises(ValueError):
        rotation_number(0.5, 0.5)
