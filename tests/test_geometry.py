"""Room model, SL(2,R) action, and the room document the CLI prints."""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from dilatorus import geometry
from dilatorus.errors import (DegenerateDoor, NonOrientedBasis,
                              NonSimplePentagon, OutsideQ)
from dilatorus.geometry import (DilationParams, RoomGeometry, SL2Matrix,
                                Vec2, _interior_pairs, _pentagon_vertices,
                                apply_sl2, build_room,
                                canonicalize, geodesic_matrix,
                                projective_action, square_room, unit,
                                wrap_2pi, wrap_pi)
from dilatorus.cli import _room_payload
from dilatorus.quadratics import QuadraticNumber
from dilatorus.teichmuller import flow

SEED = 20260817
LN2 = math.log(2.0)
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_rooms",
    Path(__file__).resolve().parent.parent / "perfbench" / "rooms.py")
bench_rooms = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_rooms)


# --- matrices ---

def test_sl2_requires_unit_determinant():
    with pytest.raises(ValueError):
        SL2Matrix(1.0, 0.0, 0.0, 2.0)


@pytest.mark.parametrize("entries", [
    (math.nan, 0.0, 0.0, 1.0), (math.inf, 0.0, 0.0, 0.0),
    (1.0, math.nan, 0.0, 1.0), (1.0, 0.0, -math.inf, 1.0),
], ids=["a-nan", "a-inf", "b-nan", "c-minus-inf"])
def test_sl2_refuses_non_finite_entries(entries):
    # a NaN determinant passed the old |det - 1| > tol test
    with pytest.raises(ValueError, match="must be finite"):
        SL2Matrix(*entries)


@pytest.mark.parametrize("entries", [
    (1e5, 0.0, 0.0, 5e-5), (1e200, 0.0, 0.0, 1e-300), (1e200, 0.0, 0.0, 1e200),
], ids=["det-5", "det-1e-100", "det-overflows"])
def test_sl2_refuses_large_entries_far_from_unit_determinant(entries):
    # the slack once grew with the squared entries, and overflowed to inf
    with pytest.raises(ValueError, match="is not 1|overflow"):
        SL2Matrix(*entries)


def test_sl2_keeps_large_unimodular_entries():
    g = geodesic_matrix(1400.0)
    assert g.a * g.d == pytest.approx(1.0)
    SL2Matrix(1e150, 1e150, 0.0, 1e-150)
    SL2Matrix(1.0, 1e12, 0.0, 1.0)


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_rotation_refuses_non_finite_angle(alpha):
    with pytest.raises(ValueError, match="rotation angle .* must be finite"):
        SL2Matrix.rotation(alpha)


def test_sl2_inverse_and_product():
    rng = random.Random(SEED)
    for _ in range(100):
        m = oracles.random_sl2(rng, 0.8)
        ident = m @ SL2Matrix(m.d, -m.b, -m.c, m.a)
        assert abs(ident.a - 1.0) < 1e-9 and abs(ident.d - 1.0) < 1e-9
        assert abs(ident.b) < 1e-9 and abs(ident.c) < 1e-9


def test_geodesic_matrix_shape():
    g = geodesic_matrix(2.0)
    assert g.a == pytest.approx(math.exp(-1.0))
    assert g.d == pytest.approx(math.exp(1.0))
    assert g.b == 0.0 and g.c == 0.0


def test_projective_action_matches_vector_action():
    rng = random.Random(SEED + 1)
    for _ in range(200):
        m = oracles.random_sl2(rng, 0.8)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        image = m.apply(unit(theta))
        assert projective_action(m, theta) == pytest.approx(
            wrap_2pi(math.atan2(image.y, image.x)))


def test_wrap_functions():
    assert wrap_2pi(-0.5) == pytest.approx(2.0 * math.pi - 0.5)
    assert wrap_pi(math.pi + 0.25) == pytest.approx(0.25)


def test_wrap_keeps_tiny_negative_angles_below_the_period():
    # t + period rounded up to the excluded end for t above about -2e-16
    assert wrap_2pi(-2.2e-16) == 0.0 and wrap_pi(-1e-17) == 0.0
    rng = random.Random(SEED + 2)
    for _ in range(2000):
        theta = -math.ldexp(rng.random(), rng.randint(-1100, -40))
        assert 0.0 <= wrap_2pi(theta) < 2.0 * math.pi
        assert 0.0 <= wrap_pi(theta) < math.pi
        # whole turns below zero land on the same side of the period
        assert 0.0 <= wrap_2pi(theta - 2.0 * math.pi) < 2.0 * math.pi


# --- rooms ---

def test_symmetric_room_vertices():
    room = square_room(LN2, LN2)
    v = [p.as_floats() for p in room.vertices()]
    assert v[0] == pytest.approx((0.0, 0.0))
    assert v[1] == pytest.approx((1.0, 0.0))
    assert v[2] == pytest.approx((1.0, 1.0))
    assert v[3] == pytest.approx((0.5, 1.0))
    assert v[4] == pytest.approx((0.0, 0.5))


def test_vertex_formula_on_the_unit_basis_is_exact():
    # the coincident-vertex test reads these floats: V3 = (1 - 1/nu1, 1)
    # and V4 = (0, 1/nu2) with no rounding from the basis arithmetic
    for nu1, nu2 in ((2.0, 3.0), (math.e, 1.1), (7.3, 0.6)):
        verts = _pentagon_vertices((1.0, 0.0), (0.0, 1.0), nu1, nu2)
        assert list(verts) == [
            (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (1.0 - 1.0 / nu1, 1.0),
            (0.0, 1.0 / nu2)]


def test_room_rejects_bad_input():
    with pytest.raises(OutsideQ):
        square_room(-1.0, -1.0)
    with pytest.raises(DegenerateDoor):
        square_room(0.0, 0.0)
    with pytest.raises(NonOrientedBasis):
        build_room((1.0, 0.0), (2.0, 0.0), (LN2, LN2))
    with pytest.raises(NonOrientedBasis):
        build_room((0.0, 1.0), (1.0, 0.0), (LN2, LN2))


# e1 = (1 + 2^-52, 1), e2 = (1, 1 - 2^-53): the float cross product
# rounds to 0.0, the exact determinant is 2^-53 - 2^-105
NEAR_E1, NEAR_E2 = (1.0 + 2.0 ** -52, 1.0), (1.0, 1.0 - 2.0 ** -53)


def test_orientation_is_the_sign_of_the_exact_determinant():
    assert build_room(NEAR_E1, NEAR_E2, (LN2, LN2)).e1 == NEAR_E1
    with pytest.raises(NonOrientedBasis, match=r"^basis determinant "
                       r"-1\.1102230246251563e-16 must be positive$"):
        build_room(NEAR_E2, NEAR_E1, (LN2, LN2))


@pytest.mark.parametrize("nu, pairs", [
    ((1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53), [(0, 2), (0, 3), (1, 3), (1, 4)]),
    ((1.0 + 2.0 ** -52, 1.0 - 2.0 ** -52), [(0, 2), (0, 3), (1, 3)]),
], ids=["product-rounds-down-to-1", "product-just-below-1"])
def test_interior_chords_read_the_exact_product_of_the_factors(nu, pairs):
    # nu1*nu2 is 1 + 2^-53 - 2^-105 and 1 - 2^-104, both 1.0 in floats:
    # (1, 4) lies inside only when the exact product exceeds 1
    assert _interior_pairs(*nu) == tuple(pairs)


def test_a_float_room_builds_no_fraction(monkeypatch):
    # the two exact sign tests run on integer ratios; a Fraction is built
    # only for a refused basis's message and for canonicalize
    def refuse(*args):
        raise AssertionError(f"Fraction{args} built for a float room")

    monkeypatch.setattr(geometry, "Fraction", refuse)
    room = build_room((1.0, 0.25), (-0.5, 2.0), (0.4, 0.8))
    assert room.geom.interior
    room.door_direction()
    room.is_inward(1.0)


@pytest.mark.parametrize("e1, e2, mu", [
    ((1.0, 0.0), (0.0, 1.0), (math.nan, 1.0)),
    ((1.0, 0.0), (0.0, 1.0), (math.inf, 1.0)),
    ((1.0, 0.0), (0.0, 1.0), (1.0, -math.inf)),
    ((math.nan, 0.0), (0.0, 1.0), (1.0, 1.0)),
    ((1.0, 0.0), (0.0, math.inf), (1.0, 1.0)),
], ids=["mu1-nan", "mu1-inf", "mu2-minus-inf", "e1-nan", "e2-inf"])
def test_room_refuses_non_finite_input(e1, e2, mu):
    # NaN parameters gave NaN vertices, an infinite one put V3 on V2, and
    # a NaN coordinate failed only inside the exact determinant
    with pytest.raises(ValueError, match="must be finite"):
        build_room(e1, e2, mu)


def test_mixed_sign_parameters_allowed():
    # only the (both negative) quadrant is excluded
    room = square_room(-0.4, 0.9)
    assert room.params.as_floats() == (-0.4, 0.9)


def test_boundary_parameters_can_break_simplicity():
    # mu2 = 0 puts V4 on the top side once nu1 < 1/2
    with pytest.raises(NonSimplePentagon):
        square_room(-0.7, 0.0)


def test_gluing_transports_endpoints_to_partner():
    rng = random.Random(SEED + 2)
    for _ in range(50):
        mu1 = rng.uniform(-0.5, 1.5)
        mu2 = rng.uniform(-0.5, 1.5)
        if mu1 <= 0 and mu2 <= 0:
            continue
        room = apply_sl2(oracles.random_sl2(rng, 0.5),
                         square_room(mu1, mu2))
        sides = room.sides()
        partner = {0: 2, 1: 4, 2: 0, 4: 1}
        for side in sides:
            if side.is_door:
                continue
            mate = sides[partner[side.index]]
            # transported side equals the partner reversed
            for p, q in ((side.start, mate.end), (side.end, mate.start)):
                moved = p * side.factor + side.transport_offset
                assert (math.hypot(*(moved - q).as_floats())
                        < 1e-9 * room.diameter())


def test_transport_factors_multiply_to_one():
    room = square_room(0.7, 0.3)
    sides = room.sides()
    assert sides[0].factor * sides[2].factor == pytest.approx(1.0)
    assert sides[1].factor * sides[4].factor == pytest.approx(1.0)
    assert sides[3].factor == 1.0


def test_door_direction_and_inward_cone():
    room = square_room(LN2, LN2)
    door = room.door_direction()
    # V3=(0.5,1) to V4=(0,0.5): slope 1, direction pi/4 mod pi
    assert door == pytest.approx(math.pi / 4.0)
    lo, hi = room.inward_directions()
    assert hi - lo == pytest.approx(math.pi)
    assert room.is_inward(0.5 * (lo + hi))
    assert not room.is_inward(0.5 * (lo + hi) + math.pi)


def _door_forms_by_vectors(room):
    """door_direction, inward_directions and is_inward computed through
    Vec2 from the door's vertices, as the Room methods once did."""
    v3, v4 = room.vertices()[3:5]
    door = v4 - v3
    n = Vec2(-door.y, door.x)           # turned by +pi/2
    n = n * (1.0 / math.hypot(*n.as_floats()))
    lo = wrap_2pi(n.angle() - math.pi / 2.0)
    return (wrap_pi(door.angle()), (lo, lo + math.pi),
            lambda theta: unit(theta).dot(n) > 0.0)


def test_door_forms_read_off_the_side_table_match_the_vector_forms():
    rng = random.Random(SEED + 11)
    rooms = [build_room((Fraction(1), Fraction(0)),
                        (Fraction(1, 3), Fraction(1)),
                        (Fraction(1, 2), QuadraticNumber(0, 1, 2)))]
    for _ in range(40):
        room = square_room(rng.uniform(-0.8, 1.5), rng.uniform(0.05, 1.5))
        rooms += [room, apply_sl2(oracles.random_sl2(rng, 0.8), room)]
    for room in rooms:
        door, half_circle, inward = _door_forms_by_vectors(room)
        assert room.door_direction() == door
        assert room.inward_directions() == half_circle
        lo = half_circle[0]
        thetas = [lo, lo + math.pi, lo - 1e-13, lo + math.pi + 1e-13]
        thetas += [rng.uniform(-7.0, 7.0) for _ in range(20)]
        for theta in thetas:
            assert room.is_inward(theta) == inward(theta)


def test_apply_sl2_commutes_with_vertices():
    rng = random.Random(SEED + 3)
    for _ in range(50):
        room = square_room(rng.uniform(0.1, 1.2), rng.uniform(0.1, 1.2))
        m = oracles.random_sl2(rng, 0.8)
        moved = apply_sl2(m, room)
        for v, w in zip(room.vertices(), moved.vertices()):
            assert math.hypot(*(m.apply(v) - w).as_floats()) < 1e-9


def test_canonicalize_keeps_shape():
    room = build_room((2.0, 0.0), (0.0, 2.0), (0.4, 0.8))
    canon = canonicalize(room)
    assert canon.e1.cross(canon.e2) == pytest.approx(1.0)
    # same parameters, rescaled basis
    assert canon.params == room.params


def test_json_roundtrip_float_and_exact():
    room = build_room((1.0, 0.25), (-0.5, 2.0), (0.4, 0.8))
    assert _room_payload(room) == {
        "e1": list(room.e1.as_floats()), "e2": list(room.e2.as_floats()),
        "mu": [0.4, 0.8],
        "vertices": [list(v.as_floats()) for v in room.vertices()],
        "nu": list(room.params.nu())}

    exact = square_room(QuadraticNumber(0, 1, 2), Fraction(1, 2))
    data = _room_payload(exact)
    # the exact parameters come first, each as (a, b, d) of a + b*sqrt(d)
    assert list(data) == ["e1", "e2", "mu_exact", "mu", "vertices", "nu"]
    assert data["e1"] == [1.0, 0.0] and data["e2"] == [0.0, 1.0]
    assert data["mu_exact"] == [["0", "1", 2], ["1/2", "0", 0]]
    assert data["mu"] == [math.sqrt(2.0), 0.5]


def test_int_parameters_are_written_as_exact_triples():
    # an int is on the exact track, so it is written like its Fraction
    assert _room_payload(square_room(1, 2))["mu_exact"] == \
        [["1", "0", 0], ["2", "0", 0]]
    assert _room_payload(square_room(1, 2)) == \
        _room_payload(square_room(Fraction(1), Fraction(2)))


def _bits(value):
    """value with each float as its float.hex, so that -0.0 and 0.0
    differ, every other scalar with its type, and a dict as its items in
    order."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return [(key, _bits(v)) for key, v in value.items()]
    if isinstance(value, tuple):
        return type(value).__name__, [_bits(v) for v in value]
    return type(value).__name__, value


def _geometry_rooms() -> list:
    """The 48 seeded benchmark rooms of seed 7, each also turned by a
    seeded angle; int, Fraction and mixed bases; the square, sheared and
    reflex rooms scaled by 1 and by 1e-9, 1e-3, 1e3 and 1e6, each with
    its images under the flow at t = 4 and t = 14; and rooms with a
    vertical diagonal or a -0.0 basis coordinate."""
    rng = random.Random(SEED + 12)
    rooms = []
    for mu, e1, e2 in bench_rooms.seeded_rooms(random.Random(7), 48):
        _, t1, t2 = bench_rooms.rotated((mu, e1, e2),
                                        rng.uniform(0.0, 2.0 * math.pi))
        rooms += [build_room(e1, e2, mu), build_room(t1, t2, mu)]
    rooms += [build_room((1, 0), (0, 1), (LN2, LN2)),
              build_room((2, 1), (1, 3), (0.4, 0.9)),
              build_room((3, -1), (-2, 5), (Fraction(1, 2), Fraction(-1, 3))),
              build_room((Fraction(1, 3), 3.0), (1e8, 9e8 + 1), (1, 1)),
              build_room((1, 0.5), (0.0, 1), (0.7, -0.2))]
    while len(rooms) < 121:
        e1, e2 = [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                  for _ in range(2)]
        if e1[0] * e2[1] - e1[1] * e2[0] > 0:
            rooms.append(build_room(e1, e2, (rng.uniform(0.1, 1.5),
                                             rng.uniform(-0.5, 1.5))))
    named = (square_room(LN2, LN2),
             build_room((1.0, 0.2), (0.3, 1.1), (0.4, 1.3)),
             build_room((1.0, 0.2), (0.3, 1.1), (-0.5, 1.0)))
    for room in named:
        for scale in (1.0, 1e-9, 1e-3, 1e3, 1e6):
            scaled = build_room(room.e1 * scale, room.e2 * scale, room.params)
            rooms += [scaled, flow(scaled, 4.0), flow(scaled, 14.0)]
    # V0 and V3 share x = 0.0, so the edge of the chord (3, 0) is +0.0,
    # not the -0.0 that negating the chord (0, 3) gives
    rooms += [square_room(0.0, 0.5), square_room(0.5, 0.0),
              build_room((1.0, -0.0), (-0.0, 1.0), (LN2, 0.3))]
    return rooms


def test_geometry_tables_match_the_vec2_oracle_bit_for_bit():
    rooms = _geometry_rooms()
    assert len(rooms) == 169
    for room in rooms:
        got, want = room.geom, oracles.room_geometry_oracle(room)
        for name in RoomGeometry._fields:
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), (
                name, room)


def test_interior_diagonals_symmetric_room():
    room = square_room(LN2, LN2)
    pairs = set(room.geom.interior)
    for i, j in pairs:
        assert (j - i) % 5 not in (0, 1, 4)  # chords, not sides
    assert pairs  # the convex pentagon has interior chords


# --- room shape from the dilation factors ---

# 0, +-10^-k for k = 1..17 and a few sizes up to 300: the parameters
# within rounding of an axis, and long rooms
LADDER = (0.0, *(s * 10.0 ** -k for k in range(1, 18) for s in (1, -1)),
          *(s * v for v in (0.3, 1.0, 2.5, 30.0, 300.0) for s in (1, -1)))


def _shape_inputs() -> list[tuple[float, float]]:
    rng = random.Random(SEED + 4)
    grid = [(a, b) for a in LADDER for b in LADDER]
    scattered = [(rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0))
                 for _ in range(500)]
    # mu1 + mu2 = d: nu1*nu2 = 1 up to rounding at d = 0
    anti = [(-m + d, m) for m in (-30.0, -2.5, -1.0, -0.3, 0.3, 1.0, 2.5,
                                  30.0, *(rng.uniform(-6.0, 6.0)
                                          for _ in range(12)))
            for d in (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9)]
    return [mu for mu in grid + scattered + anti
            if (mu[0] >= 0 or mu[1] >= 0) and mu != (0.0, 0.0)]


def test_room_shape_matches_exact_oracle():
    # the shape rule against an exact simplicity and interior-chord test
    # on the twin's Fraction vertices, at the unit basis and under one
    # random SL(2,R) image each
    rng = random.Random(SEED + 5)
    compared = refused_coincident = 0
    for mu in _shape_inputs():
        m = oracles.random_sl2(rng)
        for e1, e2 in ((Vec2(1.0, 0.0), Vec2(0.0, 1.0)),
                       (m.apply(Vec2(1.0, 0.0)), m.apply(Vec2(0.0, 1.0)))):
            try:
                got = build_room(e1, e2, mu).geom.interior
            except NonSimplePentagon:
                got = None
            except ValueError as exc:
                # V3 on V2 (mu1 = 300) or V3 on V4 (nu1 = nu2 = 1.0) at
                # float resolution: refused before any shape is read
                assert "coincide" in str(exc), (mu, exc)
                refused_coincident += 1
                continue
            want = oracles.exact_shape(oracles.twin_vertices(
                e1, e2, DilationParams(*mu).nu()))
            assert got == want, (mu, e1, e2)
            compared += 1
    assert compared >= 4000 and refused_coincident < 150


@pytest.mark.parametrize("mu", [(LN2, LN2), (-0.3, 0.8), (0.5, -0.2)],
                         ids=["square-ln2", "reflex-V4", "reflex-V3"])
def test_interior_diagonals_are_sl2_invariant(mu):
    # the float predicates lost chords of these rooms from shear 1e6 and
    # flow time 28 on
    room = square_room(*mu)
    want = room.geom.interior
    for k in (1e2, 1e4, 1e6, 1e8):
        sheared = apply_sl2(SL2Matrix(1.0, k, 0.0, 1.0), room)
        assert sheared.geom.interior == want, k
    for t in (10.0, 20.0, 28.0, 34.0):
        assert flow(room, t).geom.interior == want, t


@pytest.mark.parametrize("mu, pairs", [
    ((LN2, LN2), [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]),
    ((0.0, 0.5), [(0, 2), (1, 3), (1, 4), (2, 4)]),
    ((-0.3, 0.8), [(0, 2), (1, 3), (1, 4), (2, 4)]),
    ((-0.8, 0.3), [(0, 2), (1, 4), (2, 4)]),
    ((0.1, -30.0), [(0, 2), (0, 3), (1, 3)]),
    ((30.0, 30.0), [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]),
], ids=["square-ln2", "mu1-zero", "mu1-negative", "mu1-plus-mu2-negative",
        "long", "thin"])
def test_interior_diagonals_follow_the_dilation_factors(mu, pairs):
    # (0, 3) needs nu1 > 1, (2, 4) needs nu2 > 1, and (1, 3), (1, 4)
    # need that or nu1*nu2 > 1
    assert square_room(*mu).geom.interior == tuple(pairs)
