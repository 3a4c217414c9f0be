"""A direction's verdict does not depend on the room's presentation.

`apply_sl2` moves a room and `projective_action` moves its directions.
The kind of a direction and the multiplier of its cylinder (the
holonomy of the closed leaf) do not depend on the presentation, so a
verdict that differs from its image's verdict is wrong on one side.
Under the SL(2, R) action words are not compared: they depend on the
cross-section.  A homothety, which scales the basis, keeps every angle
and so every section's crossing order: there the word is compared too.
Both sides must decide; an undecided direction on either side fails the
pair.
"""

import math
import random

import pytest

import oracles
from dilatorus.geometry import (SL2Matrix, apply_sl2, build_room,
                                geodesic_matrix, projective_action,
                                square_room)
from dilatorus.surface import classify_direction
from dilatorus.teichmuller import flow

ROOMS = {
    "square-ln2": square_room(math.log(2.0), math.log(2.0)),
    "sheared": build_room((1.0, 0.2), (0.3, 1.1), (0.4, 1.3)),
}
MATRICES = (SL2Matrix.rotation(0.7), SL2Matrix(1.0, 0.4, 0.0, 1.0),
            SL2Matrix(1.3, 0.0, 0.0, 1.0 / 1.3))
FLOW_TIMES = (0.5, 2.0, 4.0, 8.0, 12.0)
SEED = 20260817
# multipliers agree to this relative tolerance (unitless)
MULTIPLIER_RTOL = 1e-9
# Homotheties that shrink the room.  Scales of 1e3 and above are left
# out: `intervalmaps.IMAGE_TOL` is absolute in domain units while the
# error of a bisected cut grows with the section's length, so a large
# room can refuse a section that reduces at scale 1 (ROADMAP item 34).
SCALES = (1e-9, 1e-6, 1e-3)
HOMOTHETY_ROOMS = {**ROOMS, "unit": square_room(1, 1)}


def inward_directions(room, count: int) -> list[float]:
    """`count` evenly spaced directions strictly inside the inward
    half-circle."""
    lo, _ = room.inward_directions()
    return [lo + math.pi * (k + 0.5) / count for k in range(count)]


def assert_invariant(room, images, count: int) -> None:
    """Each of `count` inward directions of `room` has the verdict of its
    image in each room of `images`, a list of (matrix, moved room)."""
    for theta in inward_directions(room, count):
        base = classify_direction(room, theta)
        for m, image in images:
            moved = classify_direction(image, projective_action(m, theta))
            assert moved.kind is base.kind, (theta, m, base, moved)
            if base.multiplier is None:
                assert moved.multiplier is None, (theta, m, base, moved)
            else:
                assert math.isclose(moved.multiplier, base.multiplier,
                                    rel_tol=MULTIPLIER_RTOL), \
                    (theta, m, base, moved)


@pytest.mark.parametrize("name", ROOMS)
def test_verdicts_are_invariant_under_linear_maps(name):
    room = ROOMS[name]
    assert_invariant(room, [(m, apply_sl2(m, room))
                            for m in MATRICES], 100)


@pytest.mark.parametrize("name", ROOMS)
def test_verdicts_are_invariant_under_the_geodesic_flow(name):
    # `_window_hits` relies on this when it pulls probes back to the
    # base room
    room = ROOMS[name]
    assert_invariant(room, [(geodesic_matrix(t), flow(room, t))
                            for t in FLOW_TIMES], 60)


@pytest.mark.parametrize("name", ROOMS)
def test_verdicts_are_invariant_under_random_linear_maps(name):
    # measured on 50 such matrices against 200 directions per room:
    # all 20,000 pairs agreed, and none was undecided on either side
    room = ROOMS[name]
    rng = random.Random(f"{SEED}-{name}")
    matrices = [oracles.random_sl2(rng) for _ in range(10)]
    assert_invariant(room, [(m, apply_sl2(m, room)) for m in matrices], 60)


@pytest.mark.parametrize("name", HOMOTHETY_ROOMS)
def test_verdicts_and_words_are_invariant_under_homotheties(name):
    room = HOMOTHETY_ROOMS[name]
    rng = random.Random(f"{SEED}-homothety-{name}")
    lo, _ = room.inward_directions()
    images = [build_room(room.e1 * s, room.e2 * s, room.params)
              for s in SCALES]
    for _ in range(40):
        theta = lo + math.pi * rng.random()
        base = classify_direction(room, theta, budget=600)
        for image in images:
            moved = classify_direction(image, theta, budget=600)
            assert (moved.kind, moved.word) == (base.kind, base.word), \
                (theta, base, moved)
            if base.multiplier is None:
                assert moved.multiplier is None, (theta, base, moved)
            else:
                assert math.isclose(moved.multiplier, base.multiplier,
                                    rel_tol=MULTIPLIER_RTOL), \
                    (theta, base, moved)
