"""Rooms as (mu, e1, e2) triples: the seeded family, rotations and CLI flags.

Seeded rooms have (mu1, mu2) in [0.3, 1.2]^2 and a basis that is the
image of the unit basis under R(a) diag(l, 1/l) R(b), with a uniform,
b in [0, pi) and log l in [-0.5, 0.5]; (mu1, mu2, b, log l) are drawn
by Latin hypercube sampling.  Door and inward half-circle are computed
here from the vertex formulas, not by the library under test.
"""

from __future__ import annotations

import math
import random

MU_LO, MU_HI = 0.3, 1.2
LOG_STRETCH = 0.5


def rotate(alpha: float, v: tuple[float, float]) -> tuple[float, float]:
    c, s = math.cos(alpha), math.sin(alpha)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1])


def rotated(room, alpha: float):
    """The room with its basis turned by alpha."""
    mu, e1, e2 = room
    return mu, rotate(alpha, e1), rotate(alpha, e2)


def basis(a: float, b: float, log_stretch: float):
    """The SL(2,R) image R(a) diag(l, 1/l) R(b) (e1, e2) of the unit basis."""
    lam = math.exp(log_stretch)
    cols = []
    for v in ((1.0, 0.0), (0.0, 1.0)):
        x, y = rotate(b, v)
        cols.append(rotate(a, (lam * x, y / lam)))
    return cols[0], cols[1]


def latin(rng: random.Random, count: int, dims: int) -> list[list[float]]:
    """`count` points of [0, 1)^dims, one in each of `count` equal slices
    of every coordinate."""
    cols = []
    for _ in range(dims):
        perm = list(range(count))
        rng.shuffle(perm)
        cols.append([(k + rng.random()) / count for k in perm])
    return [list(p) for p in zip(*cols)]


def seeded_rooms(rng: random.Random, count: int):
    """`count` rooms as (mu, e1, e2) triples, Latin hypercube sampled in
    (mu1, mu2, b, log l) so that every seed covers the family alike."""
    out = []
    for u1, u2, ub, ul in latin(rng, count, 4):
        mu = (MU_LO + (MU_HI - MU_LO) * u1, MU_LO + (MU_HI - MU_LO) * u2)
        a = rng.uniform(0.0, 2.0 * math.pi)
        log_stretch = LOG_STRETCH * (2.0 * ul - 1.0)
        out.append((mu, *basis(a, math.pi * ub, log_stretch)))
    return out


def room_argv(mu, e1, e2) -> list[str]:
    """Room flags, each as --flag=value so negative coordinates parse."""
    return [f"--mu1={mu[0]!r}", f"--mu2={mu[1]!r}",
            f"--e1={e1[0]!r},{e1[1]!r}", f"--e2={e2[0]!r},{e2[1]!r}"]


def door_direction(mu, e1, e2) -> float:
    """Angle of the door V3 -> V4."""
    nu1, nu2 = math.exp(mu[0]), math.exp(mu[1])
    v3 = (e1[0] + e2[0] - e1[0] / nu1, e1[1] + e2[1] - e1[1] / nu1)
    v4 = (e2[0] / nu2, e2[1] / nu2)
    return math.atan2(v4[1] - v3[1], v4[0] - v3[0])


def inward_half_circle(mu, e1, e2) -> tuple[float, float]:
    """Directions (lo, lo + pi) entering the room through the door."""
    lo = door_direction(mu, e1, e2) % (2.0 * math.pi)
    return lo, lo + math.pi
