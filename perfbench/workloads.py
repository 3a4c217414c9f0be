"""Seeded op lists for the four workloads.

An op is one `dilatorus.cli.main(argv)` call.  A run repeats one pass
of ops: op i of every pass is the same slot, doing the same work on
inputs that differ only by a symmetry (a rotation of the room, for
classify and scan; a half-turn, for flow; none, for exact).  The slots
come from `random.Random(seed)` and the symmetries of pass r from
`random.Random(f"{seed}:{r}")`, so the same seed gives the same inputs.
A slot is timed by the median over its repeats.  Repeats would reward
a cache kept across `cli.main` calls; none may be added, since every
real CLI invocation is a fresh process and could never hit it.

All numeric flags are written as `--flag=value`, because argparse reads
a separate negative value such as `--e2 -0.37,1.0` as a flag.  The
CLI's `--seed` flag does nothing and is never passed.

Why each workload exists:

* classify: independent directions on seeded rooms that share no work,
  so the time is almost all ray tracing and first-return maps.  The
  path is bimodal (the collapsed-direction fallback sets the tail).  It
  never runs the cylinder-edge bisection or the flow monitor, so it is
  the no-change control for work on those.  Rooms are Latin hypercube
  samples and each room's directions lie one in each of ten equal arcs,
  so the mix of work varies little between seeds.
* scan: about 95% of the classifications in a scan are edge-bisection
  probes, so work on the bisection shows here and not in classify.
* flow: the only workload that reaches the flow monitor and its window
  probes, which at large t are many nearly identical classifications.
* exact: survivor measures, rotation numbers, orbit closures, reach and
  twist words on exact scalars with no ray tracing; the float twin of
  each measure runs the same renormalization code on floats.

Scan and flow cost is set by a room's cylinder structure, which changes
erratically with its parameters: one scan of a fresh random room takes
1.5 to 7.5 s, so a run that fits a handful of scans would swing by a
quarter between seeds.  They therefore use the two rooms the project's
baseline figures are quoted on, the square ln 2 room and the sheared
room, each turned by a seeded rotation.  Scans commute with rotations,
so every seed does the same work on different inputs, and each output
is checked against the committed scan of the unrotated room.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import rooms

WORKLOADS = ("classify", "scan", "flow", "exact")
# Seconds one pass takes on a shared 2-vCPU x86-64 host at its usual
# load (a quiet spell runs it in two thirds of that).  A run makes
# --seconds / PASS_SECONDS passes, so its op list depends on its
# arguments alone and two runs with one seed do identical work.
PASS_SECONDS = {"classify": 9.2, "scan": 6.3, "flow": 7.3, "exact": 4.0}
MIN_PASSES = 3

LN2 = math.log(2.0)
# (mu, e1, e2) of the rooms the baseline figures are quoted on
PANEL = {"square": ((LN2, LN2), (1.0, 0.0), (0.0, 1.0)),
         "sheared": ((0.4, 1.3), (1.0, 0.2), (0.3, 1.1))}
SCAN_EPS = 0.8
SCAN_BUDGET = 600
FLOW_EPS = SCAN_EPS
FLOW_BUDGET = SCAN_BUDGET
# Past t = 4 every window probe pulls back to within e^-t of one base
# direction, so their cost is all normal path or all collapsed path;
# few steps keep that seed-dependent share of the time small.
FLOW_STEPS = 2
FLOW_T_MAX = 12
# The directions of one room cost alike, so the pass's cost varies
# between seeds with the rooms drawn: over 40 seeds its ray-trace count
# had IQR/median 0.046 with 12 rooms of 10 directions, 0.057 with 12 of
# 20 and 0.038 with 24 of 10.
CLASSIFY_ROOMS = 24
CLASSIFY_DIRECTIONS = 10
DOOR_MARGIN = 0.05
MEASURE_DEPTH = 8
MEASURE_FLOAT_EXTRA_DEPTH = 3
# Slopes of the survivor measures: every p/q in [0.3, 0.9] with q in
# {5, 6, 7}, 11 values and 121 pairs.  One pair's cost varies twofold;
# a pass samples MEASURE_PAIRS of the pairs without replacement, so its
# total varies by a few percent between seeds.
MEASURE_SLOPES = sorted({Fraction(p, q) for q in (5, 6, 7)
                         for p in range(1, q) if 0.3 <= p / q <= 0.9})
MEASURE_PAIRS = 40
ROTNUM_PER_KIND = 10
ORBIT_CLOSURES = 24
REACHES = 12
TWISTS = 24
# The Birkhoff estimates at n iterations lie within 1/n of the rotation
# number, so two at 2^18 and 2^19 differ by under 6e-6: at this tol every
# rotnum settles inside the default 2^20 cap and none raises
# NonConvergence (the default 1e-10 fails on most of these inputs).
ROTNUM_TOL = 1e-5
# A reach contracts (mu1, mu2) by a Euclid-like algorithm whose length
# is the sum of the partial quotients of mu2/mu1, a quantity of infinite
# mean for a uniform ratio (Khinchin): from uniform starts one search in
# a few hundred ran ten times the median, one seed in three held a word
# of 10^5 letters or more, and about 4 in 10^4 exhausted the CLI's
# budget.  Starts therefore have a ratio with bounded partial quotients,
# one of these or its inverse, times a seeded scale; the target stays
# uniform.  At tol 1e-3 a word runs to ~1e5 letters; 1e-2 keeps it short.
REACH_RATIOS = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0,
                math.sqrt(3.0) - 1.0, (math.sqrt(5.0) + 1.0) / 2.0)
REACH_TOL = 1e-2


@dataclass
class Op:
    """One CLI call plus what the output checks need to know about it."""

    argv: list[str]
    kind: str
    info: dict = field(default_factory=dict)


def panel_scan_argv(mu, e1, e2) -> list[str]:
    return ["scan", *rooms.room_argv(mu, e1, e2),
            f"--eps={SCAN_EPS!r}", f"--budget={SCAN_BUDGET}"]


def classify_pass(slots: random.Random, turns: random.Random) -> list[Op]:
    ops = []
    for room in rooms.seeded_rooms(slots, CLASSIFY_ROOMS):
        lo, hi = rooms.inward_half_circle(*room)
        alpha = turns.uniform(0.0, 2.0 * math.pi)
        turned = rooms.room_argv(*rooms.rotated(room, alpha))
        # one direction in each of CLASSIFY_DIRECTIONS equal arcs, so every
        # seed covers the half circle alike
        arc = (hi - lo - 2.0 * DOOR_MARGIN) / CLASSIFY_DIRECTIONS
        for j in range(CLASSIFY_DIRECTIONS):
            theta = lo + DOOR_MARGIN + arc * (j + slots.random())
            ops.append(Op(["classify", *turned, f"--theta={theta + alpha!r}"],
                          "classify"))
    return ops


def scan_pass(slots: random.Random, turns: random.Random) -> list[Op]:
    ops = []
    for name, room in PANEL.items():
        alpha = turns.uniform(0.0, 2.0 * math.pi)
        ops.append(Op(panel_scan_argv(*rooms.rotated(room, alpha)), "scan",
                      {"base": name, "alpha": alpha}))
    return ops


def _flow_argv(mu, e1, e2) -> list[str]:
    return ["flow", *rooms.room_argv(mu, e1, e2), f"--t-max={FLOW_T_MAX}",
            f"--steps={FLOW_STEPS}", f"--eps={FLOW_EPS!r}",
            f"--budget={FLOW_BUDGET}"]


def flow_pass(slots: random.Random, turns: random.Random) -> list[Op]:
    # The half-turn -I commutes with the flow, so each repeat takes the
    # room or its half-turned copy, which do the same work.
    half_turn = math.pi * turns.randrange(2)
    angles = {
        # door horizontal: the room of acceptance criterion 10b
        "square": -rooms.door_direction(*PANEL["square"]),
        "sheared": slots.uniform(0.0, 2.0 * math.pi),
    }
    return [Op(_flow_argv(*rooms.rotated(PANEL[name], alpha + half_turn)), "flow",
               {"base": name, "alpha": alpha + half_turn})
            for name, alpha in angles.items()]


def _rational(rng, lo: float, hi: float, denominators) -> Fraction:
    q = rng.choice(denominators)
    p = rng.randint(math.ceil(lo * q), math.floor(hi * q))
    return Fraction(p, q)


def _quadratic(rng, d: int, lo: float, hi: float) -> tuple[Fraction, Fraction]:
    """(a, b) with a + b*sqrt(d) in [lo, hi] and small denominators."""
    b = Fraction(rng.choice((-1, 1)), rng.randint(3, 9))
    target = rng.uniform(lo, hi) - float(b) * math.sqrt(d)
    return Fraction(round(target * 8), 8), b


def _triple(a: Fraction, b: Fraction, d: int) -> str:
    return f"{a},{b},{d}"


def _twist_word(rng) -> str:
    """Positive moves followed by undoing some of them: always admissible."""
    word = "".join(rng.choice("AB") for _ in range(rng.randint(2, 4)))
    undo = word[len(word) - rng.randint(0, 2):]
    return word + undo[::-1].swapcase()


def _reach_start(rng) -> tuple[float, float]:
    """(mu1, mu2) in [0.3, 1.2]^2 with mu2/mu1 in REACH_RATIOS or inverted."""
    r = rng.choice(REACH_RATIOS)
    if rng.random() < 0.5:
        r = 1.0 / r
    s = rng.uniform(max(0.3, 0.3 / r), min(1.2, 1.2 / r))
    return s, s * r


def exact_pass(rng: random.Random, _turns: random.Random) -> list[Op]:
    ops = []
    pairs = [(a, b) for a in MEASURE_SLOPES for b in MEASURE_SLOPES]
    for ra, rb in rng.sample(pairs, MEASURE_PAIRS):
        ops.append(Op(["measure", f"--rhoA={ra}", f"--rhoB={rb}",
                       f"--n={MEASURE_DEPTH}", "--exact"], "measure_exact"))
        floats = [f"--rhoA={float(ra)!r}", f"--rhoB={float(rb)!r}"]
        ops.append(Op(["measure", *floats, f"--n={MEASURE_DEPTH}"],
                      "measure_float", {"twin": len(ops) - 1}))
        ops.append(Op(["measure", *floats,
                       f"--n={MEASURE_DEPTH + MEASURE_FLOAT_EXTRA_DEPTH}"],
                      "measure_deep"))
    # most of these leave the exact orbit search for the float fallback
    tol = f"--tol={ROTNUM_TOL!r}"
    for _ in range(ROTNUM_PER_KIND):
        ra = _rational(rng, 1.2, 3.5, (2, 3, 4, 5, 7))
        rb = _rational(rng, 0.1, 0.9, (3, 4, 5, 8))
        ops.append(Op(["rotnum", f"--rhoA-exact={ra},0,0",
                       f"--rhoB-exact={rb},0,0", tol], "rotnum"))
    for _ in range(ROTNUM_PER_KIND):
        d = rng.choice((2, 3, 5, 7))
        ops.append(Op(["rotnum",
                       f"--rhoA-exact={_triple(*_quadratic(rng, d, 1.2, 3.0), d)}",
                       f"--rhoB-exact={_triple(*_quadratic(rng, d, 0.2, 0.8), d)}",
                       tol], "rotnum"))
    for _ in range(ORBIT_CLOSURES):
        d = rng.choice((2, 3, 5, 7))
        mu1 = _triple(*_quadratic(rng, d, 0.3, 1.5), d)
        if rng.random() < 0.25:
            mu2 = f"{_rational(rng, 0.3, 1.5, (2, 3, 5, 7))},0,0"
        else:
            mu2 = _triple(*_quadratic(rng, d, 0.3, 1.5), d)
        ops.append(Op(["orbit-closure", f"--mu1-exact={mu1}",
                       f"--mu2-exact={mu2}"], "orbit_closure"))
    for _ in range(REACHES):
        mu = _reach_start(rng)
        target = (rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
        ops.append(Op(["reach", f"--mu1={mu[0]!r}", f"--mu2={mu[1]!r}",
                       f"--target1={target[0]!r}", f"--target2={target[1]!r}",
                       f"--tol={REACH_TOL!r}"], "reach",
                      {"mu": mu, "target": target, "tol": REACH_TOL}))
    for _ in range(TWISTS):
        if rng.random() < 0.5:
            mus = [f"{_rational(rng, 0.3, 1.2, (2, 3, 5, 7))},0,0"
                   for _ in range(2)]
        else:
            d = rng.choice((2, 3, 5, 7))
            mus = [_triple(*_quadratic(rng, d, 0.4, 1.2), d) for _ in range(2)]
        ops.append(Op(["twist", f"--mu1-exact={mus[0]}",
                       f"--mu2-exact={mus[1]}", f"--word={_twist_word(rng)}"],
                      "twist"))
    return ops


_PASSES = {"classify": classify_pass, "scan": scan_pass, "flow": flow_pass,
           "exact": exact_pass}


def pass_count(workload: str, seconds: float) -> int:
    """Passes in a run of about `seconds`, at least MIN_PASSES."""
    return max(MIN_PASSES, int(seconds / PASS_SECONDS[workload]))


def make_pass(workload: str, seed: int, index: int) -> list[Op]:
    """The ops of pass `index` of a run with `seed`."""
    return _PASSES[workload](random.Random(seed),
                             random.Random(f"{seed}:{index}"))
