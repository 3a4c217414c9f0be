"""Acceptance suite: one test per shipped guarantee.

Each test asserts the stated tolerances and then prints a single PASS
line with the measured quantities (run pytest with -s to see them; -v
shows the same pass/fail status per criterion).  Budgets are sized so
every item finishes well inside a minute on a laptop.
"""

import math
import random
from fractions import Fraction

import oracles
from dilatorus.errors import VertexHit
from dilatorus.geometry import (DilationParams, SL2Matrix, apply_sl2,
                                projective_action, square_room)
from dilatorus.intervalmaps import (TwoSlopeMap, attracting_cycle_in_hole,
                                    evaluate)
from dilatorus.quadratics import QuadraticNumber
from dilatorus.rauzy import classify_step, induce, subdivision, survivor_measure
from dilatorus.surface import (classify_direction, find_cylinders,
                               rotation_number)
from dilatorus.teichmuller import distortion, divergence_monitor, flow
from dilatorus.twists import (gauss_contraction, holonomy_class, mu_after,
                              reach_target, twist_mu)

SEED = 20260817
HALF = Fraction(1, 2)
LN2 = math.log(2.0)


def report(label: str, detail: str) -> None:
    print(f"PASS {label}: {detail}")


def region_lengths(sub):
    left = sub.left[1] - sub.left[0]
    hole = sub.hole[1] - sub.hole[0] if sub.hole is not None else 0
    right = sub.right[1] - sub.right[0]
    return left, hole, right


def test_criterion_01_subdivision_formulas():
    rng = random.Random(SEED + 1)
    worst = 0.0
    for _ in range(1000):
        ra = math.exp(rng.uniform(-2.0, 2.0))
        rb = math.exp(rng.uniform(-2.0, 2.0))
        left, hole, right = region_lengths(subdivision(ra, rb))
        want_hole = max(0.0, 1.0 - ra * rb) / ((1.0 + ra) * (1.0 + rb))
        worst = max(worst,
                    abs(left - rb / (1.0 + rb)),
                    abs(hole - want_hole),
                    abs(right - ra / (1.0 + ra)))
        assert worst <= 1e-12
    third = Fraction(1, 3)
    assert region_lengths(subdivision(HALF, HALF)) == (third, third, third)
    report("criterion 1", f"1000 random subdivisions, worst length error "
                          f"{worst:.3e}; (1/2, 1/2) exactly thirds")


def test_criterion_02_induction_matches_first_return_oracle():
    def closed_form(ra, rb, xt):
        return tuple(map(float, induce(TwoSlopeMap(ra, rb, xt)).induced))

    worst = oracles.compare_induction_to_simulation(closed_form, 1000,
                                                    seed=SEED + 2)
    assert worst <= 1e-9

    # slope rule, exactly, on the same distribution lifted to rationals
    rng = random.Random(SEED + 22)
    checked = 0
    while checked < 1000:
        ra_f, rb_f, xt_f, _ = oracles.random_winner_triple(rng)
        ra, rb, xt = Fraction(ra_f), Fraction(rb_f), Fraction(xt_f)
        tsm = TwoSlopeMap(ra, rb, xt)
        letter = classify_step(*tsm)
        if letter not in ("L", "R"):
            continue
        step = induce(tsm)
        if letter == "R":
            assert (step.induced.rho_a, step.induced.rho_b) == (ra, ra * rb)
        else:
            assert (step.induced.rho_a, step.induced.rho_b) == (ra * rb, rb)
        checked += 1
    report("criterion 2", f"1000 induced maps within {worst:.3e} of "
                          "simulated first returns; slope rule exact on "
                          "1000 rational triples")


def test_criterion_03_hole_dynamics():
    cycle = attracting_cycle_in_hole(TwoSlopeMap(HALF, HALF, HALF))
    assert set(cycle.points) == {Fraction(1, 6), Fraction(5, 6)}
    assert cycle.period == 2
    assert cycle.multiplier == Fraction(1, 4)

    rng = random.Random(SEED + 3)
    tsm = TwoSlopeMap(0.5, 0.5, 0.5)
    worst_steps = 0
    for _ in range(100):
        x = rng.random()
        for step in range(10 ** 4):
            if min(abs(x - 1.0 / 6.0), abs(x - 5.0 / 6.0)) <= 1e-8:
                break
            x = evaluate(tsm, x)
        else:
            raise AssertionError(f"start {x} did not reach the cycle "
                                 "within 10^4 iterations")
        worst_steps = max(worst_steps, step)
    report("criterion 3", "2-cycle {1/6, 5/6} with multiplier 1/4 exact; "
                          f"100 random starts within 1e-8 in <= {worst_steps} "
                          "iterations")


def test_criterion_04_survivor_measure_decay():
    values = [survivor_measure(HALF, HALF, n) for n in range(13)]
    assert values[:3] == [Fraction(1), Fraction(2, 3), Fraction(8, 21)]
    bound = Fraction(2, 3)
    assert all(values[n] <= bound ** n for n in range(13))
    report("criterion 4", "survivor measures 1, 2/3, 8/21 exact; "
                          "<= (2/3)^n up to depth 12 "
                          f"(depth-12 value {float(values[12]):.3e})")


def test_criterion_05_classification_equivariance():
    rng = random.Random(SEED + 5)
    budget = 700
    checked = cylinders = 0
    worst_rel = 0.0
    while checked < 200:
        room = square_room(rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2))
        lo, hi = room.inward_directions()
        theta = rng.uniform(lo + 0.05, hi - 0.05)
        m = oracles.random_sl2(rng)
        try:
            base = classify_direction(room, theta, budget=budget)
            moved = classify_direction(apply_sl2(m, room),
                                       projective_action(m, theta),
                                       budget=budget)
        except VertexHit:
            continue
        if (base.kind is not moved.kind
                and "cantor_like" in (base.kind, moved.kind)):
            # a truncated verdict reflects the budget, not the direction
            base = classify_direction(room, theta, budget=4 * budget)
            moved = classify_direction(apply_sl2(m, room),
                                       projective_action(m, theta),
                                       budget=4 * budget)
        assert base.kind is moved.kind
        if base.kind == "cylinder":
            rel = abs(moved.multiplier - base.multiplier) / base.multiplier
            assert rel <= 1e-9
            worst_rel = max(worst_rel, rel)
            cylinders += 1
        checked += 1
    report("criterion 5", f"200 random (matrix, room, direction) verdicts "
                          f"invariant; {cylinders} cylinder multipliers "
                          f"within rel {worst_rel:.3e}")


def test_criterion_06_twist_generators():
    one = DilationParams(Fraction(1), Fraction(0))
    two = DilationParams(Fraction(0), Fraction(1))

    def matrix_of(g):
        c1, c2 = twist_mu(g, one), twist_mu(g, two)
        return ((c1.mu1, c2.mu1), (c1.mu2, c2.mu2))

    assert matrix_of("A") == ((1, 0), (1, 1))
    assert matrix_of("B") == ((1, 1), (0, 1))
    assert matrix_of("a") == ((1, 0), (-1, 1))
    assert matrix_of("b") == ((1, -1), (0, 1))

    rng = random.Random(SEED + 6)
    for _ in range(250):
        params = DilationParams(Fraction(rng.randint(1, 60), rng.randint(1, 9)),
                                Fraction(rng.randint(1, 60), rng.randint(1, 9)))
        for g in "AaBb":
            there = twist_mu(g, params)
            back = twist_mu(g.swapcase(), there)
            assert (back.mu1, back.mu2) == (params.mu1, params.mu2)
    report("criterion 6", "mu-action matrices as expected; 1000 generator "
                          "round-trips exact on rationals")


def test_criterion_07_density_machinery():
    start = DilationParams(QuadraticNumber(1, 0, 2), QuadraticNumber(0, 1, 2))
    contraction = gauss_contraction(start, 7e-4)
    m1, m2 = contraction.final.as_floats()
    assert math.hypot(m1, m2) < 1e-3
    mu_after(contraction.word, start)  # admissible: no refusal

    rng = random.Random(SEED + 7)
    params = DilationParams(1.0, math.sqrt(2.0))
    worst_err = 0.0
    longest = 0
    for _ in range(20):
        target = (rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
        rep = reach_target(params, target, 1e-2, budget=10 ** 5)
        assert rep.final_error <= 1e-2
        mu_after(rep.word, params)  # admissible: no refusal
        worst_err = max(worst_err, rep.final_error)
        longest = max(longest, len(rep.word))
    report("criterion 7", f"contraction to norm {math.hypot(m1, m2):.3e} "
                          f"fully admissible; 20 targets reached, worst "
                          f"error {worst_err:.3e}, longest word {longest}")


def test_criterion_08_orbit_closure_dichotomy():
    rational = DilationParams(Fraction(1), Fraction(2))
    irrational = DilationParams(QuadraticNumber(1, 0, 2),
                                QuadraticNumber(0, 1, 2))
    hc_rat = holonomy_class(rational)
    hc_irr = holonomy_class(irrational)
    assert hc_rat.verdict == "discrete"
    assert hc_rat.orbit_closure == "closed"
    assert hc_irr.verdict == "non_discrete"
    assert hc_irr.orbit_closure == "dense"

    rng = random.Random(SEED + 8)
    letters = "AaBb"
    for start, want in ((rational, "discrete"),
                        (irrational, "non_discrete")):
        for _ in range(50):
            cur = start
            for _ in range(rng.randint(1, 12)):
                cur = twist_mu(rng.choice(letters), cur)
            assert holonomy_class(cur).verdict is want
    report("criterion 8", "(1, 2) closed and (1, sqrt2) dense; verdicts "
                          "stable under 100 random twist words")


def test_criterion_09_flow_distortion_bound():
    assert distortion(0.0) == 1.0
    worst = max(distortion(30.0 * k / 2999.0) for k in range(3000))
    assert worst <= 2.0 + 1e-9
    report("criterion 9", f"distortion(0) = 1 and sup over [0, 30] grid "
                          f"= {worst:.12f} <= 2 + 1e-9")


def test_criterion_10a_horizontal_cylinder_trend():
    base = square_room(LN2, LN2)
    scan = find_cylinders(base, 0.3, budget=600)
    fat = max(scan.cylinders, key=lambda c: c.angle)
    mid = 0.5 * (fat.theta1 + fat.theta2)
    room = apply_sl2(SL2Matrix.rotation(-mid), base)

    mult0 = classify_direction(flow(room, 0.0), 0.0, budget=800).multiplier
    drift = 0.0
    for t in (3.0, 6.0, 9.0, 12.0):
        v = classify_direction(flow(room, t), 0.0, budget=800)
        assert v.kind == "cylinder"
        drift = max(drift, abs(v.multiplier - mult0) / mult0)
    assert drift < 1e-9

    rep = divergence_monitor(room, 12.0, 8, eps_angle=0.05, budget=800)
    final = rep.samples[-1].theta_sup
    assert final > 3.0
    report("criterion 10a", f"horizontal-cylinder room: theta_sup {final:.4f}"
                            f" > 3.0 at t = 12, multiplier drift {drift:.2e}")


def test_criterion_10b_door_horizontal_trend():
    base = square_room(LN2, LN2)
    room = apply_sl2(SL2Matrix.rotation(-base.door_direction()), base)
    rep = divergence_monitor(room, 12.0, 8, eps_angle=0.05, budget=800)
    final = rep.samples[-1].theta_sup
    assert final < 0.05
    report("criterion 10b", f"door-horizontal room: theta_sup {final:.3e} "
                            "< 0.05 at t = 12")


def _deepest_cylinder_direction(room, levels: int = 11, budget: int = 1200):
    """Nested refinement toward narrower, higher-multiplier cylinders."""
    lo, hi = room.inward_directions()
    a, b = lo + 0.1, hi - 0.1
    deepest = None
    for _ in range(levels):
        m = 28
        step = (b - a) / m
        samples = []
        for k in range(m):
            theta = a + step * (k + 0.5)
            try:
                v = classify_direction(room, theta, budget=budget)
            except VertexHit:
                v = None
            samples.append(v)
        runs = []
        k = 0
        while k < m:
            v = samples[k]
            if v is None or v.kind != "cylinder":
                k += 1
                continue
            k2 = k
            while (k2 + 1 < m and samples[k2 + 1] is not None
                   and samples[k2 + 1].kind == "cylinder"
                   and abs(samples[k2 + 1].multiplier - v.multiplier)
                   <= 1e-9 * v.multiplier):
                k2 += 1
            runs.append((v.multiplier, k, k2))
            k = k2 + 1
        if not runs:
            break
        mult, k1, k2 = max(runs)
        deepest = (a + step * (0.5 * (k1 + k2) + 0.5), mult)
        # descend just past the widest run, where the next level nests
        edge_in = a + step * (k2 + 0.5)
        a, b = edge_in, min(b, edge_in + 2.5 * step)
    return deepest


def test_criterion_10c_renormalizable_multiplier_growth():
    base = square_room(LN2, LN2)
    theta_star, _ = _deepest_cylinder_direction(base)
    verdict = classify_direction(base, theta_star, budget=2000)
    assert verdict.kind == "cylinder"
    assert len(verdict.word) >= 8

    room = apply_sl2(SL2Matrix.rotation(-theta_star), base)
    rep = divergence_monitor(room, 12.0, 12, eps_angle=0.05, budget=2000)
    start = rep.samples[0].max_multiplier
    peak = max(s.max_multiplier for s in rep.samples)
    assert peak >= 1e3 * start
    report("criterion 10c", f"{len(verdict.word)}-times-renormalizable "
                            f"direction: max multiplier {start:.3g} -> "
                            f"{peak:.3g} (x{peak / start:.0f} >= 1e3)")


def test_criterion_11_rotation_number():
    assert rotation_number(Fraction(2), HALF) == HALF

    values = [float(rotation_number(2.5, 0.3, tol=1e-8, max_iter=2 ** k))
              for k in (16, 17, 18)]
    spread = max(values) - min(values)
    assert spread <= 1e-8
    assert abs(float(rotation_number(2.0, 0.5, tol=1e-8)) - 0.5) <= 1e-8
    report("criterion 11", "(2, 1/2) -> 1/2 exactly; cap-doubled estimates "
                           f"agree within {spread:.3e} <= 1e-8")
