"""Geodesic flow, interval tracking, and the divergence monitor."""

import math
import random

import pytest

import oracles
from dilatorus import surface, teichmuller
from dilatorus.cli import _flow_csv, _flow_payload
from dilatorus.geometry import (SL2Matrix, geodesic_matrix,
                                projective_action, square_room, wrap_2pi)
from dilatorus.surface import UNDECIDED_ERRORS, find_cylinders
from dilatorus.teichmuller import (DEFAULT_THETA_TOL, distortion,
                                   divergence_monitor, flow,
                                   track_direction_interval)

SEED = 20260817
LN2 = math.log(2.0)
ROOM = square_room(LN2, LN2)


# --- flow and distortion ---

def test_flow_scales_basis_and_keeps_dilation_parameters():
    t = 1.3
    moved = flow(ROOM, t)
    assert moved.params == ROOM.params
    e1 = moved.e1.as_floats()
    e2 = moved.e2.as_floats()
    assert e1 == pytest.approx((math.exp(-t / 2.0), 0.0))
    assert e2 == pytest.approx((0.0, math.exp(t / 2.0)))


def test_flow_is_a_one_parameter_group():
    a = flow(flow(ROOM, 0.7), 0.5)
    b = flow(ROOM, 1.2)
    assert a.e1.as_floats() == pytest.approx(b.e1.as_floats())
    assert a.e2.as_floats() == pytest.approx(b.e2.as_floats())


def test_distortion_closed_form():
    assert distortion(0.0) == 1.0
    for t in (0.0, 0.3, 1.0, 7.5, 30.0):
        assert distortion(t) == pytest.approx(2.0 / (1.0 + math.exp(-2.0 * t)))


def test_distortion_monotone_and_bounded():
    grid = [30.0 * k / 3000 for k in range(3001)]
    vals = [distortion(t) for t in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(1.0 <= v <= 2.0 for v in vals)
    with pytest.raises(ValueError):
        distortion(-0.1)


# --- interval tracking ---

def test_tracked_interval_matches_endpoint_action():
    rng = random.Random(SEED)
    for _ in range(200):
        m = oracles.random_sl2(rng)
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        t2 = t1 + rng.uniform(0.05, 2.5)
        d1, d2 = track_direction_interval(m, (t1, t2))
        assert 0.0 < d2 - d1 < math.pi
        assert wrap_2pi(d1 - projective_action(m, t1)) == pytest.approx(
            0.0, abs=1e-9) or wrap_2pi(d1 - projective_action(m, t1)
                                       ) == pytest.approx(2.0 * math.pi)
        assert (d2 - d1) == pytest.approx(
            wrap_2pi(projective_action(m, t2) - projective_action(m, t1)))


def test_tracked_interval_contains_interior_images():
    rng = random.Random(SEED + 1)
    for _ in range(100):
        m = oracles.random_sl2(rng)
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        t2 = t1 + rng.uniform(0.1, 2.0)
        d1, d2 = track_direction_interval(m, (t1, t2))
        mid = projective_action(m, 0.5 * (t1 + t2))
        offset = wrap_2pi(mid - d1)
        assert -1e-9 <= offset <= (d2 - d1) + 1e-9


def test_tracked_interval_rejects_degenerate_input():
    m = geodesic_matrix(1.0)
    with pytest.raises(ValueError):
        track_direction_interval(m, (1.0, 1.0))
    with pytest.raises(ValueError):
        track_direction_interval(m, (0.0, math.pi))


def test_tracked_interval_image_length_rounded_to_pi_is_clamped():
    # at t = 80 an interval straddling the horizontal maps onto the
    # vertical semi-lines up to 1e-35, and its image length rounds to pi
    d1, d2 = track_direction_interval(geodesic_matrix(80.0), (-0.2, 0.2))
    assert d2 - d1 == pytest.approx(math.pi)


def test_tracked_interval_with_swapped_endpoint_images_is_clamped_to_0():
    # the images of an interval one ulp long cross by an ulp, and their
    # difference wraps to a length near 2*pi; it is an arc of length 0
    m = SL2Matrix.rotation(1.0) @ geodesic_matrix(20.0)
    t1 = 1.00038
    d1, d2 = track_direction_interval(m, (t1, math.nextafter(t1, 2.0)))
    assert d1 == d2 == projective_action(m, t1)


def test_flow_expands_angles_away_from_horizontal():
    g = geodesic_matrix(3.0)
    d1, d2 = track_direction_interval(g, (-0.2, 0.2))
    assert d2 - d1 > 0.4


# --- divergence monitor ---

def test_monitor_zero_time_is_one_flagless_sample():
    report = divergence_monitor(ROOM, 0.0, 0, eps_angle=0.3, budget=400)
    assert len(report.samples) == 1
    only = report.samples[0]
    assert only.t == 0.0
    assert only.verdict_flags == frozenset()
    assert not report.criterion1 and not report.criterion2
    assert only.theta_sup > 0.0
    assert only.max_multiplier >= 4.0


def test_monitor_sample_grid_and_report_shape():
    report = divergence_monitor(ROOM, 1.0, 2, eps_angle=0.3, budget=400)
    assert [s.t for s in report.samples] == pytest.approx([0.0, 0.5, 1.0])
    assert all(s.theta_sup > 0.0 for s in report.samples)
    payload = _flow_payload(report, DEFAULT_THETA_TOL)
    assert payload["theta_tol"] == DEFAULT_THETA_TOL > 0.0
    assert set(payload) == {"criterion1", "criterion2", "theta_tol",
                            "multiplier_threshold", "tracked", "samples"}
    assert len(payload["samples"]) == 3
    for row in payload["samples"]:
        assert set(row) == {"t", "theta_sup", "max_multiplier", "flags",
                            "budget_exhausted"}
    for row in payload["tracked"]:
        assert set(row) == {"interval", "word", "multiplier"}


def test_monitor_tracks_the_baseline_scan_cylinders():
    report = divergence_monitor(ROOM, 0.0, 0, eps_angle=0.3, budget=400)
    scan = find_cylinders(ROOM, 0.3, budget=400)
    assert scan.cylinders
    assert _flow_payload(report, DEFAULT_THETA_TOL)["tracked"] == [
        {"interval": [c.theta1, c.theta2], "word": c.word,
         "multiplier": c.multiplier} for c in scan.cylinders]


def test_monitor_csv_round_trips_floats():
    report = divergence_monitor(ROOM, 0.0, 0, eps_angle=0.3, budget=400)
    text = _flow_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "t,theta_sup,max_multiplier,flags,budget_exhausted"
    assert len(lines) == 1 + len(report.samples)
    first = lines[1].split(",")
    assert float(first[0]) == report.samples[0].t
    assert float(first[1]) == report.samples[0].theta_sup
    assert float(first[2]) == report.samples[0].max_multiplier


def test_monitor_multiplier_threshold_fires_criterion2(monkeypatch):
    # the widest base cylinder already has multiplier 4
    monkeypatch.setattr(teichmuller, "MULTIPLIER_THRESHOLD", 2.0)
    report = divergence_monitor(ROOM, 0.0, 0, eps_angle=0.3, budget=400)
    assert report.criterion2
    assert "Criterion2Fired" in report.samples[0].verdict_flags


def test_monitor_trend_flag_needs_at_least_two_samples():
    # a tolerance covering every angle isolates the trend test itself
    report = divergence_monitor(ROOM, 0.6, 1, eps_angle=0.3, budget=400,
                                theta_tol=4.0)
    assert not report.samples[0].verdict_flags
    assert "Criterion1Fired" in report.samples[-1].verdict_flags
    assert report.criterion1


def test_window_probes_drop_undecided_directions_and_report_bugs(monkeypatch):
    def raising(error):
        def classify(room, theta, budget):
            raise error("from classify_direction")
        return classify

    for error in UNDECIDED_ERRORS:
        monkeypatch.setattr(teichmuller, "classify_direction", raising(error))
        assert teichmuller._window_hits(ROOM, 1.0, 0.3, 400) == ([], False)
    monkeypatch.setattr(teichmuller, "classify_direction", raising(ValueError))
    with pytest.raises(ValueError, match="from classify_direction"):
        teichmuller._window_hits(ROOM, 1.0, 0.3, 400)


def test_monitor_runs_past_the_time_where_image_lengths_round_to_pi():
    # the tracked '' cylinder straddles the horizontal; from t of about
    # 40 on, its image length rounds to pi
    report = divergence_monitor(ROOM, 120.0, 4, 0.8, 600)
    assert [s.t for s in report.samples] == [0.0, 30.0, 60.0, 90.0, 120.0]
    assert all(s.theta_sup <= math.pi for s in report.samples)
    assert report.criterion1


def test_monitor_rejects_bad_arguments():
    with pytest.raises(ValueError):
        divergence_monitor(ROOM, -1.0, 2, eps_angle=0.3, budget=400)
    with pytest.raises(ValueError):
        divergence_monitor(ROOM, 1.0, 2, eps_angle=0.0, budget=400)


def _counted_classifications(monkeypatch, *modules) -> list[float]:
    """The thetas of every classification made from here on through the
    `classify_direction` binding of each of `modules`: surface's serves
    the baseline scan, teichmuller's the window probes."""
    thetas = []
    for module in modules:
        real = module.classify_direction

        def counted(room, theta, budget, real=real):
            thetas.append(theta)
            return real(room, theta, budget=budget)

        monkeypatch.setattr(module, "classify_direction", counted)
    return thetas


def test_an_empty_window_probes_nothing(monkeypatch):
    # an eps_angle of pi/2 or more leaves no flowed angle to probe; a
    # window of negative half-width would classify 2 directions at eps
    # 3.0 and report hits of negative extent
    probes = _counted_classifications(monkeypatch, teichmuller)
    for eps in (math.pi / 2.0, 3.0, 10.0):
        assert teichmuller._window_hits(ROOM, 6.0, eps, 400) == (
            [], False)
    assert probes == []
    hits, _ = teichmuller._window_hits(ROOM, 6.0, 1.5, 400)
    assert len(probes) == 2 and all(extent > 0 for extent, _ in hits)
    del probes[:]
    report = divergence_monitor(ROOM, 6.0, 1, eps_angle=3.0, budget=400)
    assert len(report.samples) == 2 and probes == []


@pytest.mark.parametrize("eps_angle", [0.0, -1.0, math.nan, math.inf])
def test_monitor_refuses_an_eps_angle_in_its_baseline_scan(monkeypatch,
                                                          eps_angle):
    # find_cylinders refuses it before the baseline scan and any window
    # probe classify a direction
    thetas = _counted_classifications(monkeypatch, surface, teichmuller)
    with pytest.raises(ValueError, match="^eps_angle must be positive and "
                                         "finite$"):
        divergence_monitor(ROOM, 1.0, 2, eps_angle=eps_angle, budget=400)
    assert thetas == []


@pytest.mark.parametrize("t_max, theta_tol", [
    (math.nan, 0.05), (math.inf, 0.05), (1.0, -1.0), (1.0, math.nan),
    (1.0, math.inf),
])
def test_monitor_refuses_non_finite_time_and_negative_tolerance(t_max,
                                                                theta_tol):
    # a NaN t_max used to print "t": NaN samples with criterion 1 set
    with pytest.raises(ValueError, match="finite and nonnegative"):
        divergence_monitor(ROOM, t_max, 2, eps_angle=0.3, budget=400,
                           theta_tol=theta_tol)
