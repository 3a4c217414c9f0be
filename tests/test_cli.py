"""Command-line surface: schemas, wrapper fidelity, exit codes."""

import functools
import importlib
import inspect
import json
import math
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from dilatorus import cli, rauzy, teichmuller
from dilatorus.cli import MAX_MEASURE_DEPTH, canonical_json, main
from dilatorus.geometry import (Room, SL2Matrix, apply_sl2, build_room,
                                canonicalize)
from dilatorus.rauzy import EXACT_MEASURE_MAX_LEAVES, survivor_measure
from dilatorus.surface import (classify_direction, find_cylinders,
                               rotation_number, trace_ray)
from dilatorus.teichmuller import MonitorReport, divergence_monitor
from dilatorus.twists import apply_word, reach_target, word_from_string

LN2 = math.log(2.0)
MU_FLAGS = ["--mu1", str(LN2), "--mu2", str(LN2)]
SRC = Path(__file__).resolve().parent.parent / "src"
# a fresh interpreter that runs the CLI on its argv from SRC, as
# tests/test_cold_start.py does, so that a hang ends in a timeout
CLI_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
from dilatorus.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def room_payload(room) -> dict:
    """The room document of a float room, built from the library's values."""
    return {"e1": list(room.e1.as_floats()), "e2": list(room.e2.as_floats()),
            "mu": list(room.params.as_floats()),
            "vertices": [list(v.as_floats()) for v in room.vertices()],
            "nu": list(room.params.nu())}


# --- wrapper fidelity ---

def test_room_output_is_canonical_library_payload(capsys):
    code, out, err = run(capsys, ["room"] + MU_FLAGS)
    assert code == 0 and err == ""
    room = canonicalize(build_room((1.0, 0.0), (0.0, 1.0), (LN2, LN2)))
    assert out == canonical_json(room_payload(room)) + "\n"


def test_room_accepts_exact_parameters(capsys):
    code, out, _ = run(capsys, ["room", "--mu1-exact", "1,0,2",
                                "--mu2-exact", "0,1,2"])
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == pytest.approx([1.0, math.sqrt(2.0)])
    # two quadratic fields still make a valid room
    code, _, _ = run(capsys, ["room", "--mu1-exact", "1,1/2,2",
                              "--mu2-exact", "1,1/3,3"])
    assert code == 0


def test_act_rotation_matches_library(capsys):
    code, out, _ = run(capsys, ["act", "--rotate", "0.4"] + MU_FLAGS)
    assert code == 0
    room = build_room((1.0, 0.0), (0.0, 1.0), (LN2, LN2))
    moved = apply_sl2(SL2Matrix.rotation(0.4), room)
    assert out == canonical_json(room_payload(moved)) + "\n"


def test_twist_reports_parameter_path(capsys):
    code, out, _ = run(capsys, ["twist", "--word", "AB",
                                "--mu1", "1", "--mu2", "2"])
    assert code == 0
    data = json.loads(out)
    result = apply_word(word_from_string("AB"),
                        build_room((1.0, 0.0), (0.0, 1.0), (1.0, 2.0)))
    assert data["word"] == "AB"
    assert data["mu_path"] == [list(p) for p in result.mu_path]


def test_reach_search_reports_error_below_tolerance(capsys):
    code, out, _ = run(capsys, ["reach", "--mu1", "1",
                                "--mu2", str(math.sqrt(2.0)),
                                "--target1", "0.5", "--target2", "0.5"])
    assert code == 0
    data = json.loads(out)
    assert data["final_error"] < 1e-2
    assert set(data) == {"word", "mu_trajectory", "final_error"}


def run_in_subprocess(argv):
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", CLI_PROBE,
                           str(SRC), *argv],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_reach_skips_a_float_noise_convergent_past_the_budget():
    # 929314208822482/500399958596721, a convergent of the float 1.3/0.7,
    # has a partial quotient of about 7.1e13: a spread of that size was
    # once built letter by letter before the budget was read
    code, out, _ = run_in_subprocess([
        "reach", "--mu1-exact=0,1,2", "--mu2-exact=1,0,0", "--target1=1.3",
        "--target2=0.7", "--budget=3000"])
    assert code == 3
    assert json.loads(out)["error"] == "BudgetExhausted"


def test_reach_meets_the_contraction_tolerance_refusal_past_a_long_spread():
    # past the spread of 929314208822482/500399958596721, which passes the
    # budget unbuilt, the next convergent's contraction tolerance is not
    # above the float spacing of the start: the search stops there and
    # reports exhaustion, not the refusal that a first contraction gets
    code, out, err = run_in_subprocess([
        "reach", "--mu1=1e-3", "--mu2=1.4142135623730951e-3",
        "--target1=1.3", "--target2=0.7", "--budget=200"])
    assert code == 3 and err == ""
    assert json.loads(out)["error"] == "BudgetExhausted"


@pytest.mark.parametrize("target", [["--target1=1e308", "--target2=1"],
                                    ["--target1=1", "--target2=1e-308"]])
def test_reach_skips_a_convergent_past_the_float_range(capsys, target):
    # the one convergent, 10^308/1, is completed by b = 10^308 - 1 and
    # d = 1, whose sum no float holds: no eta or prediction exists for it
    code, out, err = run(capsys, ["reach", "--mu1=0.7", "--mu2=1.1",
                                  "--budget=3000", *target])
    assert code == 3 and err == ""
    assert json.loads(out)["error"] == "BudgetExhausted"


def test_room_canonicalizes_a_basis_whose_determinant_leaves_the_floats(
        capsys):
    # float() of the exact determinant, 1e400 or 1e-400, overflowed or
    # underflowed to 0
    unit = canonicalize(build_room((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
    for scale in ("1e200", "1e-200"):
        code, out, err = run(capsys, ["room", "--mu1=1", "--mu2=1",
                                      f"--e1={scale},0", f"--e2=0,{scale}"])
        assert code == 0 and err == ""
        assert out == canonical_json(room_payload(unit)) + "\n"
    # det 2^-1075 scales e2 to 2^536.5, whose diameter squared overflows
    code, out, err = run(capsys, ["room", "--mu1=1", "--mu2=1",
                                  "--e1=5e-324,0", "--e2=0,0.5"])
    assert code == 2 and out == ""
    assert "room diameter" in json.loads(err)["detail"]


@pytest.mark.parametrize("command", [["room"], ["act", "--rotate=0"],
                                     ["twist", "--word=A"],
                                     ["classify", "--theta=1"], ["scan"],
                                     ["flow", "--t-max=1"]],
                         ids=lambda command: command[0])
def test_a_wrongly_oriented_basis_past_the_floats_is_refused(capsys,
                                                              command):
    # float() of the exact determinant -1e400 overflowed in the message,
    # and -1e-400 printed as -0.0
    for scale, shown in (("1e200", "-1.7067336779066407 * 4**664"),
                         ("1e-200", "-2.3436579776793987 * 4**-665")):
        code, out, err = run(capsys, command + [
            "--mu1=1", "--mu2=1", f"--e1={scale},0", f"--e2=0,-{scale}"])
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "NonOrientedBasis",
            "detail": f"basis determinant {shown} must be positive"}


def test_room_canonicalizes_a_basis_of_subnormal_coordinates(capsys):
    # det is 2^-2148, so 1/sqrt(det) = 2^1074 left the float range
    unit = canonicalize(build_room((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
    code, out, err = run(capsys, ["room", "--mu1=1", "--mu2=1",
                                  "--e1=5e-324,0", "--e2=0,5e-324"])
    assert code == 0 and err == ""
    assert out == canonical_json(room_payload(unit)) + "\n"
    # a canonical coordinate past the float range is still refused as
    # not finite
    code, out, err = run(capsys, ["room", "--mu1=0.5", "--mu2=0",
                                  "--e1=5e-324,0", "--e2=1e308,1e308"])
    assert code == 2 and out == ""
    assert "must be finite" in json.loads(err)["detail"]


def test_a_door_of_zero_float_length_is_refused_where_its_normal_is_read(
        capsys):
    # V3 and V4 coincide in float coordinates: the door's normal divided
    # by its length 0, while `act`, which reads no normal, prints the room
    room = ["--mu1=0", "--mu2=3", "--e1=1,1", "--e2=0,5e-324"]
    for command in (["classify", "--theta=1"], ["scan"],
                    ["flow", "--t-max=1", "--steps=1"]):
        code, out, err = run(capsys, command + room)
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "detail": "the door V3V4 has length 0 in float coordinates"}
    code, out, err = run(capsys, ["act", "--rotate=0"] + room)
    assert code == 0 and err == ""
    assert json.loads(out)["vertices"][3:] == [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("argv", [["--rhoA=1e16", "--rhoB=1e-17", "--n=1"],
                                  ["--rhoA=1e8", "--rhoB=1e-17", "--n=2"],
                                  ["--rhoA=1e17", "--rhoB=1e-50", "--n=6"],
                                  ["--rhoA=1e100", "--rhoB=1e-200", "--n=4"]])
def test_a_float_measure_meets_the_bound_of_the_exact_measure(capsys, argv):
    # 1 + rho_a rounds the 1 away in the first two, and far apart slopes
    # leave a word interval shorter than its endpoints' rounding in the
    # last two: each measure is read without a subtraction
    code, out, err = run(capsys, ["measure"] + argv)
    assert (code, err) == (0, "")
    ra, rb, n = (float(flag.split("=")[1]) for flag in argv)
    got = json.loads(out)["measure"]
    assert oracles.meets_float_walk_bound(
        lambda a, b: survivor_measure(a, b, int(n)), ra, rb, int(n))
    assert got == survivor_measure(ra, rb, int(n))


def test_a_float_measure_whose_entries_overflow_is_a_number(capsys):
    # the walk's entries overflow at a few leaves, which then add
    # det/inf = 0.0
    code, out, err = run(capsys, ["measure", "--rhoA=5e-324", "--rhoB=1e200",
                                  "--n=8"])
    assert (code, err) == (0, "")
    assert json.loads(out, parse_constant=pytest.fail)["measure"] == 0.0
    # the exact measure of the same floats, which only shrinks with depth,
    # lies below half the least subnormal float at depth 4 already, so it
    # rounds to 0.0 too
    assert survivor_measure(Fraction(5e-324), Fraction(1e200), 4) \
        < Fraction(1, 2 ** 1075)


def test_a_float_measure_whose_leaf_reads_inf_over_inf_exits_2(capsys):
    # the word LL multiplies det and v by 1e155 twice, so both overflow
    # and the leaf's length would be NaN
    code, out, err = run(capsys, ["measure", "--rhoA=5e-324",
                                  "--rhoB=1e155", "--n=2"])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "detail": "the float walk at slopes (5e-324, 1e+155) to depth 2 "
                  "left the float range"}


def test_classify_matches_library_verdict(capsys):
    theta = math.pi / 4.0
    code, out, _ = run(capsys, ["classify", "--theta", str(theta)] + MU_FLAGS)
    assert code == 0
    data = json.loads(out)
    verdict = classify_direction(
        build_room((1.0, 0.0), (0.0, 1.0), (LN2, LN2)), theta)
    assert data["kind"] == verdict.kind
    assert data["word"] == verdict.word
    assert data["multiplier"] == verdict.multiplier


def test_scan_json_matches_library(capsys):
    code, out, _ = run(capsys, ["scan", "--eps", "0.3", "--budget", "600"]
                       + MU_FLAGS)
    assert code == 0
    data = json.loads(out)
    scan = find_cylinders(build_room((1.0, 0.0), (0.0, 1.0), (LN2, LN2)),
                          0.3, budget=600)
    assert data["cylinders"] == [
        {"theta1": c.theta1, "theta2": c.theta2, "angle": c.angle,
         "word": c.word, "multiplier": c.multiplier} for c in scan.cylinders]
    assert data["n_samples"] == scan.n_samples


def test_scan_csv_has_one_row_per_cylinder(capsys):
    code, out, _ = run(capsys, ["scan", "--eps", "0.3", "--budget", "600",
                                "--format", "csv"] + MU_FLAGS)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta1,theta2,angle,word,multiplier"
    scan = find_cylinders(build_room((1.0, 0.0), (0.0, 1.0), (LN2, LN2)),
                          0.3, budget=600)
    assert len(lines) == 1 + len(scan.cylinders)
    first = lines[1].split(",")
    assert float(first[0]) == scan.cylinders[0].theta1


def test_flow_csv_header_and_zero_time(capsys):
    code, out, _ = run(capsys, ["flow", "--t-max", "0", "--steps", "0",
                                "--eps", "0.3", "--budget", "400",
                                "--format", "csv"] + MU_FLAGS)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,theta_sup,max_multiplier,flags,budget_exhausted"
    assert len(lines) == 2


def test_rotnum_exact_mode_reports_fraction(capsys):
    code, out, _ = run(capsys, ["rotnum", "--rhoA-exact", "2,0,0",
                                "--rhoB-exact", "1/2,0,0"])
    assert code == 0
    data = json.loads(out)
    assert data["exact"] is True
    assert data["fraction"] == "1/2"
    assert data["rotation_number"] == 0.5


def test_rotnum_float_mode_matches_library(capsys):
    code, out, _ = run(capsys, ["rotnum", "--rhoA", "2.5", "--rhoB", "0.3",
                                "--tol", "1e-8"])
    assert code == 0
    data = json.loads(out)
    assert data["rotation_number"] == float(rotation_number(2.5, 0.3, tol=1e-8))
    assert data["exact"] is False and data["fraction"] is None


def test_measure_exact_csv_lists_all_depths(capsys):
    code, out, _ = run(capsys, ["measure", "--rhoA", "1/2", "--rhoB", "1/2",
                                "--n", "2", "--exact", "--format", "csv"])
    assert code == 0
    assert out == "n,measure\n0,1\n1,2/3\n2,8/21\n"


def test_measure_float_json_matches_library(capsys):
    code, out, _ = run(capsys, ["measure", "--rhoA", "0.5", "--rhoB", "0.5",
                                "--n", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["measure"] == survivor_measure(0.5, 0.5, 3)
    assert data["measure_float"] == data["measure"]


def test_orbit_closure_verdicts(capsys):
    code, out, _ = run(capsys, ["orbit-closure", "--mu1-exact", "1,0,0",
                                "--mu2-exact", "2,0,0"])
    assert code == 0
    assert json.loads(out)["orbit_closure"] == "closed"
    code, out, _ = run(capsys, ["orbit-closure", "--mu1-exact", "1,0,2",
                                "--mu2-exact", "0,1,2"])
    assert code == 0
    assert json.loads(out)["orbit_closure"] == "dense"
    code, out, _ = run(capsys, ["orbit-closure", "--mu1-exact", "1,1/2,2",
                                "--mu2-exact", "1,1/3,3"])
    assert code == 0
    assert json.loads(out)["orbit_closure"] == "dense"


# --- drawings ---

def test_room_svg_is_written_and_parses(tmp_path, capsys):
    path = tmp_path / "room.svg"
    code, _, _ = run(capsys, ["room", "--svg", str(path)] + MU_FLAGS)
    assert code == 0
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")


def test_scan_svg_is_written_and_parses(tmp_path, capsys):
    path = tmp_path / "wheel.svg"
    code, _, _ = run(capsys, ["scan", "--eps", "0.3", "--budget", "600",
                              "--svg", str(path)] + MU_FLAGS)
    assert code == 0
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")


# --- determinism ---

def test_same_flags_give_identical_bytes(capsys):
    argv = ["scan", "--eps", "0.3", "--budget", "600"] + MU_FLAGS
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


# --- failure modes ---

def test_bad_parameters_exit_2_with_json_diagnostic(capsys):
    code, out, err = run(capsys, ["room", "--mu1", "-1", "--mu2", "-1"])
    assert code == 2 and out == ""
    data = json.loads(err)
    assert data["error"] == "OutsideQ"
    assert "detail" in data


ROT_EXACT = ["--rhoB-exact=1/2,0,0"]


# argv -> (exit code, error name or None, the stream the output goes to,
# and a fragment of that output)
REFUSALS_AND_EDGES = {
    "e1-count": (["room", "--mu1=1", "--mu2=1", "--e1=1,0,0"],
                 2, "BadInput", "err", "--e1 expects 2 comma-separated"),
    "e1-non-numeric": (["room", "--mu1=1", "--mu2=1", "--e1=1,x"],
                       2, "BadInput", "err", "--e1: non-numeric entry"),
    "triple-arity": (["rotnum", "--rhoA-exact=2,0"] + ROT_EXACT,
                     2, "BadInput", "err", "expects an a,b,d triple"),
    "triple-unparsable": (["rotnum", "--rhoA-exact=two,0,0"] + ROT_EXACT,
                          2, "BadInput", "err", "cannot parse triple"),
    "triple-b-without-d": (["rotnum", "--rhoA-exact=2,1,0"] + ROT_EXACT,
                           2, "BadInput", "err",
                           "nonzero irrational part needs d > 0"),
    "triple-negative-d": (["rotnum", "--rhoA-exact=2,1,-2"] + ROT_EXACT,
                          2, "BadInput", "err",
                          "--rhoA-exact: negative radicand -2"),
    "pair-missing": (["rotnum"], 2, "BadInput", "err",
                     "parameters required: --rhoA/--rhoB"),
    "pair-partial-float": (["rotnum", "--rhoA=2.0"], 2, "BadInput", "err",
                           "both --rhoA and --rhoB are required"),
    "pair-partial-exact": (["rotnum"] + ROT_EXACT, 2, "BadInput", "err",
                           "both --rhoA-exact and --rhoB-exact"),
    "word-letter": (["twist", "--mu1=0.5", "--mu2=0.5", "--word=AXB"],
                    2, "BadInput", "err", "invalid word letter"),
    "measure-rho": (["measure", "--rhoA=half", "--rhoB=0.5", "--n=2"],
                    2, "BadInput", "err", "--rhoA: cannot parse 'half'"),
    "rotnum-csv": (["rotnum", "--rhoA-exact=2,0,0", "--format=csv"]
                   + ROT_EXACT, 0, None, "out",
                   "rho_a,rho_b,rotation_number\n2.0,0.5,0.5\n"),
    "reach-budget": (["reach", "--mu1=0.7", "--mu2=0.4", "--target1=1.3",
                      "--target2=0.9", "--budget=3"], 3, "BudgetExhausted",
                     "out", "budget exhausted during contraction"),
    # the first block has 10^400 - 1 letters: refused before its floor
    # reads a float or its letters are built
    "reach-exact-block-past-float-range": (
        ["reach", "--mu1-exact=1,0,0", "--mu2-exact=1e-400,0,0",
         "--target1=1", "--target2=1"], 3, "BudgetExhausted", "out",
        "budget exhausted during contraction"),
    # eps 0 on exact parameters: every exact norm stays above it, so the
    # contraction runs into the budget, not into a float overflow
    "reach-exact-zero-tol-exhausts-the-budget": (
        ["reach", "--mu1-exact=1,0,0", "--mu2-exact=0,1,2", "--target1=2.0",
         "--target2=1.0", "--tol=0", "--budget=2000"], 3, "BudgetExhausted",
        "out", "budget exhausted during contraction"),
    # no float contraction reaches a norm at or below the smaller
    # parameter's float spacing, so the pair is not called rational
    "reach-float-tol-below-the-float-spacing": (
        ["reach", "--mu1=1.0", "--mu2=1.4142135623730951", "--target1=2.0",
         "--target2=1.0", "--tol=1e-20"], 2, "ValueError", "err",
        "is not above the float spacing 2.220446049250313e-16"),
    # reach reads no basis
    "reach-basis-flag": (["reach", "--mu1=0.5", "--mu2=0.7", "--target1=1",
                          "--target2=1", "--e1=1,0"], 2, "BadInput", "err",
                         "unrecognized arguments"),
    # the first block's count, 3e308, is past the float range
    "reach-start-ratio-past-float-range": (
        ["reach", "--mu1=30", "--mu2=1e-307", "--target1=1", "--target2=1"],
        2, "RationalRatio", "err", "cannot certify a positive remainder"),
    # the start's ratio is exactly 2: past the push that the convergent
    # 10/13 of the target ratio counts against the budget, a deeper
    # convergent's contraction meets the tie
    "reach-start-near-zero": (
        ["reach", "--mu1=1e-17", "--mu2=2e-17", "--target1=1",
         "--target2=1.3"], 2, "RationalRatio", "err",
        "parameters became equal"),
    # a push toward the target would take 5e15 letters: it is counted
    # against the budget, never built, and so is every deeper one
    "reach-irrational-start-near-zero": (
        ["reach", "--mu1=1e-17", "--mu2=1.4142135623730951e-17",
         "--target1=1", "--target2=1.3"], 3, "BudgetExhausted", "out",
        "best predicted error inf"),
    # 13/7's contraction runs, but its pushes pass the budget; a deeper
    # convergent's contraction tolerance lies below the float spacing of
    # the start, so the search stops there, exhausted, with no refusal
    "reach-exhausted-at-the-float-spacing": (
        ["reach", "--mu1=1", "--mu2=1.4142135623730951", "--target1=1.3",
         "--target2=0.7", "--budget=50"], 3, "BudgetExhausted", "out",
        "best predicted error inf"),
    # the ratio 1e-310 is subnormal: its second convergent's denominator,
    # about 1e310, is past the float range, and so is every later one
    "reach-target-ratio-subnormal": (
        ["reach", "--mu1=1", "--mu2=0.7", "--target1=1e-300",
         "--target2=1e10"], 3, "BudgetExhausted", "out",
        "best predicted error inf"),
    # an exact second coordinate that reads as the float 0: no push count
    "reach-exact-start-below-the-float-range": (
        ["reach", "--mu1-exact=1e-400,0,0", "--mu2-exact=2e-400,0,0",
         "--target1=1", "--target2=1.3"], 3, "BudgetExhausted", "out",
        "best predicted error inf"),
    # the doubling caps stop at 1024, the last that fits in 1500
    "rotnum-names-the-iterations-run": (
        ["rotnum", "--rhoA=2.887559999924621", "--rhoB=0.7176082903346565",
         "--budget=1500"], 3, "NonConvergence", "out",
        "did not settle within 1024 iterations"),
}


@pytest.mark.parametrize("argv, code, error, stream, fragment",
                         list(REFUSALS_AND_EDGES.values()),
                         ids=list(REFUSALS_AND_EDGES))
def test_refusals_and_edge_outputs(capsys, argv, code, error, stream,
                                   fragment):
    got, out, err = run(capsys, argv)
    text, other = (out, err) if stream == "out" else (err, out)
    assert (got, other) == (code, "")
    assert fragment in text and text.endswith("\n")
    if error is not None:
        assert text.count("\n") == 1
        assert json.loads(text)["error"] == error


def test_mixed_exact_and_float_parameters_exit_2(capsys):
    code, _, err = run(capsys, ["room", "--mu1", "1",
                                "--mu2-exact", "0,1,2"])
    assert code == 2
    assert json.loads(err)["error"] == "BadInput"


def test_act_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, ["act", "--rotate", "1", "--t", "1"] + MU_FLAGS)
    assert code == 2
    assert json.loads(err)["error"] == "BadInput"
    code, _, err = run(capsys, ["act"] + MU_FLAGS)
    assert code == 2


def test_long_room_is_accepted(capsys):
    # V4 = (0, 1/nu2) lies 1e13 above V0; the room is simple
    code, out, err = run(capsys, ["room", "--mu1=0.1", "--mu2=-30"])
    assert code == 0 and err == ""
    assert json.loads(out)["vertices"][4][1] > 1e13


def test_flow_runs_past_the_time_where_image_lengths_round_to_pi(capsys):
    # the tracked '' cylinder's image length rounds to pi from t of
    # about 40 on; this exited 2 after the whole baseline scan
    code, out, err = run(capsys, ["flow", "--t-max=50", "--eps=0.8"]
                         + MU_FLAGS)
    assert code == 0 and err == ""
    assert json.loads(out)["criterion1"]


def test_act_rejects_non_unimodular_matrix(capsys):
    code, _, err = run(capsys, ["act", "--matrix", "2,0,0,2"] + MU_FLAGS)
    assert code == 2
    assert json.loads(err)["error"] == "BadInput"


def test_act_rejects_a_large_matrix_of_determinant_5(capsys):
    code, out, err = run(capsys, ["act", "--mu1=1", "--mu2=1",
                                  "--matrix=1e5,0,0,5e-5"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BadInput"


def test_csv_rejected_where_schema_is_json_only(capsys):
    code, _, err = run(capsys, ["room", "--format", "csv"] + MU_FLAGS)
    assert code == 2
    assert json.loads(err)["error"] == "BadInput"


def test_svg_rejected_where_no_drawing_exists(capsys):
    code, _, err = run(capsys, ["classify", "--theta", "1", "--svg", "x.svg"]
                       + MU_FLAGS)
    assert code == 2
    assert json.loads(err)["error"] == "BadInput"


def test_rotnum_nonconvergence_exits_3_with_bracket(capsys):
    code, out, err = run(capsys, ["rotnum", "--rhoA", "1.8", "--rhoB", "0.4",
                                  "--tol", "1e-12", "--budget", "4096"])
    assert code == 3 and err == ""
    data = json.loads(out)
    assert data["error"] == "NonConvergence"
    lo, hi = data["bracket"]
    assert 0.0 <= lo < hi <= 1.0


def test_measure_depth_is_capped(capsys):
    # a forced-L chain has one interval at any depth, so the cap is cheap
    n = MAX_MEASURE_DEPTH
    code, out, _ = run(capsys, ["measure", "--rhoA=2", "--rhoB=1", f"--n={n}",
                                "--exact"])
    assert code == 0
    assert json.loads(out)["measure"] == f"1/{n + 1}"
    for argv in (["--rhoA=2", "--rhoB=1", f"--n={n + 1}"],
                 ["--rhoA=2", "--rhoB=1", "--n=3000"],
                 ["--rhoA=0.5", "--rhoB=0.5", "--n=1000"]):
        code, out, err = run(capsys, ["measure"] + argv)
        assert code == 2 and out == ""
        data = json.loads(err)
        assert data["error"] == "BadInput"
        assert str(MAX_MEASURE_DEPTH) in data["detail"]


def test_exact_measure_is_capped_by_its_leaves(capsys):
    # (1/2, 1/2) has 2^n leaves: depth 14 sums 2^14 of them, and deeper
    # exact measures are refused before their sum, at any depth
    for n in (15, 16, MAX_MEASURE_DEPTH):
        code, out, err = run(capsys, ["measure", "--rhoA=1/2", "--rhoB=1/2",
                                      f"--n={n}", "--exact"])
        assert code == 2 and out == ""
        detail = json.loads(err)["detail"]
        assert str(EXACT_MEASURE_MAX_LEAVES) in detail
    assert EXACT_MEASURE_MAX_LEAVES == 2 ** 14
    # floats are not capped by leaves
    code, out, _ = run(capsys, ["measure", "--rhoA=0.5", "--rhoB=0.5",
                                "--n=15"])
    assert code == 0 and json.loads(out)["measure"] > 0


def test_exact_measure_table_is_refused_before_any_sum(capsys,
                                                       monkeypatch):
    sums = []
    monkeypatch.setattr(cli, "survivor_measure",
                        lambda *a: sums.append(a) or survivor_measure(*a))
    args = ["measure", "--rhoA=1/2", "--rhoB=1/2", "--exact",
            "--format=csv"]
    code, out, err = run(capsys, args + [f"--n={MAX_MEASURE_DEPTH}"])
    assert code == 2 and out == "" and sums == []
    detail = json.loads(err)["detail"]
    assert "depth 15" in detail and str(EXACT_MEASURE_MAX_LEAVES) in detail
    # the table below the cap is summed as before
    monkeypatch.setattr(rauzy, "EXACT_MEASURE_MAX_LEAVES", 4)
    code, out, _ = run(capsys, args + ["--n=2"])
    assert code == 0 and out == "n,measure\n0,1\n1,2/3\n2,8/21\n"
    assert len(sums) == 3
    code, out, err = run(capsys, args + ["--n=3"])
    assert code == 2 and out == "" and len(sums) == 3
    assert "depth 3" in json.loads(err)["detail"]


def test_the_decimal_printer_matches_str_under_the_default_digit_cap():
    leaf = cli.PRINT_LEAF_DIGITS
    values = [0, 1, 9, 10, -1, -10 ** 5]
    for k in range(4):
        # each split size and the values that straddle it
        width = leaf << k
        values += [10 ** width - 1, 10 ** width, 10 ** width + 1,
                   10 ** (2 * width) - 1, 10 ** (2 * width)]
    # the leaf size, 10**leaf, is 3,402 bits long: one bit either side
    bits = (10 ** leaf).bit_length()
    values += [(1 << b) + e for b in (bits - 2, bits - 1, bits)
               for e in (-1, 0, 1)]
    rng = random.Random(20260817)
    values += [rng.getrandbits(rng.randint(1, 200_000)) for _ in range(16)]
    values += [-v for v in values[-4:]]
    fractions = [Fraction(v, 1) for v in values[:12]] + [
        Fraction(rng.getrandbits(b), rng.getrandbits(b) | 1)
        for b in (10, 4_000, 60_000)] + [Fraction(-7, 3), 5]
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = [str(v) for v in values], [str(q) for q in fractions]
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        got = ([cli._decimal(v) for v in values],
               [cli._rational_text(q) for q in fractions])
    finally:
        sys.set_int_max_str_digits(old)
    assert got == want
    assert max(v.bit_length() for v in values) > 150_000


def test_a_value_past_the_digit_cap_is_refused_from_its_bit_length(
        monkeypatch):
    monkeypatch.setattr(cli, "MAX_PRINTED_DIGITS", 5)
    assert cli._rational_text(Fraction(99_999, 2)) == "99999/2"
    assert cli._rational_text(-99_999) == "-99999"
    # 10**5 and 99,999 are both 17 bits long; 2**17 is 18
    for q in (10 ** 5, Fraction(1, 10 ** 5), -(1 << 17), Fraction(1, 3) ** 11):
        with pytest.raises(cli.UsageError, match="MAX_PRINTED_DIGITS = 5"):
            cli._rational_text(q)


def test_an_exact_measure_past_the_digit_cap_is_bad_input(capsys,
                                                          monkeypatch):
    # depth 8 at (5/6, 4/7) has a 7,734-digit denominator; the CLI prints
    # it under its own cap and refuses it under a cap of 1,000 digits
    args = ["measure", "--rhoA=5/6", "--rhoB=4/7", "--n=8", "--exact"]
    code, out, _ = run(capsys, args)
    assert code == 0
    assert len(json.loads(out)["measure"]) == 7732 + 1 + 7734
    monkeypatch.setattr(cli, "MAX_PRINTED_DIGITS", 1000)
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, args + [f"--format={fmt}"])
        assert code == 2 and out == ""
        data = json.loads(err)
        assert data["error"] == "BadInput"
        assert "MAX_PRINTED_DIGITS = 1000" in data["detail"]
    code, out, _ = run(capsys, args[:3] + ["--n=4", "--exact"])
    assert code == 0


def test_main_gives_the_caller_back_its_digit_limit(capsys):
    # main() reads and prints long decimals under MAX_PRINTED_DIGITS,
    # and the caller's own limit comes back on a success, a BadInput and
    # a ValueError exit alike
    one, two = "1" + "0" * 5000, "1" + "0" * 4999 + "1"
    long_slope = ["measure", f"--rhoA={one}/{two}", "--rhoB=4/7", "--n=1",
                  "--exact", "--format=csv"]
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4321)
        with pytest.raises(ValueError, match="limit"):
            int(one)
        code, out, _ = run(capsys, long_slope)
        assert code == 0 and sys.get_int_max_str_digits() == 4321
        first, second = out.splitlines()[1:]
        assert first == "0,1" and len(second) > 2 + 2 * 4321
        code, _, err = run(capsys, ["measure", "--rhoA=x", "--rhoB=4/7",
                                    "--n=1", "--exact"])
        assert json.loads(err)["error"] == "BadInput"
        assert code == 2 and sys.get_int_max_str_digits() == 4321
        code, _, err = run(capsys, ["scan", "--eps=0"] + MU_FLAGS)
        assert json.loads(err)["error"] == "ValueError"
        assert code == 2 and sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("eps", ["0", "-0.5", "nan", "inf"])
def test_scan_rejects_eps_that_is_not_positive_and_finite(capsys, eps):
    code, out, err = run(capsys, ["scan", f"--eps={eps}"] + MU_FLAGS)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ["classify", "--theta=1", "--budget=-1"] + MU_FLAGS,
    # a collapsed direction: its cylinder is found without any induction
    ["classify", "--theta=0.1", "--budget=-1"] + MU_FLAGS,
    ["scan", "--eps=0.3", "--budget=-1"] + MU_FLAGS,
], ids=["classify", "classify-collapsed", "scan"])
def test_negative_budget_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    data = json.loads(err)
    assert data["error"] == "ValueError"
    assert "budget" in data["detail"]


@pytest.mark.parametrize("argv", [
    ["rotnum", "--rhoA-exact=1,1,2", "--rhoB-exact=0,1/3,3"],
    ["twist", "--mu1-exact=1,1/2,2", "--mu2-exact=1,1/3,3", "--word=AB"],
    ["reach", "--mu1-exact=1,1/2,2", "--mu2-exact=1,1/3,3",
     "--target1=0.5", "--target2=0.5"],
], ids=lambda argv: argv[0])
def test_exact_commands_reject_mixed_radicands(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    data = json.loads(err)
    assert data["error"] == "BadInput"
    assert "radicand" in data["detail"]


@pytest.mark.parametrize("argv, detail", [
    (["rotnum", "--rhoA=2.5", "--rhoB=0.3", "--tol=-1"], "tol"),
    (["rotnum", "--rhoA=2.5", "--rhoB=0.3", "--tol=nan"], "tol"),
    (["flow", "--mu1=1", "--mu2=1", "--t-max=nan"], "t_max"),
    (["flow", "--mu1=1", "--mu2=1", "--t-max=1", "--tol=-1"], "theta_tol"),
    (["room", "--mu1=nan", "--mu2=1"], "finite"),
    (["room", "--mu1=inf", "--mu2=1"], "finite"),
    (["room", "--mu1=1", "--mu2=1", "--e1=nan,0"], "finite"),
    (["room", "--mu1=1000", "--mu2=1"], "float range"),
    (["room", "--mu1=-800", "--mu2=1"], "float range"),
    (["room", "--mu1=1", "--mu2=-745"], "float range"),
    (["room", "--mu1=700", "--mu2=1"], "coincide"),
    (["room", "--mu1=1e-17", "--mu2=1e-17"], "coincide"),
    (["twist", "--mu1-exact=1,0,0", "--mu2-exact=1,0,0",
      "--word=ABABABABABABABAB"], "float range"),
    (["classify", "--theta=nan"] + MU_FLAGS, "theta"),
    (["classify", "--theta=inf"] + MU_FLAGS, "theta"),
    (["measure", "--rhoA=-1", "--rhoB=0.5", "--n=3"], "positive"),
    (["measure", "--rhoA=nan", "--rhoB=0.5", "--n=3"], "finite"),
    (["measure", "--rhoA=inf", "--rhoB=0.5", "--n=3"], "finite"),
    (["act", "--mu1=1", "--mu2=1", "--t=800"], "float range"),
    (["act", "--mu1=1", "--mu2=1", "--t=-800"], "float range"),
    (["act", "--mu1=1", "--mu2=1", "--t=1500"], "float range"),
    (["reach", "--mu1=1", "--mu2=0.7", "--target1=0.5", "--target2=0.5",
      "--tol=-1"], "tol"),
    (["reach", "--mu1=1", "--mu2=0.7", "--target1=0.5", "--target2=0.5",
      "--tol=nan"], "tol"),
    (["reach", "--mu1=1", "--mu2=0.7", "--target1=0.5", "--target2=0.5",
      "--budget=-1"], "budget"),
    (["rotnum", "--rhoA=inf", "--rhoB=0.5"], "finite"),
    (["scan", "--mu1=1", "--mu2=1", "--eps=1e-300"], "samples"),
    (["flow", "--mu1=1", "--mu2=1", "--t-max=1", "--eps=1e-300"], "samples"),
    (["rotnum", "--rhoA-exact=1e400,0,0", "--rhoB-exact=1/2,0,0"],
     "float range"),
    (["rotnum", "--rhoA-exact=1e400,0,0", "--rhoB-exact=1/2,0,0",
      "--format=csv"], "float range"),
    (["measure", "--rhoA=1e400", "--rhoB=0.5", "--n=2", "--exact"],
     "float range"),
    (["room", "--mu1-exact=1e400,0,0", "--mu2-exact=1,0,0"], "float range"),
    (["twist", "--mu1-exact=1e400,0,0", "--mu2-exact=1,0,0", "--word=A"],
     "float range"),
    (["reach", "--mu1=1", "--mu2=0.7", "--target1=inf", "--target2=0.5"],
     "finite"),
    (["reach", "--mu1=inf", "--mu2=0.7", "--target1=1", "--target2=0.5"],
     "start (inf, 0.7) must be finite"),
    (["reach", "--mu1=nan", "--mu2=0.7", "--target1=1", "--target2=0.5"],
     "open positive quadrant"),
    (["reach", "--mu1=1", "--mu2=0.7", "--target1=1e300",
      "--target2=1e-300"], "ratio must be finite"),
    (["reach", "--mu1=1", "--mu2=0.7", "--target1=nan", "--target2=0.5"],
     "finite"),
    (["reach", "--mu1=1", "--mu2=0.7", "--target1=1e-15", "--target2=1"],
     "not above the float spacing"),
    (["reach", "--mu1=1", "--mu2=0.7", "--target1=1e-300",
      "--target2=1e300"], "ratio must be finite, positive"),
    (["room", "--mu1=0.3", "--mu2=-400"], "diameter"),
    (["room", "--mu1=-400", "--mu2=0.3"], "diameter"),
    (["act", "--rotate=inf"] + MU_FLAGS, "rotation angle inf must be finite"),
    (["orbit-closure", "--mu1=inf", "--mu2=1"], "finite"),
    (["orbit-closure", "--mu1=1e308", "--mu2=1e-308"], "ratio must be finite"),
    (["orbit-closure", "--mu1=nan", "--mu2=1"], "finite"),
    (["flow", "--t-max=1", "--steps=-2"] + MU_FLAGS,
     "steps must be nonnegative, got -2"),
    (["flow", "--t-max=1", "--eps=0"] + MU_FLAGS,
     "eps_angle must be positive and finite"),
    (["flow", "--t-max=1", "--eps=-1"] + MU_FLAGS,
     "eps_angle must be positive and finite"),
    (["flow", "--t-max=1", "--eps=nan"] + MU_FLAGS,
     "eps_angle must be positive and finite"),
    (["flow", "--t-max=1", "--eps=inf"] + MU_FLAGS,
     "eps_angle must be positive and finite"),
    (["flow", "--t-max=1", "--budget=-1"] + MU_FLAGS,
     "induction budget must be nonnegative"),
    (["flow", "--mu1=0.69", "--mu2=0.69", "--t-max=2000"],
     "geodesic flow time 2000.0"),
], ids=["rotnum-tol-negative", "rotnum-tol-nan", "flow-t-max-nan",
        "flow-tol-negative", "room-mu1-nan", "room-mu1-inf", "room-e1-nan",
        "room-mu1-overflow", "room-mu1-underflow", "room-mu2-subnormal",
        "room-mu1-v3-on-v2", "room-door-collapses", "twist-word-overflow",
        "classify-theta-nan", "classify-theta-inf", "measure-rhoA-negative",
        "measure-rhoA-nan", "measure-rhoA-inf", "act-t-800", "act-t-minus-800",
        "act-t-1500", "reach-tol-negative", "reach-tol-nan",
        "reach-budget-negative", "rotnum-rhoA-inf", "scan-eps-1e-300",
        "flow-eps-1e-300", "rotnum-exact-rhoA-overflow",
        "rotnum-exact-rhoA-overflow-csv", "measure-exact-rhoA-overflow",
        "room-exact-mu1-overflow", "twist-exact-mu1-overflow",
        "reach-target1-inf", "reach-mu1-inf", "reach-mu1-nan",
        "reach-target-ratio-overflow",
        "reach-target1-nan", "reach-target-ratio-below-floor",
        "reach-target-ratio-underflow", "room-long-mu2", "room-long-mu1",
        "act-rotate-inf", "orbit-closure-mu1-inf",
        "orbit-closure-ratio-overflow", "orbit-closure-mu1-nan",
        "flow-steps-negative", "flow-eps-zero", "flow-eps-negative",
        "flow-eps-nan", "flow-eps-inf", "flow-budget-negative",
        "flow-t-max-past-float-range"])
def test_out_of_domain_numbers_exit_2_at_once(capsys, argv, detail):
    # each refusal comes before any work: a flow past the float range
    # used to run its scan and nine samples, 4.9 s, before refusing
    t0 = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    data = json.loads(err)
    assert data["error"] == "ValueError"
    assert detail in data["detail"]


def test_a_radicand_past_the_cap_exits_2_at_once(capsys):
    # the square-free split of a 40-digit radicand never finished, and
    # one of 10^16 took 17 s
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["orbit-closure",
                                  "--mu1-exact=1,1,100000000000000003",
                                  "--mu2-exact=1,0,0"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    data = json.loads(err)
    assert data["error"] == "BadInput"
    assert data["detail"].startswith("--mu1-exact: radicand")


@pytest.mark.parametrize("argv", [
    ["orbit-closure", "--mu1-exact=1e400,0,0", "--mu2-exact=1,0,0"],
    ["measure", "--rhoA=1e400", "--rhoB=0.5", "--n=2", "--exact",
     "--format=csv"],
], ids=["orbit-closure", "measure-csv"])
def test_huge_exact_values_pass_where_no_float_is_read(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out


@pytest.mark.parametrize("argv", [
    ["room"] + MU_FLAGS,
    ["act", "--rotate=1"] + MU_FLAGS,
    ["twist", "--word=AB"] + MU_FLAGS,
    ["scan", "--eps=0.5", "--budget=200"] + MU_FLAGS,
], ids=lambda argv: argv[0])
def test_unwritable_svg_path_exits_2_and_prints_nothing(tmp_path, capsys,
                                                        argv):
    path = tmp_path / "missing" / "x.svg"
    code, out, err = run(capsys, argv + [f"--svg={path}"])
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    data = json.loads(err)
    assert data["error"] == "BadInput"
    assert "--svg" in data["detail"]
    assert not path.parent.exists()


def _parsed_defaults(command: str, required: list[str]) -> dict:
    args = vars(cli._Grammar(command).parse_args(required))
    assert args == _through_oracle(required, command)
    return args


def test_cli_defaults_are_the_library_defaults():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    classify = _parsed_defaults("classify", ["--theta=1"])
    assert classify["budget"] == default(classify_direction, "budget")
    scan = _parsed_defaults("scan", [])
    assert scan["budget"] == default(find_cylinders, "budget")
    flow = _parsed_defaults("flow", ["--t-max=1"])
    assert flow["tol"] == default(divergence_monitor, "theta_tol")
    # the flow document echoes the threshold the monitor runs with
    assert cli._flow_payload(MonitorReport((), (), False, False), 0.05)[
        "multiplier_threshold"] == teichmuller.MULTIPLIER_THRESHOLD
    rotnum = _parsed_defaults("rotnum", [])
    assert rotnum["tol"] == default(rotation_number, "tol")
    assert rotnum["budget"] == default(rotation_number, "max_iter")
    reach = _parsed_defaults("reach", ["--target1=1", "--target2=1"])
    assert reach["budget"] == default(reach_target, "budget")
    # the defaults the library leaves to its callers are the CLI's own
    assert scan["eps"] == flow["eps"] == cli.DEFAULT_EPS_ANGLE
    assert flow["budget"] == cli.DEFAULT_FLOW_BUDGET
    assert flow["steps"] == cli.DEFAULT_FLOW_STEPS
    assert reach["tol"] == cli.DEFAULT_REACH_EPS


def test_every_defaulted_library_setting_is_a_cli_flag():
    # a defaulted parameter of an entry point that no flag sets serves
    # only tests; the previous test matches each one to its flag
    def defaulted(fn):
        return {name for name, p in inspect.signature(fn).parameters.items()
                if p.default is not inspect.Parameter.empty}

    for fn in (classify_direction, find_cylinders, reach_target):
        assert defaulted(fn) == {"budget"}, fn.__name__
    assert defaulted(divergence_monitor) == {"theta_tol"}
    assert defaulted(rotation_number) == {"tol", "max_iter"}
    # the tracer's budget and the door test's slack are constants, not
    # parameters only a test would set
    assert defaulted(trace_ray) == defaulted(Room.is_inward) == set()


ROTNUM_FLAGS = ["--rhoA=2.5", "--rhoB=0.3"]
MEASURE_FLAGS = ["--rhoA=0.5", "--rhoB=0.5", "--n=1"]


@pytest.mark.parametrize("argv", [
    ["room", "--seed=7"] + MU_FLAGS,
    ["classify", "--theta=1", "--tol=0.1"] + MU_FLAGS,
    ["twist", "--word=AB", "--budget=5"] + MU_FLAGS,
    ["act", "--rotate=1", "--format=json"] + MU_FLAGS,
    ["flow", "--t-max=0", "--svg=x.svg"] + MU_FLAGS,
    ["orbit-closure", "--e1=1,0"] + MU_FLAGS,
    ["measure", "--budget=5"] + MEASURE_FLAGS,
    ["rotnum", "--seed=7"] + ROTNUM_FLAGS,
], ids=lambda argv: f"{argv[0]}{argv[1].split('=')[0]}")
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    data = json.loads(err)
    assert data["error"] == "BadInput"
    assert "unrecognized arguments" in data["detail"]


def test_twist_whose_float_basis_loses_orientation_names_rounding(capsys):
    # every move multiplies the true determinant by a positive factor; the
    # float basis entries reach about 7e37 and their rounded determinant
    # comes out negative
    code, out, err = run(capsys, ["twist", "--mu1-exact=1,0,0",
                                  "--mu2-exact=1,0,0", "--word=ABABABAB"])
    assert code == 2 and out == ""
    data = json.loads(err)
    assert data["error"] == "OrientationLostToRounding"
    assert "rounding" in data["detail"]
    # the shorter prefix still keeps its orientation
    code, _, _ = run(capsys, ["twist", "--mu1-exact=1,0,0",
                              "--mu2-exact=1,0,0", "--word=ABAB"])
    assert code == 0


# --- one command's grammar per call ---

ROOM_FLAGS = ["--mu1=0.7", "--mu2=0.6"]
# per command: a valid call, then calls with a missing required flag, a
# flag the command does not read, a bad choice and a bad type, as far as
# the command has such flags
GRAMMAR_CASES = {
    "room": [ROOM_FLAGS, ["--theta=1"], ["--mu1=x"],
             ["--e1=2,0", "--svg=r.svg", "--mu1-exact=1,0,2"]],
    "act": [["--rotate=0.5"] + ROOM_FLAGS, ["--budget=3"], ["--t=slow"]],
    "twist": [["--word=AB"] + ROOM_FLAGS, ROOM_FLAGS,
              ["--word=AB", "--tol=1"], ["--word=AB", "--mu2=?"]],
    "reach": [["--target1=1", "--target2=2", "--budget=9"] + ROOM_FLAGS,
              ["--budget=9"], ["--target1=1", "--target2=2", "--svg=x"],
              ["--target1=1", "--target2=two"]],
    "classify": [["--theta=1.5"] + ROOM_FLAGS, ROOM_FLAGS,
                 ["--theta=1", "--format=json"], ["--theta=1", "--budget=1.5"]],
    "scan": [["--eps=0.2", "--format=csv"] + ROOM_FLAGS, ["--theta=1"],
             ["--format=xml"], ["--eps=wide"]],
    "flow": [["--t-max=3", "--steps=4", "--tol=0.1"] + ROOM_FLAGS, ROOM_FLAGS,
             ["--t-max=3", "--svg=f.svg"], ["--t-max=3", "--format=svg"],
             ["--t-max=3", "--steps=2.5"]],
    "rotnum": [["--rhoA=2.5", "--rhoB=0.3", "--format=csv"],
               ["--rhoA-exact=5/2,0,0", "--rhoB-exact=1/3,0,0"],
               ["--rhoA=2.5", "--n=3"], ["--format=tsv"], ["--rhoA=big"]],
    "measure": [["--rhoA=1/2", "--rhoB=1/3", "--n=3", "--exact"],
                ["--n=3"], MEASURE_FLAGS + ["--theta=1"],
                MEASURE_FLAGS + ["--format=yaml"],
                ["--rhoA=0.5", "--rhoB=0.5", "--n=three"]],
    "orbit-closure": [["--mu1-exact=1,1,2", "--mu2-exact=1,0,0"],
                      ["--format=json"], ["--mu1=one"]],
}


def test_grammar_cases_cover_every_command():
    assert set(GRAMMAR_CASES) == set(cli._COMMANDS)


def _through_full_grammar(argv):
    """(vars() of the namespace, None) from argparse's every-command
    grammar, or (None, the stderr main prints for its rejection)."""
    want = _through_oracle(argv)
    if isinstance(want, dict):
        return want, None
    return None, canonical_json({"error": "BadInput", "detail": want}) + "\n"


@pytest.mark.parametrize("command", list(GRAMMAR_CASES))
def test_main_parses_like_the_full_grammar(monkeypatch, capsys, command):
    seen = []
    handler, help_line, declare = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command,
                        (lambda args: seen.append(args) or 0,
                         help_line, declare))
    for flags in GRAMMAR_CASES[command]:
        argv = [command] + flags
        want, want_err = _through_full_grammar(argv)
        code, out, err = run(capsys, argv)
        assert out == ""
        if want is None:
            assert (code, err) == (2, want_err)
            assert not seen
        else:
            assert (code, err) == (0, "")
            assert vars(seen.pop()) == want


@pytest.mark.parametrize("argv", [[], ["orbit"], ["--mu1=1", "room"]],
                         ids=["empty", "unknown", "flag-first"])
def test_missing_or_unknown_command_uses_full_grammar(capsys, argv):
    _, want_err = _through_full_grammar(argv)
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", want_err)
    if argv == ["orbit"]:
        detail = json.loads(err)["detail"]
        assert all(repr(name) in detail for name in cli._COMMANDS)


# --- the table parser against argparse ---

@functools.lru_cache(maxsize=None)
def _oracle_grammar(command=None):
    return oracles.argparse_grammar(command)


def _parsed(grammar, argv):
    """vars() of the namespace `grammar` reads from argv, or the message
    of its rejection."""
    try:
        return vars(grammar.parse_args(argv))
    except cli.UsageError as exc:
        return str(exc)


def _through_oracle(argv, command=None):
    """`_parsed` by argparse; a command's own grammar also names the
    command, as `cli._Grammar(command)` does."""
    want = _parsed(_oracle_grammar(command), list(argv))
    if command is not None and isinstance(want, dict):
        want["command"] = command
    return want


def _workload_ops(monkeypatch) -> list[list[str]]:
    """argv of every op of passes 0 and 1 of the benchmark's four
    workloads at seed 0."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "perfbench"))
    workloads = importlib.import_module("workloads")
    return [list(op.argv) for name in ("classify", "scan", "flow", "exact")
            for k in (0, 1) for op in workloads.make_pass(name, 0, k)]


# rejected and odd argv: malformed values, unknown, missing and repeated
# flags, prefixes, a flag with no value, separate values and the
# top-level cases
GRAMMAR_CORPUS = [
    ["classify", "--theta=x"] + ROOM_FLAGS,
    ["classify", "--theta="] + ROOM_FLAGS,
    ["scan", "--budget=1.5"], ["scan", "--budget=0x10"],
    ["scan", "--format=JSON"], ["flow", "--t-max=1", "--steps=two"],
    ["measure", "--n=", "--rhoA=1", "--rhoB=1"],
    ["rotnum", "--tol=1e-3x"] + ROTNUM_FLAGS,
    ["room", "--seed=7"] + ROOM_FLAGS, ["room", "--seed", "7"] + ROOM_FLAGS,
    ["room"] + ROOM_FLAGS + ["stray"], ["room", "-x"] + ROOM_FLAGS,
    ["room", ""] + ROOM_FLAGS,
    ["classify", "--bogus=1"], ["classify", "--budget=x", "--bogus"],
    ["classify"], ["reach"], ["reach", "--target2=1"], ["twist"],
    ["measure", "--n=1"], ["flow"],
    ["classify", "--theta=1", "--theta=2"] + ROOM_FLAGS,
    ["room", "--mu1=1", "--mu1=2", "--mu2=1"],
    ["scan", "--format=csv", "--format=json"],
    ["measure", "--exact", "--exact"] + MEASURE_FLAGS,
    ["classify", "--the=1"] + ROOM_FLAGS, ["flow", "--t=3"] + ROOM_FLAGS,
    ["scan", "--for=csv"] + ROOM_FLAGS, ["act", "--rot=1"] + ROOM_FLAGS,
    ["measure", "--exact=1"] + MEASURE_FLAGS,
    ["measure", "--exact="] + MEASURE_FLAGS,
    ["measure", "--exact", "1"] + MEASURE_FLAGS,
    ["classify"] + ROOM_FLAGS + ["--theta"], ["room", "--mu1"],
    ["measure", "--rhoA=1", "--rhoB", "--n=1"],
    ["classify", "--theta", "1.5", "--mu1", "0.3", "--mu2", "0.2"],
    ["classify", "--theta", "-1.5", "--mu1", "-0.3", "--mu2", "0.2"],
    ["act", "--rotate", "-2", "--mu1", "1", "--mu2", "1"],
    ["rotnum", "--rhoA", "2.5", "--rhoB", ".3", "--budget", "-5"],
    ["measure", "--rhoA", "1/2", "--rhoB", "1/3", "--n", "2", "--exact",
     "--format", "csv"],
    ["room", "--mu1-exact", "1,0,2", "--mu2-exact", "0,1,2", "--e1", "2,0"],
    [], ["orbit"], ["--mu1=1", "room"], ["--mu1", "1", "room"], ["--mu1=1"],
    ["--mu1=1", "classify"], ["-x", "scan", "--bogus"], ["", "room"],
]

# a separate value that begins with "-" but is no plain negative number:
# argparse takes it for a flag and refuses the call, the CLI reads it
SEPARATE_DASH_VALUES = [
    ["room", "--mu1=1", "--mu2=1", "--e2", "-0.37,1.0"],
    ["classify", "--theta", "-1e-3"] + ROOM_FLAGS,
    ["classify", "--theta", "-inf"] + ROOM_FLAGS,
    ["act", "--matrix", "-1,0,0,-1"] + ROOM_FLAGS,
]


def test_the_table_parser_reads_argv_as_argparse_does(monkeypatch):
    corpus = (_workload_ops(monkeypatch) + GRAMMAR_CORPUS
              + [[command] + flags for command, cases in GRAMMAR_CASES.items()
                 for flags in cases])
    assert len(corpus) > 888
    for argv in corpus:
        want = _through_oracle(argv)
        assert _parsed(cli.build_parser(), argv) == want, argv
        if argv and argv[0] in cli._COMMANDS:
            assert (_parsed(cli._Grammar(argv[0]), argv[1:])
                    == _through_oracle(argv[1:], argv[0])), argv


@pytest.mark.parametrize("argv", SEPARATE_DASH_VALUES,
                         ids=["e2", "theta-exponent", "theta-inf", "matrix"])
def test_a_separate_value_may_begin_with_a_dash(argv):
    k = next(i for i, a in enumerate(argv)
             if a.startswith("-") and not a.startswith("--"))
    flag = argv[k - 1]
    assert _through_oracle(argv) == f"argument {flag}: expected one argument"
    joined = argv[:k - 1] + [f"{flag}={argv[k]}"] + argv[k + 1:]
    assert _parsed(cli.build_parser(), argv) == _through_oracle(joined)


def test_a_double_dash_is_one_unrecognized_argument():
    # argparse reads every token after "--" as a positional, which no
    # command takes; the CLI reads on, so the message names "--" alone
    argv = ["room", "--"] + ROOM_FLAGS
    assert _parsed(cli.build_parser(), argv) == "unrecognized arguments: --"
    assert _through_oracle(argv) == ("unrecognized arguments: -- "
                                     + " ".join(ROOM_FLAGS))


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_names_every_flag_and_help_string(capsys, command):
    code, out, err = run(capsys, [command, "--help"])
    assert (code, err) == (0, "")
    listed = {line.split()[0] for line in out.splitlines() if line.strip()}
    for flag, keywords in cli._COMMANDS[command][2]:
        assert flag in listed
        assert keywords.get("help", "") in out
    assert cli._COMMANDS[command][1] in out
    assert run(capsys, [command, "-h"]) == (0, out, "")


def test_help_names_every_command_and_its_help_line(capsys):
    code, out, err = run(capsys, ["--help"])
    assert (code, err) == (0, "")
    listed = {line.split()[0] for line in out.splitlines() if line.strip()}
    for command, (_, help_line, _) in cli._COMMANDS.items():
        assert command in listed
        assert help_line in out
    assert run(capsys, ["-h"]) == (0, out, "")
