"""The scripts under `tools/`: source lines, the ops hash and the pairs."""

import json
import os
import py_compile
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tool(name: str, *args: str) -> str:
    done = subprocess.run([sys.executable, str(ROOT / "tools" / name), *args],
                          capture_output=True, text=True, check=True)
    assert done.stderr == ""
    return done.stdout


def test_sloc_counts_code_lines_per_module_in_name_order(tmp_path):
    package = tmp_path / "src" / "dilatorus"
    package.mkdir(parents=True)
    # lines 5, 8 and 10-12 count: a multi-line string counts on each of
    # its lines, a docstring on none
    (package / "walk.py").write_text('"""Module docstring\n'
                                     'on two lines."""\n'
                                     "\n"
                                     "# a comment\n"
                                     "X = 1  # a trailing comment\n"
                                     "\n"
                                     "\n"
                                     "def f():\n"
                                     '    """Function docstring."""\n'
                                     '    return """a\n'
                                     "multi-line\n"
                                     'string"""\n')
    (package / "box.py").write_text("class Box:\n"
                                    '    """Class docstring."""\n'
                                    "\n"
                                    "    size = 2\n")
    (package / "notes.txt").write_text("X = 1\n")
    assert run_tool("sloc.py", str(tmp_path)) == "box 2\nwalk 5\ntotal 7\n"


def test_ops_hash_prints_the_op_count_and_a_hash():
    # a line per workload, then the total; no hash is pinned: a change
    # to the benchmark's ops or outputs moves it
    *per_workload, total = run_tool("ops_hash.py").splitlines()
    rows = [re.fullmatch(r"([a-z]+) ([0-9]+) [0-9a-f]{16}", line)
            for line in per_workload]
    assert all(rows), per_workload
    counts = [(row[1], int(row[2])) for row in rows]
    assert counts == [("classify", 480), ("scan", 4), ("flow", 4),
                      ("exact", 400)]
    assert sum(n for _, n in counts) == 888
    assert re.fullmatch(r"888 [0-9a-f]{16}", total)


# A stand-in for `perfbench/run.py`: it logs its arguments and the value
# its `helper` module was imported with to $PAIRS_LOG, and prints, as its
# last line, the fixed result document that its checkout's `result.json`
# holds, so that two checkouts can share one perfbench/ tree and still
# report different figures.
STUB_RUN = """\
import json, os, sys
import helper
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.environ["PAIRS_LOG"], "a") as log:
    log.write(json.dumps([os.path.basename(root), sys.argv[1:],
                          helper.VALUE]) + "\\n")
with open(os.path.join(root, "result.json")) as fh:
    print("a line before the result")
    print(fh.read().strip())
"""
STUB_BENCHMARK = {"end_to_end": [
    {"name": "wall_gauge", "better": "lower"},
    {"name": "setup_s", "better": "lower"},
    {"name": "ops_per_s", "better": "higher"}]}


def stub_checkout(root: Path, correct: bool, **metrics: float) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN)
    (root / "perfbench" / "helper.py").write_text("VALUE = 1\n")
    (root / "BENCHMARK.json").write_text(json.dumps(STUB_BENCHMARK))
    (root / "result.json").write_text(json.dumps({
        "correct": correct, "attempted": 12, "failed": 0,
        "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}))
    return root


def run_pairs(tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    # the script's temporary directories go under tmp/, to be seen removed
    (tmp_path / "tmp").mkdir()
    env = dict(os.environ, PAIRS_LOG=str(tmp_path / "log"),
               TMPDIR=str(tmp_path / "tmp"))
    return subprocess.run([sys.executable, str(ROOT / "tools" / "pairs.py"),
                           str(tmp_path / "parent"), str(tmp_path / "change"),
                           *args], capture_output=True, text=True, env=env)


def files_under(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_pairs_alternates_the_sides_and_applies_the_claim_rule(tmp_path):
    stub_checkout(tmp_path / "parent", True, wall_gauge=100.0, setup_s=0.04,
                  ops_per_s=5.0)
    stub_checkout(tmp_path / "change", True, wall_gauge=90.0, setup_s=0.04,
                  ops_per_s=4.0)
    before = {side: files_under(tmp_path / side)
              for side in ("parent", "change")}
    done = run_pairs(tmp_path, "--workload", "classify")
    assert done.returncode == 0 and done.stderr == ""
    # ten pairs by default, each running both sides, the first side
    # swapping pair by pair; the run length is perfbench's own
    calls = [json.loads(line)
             for line in (tmp_path / "log").read_text().splitlines()]
    sides = ["parent", "change", "change", "parent"] * 5
    assert calls == [[side, ["--workload", "classify", "--trace", "0",
                             "--seed", str(1 + k // 2)], 1]
                     for k, side in enumerate(sides)]
    assert files_under(tmp_path / "parent") == before["parent"]
    assert files_under(tmp_path / "change") == before["change"]
    assert files_under(tmp_path / "tmp") == {}
    lines = done.stdout.splitlines()
    assert lines[0] == "classify: 10 pairs, seeds 1-10"
    assert lines[2] == ("pair 2 (change first): wall_gauge 100 -> 90, "
                        "setup_s 0.04 -> 0.04, ops_per_s 5 -> 4; "
                        "failed ops 0/12, 0/12")
    # a tie counts for neither side, and higher is better for ops_per_s
    assert lines[11:] == [
        "wall_gauge (lower is better): parent 100 [100, 100], change 90 "
        "[90, 90], change won 10/10; median gap 10 vs parent IQR 0: claim "
        "holds",
        "setup_s (lower is better): parent 0.04 [0.04, 0.04], change 0.04 "
        "[0.04, 0.04], change won 0/10; median gap 0 vs parent IQR 0: "
        "claim does not hold",
        "ops_per_s (higher is better): parent 5 [5, 5], change 4 [4, 4], "
        "change won 0/10; median gap -1 vs parent IQR 0: claim does not "
        "hold"]


def test_pairs_claims_nothing_below_ten_pairs(tmp_path):
    stub_checkout(tmp_path / "parent", True, wall_gauge=100.0, setup_s=0.04,
                  ops_per_s=5.0)
    stub_checkout(tmp_path / "change", True, wall_gauge=90.0, setup_s=0.04,
                  ops_per_s=6.0)
    done = run_pairs(tmp_path, "--workload", "scan", "--pairs", "4")
    assert done.returncode == 0 and done.stderr == ""
    lines = done.stdout.splitlines()
    assert lines[0] == "scan: 4 pairs, seeds 1-4"
    assert lines[5] == (
        "wall_gauge (lower is better): parent 100 [100, 100], change 90 "
        "[90, 90], change won 4/4; median gap 10 vs parent IQR 0: claim "
        "does not hold (fewer than 10 pairs)")
    assert lines[7].endswith("change won 4/4; median gap 1 vs parent IQR "
                             "0: claim does not hold (fewer than 10 pairs)")


def test_pairs_reads_neither_checkouts_bytecode_cache(tmp_path):
    for side in ("parent", "change"):
        stub_checkout(tmp_path / side, True, wall_gauge=1.0, setup_s=1.0,
                      ops_per_s=1.0)
    # only the change holds a `__pycache__`, and its helper bytecode,
    # which the interpreter loads without looking at the source, reads 2
    source = tmp_path / "stale.py"
    source.write_text("VALUE = 2\n")
    cached = (tmp_path / "change" / "perfbench" / "__pycache__" /
              f"helper.{sys.implementation.cache_tag}.pyc")
    py_compile.compile(
        str(source), cfile=str(cached), doraise=True,
        invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH)
    before = files_under(tmp_path / "change")
    done = run_pairs(tmp_path, "--workload", "exact", "--pairs", "2")
    assert done.returncode == 0 and done.stderr == ""
    values = [json.loads(line)[2]
              for line in (tmp_path / "log").read_text().splitlines()]
    assert values == [1, 1, 1, 1]
    assert files_under(tmp_path / "change") == before
    assert files_under(tmp_path / "tmp") == {}


def test_pairs_refuses_two_different_benchmarks(tmp_path):
    for side in ("parent", "change"):
        stub_checkout(tmp_path / side, True, wall_gauge=1.0, setup_s=1.0,
                      ops_per_s=1.0)
    (tmp_path / "change" / "perfbench" / "run.py").write_text(STUB_RUN + "\n")
    (tmp_path / "change" / "perfbench" / "extra.py").write_text("")
    done = run_pairs(tmp_path, "--workload", "scan")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("the two perfbench/ trees differ: extra.py, "
                           "run.py\n")
    assert not (tmp_path / "log").exists()


def test_pairs_stops_at_a_run_that_is_not_correct(tmp_path):
    stub_checkout(tmp_path / "parent", True, wall_gauge=1.0, setup_s=1.0,
                  ops_per_s=1.0)
    stub_checkout(tmp_path / "change", False, wall_gauge=1.0, setup_s=1.0,
                  ops_per_s=1.0)
    done = run_pairs(tmp_path, "--workload", "flow", "--pairs", "3")
    assert done.returncode == 1
    assert "run failed:" in done.stderr and "seed 1" in done.stderr
    # the parent ran first in pair 1, then the change failed
    assert len((tmp_path / "log").read_text().splitlines()) == 2
