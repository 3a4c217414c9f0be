"""Pass 0 of each of the benchmark's four workloads at seed 0 prints
what `perfbench/reference/` holds.

The benchmark checks its outputs only when it runs.  These tests run the
same ops through `cli.main` and judge them by the benchmark's own rules,
as `perfbench/checks.Checker.add` does: `against_reference` for every
op, `rotated_cylinders` for scans and flows, `measure_twins` for a float
measure against its exact twin and `reach_word` for a reach, so an
output that drifts with the float pipeline's or the exact tracks'
arithmetic fails here too.  They only read `perfbench/`.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

import pytest

from dilatorus import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 0


def _reference(name: str):
    return json.loads((PERFBENCH / "reference" / f"{name}.json").read_text())


@pytest.mark.parametrize("workload", ["classify", "scan", "flow", "exact"])
def test_pass_0_matches_the_benchmark_reference(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    reference = _reference(workload)
    assert reference["seed"] == SEED
    panel = _reference("panel")
    ops = workloads.make_pass(workload, SEED, 0)
    records = reference["passes"][0]
    assert len(ops) == len(records) > 0
    problems = []
    exact_measures = {}
    for i, (op, ref) in enumerate(zip(ops, records)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        found = checks.against_reference(
            ref, checks.record(op.argv, code, out.getvalue(), err.getvalue()))
        doc = checks.parse(out.getvalue()) if code == 0 else None
        info = op.info
        if doc is not None:
            if op.kind in ("scan", "flow"):
                cylinders = (doc["cylinders"] if op.kind == "scan"
                             else checks.flow_cylinders(doc))
                found += checks.rotated_cylinders(panel[info["base"]],
                                                  cylinders, info["alpha"])
            elif op.kind == "measure_exact":
                exact_measures[i] = doc["measure_float"]
            elif op.kind == "measure_float" and info["twin"] in exact_measures:
                found += checks.measure_twins(exact_measures[info["twin"]],
                                              doc["measure"])
            elif op.kind == "reach":
                found += checks.reach_word(doc, info["mu"], info["target"],
                                           info["tol"])
        problems += [f"op {i} ({op.argv[0]}): {p}" for p in found]
    assert problems == []
