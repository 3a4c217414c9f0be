"""Pass 0 of the benchmark's classify, scan and flow workloads at seed 0
prints what `perfbench/reference/` holds.

The benchmark checks its outputs only when it runs.  These tests run the
same ops through `cli.main` and judge them by the benchmark's own rules,
`perfbench/checks.against_reference` and, for scans and flows,
`rotated_cylinders`, so an output that drifts with the float pipeline's
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


@pytest.mark.parametrize("workload", ["classify", "scan", "flow"])
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
    for i, (op, ref) in enumerate(zip(ops, records)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        found = checks.against_reference(
            ref, checks.record(op.argv, code, out.getvalue(), err.getvalue()))
        if code == 0 and workload != "classify":
            doc = checks.parse(out.getvalue())
            cylinders = (doc["cylinders"] if workload == "scan"
                         else checks.flow_cylinders(doc))
            found += checks.rotated_cylinders(panel[op.info["base"]],
                                              cylinders, op.info["alpha"])
        problems += [f"op {i} ({op.argv[0]}): {p}" for p in found]
    assert problems == []
