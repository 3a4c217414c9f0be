"""The benchmark's tracer still finds and wraps every layer it measures."""

import ast
import importlib.util
import json
import math
import re
from pathlib import Path

from dilatorus import surface
from dilatorus.geometry import square_room

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", PERFBENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_every_traced_binding_resolves():
    bindings = tracing._function_bindings()
    assert bindings
    for owner, attr, name in bindings:
        assert callable(vars(owner).get(attr)), name
        # spans are named after the function itself, so an alias or a
        # renamed function would silently zero the layer's metrics
        assert name.rsplit(".", 1)[-1] == attr, name


def test_tracer_sees_the_direction_pipeline_and_restores_it():
    before = [(owner, attr, vars(owner)[attr])
              for owner, attr, _ in tracing._function_bindings()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        surface.find_cylinders(square_room(math.log(2.0), math.log(2.0)),
                               1.0, budget=200)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)
    layers = tracing.Layers(tracer)
    for layer in ("surface.find_cylinders", "surface.classify_direction",
                  "surface.direction_to_two_slope",
                  "surface.first_return_map", "surface._verify_reduction",
                  "surface.trace_ray", "intervalmaps.restrict_to_image",
                  "rauzy.iterate_induction"):
        assert layers.n(layer) > 0, layer


def _anchor_calls() -> dict:
    """ANCHOR_CALLS as perfbench/run.py pins it, read without running it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "ANCHOR_CALLS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no ANCHOR_CALLS")


def test_anchor_scan_call_counts_match_the_benchmark():
    anchor = _anchor_calls()
    assert anchor
    tracer = tracing.Tracer()
    tracer.install()
    try:
        surface.find_cylinders(square_room(math.log(2.0), math.log(2.0)),
                               0.3, budget=600)
    finally:
        tracer.uninstall()
    layers = tracing.Layers(tracer)
    assert {layer: layers.n(layer) for layer in anchor} == anchor


def test_bench_records_share_the_results_layout():
    # every committed BENCH_*.json is the dict `perfbench/run.py` writes
    # to perfbench/out/results.json, so one reader takes the whole series
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        doc = json.loads(path.read_text())
        assert isinstance(doc, dict) and doc, path.name
        for key, run in doc.items():
            assert re.fullmatch(r"(classify|scan|flow|exact)/trace[01]",
                                key), (path.name, key)
            assert set(run) == {"attempted", "correct", "failed",
                                "metrics"}, (path.name, key)
            for name, metric in run["metrics"].items():
                assert set(metric) == {"unit", "value"}, (path.name, name)
