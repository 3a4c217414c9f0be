"""The benchmark's tracer still finds and wraps every layer it measures."""

import ast
import importlib
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


def _resolves(module: str, name: str) -> bool:
    """Whether `from module import name` succeeds: an attribute of the
    module, or a submodule of a package."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_benchmark_import_from_the_package_resolves():
    # a name the benchmark imports from dilatorus that is gone or renamed
    # would end every run that needs it as run_failed; function-level
    # imports count too
    imported = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and not node.level:
                if node.module.split(".")[0] != "dilatorus":
                    continue
                for alias in node.names:
                    assert _resolves(node.module, alias.name), (
                        path.name, node.module, alias.name)
                    imported.add(f"{node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "dilatorus":
                        importlib.import_module(alias.name)
                        imported.add(alias.name)
    # among them the four names perfbench/checks.py verifies outputs with
    assert {"dilatorus.twists.twist_mu", "dilatorus.twists.word_from_string",
            "dilatorus.geometry.DilationParams",
            "dilatorus.surface.CYLINDER_EDGE_TOL"} <= imported


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
