"""Benchmark of the dilatorus CLI: end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload classify --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, both modes
    python3 perfbench/run.py --write-reference

One run executes one workload in this interpreter, through in-process
`dilatorus.cli.main(argv)` calls with stdout and stderr captured.  It
repeats a pass of seeded ops (see workloads.py) as many times as take
about `--seconds` at the host's usual load, a count that depends on the
workload and `--seconds` alone, so that two runs with one seed do the
same work; it checks every output, prints each metric with its unit and
sample count, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics with tracing off:
  setup_s      median over 21 fresh interpreters spread through the run,
               each importing dilatorus.cli and building its parser,
               which every CLI invocation pays; each time is scaled to
               the host speed gauge.REFERENCE_S stands for, by the gauge
               timed in that interpreter before and after;
  wall_gauge   one pass, in units of the speed gauge (gauge.py) timed
               around and during every op: the sum over the slots of
               each slot's median;
  peak_rss_mb  this process's peak resident memory.
wall_s (the same pass in seconds), op_p50_ms, op_p95_ms (from 200 ops
up) and failed_frac, broken down by exit code and error name, are
printed but left out of the JSON: wall_s swings by up to half with the
host's busy spells, op_p50_ms jumps between the two modes of classify's
latency from seed to seed, too few scan and flow ops fit a run for
op_p95_ms, and failed_frac is 0: the workloads hold no op that fails.
--trace 1 runs pass 0 untraced, traced (tracing.py) and untraced again,
reports the per-layer metrics and the tracing overhead, and writes the
spans to perfbench/out/.  The traced scan run also replays the baseline
scan of the square ln 2 room and requires its exact call counts.

Without --workload, every workload runs in its own fresh interpreter in
both modes, and the results go to perfbench/out/results.json.  Exit
status: 0 when every output is right, 1 on a wrong output, 2 when the
package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import gauge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 15
P95_MIN_OPS = 200
SETUP_SAMPLES = 21
# A run stops early past this, only on a host several times slower than
# PASS_SECONDS assumes, so that it still ends within three minutes.
MAX_PASS_SECONDS = 120.0
REFERENCE_PASSES = 2
# Baseline counts of find_cylinders(square_room(ln 2, ln 2), 0.3, budget=600).
ANCHOR_CALLS = {"surface.classify_direction": 586,
                "surface.first_return_map": 1296,
                "surface.trace_ray": 91085,
                "surface._collapsed_direction": 117}
FAILURE_NAMES = ("BadInput", "NotReducible", "NotTransverse", "VertexHit",
                 "NonConvergence", "BudgetExhausted")

# perfbench goes last on the path, so that no import of dilatorus.cli
# looks there first
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
sys.path.append(sys.argv[2])
import gauge
before = gauge.median_gauge()
t0 = time.perf_counter()
import dilatorus.cli
dilatorus.cli.build_parser()
seconds = time.perf_counter() - t0
after = gauge.median_gauge()
print(seconds * gauge.REFERENCE_S * 0.5 * (1.0 / before + 1.0 / after))
"""


# --- one op ---

def call(main, argv, sampler=None):
    """(exit code, seconds, stdout, stderr) of one in-process CLI call,
    less the time a gauge.Sampler, if given, took during it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        with sampler or contextlib.nullcontext():
            try:
                code = main(argv)
            except Exception as exc:    # an escaped exception is a failed op too
                code = 1
                err.write(json.dumps({"error": type(exc).__name__,
                                      "detail": str(exc)}) + "\n")
        seconds = time.perf_counter() - t0
    if sampler is not None:
        seconds -= sampler.spent
    return code, seconds, out.getvalue(), err.getvalue()


class Result:
    """One executed op; its output is reduced to a digest once checked."""

    def __init__(self, pass_index, index, op, code, seconds, out, err,
                 work=0.0):
        self.pass_index, self.index, self.op = pass_index, index, op
        self.code, self.seconds, self.work = code, seconds, work
        self.digest = hashlib.sha256(out.encode()).hexdigest()
        self.error = _error_name(out, err) if code else ""


def _error_name(out: str, err: str) -> str:
    """Name in the op's JSON diagnostic (stdout for exit 3, else stderr)."""
    for text in (err, out):
        try:
            doc = json.loads(text.strip().splitlines()[-1])
        except (ValueError, IndexError):
            continue
        if isinstance(doc, dict) and "error" in doc:
            return doc["error"]
    return "unknown"


def run_pass(main, ops, k, checker=None, sampled=True) -> list[Result]:
    """Run one pass; with `sampled`, each op's work in gauge units is its
    time times the mean gauge speed before, during and after it."""
    results = []
    before = gauge.median_gauge()
    sampler = gauge.Sampler() if sampled else None
    for i, op in enumerate(ops):
        code, seconds, out, err = call(main, op.argv, sampler)
        after = gauge.median_gauge()
        during = sampler.samples if sampled else []
        speed = statistics.fmean(1.0 / g for g in [before, after, *during])
        results.append(Result(k, i, op, code, seconds, out, err,
                              seconds * speed))
        before = after
        if checker is not None:
            checker.add(results[-1], out, err)
    return results


def new_checker(checks, workload, seed):
    ref = _load(os.path.join(REFERENCE, f"{workload}.json"))["passes"]
    return checks.Checker(_load(os.path.join(REFERENCE, "panel.json")),
                          ref if seed == DEFAULT_SEED else None)


def repeat_check(main, results) -> list[str]:
    """Re-run the cheapest op of pass 0; its bytes must not change."""
    first = min((r for r in results if r.pass_index == 0),
                key=lambda r: r.seconds)
    again = Result(0, first.index, first.op, *call(main, first.op.argv))
    if (again.code, again.digest) != (first.code, first.digest):
        return [f"op {first.op.argv[0]} printed other bytes when repeated"]
    return []


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- metrics ---

def failures(results) -> dict[str, int]:
    """Non-zero exits by 'exit <code> <error name>'."""
    out: dict[str, int] = {}
    for r in results:
        if r.code != 0:
            key = f"exit {r.code} {r.error}"
            out[key] = out.get(key, 0) + 1
    return out


def setup_sample() -> float:
    """Seconds a fresh interpreter takes to import dilatorus.cli and build
    its parser, scaled to the reference gauge speed."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, HERE],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def slot_medians(results, value) -> list[float]:
    """Per slot, the median of value(result) over its repeats."""
    by_slot: dict[int, list[float]] = {}
    for r in results:
        by_slot.setdefault(r.index, []).append(value(r))
    return [statistics.median(v) for _, v in sorted(by_slot.items())]


def end_to_end(results, passes, setup) -> tuple[dict, list[str]]:
    slots = slot_medians(results, lambda r: r.seconds)
    lat_ms = sorted(r.seconds * 1e3 for r in results)
    n = len(lat_ms)
    failed = failures(results)
    n_failed = sum(failed.values())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_gauge": (sum(slot_medians(results, lambda r: r.work)), "gauge"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    per_slot = f"{len(slots)} slots x {passes} repeats, median per slot"
    lines = [
        _line("setup_s", metrics["setup_s"], f"median of {len(setup)} fresh interpreters"),
        _line("wall_gauge", metrics["wall_gauge"],
              f"one pass in speed-gauge units; {per_slot}"),
        _line("wall_s", (sum(slots), "s"), f"one pass; {per_slot}"),
        # printed only: on classify the median sits between the two modes
        # of a bimodal latency and jumps with the seed
        _line("op_p50_ms", (statistics.median(slots) * 1e3, "ms"), per_slot),
    ]
    if n >= P95_MIN_OPS:
        p95 = statistics.quantiles(lat_ms, n=20)[18]
        lines.append(_line("op_p95_ms", (p95, "ms"), f"{n} ops"))
    else:
        lines.append(f"  {'op_p95_ms':<12} n/a   (only {n} ops, needs {P95_MIN_OPS})")
    detail = ", ".join(f"{k}: {v}" for k, v in sorted(failed.items())) or "none"
    lines.append(_line("failed_frac", (n_failed / n, "frac"),
                       f"{n_failed} of {n} ops; {detail}"))
    lines.append(_line("peak_rss_mb", metrics["peak_rss_mb"], "this process"))
    return metrics, lines


def _line(name, value_unit, note="") -> str:
    value, unit = value_unit
    return f"  {name:<12} {value:.6g} {unit}" + (f"   ({note})" if note else "")


# --- the two modes ---

def timed_run(workload, seed, seconds):
    from dilatorus import cli
    import checks
    import workloads
    checker = new_checker(checks, workload, seed)
    passes = workloads.pass_count(workload, seconds)
    setup, results = [], []
    t_start = time.perf_counter()
    k = 0
    while k < passes and time.perf_counter() - t_start < MAX_PASS_SECONDS:
        # setup samples are spread over the run, so they meet the same
        # mix of quiet and busy spells of the machine as the passes do
        while len(setup) * passes < SETUP_SAMPLES * (k + 1):
            setup.append(setup_sample())
        results += run_pass(cli.main, workloads.make_pass(workload, seed, k),
                            k, checker)
        k += 1
    problems = checker.problems + repeat_check(cli.main, results)
    metrics, lines = end_to_end(results, k, setup)
    header = f"{workload} seed {seed}, trace off: {k} passes, {len(results)} ops"
    return results, metrics, [header] + lines, problems


def traced_run(workload, seed):
    from dilatorus import cli, surface
    from dilatorus.geometry import square_room
    import checks
    import tracing
    import workloads
    ops = workloads.make_pass(workload, seed, 0)
    checker = new_checker(checks, workload, seed)
    # untraced, traced, untraced: the overhead is taken against the mean
    # of the two untraced passes, which bracket the traced one in time
    plain = run_pass(cli.main, ops, 0, checker, sampled=False)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(tracer.wrap(cli.main, "cli.main"), ops, 0,
                          sampled=False)
    finally:
        tracer.uninstall()
    again = run_pass(cli.main, ops, 0, sampled=False)
    problems = checker.problems + [
        f"op {a.index}: output changed under tracing or on repeat"
        for a, b, c in zip(plain, traced, again)
        if not (a.code, a.digest) == (b.code, b.digest) == (c.code, c.digest)]
    plain_s = 0.5 * (_op_seconds(plain) + _op_seconds(again))
    traced_s = _op_seconds(traced)
    metrics = tracing.per_layer_metrics(tracing.Layers(tracer))
    metrics["bench.untraced_wall_s"] = (plain_s, "s")
    metrics["bench.traced_wall_s"] = (traced_s, "s")
    metrics["bench.trace_overhead_s"] = (traced_s - plain_s, "s")
    failed = failures(plain)
    for name in FAILURE_NAMES:
        metrics[f"cli.failures.{name}"] = (
            sum(v for k, v in failed.items() if k.endswith(f" {name}")), "count")
    metrics["cli.failures.other"] = (
        sum(v for k, v in failed.items()
            if k.rsplit(" ", 1)[-1] not in FAILURE_NAMES), "count")
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{workload}-{seed}.bin"))
    lines = [f"{workload} seed {seed}, traced: pass 0, {len(plain)} ops, "
             f"{len(tracer.name)} spans"]
    lines += [_line(k, v) for k, v in metrics.items()]
    if workload == "scan":
        anchor = tracing.Tracer()
        anchor.install()
        try:
            surface.find_cylinders(square_room(math.log(2.0), math.log(2.0)),
                                   0.3, budget=600)
        finally:
            anchor.uninstall()
        layers = tracing.Layers(anchor)
        counts = {k: layers.n(k) for k in ANCHOR_CALLS}
        lines.append(f"  anchor scan of square_room(ln 2, ln 2) at eps 0.3: {counts}")
        if counts != ANCHOR_CALLS:
            problems.append(f"anchor counts {counts} != {ANCHOR_CALLS}")
    return plain, metrics, lines, problems


def _op_seconds(results) -> float:
    return sum(r.seconds for r in results)


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.trace:
        results, metrics, lines, problems = traced_run(args.workload, args.seed)
    else:
        results, metrics, lines, problems = timed_run(args.workload, args.seed,
                                                      args.seconds)
    for line in lines:
        print(line)
    for p in problems[:20]:
        print(f"WRONG OUTPUT: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(1 for r in results if r.code != 0),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def run_all(args) -> int:
    import workloads
    summary, status = {}, 0
    for workload in workloads.WORKLOADS:
        for mode in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(mode)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                status = 1
                print(proc.stderr[-2000:], file=sys.stderr)
            try:
                summary[f"{workload}/trace{mode}"] = json.loads(lines[-1])
            except (IndexError, ValueError):
                summary[f"{workload}/trace{mode}"] = None
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"results written to {os.path.relpath(os.path.join(OUT, 'results.json'), ROOT)}")
    return status


def write_reference(args) -> int:
    """Record default-seed outputs and the unrotated panel scans."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from dilatorus import cli
    import checks
    import workloads
    os.makedirs(REFERENCE, exist_ok=True)
    panel = {}
    for name, room in workloads.PANEL.items():
        code, _, out, _ = call(cli.main, workloads.panel_scan_argv(*room))
        if code != 0:
            print(f"panel scan of {name} failed", file=sys.stderr)
            return 1
        panel[name] = checks.parse(out)["cylinders"]
    _dump(os.path.join(REFERENCE, "panel.json"), panel)
    for workload in workloads.WORKLOADS:
        passes = []
        for k in range(REFERENCE_PASSES):
            records = []
            for op in workloads.make_pass(workload, DEFAULT_SEED, k):
                code, _, out, err = call(cli.main, op.argv)
                records.append(checks.record(op.argv, code, out, err))
            passes.append(records)
        _dump(os.path.join(REFERENCE, f"{workload}.json"),
              {"seed": DEFAULT_SEED, "passes": passes})
        print(f"wrote reference for {workload}")
    return 0


def _dump(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("classify", "scan", "flow", "exact"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dilatorus", "__init__.py")):
        print(f"no package source at {os.path.relpath(SRC)}/dilatorus; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
