"""Alternating parent/change pairs of one benchmark workload, and the claim rule.

    python3 tools/pairs.py PARENT CHANGE --workload W [--pairs 10]

PARENT and CHANGE are two checkouts of this repository.  Pair i, for
i = 1 .. pairs, runs `perfbench/run.py --workload W --trace 0 --seed i`
once in each checkout, at the run length `perfbench/run.py` sets, each
in a fresh interpreter started in that checkout, one after the other:
the parent first in odd pairs, the change first in even ones.  The
script refuses to start when the two `perfbench/` trees differ (their
`out/` and `__pycache__/` aside), since the two sides must run the same
benchmark, and it stops with exit status 1 at the first run that fails
or does not report `correct: true`.

It prints each pair's end-to-end metrics, then, for each metric that
PARENT's `BENCHMARK.json` lists under `end_to_end`, the median and
quartiles (statistics.quantiles, inclusive) of each side and the pairs
the change won, in that metric's `better` direction; a tie counts for
neither side.  Last comes, per metric, whether a gain may be claimed:
at least ten pairs were run, the change won at least nine tenths of
them, and its median is better than the parent's by more than the
parent's interquartile range.

Each side's runs keep their bytecode in a directory of their own
(PYTHONPYCACHEPREFIX), made empty for this script and removed when it
ends, so that no `__pycache__` a checkout holds is read: both sides
compile every module in their first run and read their own cache after
that, whatever state the checkouts were in.  The script writes no file
that outlives it.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys
import tempfile

SKIPPED_DIRS = ("out", "__pycache__")
MIN_PAIRS = 10


def differing(a: str, b: str) -> list[str]:
    """Paths, relative to a and b, of the files that only one tree holds
    or that differ in content, skipping `SKIPPED_DIRS`."""
    found = []
    cmp = filecmp.dircmp(a, b, ignore=list(SKIPPED_DIRS))
    stack = [("", cmp)]
    while stack:
        prefix, node = stack.pop()
        _, mismatch, errors = filecmp.cmpfiles(node.left, node.right,
                                               node.common_files,
                                               shallow=False)
        found += [prefix + name for name in
                  node.left_only + node.right_only + node.common_funny
                  + mismatch + errors]
        stack += [(f"{prefix}{name}/", sub)
                  for name, sub in node.subdirs.items()]
    return sorted(found)


def run(root: str, workload: str, seed: int, cache: str) -> dict:
    """The JSON document one trace-off run in `root` ends with, its
    bytecode read from and written to `cache` alone."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--trace", "0", "--seed", str(seed)],
        cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        doc = None
    if proc.returncode != 0 or not isinstance(doc, dict) or \
            doc.get("correct") is not True:
        raise RuntimeError(f"{root} seed {seed}: exit {proc.returncode}, "
                           f"last line {lines[-1] if lines else ''!r}\n"
                           f"{proc.stderr[-2000:]}")
    return doc


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, for quartiles")
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    changed = differing(*(os.path.join(r, "perfbench")
                          for r in roots.values()))
    if changed:
        print("the two perfbench/ trees differ: " + ", ".join(changed),
              file=sys.stderr)
        return 2
    with open(os.path.join(roots["parent"], "BENCHMARK.json"),
              encoding="utf-8") as fh:
        better = {m["name"]: m["better"]
                  for m in json.load(fh)["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {
        side: {name: [] for name in better} for side in roots}
    print(f"{args.workload}: {args.pairs} pairs, seeds 1-{args.pairs}")
    with tempfile.TemporaryDirectory() as parent_cache, \
            tempfile.TemporaryDirectory() as change_cache:
        caches = {"parent": parent_cache, "change": change_cache}
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            docs = {}
            for side in order:
                try:
                    docs[side] = run(roots[side], args.workload, i,
                                     caches[side])
                except RuntimeError as exc:
                    print(f"run failed: {exc}", file=sys.stderr)
                    return 1
                for name in better:
                    values[side][name].append(
                        docs[side]["metrics"][name]["value"])
            shown = ", ".join(
                f"{name} {values['parent'][name][-1]:.6g} -> "
                f"{values['change'][name][-1]:.6g}" for name in better)
            failed = ", ".join(
                f"{docs[side]['failed']}/{docs[side]['attempted']}"
                for side in roots)
            print(f"pair {i} ({order[0]} first): {shown}; "
                  f"failed ops {failed}")

    for name, direction in better.items():
        parent, change = values["parent"][name], values["change"][name]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        gap = sign * (pm - cm)
        holds = 10 * wins >= 9 * args.pairs and gap > p3 - p1
        verdict = (f"does not hold (fewer than {MIN_PAIRS} pairs)"
                   if args.pairs < MIN_PAIRS else
                   "holds" if holds else "does not hold")
        print(f"{name} ({direction} is better): parent {pm:.6g} "
              f"[{p1:.6g}, {p3:.6g}], change {cm:.6g} [{c1:.6g}, {c3:.6g}], "
              f"change won {wins}/{args.pairs}; median gap {gap:.6g} vs "
              f"parent IQR {p3 - p1:.6g}: claim {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
