"""Hash of the benchmark ops' outputs: one line, `<op count> <16 hex digits>`.

    python3 tools/ops_hash.py [ROOT]

ROOT is a checkout of this repository, by default the one holding this
script.  Passes 0 and 1 at seed 0 of each workload
(`workloads.make_pass(workload, 0, k)` from `ROOT/perfbench/workloads.py`)
run in this interpreter through ROOT's `dilatorus.cli.main`, workload by
workload in the order classify, scan, flow, exact, pass 0 before pass 1.
Each op feeds sha256 the repr of (argv list, exit code, stdout, stderr).
Two checkouts whose lines match print the same bytes on every op.  The
script writes no file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

WORKLOADS = ("classify", "scan", "flow", "exact")
SEED = 0
PASSES = 2


def main(argv: list[str]) -> int:
    root = os.path.abspath(argv[0] if argv else
                           os.path.join(os.path.dirname(__file__), os.pardir))
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from dilatorus import cli
    import workloads

    digest = hashlib.sha256()
    count = 0
    for workload in WORKLOADS:
        for k in range(PASSES):
            for op in workloads.make_pass(workload, SEED, k):
                out, err = io.StringIO(), io.StringIO()
                with (contextlib.redirect_stdout(out),
                      contextlib.redirect_stderr(err)):
                    code = cli.main(list(op.argv))
                digest.update(repr((list(op.argv), code, out.getvalue(),
                                    err.getvalue())).encode())
                count += 1
    print(count, digest.hexdigest()[:16])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
