"""The CLI's cold start loads no module it does not need.

Every CLI call is a fresh interpreter, so what `import dilatorus.cli`
pulls in is paid on every call.  The records are NamedTuples, which
need neither `dataclasses` nor the `inspect` module it imports; the CLI
parses its flags from its own table, so neither `argparse` nor the
`gettext` it loads is needed; and `svgout` is imported by the commands
that draw, when they draw.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNNEEDED = ("argparse", "dataclasses", "gettext", "inspect",
            "dilatorus.svgout")

PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import dilatorus.cli
print(sorted(set(sys.argv[2:]) & set(sys.modules)))
"""


def test_importing_the_cli_loads_no_module_it_does_not_need():
    # -I: no user site, no PYTHONPATH, so only the interpreter's own
    # start-up and the package's imports are seen (it loads none of
    # UNNEEDED); -B: -I ignores PYTHONDONTWRITEBYTECODE, so say it
    # again, and write no bytecode into the checkout
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", PROBE,
                           str(SRC), *UNNEEDED],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout.strip() == "[]"
