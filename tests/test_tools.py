"""The two scripts under `tools/`: source lines and the ops hash."""

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
    # the hash itself is not pinned: a change to the benchmark's ops or
    # outputs moves it
    assert re.fullmatch(r"888 [0-9a-f]{16}\n", run_tool("ops_hash.py"))
