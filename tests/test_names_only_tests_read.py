"""The package names that only the tests read are listed, each with its
reason.

`test_no_dead_names` asks that every name the package defines is read
somewhere, the tests included.  A name that no module under `src/` or
`perfbench/` reads is public API kept for the tests, the acceptance
criteria or the README alone, and each such name is listed in
`TEST_ONLY` with the reader it is kept for.  A new name that only the
tests read then fails until it is listed, and a listed name that gains
a reader outside the tests fails until it is taken off the list.  Reads
count as in `test_no_dead_names`, and so does a name that a
`from ... import` binds.
"""

import ast
from pathlib import Path

from test_no_dead_names import _targets, read

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dilatorus"
READERS = (ROOT / "src", ROOT / "perfbench")

TEST_ONLY = {
    "geometry.Vec2.dot": "the oracles' `Vec2` ray tracer",
    "geometry.Vec2.cross": "the oracles' `Vec2` ray tracer",
    "geometry.GluedSide.transport_offset": "README's side table",
    "intervalmaps.AffineChart.invert":
        "`oracles.lift_cycle_oracle`, and leaf certification in "
        "`test_surface`",
    "rauzy.InductionStep.induced":
        "`oracles.iterate_induction_oracle`, and acceptance criterion 2",
    "rauzy.induce":
        "`oracles.iterate_induction_oracle`, and acceptance criterion 2",
    "rauzy.Subdivision.lengths":
        "acceptance criterion 1, and the README quick start",
    "rauzy.subdivision": "acceptance criterion 1, and the README quick start",
    "rauzy.survivor_intervals":
        "bound by name, as a string, in `perfbench/tracing.py` "
        "(ROADMAP item 1b)",
    "surface.DirectionClass.reduction":
        "leaf certification, and ROADMAP item 2's key",
    "teichmuller.flow": "acceptance criterion 10a",
    "teichmuller.distortion": "acceptance criterion 9",
    "twists.ReachReport.final_params":
        "the exact end parameters its docstring names",
}


def qualified(path: Path) -> list[str]:
    """The names `defined` finds in the module at `path`, each as
    `<module>.<name>` or `<module>.<class>.<name>`."""
    out = []

    def scan(body, prefix):
        for node in body:
            out.extend(f"{prefix}.{name}" for name, _ in _targets(node)
                       if not (name.startswith("__") and name.endswith("__")))
            if isinstance(node, ast.ClassDef):
                scan(node.body, f"{prefix}.{node.name}")

    scan(ast.parse(path.read_text(), filename=str(path)).body, path.stem)
    return out


def read_or_imported(paths) -> set[str]:
    """`read`'s names, and every name a `from ... import` binds."""
    names = read(paths)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def names_only_tests_read(modules, readers) -> list[str]:
    used = read_or_imported(readers)
    return sorted(name for path in modules for name in qualified(path)
                  if name.rsplit(".", 1)[1] not in used)


def test_the_names_only_tests_read_are_the_listed_ones():
    modules = sorted(PACKAGE.glob("*.py"))
    readers = [path for top in READERS for path in sorted(top.rglob("*.py"))]
    assert names_only_tests_read(modules, readers) == sorted(TEST_ONLY)


def test_the_check_sees_a_name_only_a_test_reads(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("LIMIT = 3\n"
                      "class Box:\n"
                      "    size = LIMIT\n"
                      "    def grow(self):\n"
                      "        return self.size + 1\n"
                      "def helper():\n"
                      "    return Box()\n"
                      "def imported():\n"
                      "    return 0\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from probe import helper, imported\n"
                      "helper()\n")
    assert names_only_tests_read([module], [module, reader]) == [
        "probe.Box.grow"]
