"""Every verdict is its string.

A direction's kind, a trace's or an induction's end, a holonomy verdict
and a monitor flag are the strings the CLI prints, with no Enum to spell
them a second time.  So no module of the package imports `enum`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dilatorus"


def enum_imports(path: Path) -> list[str]:
    """`name:line` of each import of `enum`, or of a name from it, in the
    module at `path`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        if any(m.partition(".")[0] == "enum" for m in modules):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_package_module_imports_enum():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    assert [hit for path in modules for hit in enum_imports(path)] == []


def test_the_guard_sees_an_enum_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("import math\n"
                      "from enum import Enum\n"
                      "import enum as e\n"
                      "from .enumerate import walk\n"
                      "class Kind(Enum):\n"
                      "    DOOR = 'door'\n")
    assert enum_imports(module) == ["probe.py:2", "probe.py:3"]
