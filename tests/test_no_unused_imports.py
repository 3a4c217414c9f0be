"""No module of the package or of the tests imports a name it never uses.

An unused import hides which code a module depends on, and can keep a
dead name alive after its last caller is gone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dilatorus"
TESTS = ROOT / "tests"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name each import binds -> line of the import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    """Every annotation in the module; None where one is left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree: ast.Module) -> set[str]:
    """Names the module reads, those in quoted annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted)
                         if isinstance(n, ast.Name)}
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced(tree)
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(_imported(tree).items())
            if name not in used]


def _modules() -> list[Path]:
    return sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))


def test_no_module_imports_a_name_it_never_uses():
    modules = _modules()
    assert len(modules) >= 20
    stray = [hit for path in modules for hit in unused_imports(path)]
    assert stray == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("from __future__ import annotations\n"
                      "import math\n"
                      "from os import path, sep as separator\n"
                      "from typing import Optional, Sequence\n"
                      "def f(x: 'Optional[Sequence]') -> int:\n"
                      "    return math.floor(x)  # path, separator\n")
    assert unused_imports(module) == ["probe.py:3 path",
                                      "probe.py:3 separator"]
