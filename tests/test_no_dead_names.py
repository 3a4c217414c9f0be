"""Every name a package module defines is read somewhere.

A function, class, constant or class attribute that nothing in the
package, the tests or the benchmark reads is dead code: it costs a reader
time and can outlive the last caller it was kept for.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dilatorus"
READERS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def _targets(node: ast.stmt):
    """The names a module-level or class-body statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        yield node.name, node.lineno
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node.lineno


def defined(path: Path) -> dict[str, int]:
    """Name each statement at module level or in a class body binds ->
    its line; dunder names, which Python itself reads, are left out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bodies = [tree.body] + [node.body for node in ast.walk(tree)
                            if isinstance(node, ast.ClassDef)]
    return {name: line for body in bodies for node in body
            for name, line in _targets(node)
            if not (name.startswith("__") and name.endswith("__"))}


def read(paths) -> set[str]:
    """Every name the modules at `paths` load, bare or as an attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
    return names


def dead_names(modules, readers) -> list[str]:
    used = read(readers)
    return [f"{path.name}:{line} {name}" for path in modules
            for name, line in sorted(defined(path).items(),
                                     key=lambda item: item[1])
            if name not in used]


def test_every_name_the_package_defines_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    readers = [path for top in READERS for path in sorted(top.rglob("*.py"))]
    assert dead_names(modules, readers) == []


def test_the_check_sees_a_dead_function_and_a_dead_constant(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("LIMIT = 3\n"
                      "UNUSED_CAP = 7\n"
                      "class Box:\n"
                      "    size = LIMIT\n"
                      "    def __len__(self):\n"
                      "        return self.size\n"
                      "def helper():\n"
                      "    return Box()\n"
                      "def orphan():\n"
                      "    return helper()\n")
    assert dead_names([module], [module]) == ["probe.py:2 UNUSED_CAP",
                                             "probe.py:9 orphan"]
