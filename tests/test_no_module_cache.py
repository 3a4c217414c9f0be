"""The package keeps no cache at module level.

Whatever the library keeps between calls lives on an object the caller
holds: a room's derived geometry and the set-up of its last direction
sit in the room's instance dict.  A module-level cache would outlive a
`cli.main` call and be shared by every caller in the process, so that
one test or benchmark op could change the work of the next.  So no
module uses `functools.lru_cache` or `functools.cache`, none has a
`global` statement, and no dict, list or set bound at module level is
changed inside a function.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dilatorus"
CACHES = {"lru_cache", "cache"}
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
              ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                   "Counter", "deque"}
MUTATORS = {"append", "extend", "insert", "remove", "pop", "clear", "sort",
            "reverse", "update", "setdefault", "popitem", "add", "discard",
            "appendleft", "extendleft", "popleft", "__setitem__",
            "__delitem__"}


def _module_containers(tree: ast.Module) -> set[str]:
    """Names the module binds to a dict, list or set."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, CONTAINERS) or (
                isinstance(value, ast.Call)
                and getattr(value.func, "id",
                            getattr(value.func, "attr", None))
                in CONTAINER_CALLS):
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _mutated_name(node: ast.AST):
    """The name a statement or call changes in place, if any."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                         ast.Delete)):
        targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                   else [node.target])
        for target in targets:
            if (isinstance(target, (ast.Subscript, ast.Attribute))
                    and isinstance(target.value, ast.Name)):
                return target.value.id
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
            and isinstance(node.func.value, ast.Name)):
        return node.func.value.id
    return None


def _module_caches(tree: ast.Module) -> list[str]:
    """Sorted 'line: what' of every module-level cache the guard sees."""
    found = []
    containers = _module_containers(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append((node.lineno, "global " + ", ".join(node.names)))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, f"functools.{alias.name}")
                      for alias in node.names if alias.name in CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            found.append((node.lineno, f"functools.{node.attr}"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            for inner in ast.walk(node):
                name = _mutated_name(inner)
                if name in containers:
                    found.append((inner.lineno, f"{name} changed"))
    return [f"{line}: {what}" for line, what in sorted(set(found))]


def test_the_package_keeps_no_module_level_cache():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{hit}" for path in modules
             for hit in _module_caches(ast.parse(path.read_text(),
                                                 filename=str(path)))]
    assert found == []


def test_the_guard_sees_a_module_level_cache():
    source = ("import functools\n"
              "from functools import cached_property, lru_cache\n"
              "TABLE = {}\n"
              "SEEN: list = []\n"
              "LIMITS = (1, 2)\n"
              "count = 0\n"
              "@functools.cache\n"
              "def f(x):\n"
              "    global count\n"
              "    TABLE[x] = x\n"
              "    SEEN.append(x)\n"
              "    local = {}\n"
              "    local[x] = LIMITS[0]\n"
              "    return local\n"
              "def g(x):\n"
              "    del TABLE[x]\n"
              "    return dict(TABLE)\n")
    assert _module_caches(ast.parse(source)) == [
        "2: functools.lru_cache", "7: functools.cache", "9: global count",
        "10: TABLE changed", "11: SEEN changed", "16: TABLE changed"]
