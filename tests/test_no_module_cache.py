"""The package keeps no cache at module level, and no per-call state on
a value.

Whatever the library keeps between calls lives on an object the caller
holds: a room's derived geometry sits in the room's instance dict, and
the set-up of a direction on the `surface.Direction` its caller builds.
A module-level cache would outlive a `cli.main` call and be shared by
every caller in the process, so that one test or benchmark op could
change the work of the next.  So no module uses `functools.lru_cache` or
`functools.cache`, none has a `global` statement, and no dict, list or
set bound at module level is changed inside a function.  Nor is a value
filled in on first use: `Room.geom` is the package's one
`functools.cached_property`, and every other value, a `surface.Heading`
among them, is built whole.  Nor does a call leave state on a value it
was handed: no function calls `vars()`, and an instance dict is written
only by the `__new__` that has just built the instance.
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


def _names_cached_property(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "cached_property")
            or (isinstance(node, ast.Attribute)
                and node.attr == "cached_property"))


def _cached_properties(tree: ast.Module) -> list[str]:
    """'Class.member' of each class member that cached_property makes,
    as a decorator or by assignment, by name or as
    functools.cached_property; '?' for a use outside a class."""
    found = []
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            if any(_names_cached_property(n) for n in ast.walk(stmt)):
                found.append("?")
            continue
        for member in stmt.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(map(_names_cached_property, member.decorator_list)):
                    found.append(f"{stmt.name}.{member.name}")
            elif isinstance(member, ast.Assign) and any(
                    map(_names_cached_property, ast.walk(member.value))):
                found += [f"{stmt.name}.{target.id}"
                          for target in member.targets
                          if isinstance(target, ast.Name)]
    return found


def test_room_geom_is_the_only_cached_property():
    # a cached_property fills a value's instance dict on first use:
    # `Room.geom`, the derived geometry of an immutable room, is the
    # one such state; a value whose fields are all set at construction
    # needs none
    found = [f"{path.stem}.{hit}" for path in sorted(PACKAGE.glob("*.py"))
             for hit in _cached_properties(ast.parse(path.read_text(),
                                                     filename=str(path)))]
    assert found == ["geometry.Room.geom"]


def test_the_guard_sees_each_cached_property():
    source = ("import functools\n"
              "from functools import cached_property\n"
              "class A:\n"
              "    @cached_property\n"
              "    def b(self):\n"
              "        return 1\n"
              "    @functools.cached_property\n"
              "    def c(self):\n"
              "        return 2\n"
              "    d = cached_property(lambda self: 3)\n"
              "    @property\n"
              "    def e(self):\n"
              "        return 4\n"
              "lazy = functools.cached_property(len)\n")
    assert _cached_properties(ast.parse(source)) == ["A.b", "A.c", "A.d",
                                                     "?"]


def _is_fresh_instance(fn: ast.FunctionDef, name: str) -> bool:
    """Whether `fn` is a `__new__` that binds `name` to a `__new__`
    call, the instance it has just built."""
    return fn.name == "__new__" and any(
        isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr == "__new__"
        and any(isinstance(t, ast.Name) and t.id == name
                for t in node.targets)
        for node in ast.walk(fn))


def _instance_state_writes(tree: ast.Module) -> list[str]:
    """Sorted 'line: what' of every call of vars() and of every use of
    an instance dict other than by a `__new__` on its own new
    instance."""
    found = []

    def visit(node: ast.AST, fn) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "vars"):
            found.append((node.lineno, "vars()"))
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            owner = getattr(node.value, "id", "?")
            if fn is None or not _is_fresh_instance(fn, owner):
                found.append((node.lineno, f"{owner}.__dict__"))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_no_call_leaves_state_on_a_value():
    # a room handed to a classification leaves it as it came: the
    # direction's set-up lives on the record its caller holds.  The one
    # instance-dict write is PiecewiseAffineMap's tolerance, set by the
    # __new__ that builds the map
    modules = sorted(PACKAGE.glob("*.py"))
    found = [f"{path.name}:{hit}" for path in modules
             for hit in _instance_state_writes(
                 ast.parse(path.read_text(), filename=str(path)))]
    assert found == []


def test_the_guard_sees_state_left_on_a_value():
    source = ("class A(tuple):\n"
              "    def __new__(cls, x):\n"
              "        self = tuple.__new__(cls, ())\n"
              "        self.__dict__['x'] = x\n"
              "        other = cls.make()\n"
              "        other.__dict__['x'] = x\n"
              "        return self\n"
              "    def set(self, x):\n"
              "        self.__dict__['x'] = x\n"
              "def keep(room, x):\n"
              "    vars(room)['x'] = x\n"
              "    room.__dict__.update(x=x)\n"
              "seen = vars()\n")
    assert _instance_state_writes(ast.parse(source)) == [
        "6: other.__dict__", "9: self.__dict__", "11: vars()",
        "12: room.__dict__", "13: vars()"]
