"""Exactness is decided in one module.

`quadratics` alone asks whether a scalar is a Fraction or a
QuadraticNumber: every other module goes through `is_exact`, `slack`,
`quadratic` and `integer_form`.  A float finiteness check such as
`isinstance(c, float)` is an input check and may stay anywhere.  No
record restates the question as an `is_exact` member of its own: a
caller asks `is_exact(*record)`.  The field rule `one_field` is applied
by the arithmetic that combines two values, so no library module
restates it; the CLI alone calls it, to name the flags of its input.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dilatorus"
EXACT_TYPES = {"Fraction", "QuadraticNumber"}


def _type_switches(tree: ast.Module) -> list[int]:
    """Sorted lines of isinstance calls naming an exact type, and of reads of
    QuadraticNumber's former private coercion `_coerce`."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"):
            named = {n.id for arg in node.args[1:] for n in ast.walk(arg)
                     if isinstance(n, ast.Name)}
            if named & EXACT_TYPES:
                lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "_coerce":
            lines.add(node.lineno)
    return sorted(lines)


def test_only_quadratics_switches_on_exact_types():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "quadratics.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _type_switches(tree)]
    assert found == []


def test_the_guard_sees_a_type_switch():
    source = ("from fractions import Fraction\n"
              "def f(x, y):\n"
              "    ok = isinstance(x, float)\n"
              "    if isinstance(x, (int, Fraction)):\n"
              "        return ok\n"
              "    return y._coerce(x)\n")
    assert _type_switches(ast.parse(source)) == [4, 6]


def _is_exact_members(tree: ast.Module) -> list[str]:
    """Classes that define a member named `is_exact`: a method, a
    property or an assigned attribute."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {item.name}
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = (item.targets if isinstance(item, ast.Assign)
                           else [item.target])
                names = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                continue
            if "is_exact" in names:
                found.append(node.name)
    return found


def test_no_class_defines_an_is_exact_member():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{name}" for name in _is_exact_members(tree)]
    assert found == []


def test_the_guard_sees_an_is_exact_member():
    source = ("class P:\n"
              "    @property\n"
              "    def is_exact(self):\n"
              "        return True\n"
              "class Q:\n"
              "    is_exact = True\n"
              "class R:\n"
              "    def as_floats(self):\n"
              "        return is_exact(self)\n")
    assert _is_exact_members(ast.parse(source)) == ["P", "Q"]


def _one_field_calls(tree: ast.Module) -> list[int]:
    """Sorted lines of calls of `one_field`, by name or as an attribute."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and (getattr(node.func, "id", None) == "one_field"
                        or getattr(node.func, "attr", None) == "one_field")})


def test_only_quadratics_and_cli_call_one_field():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("quadratics.py", "cli.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _one_field_calls(tree)]
    assert found == []


def test_the_guard_sees_a_one_field_call():
    source = ("from . import quadratics\n"
              "from .quadratics import one_field\n"
              "def f(x, y):\n"
              "    one_field(x, y)\n"
              "    checked = one_field\n"
              "    return quadratics.one_field(x) + checked(y)\n")
    assert _one_field_calls(ast.parse(source)) == [4, 6]
