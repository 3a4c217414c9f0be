"""Exactness is decided in one module.

`quadratics` alone asks whether a scalar is a Fraction or a
QuadraticNumber: every other module goes through `is_exact`, `slack`,
`quadratic` and `integer_form`.  A float finiteness check such as
`isinstance(c, float)` is an input check and may stay anywhere.
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
