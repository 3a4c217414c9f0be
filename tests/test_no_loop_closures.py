"""The package defines no function inside a loop.

A `def` or `lambda` in the body of a `for` or `while` loop, or in the
element of a comprehension, builds a new function object on every
iteration, and a closure there reads loop variables that the loop goes
on to rebind.  A scan that needs a key or a predicate defines it once,
before its loop, and passes what changes from one iteration to the next
as an argument: `surface._bisect(inside, outside, key_of, key, tol)`
takes the key its bracket is bisected on.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dilatorus"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _repeated_parts(node: ast.AST) -> list[ast.AST]:
    """The parts of a loop that run once per iteration."""
    if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
        return node.body + node.orelse
    if isinstance(node, ast.DictComp):
        return [node.key, node.value]
    if isinstance(node, COMPREHENSIONS):
        return [node.elt]
    return []


def _loop_closures(tree: ast.Module) -> list[str]:
    """Sorted 'line: name' of every function defined inside a loop."""
    found = set()
    for loop in ast.walk(tree):
        for part in _repeated_parts(loop):
            for node in ast.walk(part):
                if isinstance(node, FUNCTIONS):
                    found.add((node.lineno, getattr(node, "name", "lambda")))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_the_package_defines_no_function_inside_a_loop():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{hit}" for path in modules
             for hit in _loop_closures(ast.parse(path.read_text(),
                                                 filename=str(path)))]
    assert found == []


def test_the_guard_sees_a_function_inside_a_loop():
    source = ("def scan(xs):\n"
              "    key = lambda x: x\n"
              "    for x in map(lambda y: y, xs):\n"
              "        def inner(y):\n"
              "            return y == x\n"
              "    else:\n"
              "        done = lambda: True\n"
              "    while xs:\n"
              "        if xs.pop():\n"
              "            async def later():\n"
              "                pass\n"
              "    fs = [lambda: x for x in xs]\n"
              "    gs = {x: (lambda: x) for x in xs}\n"
              "    return sorted(xs, key=lambda x: -x)\n")
    assert _loop_closures(ast.parse(source)) == [
        "4: inner", "7: lambda", "10: later", "12: lambda", "13: lambda"]
