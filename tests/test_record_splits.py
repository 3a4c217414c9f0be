"""A record split over a private NamedTuple base validates its fields.

A NamedTuple class body cannot define `__new__`, so a record that checks
or converts its fields on construction is written as a private
`_*Fields` NamedTuple and a public subclass whose `__new__` does the
work, as `geometry.SL2Matrix` and `intervalmaps.TwoSlopeMap` are.  A
subclass without its own `__new__` gains nothing from the split: its
methods, properties and docstring fit in one NamedTuple class, as
`surface.Heading` and `surface.RayTrace` show.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dilatorus"


def _is_named_tuple(node: ast.ClassDef) -> bool:
    return any(getattr(base, "id", getattr(base, "attr", None))
               == "NamedTuple" for base in node.bases)


def _splits_without_new(tree: ast.Module) -> list[str]:
    """'Record(_Fields)' of each class built on a private `_*Fields`
    NamedTuple of its module that defines no `__new__`, and
    '_Fields' of each such base that no class builds on."""
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    fields = {node.name for node in classes
              if node.name.startswith("_") and node.name.endswith("Fields")
              and _is_named_tuple(node)}
    found, used = [], set()
    for node in classes:
        bases = [base.id for base in node.bases
                 if isinstance(base, ast.Name) and base.id in fields]
        used.update(bases)
        if bases and not any(isinstance(member, ast.FunctionDef)
                             and member.name == "__new__"
                             for member in node.body):
            found.append(f"{node.name}({bases[0]})")
    return found + sorted(fields - used)


def test_every_split_record_defines_new():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.stem}.{hit}" for path in modules
             for hit in _splits_without_new(
                 ast.parse(path.read_text(), filename=str(path)))]
    assert found == []


def test_the_guard_sees_a_split_without_new():
    source = ("from typing import NamedTuple\n"
              "import typing\n"
              "class _AFields(NamedTuple):\n"
              "    x: int\n"
              "class A(_AFields):\n"
              "    def __new__(cls, x):\n"
              "        return tuple.__new__(cls, (x,))\n"
              "class _BFields(typing.NamedTuple):\n"
              "    y: int\n"
              "class B(_BFields):\n"
              "    @classmethod\n"
              "    def of(cls, y):\n"
              "        return cls(y)\n"
              "class _CFields(NamedTuple):\n"
              "    z: int\n"
              "class D(NamedTuple):\n"
              "    w: int\n")
    assert _splits_without_new(ast.parse(source)) == ["B(_BFields)",
                                                      "_CFields"]
