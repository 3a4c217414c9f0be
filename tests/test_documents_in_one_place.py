"""The CLI lays out every printed document.

The library returns records; `cli.py` alone turns them into JSON or
CSV.  So no other module of the package imports `json` or defines a
function or method whose name mentions json or csv.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dilatorus"


def _layouts(tree: ast.Module) -> list[str]:
    """Sorted `line name` of each json import and of each function or
    method whose name contains json or csv."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.partition(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").partition(".")[0] == "json":
                found.append((node.lineno, node.module))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name.lower()
            if "json" in name or "csv" in name:
                found.append((node.lineno, node.name))
    return [f"{line} {name}" for line, name in sorted(found)]


def test_only_the_cli_lays_out_documents():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{entry}" for entry in _layouts(tree)]
    assert found == []


def test_the_guard_sees_a_layout():
    source = ("import json\n"
              "from json import dumps\n"
              "class Record:\n"
              "    def to_json_dict(self):\n"
              "        return {}\n"
              "def series_to_CSV(rows):\n"
              "    return ''\n"
              "def _parse(text):\n"
              "    return text\n")
    assert _layouts(ast.parse(source)) == [
        "1 json", "2 json", "4 to_json_dict", "6 series_to_CSV"]
