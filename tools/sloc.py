"""Source lines of the package, without docstrings, comments or blanks.

    python3 tools/sloc.py [ROOT]

ROOT is a checkout of this repository, by default the one holding this
script.  A line of `ROOT/src/dilatorus/*.py` counts when it holds a
token other than a comment, NL, NEWLINE, INDENT, DEDENT or the end
marker, and is not a line of a module, class or function docstring; a
string that spans several lines counts on each of them.  Prints one
`<module> <lines>` line per module that has any, in name order, then
`total <lines>`.  The script writes no file.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> int:
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = os.path.abspath(argv[0] if argv else
                           os.path.join(os.path.dirname(__file__), os.pardir))
    package = os.path.join(root, "src", "dilatorus")
    total = 0
    for name in sorted(os.listdir(package)):
        stem, ext = os.path.splitext(name)
        if ext != ".py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as f:
            lines = count(f.read())
        if lines:
            print(stem, lines)
        total += lines
    print("total", total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
