"""The package imports nothing outside the standard library.

NumPy and the test tools are installed next to the package, so a stray
third-party import would still run here; reading the imports from the
source catches it.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dilatorus"


def _third_party_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if name.partition(".")[0] not in sys.stdlib_module_names]
    return found


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    stray = [hit for path in modules for hit in _third_party_imports(path)]
    assert stray == []
