"""Every module of the package uses each name it imports.

The bench keep-alive imports are the exceptions: bench/spans.py traces those
functions under the importing module's name, so the module imports them
without calling them.
"""

import ast
from pathlib import Path

import wellcovered

KEEP_ALIVE = {("cli", "well_covered_space"), ("wcspace", "nullspace_basis"),
              ("wcspace", "enumerate_mis")}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_modules_use_every_name_they_import():
    package = Path(wellcovered.__file__).parent
    unused = {(path.stem, name)
              for path in package.glob("*.py") if path.name != "__init__.py"
              for name in _unused_imports(path.read_text(encoding="utf-8"))}
    assert unused == KEEP_ALIVE
