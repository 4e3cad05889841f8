"""Every module of the package uses each name it imports.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by `import` or `from ... import` must appear as a name
somewhere else in the module.  `__init__.py` re-exports and is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "biozsim"


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports(PACKAGE / module) == []
