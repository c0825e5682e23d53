"""Every name a module in src/iplt imports is used in that module.

__init__.py is skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "iplt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    """No imported name is left unused."""
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_check_catches_an_unused_import():
    """The check itself flags a name that is imported and never read."""
    tree = ast.parse("import os\nfrom .protocol import Query, answer\nanswer(os.sep)\n")
    assert _unused_imports(tree) == ["Query (line 2)"]
