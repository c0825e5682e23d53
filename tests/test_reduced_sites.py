"""Only allowlisted functions in src/iplt use FqMatrix._reduced.

FqMatrix._reduced builds a matrix without checking its entries, so each
function that uses it must build its rows from entries that are already
ints reduced mod q. The check refuses any use of an attribute named
_reduced outside ALLOWED, and an ALLOWED entry that no longer uses it, so
adding an unchecked site means editing this list.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "iplt"
MODULES = sorted(SRC.glob("*.py"))

ALLOWED = {
    "matrix.py": {
        "FqMatrix.mul",
        "FqMatrix.transpose",
        "FqMatrix.take_rows",
        "FqMatrix.take_cols",
        "right_null_space",
        "solve",
        "cauchy",
        "grs_generator",
        "random_grs_blocks",
    },
    "protocol.py": {
        "alignment_coefficients",
        "_assemble_align_trailing",
        "embedding_transform",
        "answer",
    },
    "store.py": {"unpack_entries"},
}


def _reduced_users(tree: ast.Module) -> set[str]:
    """Qualified names of the functions that read an attribute named _reduced."""
    users = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "_reduced":
                users.add(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return users


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_reduced_used_only_where_allowed(path):
    """Each module uses FqMatrix._reduced in exactly its allowlisted functions."""
    users = _reduced_users(ast.parse(path.read_text(encoding="utf-8")))
    assert users == ALLOWED.get(path.name, set())


def test_check_catches_a_reduced_use():
    """The check names the enclosing function, method or module of every
    read of _reduced, called or not, and ignores its definition."""
    tree = ast.parse(
        "class M:\n"
        "    def _reduced(cls): pass\n"
        "    def mul(self): return M._reduced()\n"
        "def f():\n"
        "    g = FqMatrix._reduced\n"
        "def h():\n"
        "    return FqMatrix(1, [])\n"
        "x = m._reduced(1)\n"
    )
    assert _reduced_users(tree) == {"M.mul", "f", "<module>"}
