"""Every random draw in src/iplt goes through iplt.draws.

A call of .randrange, .randint, .sample, .shuffle or .choice outside
draws.py would draw through random.Random's own methods instead of the
byte-fed exact draws, so the check refuses any such call, on any object.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "iplt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "draws.py")
DRAW_METHODS = {"randrange", "randint", "sample", "shuffle", "choice"}


def _draw_calls(tree: ast.Module) -> list[str]:
    return sorted(
        f"{node.func.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in DRAW_METHODS
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_draw_outside_the_draws_module(path):
    """No module but draws.py calls a random.Random draw method."""
    assert _draw_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_check_catches_a_draw_call():
    """The check flags method calls by name, whatever the receiver, and
    leaves the draws module's own functions alone."""
    tree = ast.parse(
        "rng.shuffle(x)\nshuffle(rng, x)\nrandom.Random(0).randrange(5)\n"
        "self.rng.choice(x)\nbelow(rng, 5, 1)\n"
    )
    assert _draw_calls(tree) == ["choice (line 4)", "randrange (line 3)", "shuffle (line 1)"]
