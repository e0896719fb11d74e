"""Ratchet on bare assert statements under src/, which python -O strips.

A check that must hold in every run raises AssertionError explicitly; this
test fails when a module gains a bare assert, so the count can only fall.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "partition_forge"

# module -> most bare asserts allowed; every module not listed allows none
ALLOWED = {}


def test_bare_asserts_do_not_grow():
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        counts[path.stem] = sum(isinstance(node, ast.Assert) for node in ast.walk(tree))
    assert "correspondences" in counts
    over = {m: n for m, n in counts.items() if n > ALLOWED.get(m, 0)}
    assert not over, over
