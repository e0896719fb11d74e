"""Ratchet on who reads the strip tables inside cylindric.py.

next_shapes(letter, mu, room) states which partitions may follow mu on one
step under the weight room; enumerate_cpps lists by it and _closed_walks
counts by it.  Inside cylindric.py no other top-level definition may read
hstrips_up or hstrips_down (the import that binds them does not count).
"""

import ast
from pathlib import Path

CYLINDRIC = Path(__file__).resolve().parent.parent / "src" / "partition_forge" / "cylindric.py"

TABLES = {"hstrips_up", "hstrips_down"}


def test_only_next_shapes_reads_the_strip_tables():
    readers = set()
    for node in ast.parse(CYLINDRIC.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            continue
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if name in TABLES:
                readers.add(getattr(node, "name", None))
    assert readers == {"next_shapes"}
