"""Ratchet on records whose left side is written by hand.

A record compares a computed left side with a right side.  A literal left
side compares nothing, so no record(...) call in cli.py may take one, except
the calls EXEMPT lists by their degree; an exempt call that is gone or
computes its left side again fails too, so the list can only shrink.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "partition_forge" / "cli.py"

# degree of a record still allowed a literal left side.  verify-stanley's
# empty shape: its report bytes are pinned by the bench digests.
EXEMPT = {"(empty):z^0"}


def is_literal(node):
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant)


def lhs_of(call):
    """The lhs argument of record(degree, lhs, rhs), or None."""
    for kw in call.keywords:
        if kw.arg == "lhs":
            return kw.value
    return call.args[1] if len(call.args) > 1 else None


def test_no_record_takes_a_literal_left_side():
    found = set()
    for node in ast.walk(ast.parse(CLI.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "record"
            and is_literal(lhs_of(node))
        ):
            degree = node.args[0]
            found.add(degree.value if isinstance(degree, ast.Constant) else ast.unparse(degree))
    assert found == EXEMPT
