"""Ratchet on who expands factor products by hand.

series.product is the only fold of binomial_factor through mul.  Outside
series.py no module under src/ may reference binomial_factor, and mul only
from the places listed in ALLOWED; a listed place that stops referencing it
fails too, so the list can only shrink.  The one-variable hook sides do
not fold at all: series.z_coefficients expands them by a recurrence.
"""

import ast
from pathlib import Path

from partition_forge import cli, series

SRC = Path(__file__).resolve().parent.parent / "src" / "partition_forge"

# name -> (module, top-level definition) allowed to reference it
ALLOWED = {
    "binomial_factor": set(),
    # one series.mul per box with its Pochhammer ratio
    "mul": {("qtseries", "qt_borodin_rhs")},
}


def referenced_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_only_series_folds_factors():
    found = {name: set() for name in ALLOWED}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "series":
            continue
        for node in ast.parse(path.read_text()).body:
            for sub in ast.walk(node):
                name = referenced_name(sub)
                if name in found:
                    found[name].add((path.stem, getattr(node, "name", None)))
    assert (SRC / "qtseries.py").exists()
    assert found == ALLOWED


def test_one_variable_hook_sides_never_multiply(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("series.mul called")

    monkeypatch.setattr(series, "mul", refuse)
    for argv in (
        ["verify-borodin", "--max-weight", "6"],
        ["verify-stanley", "--n", "3"],
        ["verify-macmahon"],
    ):
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()
