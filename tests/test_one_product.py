"""Ratchet on who expands factor products by hand.

series.product is the only fold of binomial_factor through mul, and it
serves only the (q, t) hook side, whose truncation mixes two grades.
Outside series.py no module under src/ may reference binomial_factor, and
mul only from the places listed in ALLOWED; a listed place that stops
referencing it fails too, so the list can only shrink.  No product
truncated by total degree folds at all: series.product_by_degree expands
it by a recurrence, and the tests below run the one-variable hook
sides, the (q, t) left side, the q-binomial columns and the refined hook
side with mul refused.
"""

import ast
from pathlib import Path

from partition_forge import cli, qtseries, series

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


def refuse_mul(monkeypatch):
    def refuse(*args):
        raise AssertionError("series.mul called")

    monkeypatch.setattr(series, "mul", refuse)


def test_one_variable_hook_sides_never_multiply(monkeypatch, capsys):
    refuse_mul(monkeypatch)
    for argv in (
        ["verify-borodin", "--max-weight", "6"],
        ["verify-stanley", "--n", "3"],
        ["verify-macmahon"],
    ):
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()


def test_products_by_total_degree_never_multiply(monkeypatch, capsys):
    refuse_mul(monkeypatch)
    qtseries._necklace_weights.cache_clear()
    assert qtseries.qt_borodin_lhs("110100", 8, 8)
    assert qtseries.qbinomial_column(4, 6)
    argv = ["verify-bijection", "--profile", "10", "--max-weight", "4"]
    assert cli.main(argv) == 0, capsys.readouterr().err
