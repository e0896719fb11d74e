"""Ratchet on library functions that only tests reach.

Every top-level function under src/ must be referenced from src/ or bench/
outside its own body (a string constant under bench/ counts, as the tracer
names the functions it wraps that way), unless TEST_ONLY lists it with the
reason it stays.  An entry that is referenced again, or whose function is
gone, fails too, so the list can only shrink.  References are matched by bare
name, so no two modules may define a top-level function of the same name: a
call of one would count as reaching the other.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "partition_forge"
BENCH = ROOT / "bench"

WIRING = "an identity of the thesis still to be wired into a verify command"

# function -> why it stays although only tests reach it
TEST_ONLY = {
    "local_commutation_check": WIRING,
    "corollary_value": WIRING,
    "fp_is_one_at_q_equals_t": WIRING,
    "fp_set_q_zero": WIRING,
    "cpp_to_paths": "the path-model oracle of dc_alphabet",
    "classify_cubes": "the path-model oracle of dc_alphabet",
    "paths_to_cpp": "shows that cpp_to_paths encodes each CPP faithfully",
}


def names_in(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text()).body


def scan():
    """Top-level functions under src/ and the names referenced outside them."""
    defined, referenced = set(), set()
    for _, body in modules():
        for node in body:
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
                # a call from its own body does not reach a function
                referenced.update(n for n in names_in(node) if n != node.name)
            else:
                referenced.update(names_in(node))
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        referenced.update(names_in(tree))
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                referenced.add(sub.value.rpartition(".")[2])
    return defined, referenced


def test_every_function_is_reached_or_listed():
    defined, referenced = scan()
    assert "enumerate_cpps" in defined and "enumerate_cpps" in referenced
    unreached = defined - referenced
    assert unreached - set(TEST_ONLY) == set()


def test_no_two_modules_define_one_function_name():
    where = {}
    for module, body in modules():
        for node in body:
            if isinstance(node, ast.FunctionDef):
                where.setdefault(node.name, []).append(module)
    assert {name: mods for name, mods in where.items() if len(mods) > 1} == {}


def test_test_only_list_can_only_shrink():
    defined, referenced = scan()
    assert set(TEST_ONLY) - defined == set()
    assert set(TEST_ONLY) & referenced == set()
