"""Ratchet: every top-level definition under src/ is reached from a command.

The walk starts at cli.main and at cli.py's command tables (COMMANDS and
KINDS).  A top-level function, class or assigned name of any module under
src/ counts as reached when a reached body names it, so a helper that only
unreached code calls is unreached too.  There is no allow-list: an oracle
that only tests need lives under tests/.  References are matched by bare
name, so no two modules may define a top-level name twice: a call of one
would count as reaching the other.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "partition_forge"

ROOTS = ("main", "COMMANDS", "KINDS")


def names_in(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def definitions():
    """(module, name, node) for each top-level function, class and assigned
    name under src/."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name, node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield path.stem, target.id, node


def unreached(bodies, roots):
    """The names in bodies (name -> node) that no walk from roots reaches."""
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in bodies and name not in reached:
            reached.add(name)
            todo.extend(names_in(bodies[name]))
    return set(bodies) - reached


def test_every_definition_is_reached_from_a_command():
    bodies = {name: node for _, name, node in definitions()}
    assert set(ROOTS) <= set(bodies) and "enumerate_cpps" in bodies
    assert unreached(bodies, ROOTS) == set()


def test_a_helper_named_only_by_unreached_code_is_unreached():
    bodies = {
        name: ast.parse(source).body[0]
        for name, source in {
            "main": "def main():\n    return h()",
            "h": "def h():\n    return 1",
            "g": "def g():\n    return f()",
            "f": "def f():\n    return f()",
        }.items()
    }
    assert unreached(bodies, ["main"]) == {"f", "g"}


def test_no_two_modules_define_one_function_name():
    where = {}
    for module, name, _ in definitions():
        where.setdefault(name, []).append(module)
    assert {name: mods for name, mods in where.items() if len(mods) > 1} == {}
