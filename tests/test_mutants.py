"""The mutation sweep's generator, `tools/mutants.py`: every mutant it makes
of a library module compiles and differs from the module, and every entry of
its EQUIVALENT list names a mutant it makes.  The sweep itself runs in CI on
one module and by hand on the rest."""

import ast
import importlib.util
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)
MODULES = sorted(path.name for path in mutants.SRC.glob("*.py") if path.name != "__init__.py")


@cache
def module_mutants(name):
    return mutants.mutants((mutants.SRC / name).read_text())


@pytest.mark.parametrize("name", MODULES)
def test_every_mutant_compiles_and_differs(name):
    source = (mutants.SRC / name).read_text()
    original = ast.unparse(ast.parse(source))
    found = module_mutants(name)
    assert found
    for line, kind, shown, mutated in found:
        assert mutated != original, f"{name}:{line}: {shown}"
        compile(mutated, f"{name}:{line}", "exec")


def test_mutant_kinds_cover_operators_literals_and_guards():
    source = "def f(x, y):\n    if x < 0:\n        return 1\n    return x + 2 in y and x ** 2\n"
    shown = {shown for _, _, shown, _ in mutants.mutants(source)}
    assert shown == {
        "deleted: if x < 0:", "if x <= 0:", "if x < 1:", "return 2",
        "return x - 2 in y and x ** 2", "return x + 3 in y and x ** 2",
        "return x + 2 not in y and x ** 2", "return x + 2 in y or x ** 2",
        "return x + 2 in y and x * 2", "return x + 2 in y and x ** 3",
    }


def test_every_equivalent_entry_names_a_mutant():
    made = {(name, shown) for name in MODULES for _, _, shown, _ in module_mutants(name)}
    assert sorted(set(mutants.EQUIVALENT) - made) == []
