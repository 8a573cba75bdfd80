"""One-point mutation sweep over the grwin library, stdlib only.

Usage: python tools/mutants.py [module ...]    (default: every module but __init__)

Each mutant changes one point of one module of src/grwin:
  * operators: < <-> <=, > <-> >=, == <-> !=, in <-> not in, + <-> -, * <-> //,
    ** -> *, and <-> or, also in augmented assignments;
  * integer literals 0, 1 and 2, raised by 1;
  * guards: an `if` with no else whose body is one raise, return or continue
    is deleted.
The mutated module is written with ast.unparse into a temporary copy of src/
and tests/, never into the checkout.  One child pytest runs at a time, capped
at 3 GB of address space and 120 s: the module's own test file with -x, then,
if that passes, the whole suite with -x.  A mutant no test fails survives and
prints as file:line with its mutated source; one listed in EQUIVALENT prints
with its reason instead.  The exit status is 1 if any survivor is unlisted.
A whole sweep makes about 660 mutants and takes 20 to 35 minutes on two cores.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "grwin"
MEMORY_BYTES = 3 * 2 ** 30
TIMEOUT_S = 120

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Pow: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}

# (module, mutated source line) -> why no test can tell the mutant apart
EQUIVALENT = {
    ("autoequiv.py", "return (-1) ** sum((a >= b for a, b in combinations(p, 2))) * "
                     "prod((matrix[i][j] for j, i in enumerate(p)))"):
        "the pivot rows are distinct, so no pair is equal",
    ("bundles.py", "if mult <= 0:"): "mult == 0 has already continued",
    ("bundles.py", "if mult < 1:"): "mult == 0 has already continued",
    ("characters.py", "digit = (D + 2 + max((shape[0] for shape in shapes if shape), "
                      "default=0)).bit_length()"):
        "a wider digit still holds every part",
    ("characters.py", "digit = (D + 1 + max((shape[0] for shape in shapes if shape), "
                      "default=1)).bit_length()"):
        "a wider digit still holds every part",
    ("characters.py", "cores: list[list] = [[] for _ in range(D + 2)]"):
        "no core has D + 1 boxes, so the extra bucket stays empty",
    ("characters.py", "ones, plans, ahead, classes = (_code((1,) * r, digit), [], "
                      "[{} for _ in range(D + 2)], {})"):
        "copies go only to slices N + r <= D, so the extra slice stays empty",
    ("characters.py", "right = [(needs, _code(adds, digit, d) + (c * ones << digit * d), n) for "
                      "(needs, adds), n in lr_fillings(tuple((x - c for x in shape if x >= c)), "
                      "r).items()]"):
        "a row of c lowers to a trailing letter of 0 boxes, whose one empty strip "
        "leaves every (needs, adds) entry as it is",
    ("characters.py", "cap = max((x for needs, *_ in lefts[0] + lefts[1] + right for x in needs), "
                      "default=1)"):
        "every filling needs 0 at row 0, so the default serves only empty tables",
    ("partitions.py", "if not all(map(ge, rows, rows[1:] + (1,))):"):
        "rows ending in 0 take the row loop, which passes them, and the zeros are trimmed",
    ("partitions.py", "padded = gamma + (0,) * (h + len(gamma))"):
        "only the first h entries are read",
    ("partitions.py", "rows = list(seed) + [1] * (r - len(seed))"):
        "step 1 raises every row to at least 1",
    ("resolutions.py", "deleted: if s_top != d:"):
        "an invariant check: the staircase always ends at s_K = d for a stripped "
        "full-width seed, so no input reaches the raise",
    ("schur.py", "rows, out = (lam + (0,) * (h + len(lam)), {})"):
        "map(add) stops at the table's h rows",
    ("schur.py", "if (len(lam), sum(lam)) <= (len(mu), sum(mu)):"):
        "c^nu_{lam mu} = c^nu_{mu lam}: an equal pair may go either way",
    ("schur.py", "num = den = 2"): "a common factor of num and den cancels",
}


def points(tree: ast.AST) -> list[tuple[str, ast.stmt, object, object, object]]:
    """Every one-point change as (kind, statement, holder, field, new value):
    the mutant sets holder's field, an attribute or a list index, to the value."""
    out = []

    def visit(node: ast.AST, stmt: ast.stmt) -> None:
        if isinstance(node, ast.Compare):
            out.extend(("operator", stmt, node.ops, i, SWAPS[type(op)]())
                       for i, op in enumerate(node.ops) if type(op) in SWAPS)
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            out.append(("operator", stmt, node, "op", SWAPS[type(node.op)]()))
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1, 2):
            out.append(("operator", stmt, node, "value", node.value + 1))
        for _, value in ast.iter_fields(node):
            for i, child in enumerate(value if isinstance(value, list) else [value]):
                if (isinstance(child, ast.If) and not child.orelse and len(child.body) == 1
                        and isinstance(child.body[0], (ast.Raise, ast.Return, ast.Continue))):
                    out.append(("guard", child, value, i, ast.Pass()))
                if isinstance(child, ast.AST):
                    visit(child, child if isinstance(child, ast.stmt) else stmt)

    visit(tree, tree)
    return out


def swap(holder: object, field: object, value: object) -> object:
    """Set holder's field (a list index or an attribute) and return the old value."""
    if isinstance(holder, list):
        old, holder[field] = holder[field], value
    else:
        old = getattr(holder, field)
        setattr(holder, field, value)
    return old


def mutants(source: str) -> list[tuple[int, str, str, str]]:
    """The one-point mutants of a module as (line, kind, shown, mutated source),
    kind "operator" or "guard", and shown the first line of the mutated
    statement, or of the deleted guard after "deleted: "."""
    tree = ast.parse(source)
    out = []
    for kind, stmt, holder, field, value in points(tree):
        if kind == "guard":
            shown = "deleted: " + ast.unparse(stmt).splitlines()[0]
        old = swap(holder, field, value)
        if kind == "operator":
            shown = ast.unparse(stmt).splitlines()[0]
        out.append((stmt.lineno, kind, shown, ast.unparse(tree)))
        swap(holder, field, old)
    return out


def limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def killed(copy: Path, test_file: Path) -> bool:
    """Whether a test fails, or the run times out, on the mutant in copy."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for target in ([str(test_file)] if test_file.exists() else []) + ["tests"]:
        try:
            failed = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", target],
                cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S, preexec_fn=limit_child).returncode != 0
        except subprocess.TimeoutExpired:
            failed = True
        if failed:
            return True
    return False


def main(argv: list[str]) -> int:
    names = [name.removesuffix(".py") + ".py" for name in argv] or sorted(
        path.name for path in SRC.glob("*.py") if path.name != "__init__.py")
    unlisted = 0
    with tempfile.TemporaryDirectory(prefix="grwin-mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        # the tests of tools/ check these scripts, not the library, and the copy has no tools/
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns(
            "__pycache__", "test_mutants.py", "test_peak.py"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        for name in names:
            target = copy / "src" / "grwin" / name
            source = target.read_text()
            tally = {"operator": [0, 0], "guard": [0, 0]}  # kind -> [killed, total]
            try:
                for line, kind, shown, mutated in mutants(source):
                    target.write_text(mutated)
                    dead = killed(copy, copy / "tests" / f"test_{name}")
                    tally[kind][0] += dead
                    tally[kind][1] += 1
                    if not dead:
                        reason = EQUIVALENT.get((name, shown))
                        unlisted += reason is None
                        print(f"{name}:{line}: {shown}"
                              + (f"    [equivalent: {reason}]" if reason else ""), flush=True)
            finally:
                target.write_text(source)
            print(f"# {name}: operators killed {tally['operator'][0]} of {tally['operator'][1]}, "
                  f"guards killed {tally['guard'][0]} of {tally['guard'][1]}", flush=True)
    print(f"# {unlisted} survivor(s) outside EQUIVALENT")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
