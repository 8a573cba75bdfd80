"""The benchmark's three workloads: inputs, timed calls and output checks.

Inputs are plain data made by the harness from the seed without calling
grwin, so the program only ever receives generated inputs.  Each op's timed
call looks its grwin function up by module attribute at call time, which is
what lets the tracer's wrappers see it.  Checks and digests run outside the
timing window.
"""

from __future__ import annotations

import hashlib
import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import comb
from random import Random
from typing import Callable


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def box(w: int, h: int) -> list[tuple[int, ...]]:
    """Partitions with width <= w and height <= h, largest rows first."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], maxrow: int, rows_left: int) -> None:
        out.append(prefix)
        if rows_left:
            for x in range(maxrow, 0, -1):
                rec(prefix + (x,), x, rows_left - 1)

    rec((), w, h)
    return out


def fmt(p: tuple[int, ...]) -> str:
    return ",".join(map(str, p))


@dataclass
class Op:
    key: str                                   # stable id; reference digests use it
    call: Callable[[], object]                 # the timed work
    check: Callable[[object], list[str]] = lambda out: []


@dataclass
class Workload:
    name: str
    ops: list[Op]
    clear_per_op: bool                         # one-shot process cost vs warm session
    group_checks: Callable[[dict], dict] = lambda outputs: {}
    untimed: list[Op] = field(default_factory=list)  # checked once per run


# ---------------------------------------------------------------------------
# kmatrix

KMATRIX_LADDER = [(5, 2), (6, 2), (6, 3), (7, 2)]
KMATRIX_SMOKE = [(3, 1), (4, 2)]
FUNCTORS = ("twist", "cotwist", "identity", "o1")


def int_det(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    a = [row[:] for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def int_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def kmatrix_specs(seed: int, smoke: bool) -> list[tuple[str, int, int]]:
    specs = [(which, d, r) for d, r in (KMATRIX_SMOKE if smoke else KMATRIX_LADDER)
             for which in FUNCTORS]
    Random(seed).shuffle(specs)
    return specs


def _kmatrix_key(which: str, d: int, r: int) -> str:
    return f"{which}:{d},{r}"


def _check_square_int(m, d: int, r: int) -> list[str]:
    n = comb(d, r)
    if len(m) != n or any(len(row) != n or not all(type(x) is int for x in row)
                          for row in m):
        return [f"expected a {n}x{n} integer matrix"]
    return []


def kmatrix_workload(grwin, specs) -> Workload:
    autoequiv = grwin["autoequiv"]

    def make(which, d, r):
        if which == "o1":
            call = lambda: autoequiv.o1_matrix(d, r)
        else:
            call = lambda: autoequiv.k_matrix(which, d, r)

        def check(m):
            problems = _check_square_int(m, d, r)
            if problems:
                return problems
            if which == "identity" and m != [[int(i == j) for j in range(len(m))]
                                              for i in range(len(m))]:
                problems.append("identity matrix is not I")
            if which in ("twist", "cotwist") and abs(int_det(m)) != 1:
                problems.append(f"|det| = {abs(int_det(m))}, expected 1")
            return problems
        return Op(_kmatrix_key(which, d, r), call, check)

    def conjugation(outputs: dict) -> dict:
        # T * M_cotwist == M_twist * T, with T the O(1) matrix; integer
        # products only, so no inversion enters the check.
        problems = {}
        for which, d, r in specs:
            if which != "o1":
                continue
            t, mt, mc = (outputs.get(_kmatrix_key(w, d, r))
                         for w in ("o1", "twist", "cotwist"))
            key = _kmatrix_key("o1", d, r)
            if any(not isinstance(x, list) for x in (t, mt, mc)):
                problems[key] = ["conjugation not checkable: an op failed"]
            elif int_matmul(t, mc) != int_matmul(mt, t):
                problems[key] = [f"T*M_cotwist != M_twist*T at {(d, r)}"]
        return problems

    return Workload("kmatrix", [make(*s) for s in specs], clear_per_op=True,
                    group_checks=conjugation)


# ---------------------------------------------------------------------------
# exactness

EXACTNESS_GRID = [(5, 2), (5, 3), (6, 2), (6, 3)]
EXACTNESS_SMOKE = [(4, 2), (4, 3)]

# Acceptance criterion 10: each mapping space is one-dimensional at the
# stable degree D = |delta| + r(d-r+1) and stays so at D+2.
HOM_CASES = {
    "self": [((), 2, 1), ((1,), 3, 2), ((2,), 3, 2), ((2, 1), 4, 2),
             ((2, 2), 4, 2), ((1,), 4, 3), ((2, 1), 4, 3), ((3, 1), 5, 2),
             ((2, 2, 1), 5, 3), ((3, 2), 6, 3)],
    "tautological": [((1,), 3, 2), ((2,), 4, 2), ((3,), 5, 2), ((1,), 4, 3),
                     ((2, 1), 4, 3), ((2, 2), 5, 3), ((1, 1), 5, 3),
                     ((3, 1), 6, 3), ((2,), 6, 4), ((1, 1, 1), 6, 4)],
    "eta": [((2,), 3, 2), ((3,), 4, 2), ((4,), 5, 2), ((5,), 6, 2),
            ((2,), 4, 3), ((2, 1), 4, 3), ((2, 2), 4, 3),
            ((3, 1), 5, 3), ((3, 2), 5, 3), ((2, 1, 1), 5, 4)],
}


def stable_degree(delta, d: int, r: int) -> int:
    return sum(delta) + r * (d - r + 1)


def exactness_specs(seed: int, smoke: bool) -> dict:
    grid = EXACTNESS_SMOKE if smoke else EXACTNESS_GRID
    verify = [(delta, d, r, stable_degree(delta, d, r))
              for d, r in grid for delta in box(d - r + 1, r - 1)]
    rng = Random(seed)
    specs = [("verify", v) for v in verify] + [("hom", case) for case in HOM_CASES]
    rng.shuffle(specs)
    return {"ops": specs, "tamper": rng.choice(verify)}


def exactness_workload(grwin, specs) -> Workload:
    characters = grwin["characters"]

    def verify_op(delta, d, r, D):
        return Op(f"verify:{d},{r}:{fmt(delta)}:{D}",
                  lambda: characters.verify_exactness(delta, d, r, D),
                  lambda ok: [] if ok is True else [f"not exact: {ok!r}"])

    def hom_op(case):
        def call():
            return [[characters.hom_invariant_dimension(
                         case, delta, d, r, stable_degree(delta, d, r) + extra)
                     for extra in (0, 2)] for delta, d, r in HOM_CASES[case]]
        return Op(f"hom:{case}", call,
                  lambda values: [] if values == [[1, 1]] * len(HOM_CASES[case])
                  else [f"dimensions {values}, expected all 1"])

    def tamper_op(delta, d, r, D):
        # Criterion 4's perturbation: one term of the resolution gets a
        # different shape, and the character oracle must notice.
        def call():
            terms = characters.resolution_terms(delta, d, r)
            k, shape, s = terms[1]
            bad = terms[:1] + [(k, (shape[0] + 1,) + shape[1:], s)] + terms[2:]
            return characters.euler_character(delta, d, r, D, terms=bad) == \
                characters.pushforward_character(delta, d, r, D)
        return Op("tamper", call, lambda same: [] if same is False else
                  [f"tampered resolution of {delta} at {(d, r, D)} passed"])

    ops = [verify_op(*arg) if kind == "verify" else hom_op(arg)
           for kind, arg in specs["ops"]]
    return Workload("exactness", ops, clear_per_op=True,
                    untimed=[tamper_op(*specs["tamper"])])


# ---------------------------------------------------------------------------
# cli

CLI_DIMS = range(3, 10)
CLI_SMOKE_DIMS = range(3, 5)
CLI_REPEATS = 4
FLAG_SETS = [[], ["--json"], ["--pretty"], ["--json", "--pretty"],
             ["--expand-multiplicities"], ["--json", "--expand-multiplicities"],
             ["--pretty", "--expand-multiplicities"],
             ["--json", "--pretty", "--expand-multiplicities"]]


def _pick(rng: Random, items: list, n: int) -> list:
    return items if len(items) <= n else rng.sample(items, n)


def cli_universe(dims) -> list[tuple[list[str], int]]:
    """Every argv the cli workload can send, with its expected exit code.

    The set is fixed (one generator seed per d, so a smaller range of d
    gives a subset), and reference digests exist for each entry; a run's
    seed decides only the order of the calls.
    """
    universe = []
    for d in dims:
        rng = Random(f"grwin-cli-{d}")
        valid: list[list[str]] = []
        for r in range(1, d):
            gens = box(d - r, r)
            full = [g for g in gens if g and g[0] == d - r]
            seeds = box(d - r + 1, r - 1)
            for k in (0, 1):
                valid.append(["windows", str(d), str(r), str(k)])
            for delta in _pick(rng, gens, 2) + _pick(rng, full, 1):
                valid.append(["twist", fmt(delta), "--d", str(d), "--r", str(r)])
                valid.append(["cotwist", fmt(delta), "--d", str(d), "--n", str(r)])
            for delta in _pick(rng, full, 1):
                valid.append(["resolve", fmt(delta), "--d", str(d), "--r", str(r),
                              "--twisted"])
            if d <= 4:
                for which in ("twist", "cotwist", "identity"):
                    valid.append(["kmatrix", "--which", which, "--d", str(d),
                                  "--r", str(r)])
            if r < 2:
                continue
            for delta in _pick(rng, seeds, 2):
                valid.append(["resolve", fmt(delta), "--d", str(d), "--r", str(r)])
                valid.append(["staircase", fmt(delta), str(r), str(d - r + 1)])
                valid.append(["bwb", fmt(delta), str(rng.randint(0, d)), str(r)])
            if d <= 4:
                for delta in seeds:
                    valid.append(["verify-exactness", "--d", str(d), "--r", str(r),
                                  "--delta", fmt(delta), "--degree",
                                  str(stable_degree(delta, d, r))]
                                 + rng.choice([[], ["--report", "json"]]))
        n = d - 2
        invalid = [
            ["twist", "1,x", "--d", str(d), "--r", "2"],          # malformed
            ["twist", "1,2", "--d", str(d), "--r", "2"],          # increasing rows
            ["staircase", "-1", "2", str(d)],                     # negative row
            ["twist", str(d), "--d", str(d), "--r", "2"],         # outside the box
            ["cotwist", "", "--d", str(d), "--n", str(d)],        # n >= d
            ["windows", str(d), str(d), "0"],                     # r >= d
            ["windows", str(d), "x", "0"],                        # not an int
            ["bwb", ",".join(["1"] * (n + 1)), "2", str(n)],      # too tall
            ["resolve", "", "--d", str(d)],                       # missing --r
            ["kmatrix", "--which", "shift", "--d", str(d), "--r", "1"],  # bad choice
            ["frobnicate", str(d)],                               # no such command
        ]
        universe += [(argv + rng.choice(FLAG_SETS), 0) for argv in valid]
        universe += [(argv + rng.choice(FLAG_SETS), 2) for argv in invalid]
    return universe


def cli_specs(seed: int, smoke: bool) -> list[tuple[list[str], int]]:
    if smoke:
        return cli_universe(CLI_SMOKE_DIMS)
    calls = cli_universe(CLI_DIMS) * CLI_REPEATS
    Random(seed).shuffle(calls)
    return calls


def cli_workload(grwin, specs) -> Workload:
    cli = grwin["cli"]

    def make(argv, expected):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()

        def check(result):
            code, out, err = result
            if code != expected:
                return [f"exit {code}, expected {expected}: {err.strip()[-200:]}"]
            if code == 0 and "--json" in argv:
                try:
                    json.loads(out)
                except ValueError:
                    return ["--json output does not parse"]
            if code == 2 and (out or not err):
                return ["a usage error should write only to stderr"]
            return []
        return Op(shlex.join(argv), call, check)

    return Workload("cli", [make(*s) for s in specs], clear_per_op=False)


def output_digest(workload: str, output) -> str:
    if workload == "cli":
        code, out, _err = output
        return digest([code, out])
    return digest(output)


SPECS = {"kmatrix": kmatrix_specs, "exactness": exactness_specs, "cli": cli_specs}
BUILDERS = {"kmatrix": kmatrix_workload, "exactness": exactness_workload,
            "cli": cli_workload}
