"""Contracts that span modules: the package exports, the (d, r) validation
every public entry point shares and its place after the diagram's, the
truncation degree of the character entry points, the partition bounds and
Euler-character overrides they pass on, the scalars that must be ints, the
inputs that only an entry point's own check refuses, the shapes the cached
Schur helpers accept, a cold import that leaves `dataclasses`, `inspect`,
`fractions` and `decimal` unloaded, and source scans that keep `assert` and `dataclasses`
out of the library, text and JSON syntax out of every module but the CLI,
recursion out of the partition walks, caches out of the K-matrix engine
and the character oracle, and classes out of the Bott module."""

import ast
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import grwin
from grwin import autoequiv, bott, characters, resolutions, schur, windows
from grwin.bundles import GradedComplex, normalize
from grwin.partitions import canonical, partitions_in_box, staircase

SRC = Path(__file__).resolve().parents[1] / "src" / "grwin"

# entry point -> call with (d, r), and with a diagram where it takes one;
# every entry point checks its diagram, then (d, r): a bad rank is named
# whenever the diagram is well formed, a malformed diagram whatever the rank
NEEDS_R_AT_MOST_D = {
    "gamma_set": lambda d, r: windows.gamma_set(d, r),
    "theorem_resolution": lambda d, r, delta=(): resolutions.theorem_resolution(delta, d, r),
    "jshriek_jlower": lambda d, r, delta=(): resolutions.jshriek_jlower(delta, d, r),
    "pushdown_pi": lambda d, r, delta=(): resolutions.pushdown_pi(delta, d, r),
    "resolution_terms": lambda d, r, delta=(): characters.resolution_terms(delta, d, r),
    "euler_character": lambda d, r, delta=(): characters.euler_character(delta, d, r, 2),
    "euler_character_override": lambda d, r, delta=(): characters.euler_character(
        delta, d, r, 2, terms=[(0, (), 0)]),
    "pushforward_character": lambda d, r, delta=(): characters.pushforward_character(
        delta, d, r, 2),
    "verify_exactness": lambda d, r, delta=(): characters.verify_exactness(delta, d, r, 2),
    "hom_self": lambda d, r, delta=(): characters.hom_invariant_dimension(
        "self", delta, d, r, 2),
    "hom_tautological": lambda d, r, delta=(): characters.hom_invariant_dimension(
        "tautological", delta, d, r, 2),
    "hom_eta": lambda d, r, delta=(1,): characters.hom_invariant_dimension(
        "eta", delta, d, r, 2),
}
NEEDS_R_BELOW_D = {
    "window_generators": lambda d, r: windows.window_generators(d, r, 0),
    "unstable_resolution_twisted": lambda d, r, delta=(2,):
        resolutions.unstable_resolution_twisted(delta, d, r),
    "twist_on_generator": lambda d, r, delta=(): autoequiv.twist_on_generator(delta, d, r),
    "cotwist_on_generator": lambda d, r, delta=(): autoequiv.cotwist_on_generator(delta, d, r),
    "k_matrix": lambda d, r: autoequiv.k_matrix("identity", d, r),
    "o1_matrix": lambda d, r: autoequiv.o1_matrix(d, r),
}
TAKES_NO_DIAGRAM = {"gamma_set", "window_generators", "k_matrix", "o1_matrix"}


@pytest.mark.parametrize("name", sorted(NEEDS_R_AT_MOST_D) + sorted(NEEDS_R_BELOW_D))
@pytest.mark.parametrize("r", [-1, 0, 4])
def test_entry_points_reject_bad_rank(name, r):
    call = {**NEEDS_R_AT_MOST_D, **NEEDS_R_BELOW_D}[name]
    with pytest.raises(ValueError, match=r"need 0 < r"):
        call(3, r)


@pytest.mark.parametrize("name", sorted(NEEDS_R_BELOW_D))
def test_entry_points_reject_r_equal_d_where_r_below_d(name):
    with pytest.raises(ValueError, match=r"need 0 < r < d"):
        NEEDS_R_BELOW_D[name](3, 3)
    NEEDS_R_BELOW_D[name](3, 1)  # the same call with a proper rank succeeds


@pytest.mark.parametrize(
    "name", sorted(set(NEEDS_R_AT_MOST_D) - TAKES_NO_DIAGRAM)
    + sorted(set(NEEDS_R_BELOW_D) - TAKES_NO_DIAGRAM))
def test_entry_points_check_the_diagram_before_the_rank(name):
    call = {**NEEDS_R_AT_MOST_D, **NEEDS_R_BELOW_D}[name]
    with pytest.raises(ValueError, match=r"^row lengths must be non-increasing"):
        call(3, 0, (1, 2))


def test_entry_points_accept_r_equal_d_where_allowed():
    for name, call in NEEDS_R_AT_MOST_D.items():
        if name != "hom_eta":  # eta needs a seed of width d-r+1 = 1
            call(3, 3)


def test_exports_resolve_once():
    assert len(grwin.__all__) == len(set(grwin.__all__))
    assert [name for name in grwin.__all__ if not hasattr(grwin, name)] == []


def test_exports_are_the_pinned_names():
    # adding or removing a public name is an edit here
    assert sorted(grwin.__all__) == [
        "BundleLabel", "GradedComplex", "bwb_cohomology", "classify", "complement",
        "cotwist_on_generator", "euler_character", "gamma_set", "hom_invariant_dimension",
        "jshriek_jlower", "k_matrix", "lr_coefficient", "normalize", "o1_matrix",
        "pushdown_pi", "pushforward_character", "rank", "schur_dimension",
        "schur_product", "staircase", "theorem_resolution",
        "twist_on_generator", "unstable_resolution_twisted", "verify_exactness",
        "window_generators",
    ]


def library_nodes(predicate):
    files = sorted(SRC.glob("*.py"))
    assert files
    return [f"{path.name}:{node.lineno}"
            for path in files
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if predicate(node)]


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so invariants must raise
    assert library_nodes(lambda node: isinstance(node, ast.Assert)) == []


def test_library_does_not_import_dataclasses():
    # dataclasses pulls inspect, ast, dis and tokenize into every one-shot
    # grwin process; the value types are tuples and slotted classes instead
    def imports_dataclasses(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        return isinstance(node, ast.ImportFrom) and node.module == "dataclasses"

    assert library_nodes(imports_dataclasses) == []


def test_only_the_cli_reads_or_writes_text_and_json():
    # the library returns values; parsing arguments and writing a syntax for
    # them is the front end's, so no second writer can drift from its bytes
    def knows_a_syntax(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] in ("json", "argparse") for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return node.module in ("json", "argparse")
        return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and re.fullmatch(r"(parse|format|ascii)_\w+|dumps|\w+_json", node.name))

    hits = library_nodes(knows_a_syntax)
    assert [hit for hit in hits if not hit.startswith("cli.py:")] == []
    assert hits  # the scan sees the CLI's own


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # nor fractions, which pulls in decimal: the library computes in integers
    code = ("import sys; before = set(sys.modules); import grwin, grwin.cli; "
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'}"
            " & (set(sys.modules) - before)))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_bott_defines_no_class():
    # Bott's theorem is one function: classify returns None or a plain
    # (length, dominant representative) pair, so no result type is needed
    assert [name for name, value in vars(bott).items()
            if isinstance(value, type) and value.__module__ == bott.__name__] == []
    assert [node.name for node in ast.walk(ast.parse((SRC / "bott.py").read_text()))
            if isinstance(node, ast.ClassDef)] == []


# entry point -> call with truncation degree D at (d, r) = (4, 2)
TAKES_DEGREE = {
    "euler_character": lambda D: characters.euler_character((), 4, 2, D),
    "pushforward_character": lambda D: characters.pushforward_character((), 4, 2, D),
    "verify_exactness": lambda D: characters.verify_exactness((), 4, 2, D),
    "exactness_report": lambda D: characters.exactness_report((), 4, 2, D),
    "hom_self": lambda D: characters.hom_invariant_dimension("self", (), 4, 2, D),
    "hom_tautological": lambda D: characters.hom_invariant_dimension(
        "tautological", (), 4, 2, D),
    "hom_eta": lambda D: characters.hom_invariant_dimension("eta", (3,), 4, 2, D),
}


@pytest.mark.parametrize("name", sorted(TAKES_DEGREE))
def test_character_entry_points_reject_negative_degree(name):
    with pytest.raises(ValueError, match=r"^truncation degree must be >= 0$"):
        TAKES_DEGREE[name](-1)
    TAKES_DEGREE[name](0)  # degree 0 is a valid truncation


def test_euler_character_override_checks_rank_and_shapes():
    # a terms override skips resolution_terms, so euler_character checks
    # (d, r) and every override shape itself before any product
    for r in (7, 0, -1):
        with pytest.raises(ValueError, match=r"need 0 < r <= d"):
            characters.euler_character((), 3, r, 2, terms=[(0, (), 0)])
    with pytest.raises(ValueError, match=r"non-increasing"):
        characters.euler_character((), 3, 2, 2, terms=[(0, (2, 3), 0)])
    with pytest.raises(ValueError, match=r"negative row length"):
        characters.euler_character((), 3, 2, 2, terms=[(0, (1, -1), 0)])
    # a padded or list-valued override shape is canonicalized, not refused
    staircase = characters.euler_character((), 3, 2, 4)
    padded = [(k, list(shape) + [0], s) for k, shape, s in
              characters.resolution_terms((), 3, 2)]
    assert characters.euler_character((), 3, 2, 4, terms=padded) == staircase


@pytest.mark.parametrize("term", [(0, (), -1), (0.5, (), 0), (0, (), 1.0),
                                  (Fraction(1), (), 0), (-1, (), 0)])
def test_euler_character_override_checks_degree_and_wedge_power(term):
    # s = -1 would read as the empty column, k = 0.5 as a complex sign and
    # k = -1 as the float sign -1.0
    with pytest.raises(ValueError, match=r"^override term needs int k, s >= 0"):
        characters.euler_character((), 3, 2, 3, terms=[term])


# entry point -> (call, error): no later check refuses these inputs, and
# without its own check each call returns a quiet wrong value instead
REFUSED_ONLY_BY_THEIR_OWN_CHECK = {
    "k_matrix_unknown_functor": (lambda: autoequiv.k_matrix("shift", 4, 2),
                                 r"^unknown functor 'shift'$"),
    "bwb_negative_power": (lambda: bott.bwb_cohomology((), -1, 2),
                           r"^power must be non-negative$"),
    "staircase_no_steps": (lambda: staircase((1,), 2, 0), r"^step count must be >= 1$"),
    "pushdown_too_tall": (lambda: resolutions.pushdown_pi((1, 1, 1), 4, 2),
                          r"^height\(\(1, 1, 1\)\) must be <= 2$"),
    "schur_product_no_rows": (lambda: schur.schur_product((1,), (1,), 0),
                              r"^max_height must be >= 1$"),
    "schur_dimension_negative_alphabet": (lambda: schur.schur_dimension((1,), -1),
                                          r"^alphabet size must be >= 0$"),
    "negative_multiplicity": (
        lambda: GradedComplex.from_items([(0, normalize((), 0, 2), -1)]),
        r"^multiplicities are positive$"),
    # on a rank-0 side, normalize would otherwise return the trivial label
    "normalize_zero_schur": (lambda: normalize((1,), 0, 0),
                             r"^S\^\(1,\) of a rank-0 bundle is zero; drop the term$"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_ONLY_BY_THEIR_OWN_CHECK))
def test_entry_points_refuse_what_only_their_own_check_catches(name):
    call, message = REFUSED_ONLY_BY_THEIR_OWN_CHECK[name]
    with pytest.raises(ValueError, match=message):
        call()


# a row that is not an integer used to be truncated: (2.5, 1) read as (2, 1);
# integrality is checked before the row order
NON_INTEGRAL = {
    "canonical": (lambda: canonical((2.5, 1)), "2.5"),
    "canonical_negative": (lambda: canonical((3, -1.5)), "-1.5"),
    "canonical_after_a_negative_row": (lambda: canonical((-1, 2.5)), "2.5"),
    "normalize": (lambda: normalize((2, 1.25), 0, 3), "1.25"),
    "twist_on_generator": (lambda: autoequiv.twist_on_generator((1.9,), 3, 1), "1.9"),
    "schur_dimension": (lambda: schur.schur_dimension((2.7,), 3), "2.7"),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGRAL))
def test_entry_points_reject_non_integral_rows(name):
    call, row = NON_INTEGRAL[name]
    with pytest.raises(ValueError, match=rf"^row length {re.escape(row)} is not an integer$"):
        call()


# a scalar that is not an int, bool included, used to reach an answer: a float
# alphabet gave a float dimension, a float window index float twists, D = True
# read as 1, and other floats raised TypeError or AttributeError deep inside
NOT_AN_INT = {
    "gamma_set_d": (lambda: (windows.gamma_set.cache_clear(), windows.gamma_set(3.0, 1)),
                    "d and r must be ints, got d=3.0, r=1"),
    "k_matrix_d": (lambda: autoequiv.k_matrix("twist", 4.0, 2),
                   "d and r must be ints, got d=4.0, r=2"),
    "theorem_resolution_r": (lambda: resolutions.theorem_resolution((), 4, 2.0),
                             "d and r must be ints, got d=4, r=2.0"),
    "window_generators_r": (lambda: windows.window_generators(3, True, 0),
                            "d and r must be ints, got d=3, r=True"),
    "window_generators_k": (lambda: windows.window_generators(3, 1, 0.5),
                            "window index must be an int, got 0.5"),
    "verify_exactness_D": (lambda: characters.verify_exactness((), 3, 2, True),
                           "truncation degree must be an int, got True"),
    "euler_character_D": (lambda: characters.euler_character((), 3, 2, 2.5),
                          "truncation degree must be an int, got 2.5"),
    "schur_dimension_n": (lambda: schur.schur_dimension((1,), 2.5),
                          "alphabet size must be an int, got 2.5"),
    "normalize_wedge": (lambda: normalize((), 0, 3, wedge=0.5),
                        "wedge must be a non-negative int, got 0.5"),
}


@pytest.mark.parametrize("name", sorted(NOT_AN_INT))
def test_entry_points_refuse_scalars_that_are_not_ints(name):
    call, message = NOT_AN_INT[name]
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        call()


def test_integral_rows_of_any_number_type_are_accepted():
    rows = canonical((2.0, Fraction(1), True, 0.0))
    assert rows == (2, 1, 1) and all(type(x) is int for x in rows)


@pytest.mark.parametrize("bounds", [(-1, 2), (2, -1), (2, 2, -3), (-3, -3)])
def test_partitions_in_box_rejects_negative_bounds(bounds):
    # width, height and size bound; a negative box must not pass as w*h = 9
    with pytest.raises(ValueError, match=r"^partition bounds must be >= 0, got w=-?\d, "
                                         r"h=-?\d, max_size=-?\d$"):
        partitions_in_box(*bounds)


def test_partitions_module_has_no_recursion():
    # the partition walks keep an explicit stack, so a tall or wide box
    # cannot reach the interpreter's recursion limit
    tree = ast.parse((SRC / "partitions.py").read_text())
    recursive = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) == fn.name]
    assert recursive == []


# a trailing zero row names the same partition, so the cached Schur helpers
# canonicalize their shapes as schur_product does
SAME_PARTITION = {
    "lr_trailing_zero_outer": (schur.lr_coefficient, ((1,), (), (1, 0)), 1),
    "lr_trailing_zero_inner": (schur.lr_coefficient, ((1, 0), (1,), (2,)), 1),
    "dimension_trailing_zero": (schur.schur_dimension, ((1, 0), 1), 1),
}


@pytest.mark.parametrize("name", sorted(SAME_PARTITION))
def test_cached_schur_helpers_read_trailing_zeros_as_the_same_shape(name):
    fn, args, expected = SAME_PARTITION[name]
    assert fn(*args) == expected


@pytest.mark.parametrize("call", [lambda: schur.schur_dimension((1, 2), 3),
                                  lambda: schur.lr_coefficient((1, 2), (), (2, 1)),
                                  lambda: schur.schur_product((1, 2), (), 3)],
                         ids=["schur_dimension", "lr_coefficient", "schur_product"])
def test_schur_helpers_reject_increasing_rows(call):
    with pytest.raises(ValueError, match=r"^row lengths must be non-increasing"):
        call()


def functools_caches(filename):
    caches = {"cache", "lru_cache", "cached_property"}
    return [f"{filename}:{node.lineno}"
            for node in ast.walk(ast.parse((SRC / filename).read_text()))
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            and any(alias.name in caches for alias in node.names)
            or isinstance(node, ast.Attribute) and node.attr in caches]


def test_k_matrix_engine_defines_no_cache():
    # a functools cache would stay warm across calls that are meant to be
    # one-shot, so the engine keeps its tables inside one k_matrix call
    assert functools_caches("autoequiv.py") == []


def test_characters_define_no_cache():
    # the benchmark clears only the schur and windows caches before a cold
    # op; a cache on an Euler helper would stay warm and overstate a gain
    assert functools_caches("characters.py") == []


def test_schur_caches_are_the_three_the_benchmark_clears():
    # the benchmark clears these three before every cold op; a cache on any
    # other helper would stay warm across cold ops and overstate a gain
    caches = {"cache", "lru_cache", "cached_property"}
    tree = ast.parse((SRC / "schur.py").read_text())
    refs = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in caches
            or isinstance(node, ast.Attribute) and node.attr in caches]
    decorated = sorted(node.name for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef)
                       and any(dec in refs for dec in node.decorator_list))
    renamed = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "functools"
               for alias in node.names if alias.asname]
    assert decorated == ["_schur_product_items", "lr_coefficient", "schur_dimension"]
    assert len(refs) == len(decorated) and renamed == []
