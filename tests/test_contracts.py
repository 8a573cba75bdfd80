"""Contracts that span modules: the (d, r) validation every public entry
point shares, and the absence of `assert` in the library."""

import ast
from pathlib import Path

import pytest

from grwin import autoequiv, characters, resolutions, windows
from grwin.bundles import GradedComplex

SRC = Path(__file__).resolve().parents[1] / "src" / "grwin"

# entry point -> call with (d, r); every entry point checks (d, r) before
# its diagram, so the error names the rank whatever the diagram
NEEDS_R_AT_MOST_D = {
    "gamma_set": lambda d, r: windows.gamma_set(d, r),
    "gamma_split": lambda d, r: windows.gamma_split(d, r),
    "theorem_resolution": lambda d, r: resolutions.theorem_resolution((), d, r),
    "jshriek_jlower": lambda d, r: resolutions.jshriek_jlower((), d, r),
    "epsilon_sequence": lambda d, r: resolutions.epsilon_sequence((), d, r),
    "pushdown_pi": lambda d, r: resolutions.pushdown_pi((), d, r),
    "pushdown_pi_bruteforce": lambda d, r: resolutions.pushdown_pi_bruteforce((), d, r),
    "k_class": lambda d, r: autoequiv.k_class(GradedComplex(), d, r),
    "resolution_terms": lambda d, r: characters.resolution_terms((), d, r),
    "euler_character": lambda d, r: characters.euler_character((), d, r, 2),
    "pushforward_character": lambda d, r: characters.pushforward_character((), d, r, 2),
    "verify_exactness": lambda d, r: characters.verify_exactness((), d, r, 2),
    "hom_self": lambda d, r: characters.hom_invariant_dimension("self", (), d, r, 2),
    "hom_tautological": lambda d, r: characters.hom_invariant_dimension(
        "tautological", (), d, r, 2),
    "hom_eta": lambda d, r: characters.hom_invariant_dimension("eta", (1,), d, r, 2),
}
NEEDS_R_BELOW_D = {
    "window_generators": lambda d, r: windows.window_generators(d, r, 0),
    "unstable_resolution_twisted": lambda d, r: resolutions.unstable_resolution_twisted(
        (2,), d, r),
    "twist_on_generator": lambda d, r: autoequiv.twist_on_generator((), d, r),
    "cotwist_on_generator": lambda d, r: autoequiv.cotwist_on_generator((), d, r),
    "k_matrix": lambda d, r: autoequiv.k_matrix("identity", d, r),
    "o1_matrix": lambda d, r: autoequiv.o1_matrix(d, r),
}


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


def test_entry_points_accept_r_equal_d_where_allowed():
    for name, call in NEEDS_R_AT_MOST_D.items():
        if name != "hom_eta":  # eta needs a seed of width d-r+1 = 1
            call(3, 3)


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so invariants must raise
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
