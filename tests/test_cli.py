import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from oracles import tensor_det

from grwin import autoequiv, characters, cli, resolutions
from grwin.autoequiv import InternalConsistencyError
from grwin.bundles import BundleLabel


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_twist_pretty_expanded_golden(capsys):
    code, out, _ = run(capsys, "twist", "1", "--d", "2", "--r", "1",
                       "--pretty", "--expand-multiplicities")
    assert code == 0
    assert out == "O(1)^2 -> O\n^^^^^^\n"


def test_windows_pretty_lists_collection(capsys):
    code, out, _ = run(capsys, "windows", "4", "2", "0", "--pretty")
    assert code == 0
    assert out.splitlines() == ["O", "S∨", "Sym^2S∨", "O(1)", "S∨(1)", "O(2)"]


def test_windows_default_shows_ranks(capsys):
    _, out, _ = run(capsys, "windows", "2", "1", "-1")
    assert out.splitlines() == ["O(-1)  rank 1", "O  rank 1"]


def test_verify_exactness_exit_zero(capsys):
    code, out, _ = run(capsys, "verify-exactness", "--d", "4", "--r", "2",
                       "--delta", "", "--degree", "4")
    assert code == 0
    assert out == "exact\n"


def plant(monkeypatch, extra):
    """Add extra {(lambda, mu): count} to the pushforward side of
    exactness_report, in the slice of degree |lambda| on integer keys."""
    real = characters._pushforward_slices

    def planted(delta, d, r, digit, cores):
        for N, part in enumerate(real(delta, d, r, digit, cores)):
            for (lam, mu), n in extra.items():
                if sum(lam) == N:
                    key = characters._code(lam, digit) + characters._code(mu, digit, d)
                    part[key] = part.get(key, 0) + n
            yield part
    monkeypatch.setattr(characters, "_pushforward_slices", planted)


def test_verify_exactness_exit_one_on_failure(capsys, monkeypatch):
    # one extra pushforward coefficient: text and JSON read the same comparison
    key = ((2, 1), (1,))
    before = characters.pushforward_character((), 4, 2, 4).get(key, 0)
    plant(monkeypatch, {key: 1})
    argv = ["verify-exactness", "--d", "4", "--r", "2", "--delta", "", "--degree", "4"]
    assert run(capsys, *argv) == (1, "NOT exact\n", "")
    code, out, _ = run(capsys, *argv, "--json")
    doc = json.loads(out)
    assert (code, doc["ok"], doc["lowest_degree"]) == (1, False, 3)
    assert doc["diffs"] == [{"lambda": [2, 1], "mu": [1], "euler": before,
                             "pushforward": before + 1}]


def test_verify_exactness_json_success_is_unchanged(capsys):
    for flag in (["--report", "json"], ["--json"]):
        code, out, _ = run(capsys, "verify-exactness", "--d", "4", "--r", "2",
                           "--delta", "1", "--degree", "4", *flag)
        assert (code, out) == (0, '{"ok":true,"diffs":[]}\n')


def test_verify_exactness_failure_report_names_degree_and_terms(capsys, monkeypatch):
    # the degree-4 key sorts first, so the lowest degree is not the first row
    plant(monkeypatch, {((1, 1, 1, 1), (1,)): 5, ((2, 1), (1,)): 5})
    terms = [[k, list(shape), s] for k, shape, s in characters.resolution_terms((1,), 4, 2)]
    for flag in (["--report", "json"], ["--json"]):
        code, out, _ = run(capsys, "verify-exactness", "--d", "4", "--r", "2",
                           "--delta", "1", "--degree", "4", *flag)
        assert code == 1
        assert json.loads(out) == {
            "ok": False,
            "diffs": [{"lambda": [1, 1, 1, 1], "mu": [1], "euler": 0, "pushforward": 5},
                      {"lambda": [2, 1], "mu": [1], "euler": 0, "pushforward": 5}],
            "lowest_degree": 3,
            "terms": terms,
        }
        assert list(json.loads(out)) == ["ok", "diffs", "lowest_degree", "terms"]


def test_verify_exactness_negative_degree_exits_two(capsys):
    code, out, err = run(capsys, "verify-exactness", "--d", "4", "--r", "2",
                         "--delta", "", "--degree", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: truncation degree must be >= 0\n"


def test_malformed_partition_exits_two(capsys):
    code, _, err = run(capsys, "twist", "a,b", "--d", "2", "--r", "1")
    assert code == 2
    assert "malformed partition" in err


def test_domain_violation_exits_two(capsys):
    code, _, err = run(capsys, "twist", "9", "--d", "2", "--r", "1")
    assert code == 2
    assert "index box" in err


def test_usage_error_exits_two(capsys):
    assert run(capsys, "twist", "1")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2


def test_cotwist_golden(capsys):
    _, out, _ = run(capsys, "cotwist", "2", "--d", "4", "--n", "2")
    assert out.splitlines()[0] == "S∨⊗∧^3V -> O⊗∧^2V -> O(-1)"


@pytest.mark.parametrize("argv", [
    ("twist", "2", "--d", "4", "--r", "2"),
    ("cotwist", "2", "--d", "4", "--n", "2", "--expand-multiplicities"),
    ("resolve", "2", "--d", "4", "--r", "2", "--twisted"),
    ("windows", "4", "2", "0"),
    ("bwb", "3,1", "4", "3"),
    ("kmatrix", "--which", "twist", "--d", "4", "--r", "2"),
    ("verify-exactness", "--d", "4", "--r", "2", "--delta", "1"),
], ids=lambda argv: argv[0])
def test_json_output_is_compact(capsys, argv):
    # one document per run, in the compact syntax; --pretty indents the same one
    _, out, _ = run(capsys, *argv, "--json")
    assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"
    _, pretty, _ = run(capsys, *argv, "--json", "--pretty")
    assert pretty == json.dumps(json.loads(out), indent=2) + "\n"


def test_identical_argv_gives_identical_bytes(capsys):
    argv = ["kmatrix", "--which", "cotwist", "--d", "3", "--r", "2", "--json"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_seed_is_not_an_option(capsys):
    code, out, err = run(capsys, "kmatrix", "--which", "twist", "--d", "3", "--r", "2",
                         "--seed", "5")
    assert (code, out) == (2, "")
    assert "--seed" in err and "Traceback" not in err


def test_kmatrix_rejects_a_negative_box(capsys):
    code, out, err = run(capsys, "kmatrix", "--which", "twist", "--d", "-3", "--r", "-1")
    assert (code, out) == (2, "")
    assert err == "error: need 0 < r < d, got r=-1, d=-3\n"


def test_a_broken_twist_image_makes_kmatrix_exit_one(capsys, monkeypatch):
    # a top staircase term that does not cancel the input breaks an invariant
    # of the up-shift; kmatrix prints nothing and names the generator
    real = resolutions.resolution_terms

    def top_row_one_longer(delta, d, r):
        *rest, (k, top, s) = real(delta, d, r)
        return [*rest, (k, (top[0] + 1, *top[1:]), s)]

    monkeypatch.setattr(resolutions, "resolution_terms", top_row_one_longer)
    code, out, err = run(capsys, "kmatrix", "--which", "twist", "--d", "4", "--r", "2")
    assert (code, out) == (1, "")
    assert err.startswith("verification failure: (d,r)=(4,2), delta=(")
    assert "input-cancelling term mismatch" in err
    assert "Traceback" not in err


def test_an_image_label_outside_the_window_makes_kmatrix_exit_one(capsys, monkeypatch):
    # twisting every up-shift image by one more O(1) moves S^dual(2) out of
    # window 0; kmatrix prints nothing and names the label
    real = autoequiv.twist_on_generator
    monkeypatch.setattr(autoequiv, "twist_on_generator",
                        lambda delta, d, r: tensor_det(real(delta, d, r), 1))
    (_, lb, _), = tensor_det(real((1,), 4, 2), 1).items()
    code, out, err = run(capsys, "kmatrix", "--which", "twist", "--d", "4", "--r", "2")
    assert (code, out) == (1, "")
    assert err.startswith("verification failure: (d,r)=(4,2), delta=(1,): twist image term ")
    assert f"{lb} is not a generator of window 0" in err
    assert "Traceback" not in err


def test_kmatrix_text_output(capsys):
    code, out, _ = run(capsys, "kmatrix", "--which", "twist", "--d", "2", "--r", "1")
    assert code == 0
    assert out.splitlines()[-1] == "determinant: 1"


def test_kmatrix_refuses_a_basis_above_the_limit(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("k_matrix ran on a refused basis")
    monkeypatch.setattr(cli.autoequiv, "k_matrix", never)
    code, out, err = run(capsys, "kmatrix", "--which", "twist", "--d", "13", "--r", "6")
    assert (code, out) == (2, "")
    assert "C(13,6) is above the limit of 924 generators" in err and "--max-basis" in err
    assert "Traceback" not in err
    code, _, err = run(capsys, "kmatrix", "--which", "identity", "--d", "4", "--r", "2",
                       "--max-basis", "5")
    assert code == 2 and "C(4,2) is above the limit of 5" in err


def test_kmatrix_max_basis_raises_the_limit(capsys, monkeypatch):
    argv = ["kmatrix", "--which", "twist", "--d", "4", "--r", "2"]
    assert run(capsys, *argv, "--max-basis", "6") == run(capsys, *argv)
    assert run(capsys, *argv)[0] == 0
    # above the default limit, a stand-in engine keeps the case small
    monkeypatch.setattr(cli.autoequiv, "k_matrix", lambda *args: [[1]])
    code, out, _ = run(capsys, "kmatrix", "--which", "twist", "--d", "13", "--r", "6",
                       "--max-basis", "1716")
    assert (code, out) == (0, "   1\ndeterminant: 1\n")


@pytest.mark.parametrize("limit", [None, "1716", str(10 ** 40)])
def test_kmatrix_refuses_a_huge_basis_at_once(capsys, monkeypatch, limit):
    # C(10^6, 5*10^5) has about 300000 digits; the guard never builds it, nor
    # any binomial with an argument above the limit or with more factors than
    # the log2(limit) + 2 it needs to pass the limit
    bound = cli.MAX_BASIS if limit is None else int(limit)

    def small_comb(n, k):
        if max(n, k) > bound or k > bound.bit_length() + 1:
            raise AssertionError(f"comb({n}, {k}) is a large computation for the limit {bound}")
        return math.comb(n, k)
    monkeypatch.setattr(cli, "comb", small_comb)
    argv = ["kmatrix", "--which", "twist", "--d", "1000000", "--r", "500000"]
    code, out, err = run(capsys, *argv, *(["--max-basis", limit] if limit else []))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: C(1000000,500000) is above the limit of {bound} generators")
    assert "--max-basis" in err and "Traceback" not in err


def test_a_kmatrix_of_the_wrong_shape_exits_one(capsys, monkeypatch):
    # column 3 at (5,2) is the narrow generator (1,1); a second entry, in row 0,
    # leaves it with no pivot row of its own
    real = autoequiv.k_matrix

    def mutated(which, d, r):
        m = real(which, d, r)
        m[0][3] += 1
        return m
    monkeypatch.setattr(cli.autoequiv, "k_matrix", mutated)
    for which in ("twist", "cotwist"):
        code, out, err = run(capsys, "kmatrix", "--which", which, "--d", "5", "--r", "2")
        assert (code, out) == (1, "")
        assert err.startswith(f"verification failure: (d,r)=(5,2), delta=(1, 1): {which} "
                              "K-matrix column 3 has no pivot row of its own")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_kmatrix_refuses_a_long_identity_at_once(capsys, monkeypatch):
    # C(1000, 1) = 1000 generators: the guard counts a one-row box too
    def never(*args):
        raise AssertionError("k_matrix ran on a refused basis")
    monkeypatch.setattr(cli.autoequiv, "k_matrix", never)
    code, out, err = run(capsys, "kmatrix", "--which", "identity", "--d", "1000", "--r", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: C(1000,1) is above the limit of 924 generators")


@pytest.mark.parametrize("d, r, limit", [(13, 12, 924), (13, 4, 924), (5, 1, 5)])
def test_kmatrix_admits_a_basis_at_or_below_the_limit(capsys, monkeypatch, d, r, limit):
    # C(13,12) = 13 counts the smaller side of the box; C(13,4) = 715 although
    # C(13,5) = 1287; C(5,1) = 5 sits at the limit.  A stand-in engine keeps it small
    monkeypatch.setattr(cli.autoequiv, "k_matrix", lambda *args: [[1]])
    code, out, _ = run(capsys, "kmatrix", "--which", "twist", "--d", str(d), "--r", str(r),
                       "--max-basis", str(limit))
    assert (code, out) == (0, "   1\ndeterminant: 1\n")


def test_kmatrix_names_a_full_box_before_its_size(capsys):
    code, _, err = run(capsys, "kmatrix", "--which", "twist", "--d", "1000", "--r", "1000")
    assert code == 2 and err.startswith("error: need 0 < r < d")


@pytest.mark.parametrize("argv, message", [
    (["bwb", "1", "-1", "2"], "error: power must be non-negative\n"),
    (["staircase", "1", "2", "0"], "error: step count must be >= 1\n"),
])
def test_refused_values_exit_two(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", message)


def test_format_label_names_a_bracket_twist_and_a_v_shape():
    # no subcommand prints a bracket twist (a correspondence-stack label) or a
    # V shape that is not a column, so the printer is checked directly
    label = BundleLabel((2,), 2, 1, v_shape=(2, 1), bracket_twist=3)
    assert cli.format_label(label) == "Sym^2S∨(1)⟨3⟩⊗S^(2,1)V"


def test_max_basis_is_a_kmatrix_option_only(capsys):
    code, _, err = run(capsys, "windows", "4", "2", "0", "--max-basis", "6")
    assert code == 2 and "--max-basis" in err


def test_staircase_json(capsys):
    _, out, _ = run(capsys, "staircase", "1", "2", "3", "--json")
    doc = json.loads(out)
    assert doc["steps"] == [
        {"k": 1, "delta": [1, 1], "s": 1},
        {"k": 2, "delta": [2, 2], "s": 3},
        {"k": 3, "delta": [3, 2], "s": 4},
    ]


def test_staircase_pretty_draws_diagrams(capsys):
    _, out, _ = run(capsys, "staircase", "", "2", "1", "--pretty")
    assert "□" in out


# full stdout of the staircase and resolve printers, byte for byte
GOLDEN = {
    ("staircase", "3,1", "3", "2"): "k=1  delta=3,1,1  s=1\nk=2  delta=3,2,2  s=3\n",
    ("staircase", "3,1", "3", "2", "--pretty"):
        "k=1  delta=3,1,1  s=1\n□□□\n□\n□\nk=2  delta=3,2,2  s=3\n□□□\n□□\n□□\n",
    ("staircase", "3,1", "3", "2", "--json"):
        '{"seed":[3,1],"height_param":3,"steps":[{"k":1,"delta":[3,1,1],"s":1},'
        '{"k":2,"delta":[3,2,2],"s":3}]}\n',
    ("resolve", "1", "--d", "4", "--r", "2"):
        "S∨(2) -> O(2)⊗∧^3V -> O(1)⊗V -> S∨\n"
        "                                ^^\n"
        "cokernel: push of S^(1) of the rank-1 dual bundle\n",
    ("resolve", "1", "--d", "4", "--r", "2", "--json"):
        '{"complex":[{"degree":-3,"terms":[{"schur":[1],"twist":2,"side":"S","v_shape":[],'
        '"rank":2,"multiplicity":1}]},{"degree":-2,"terms":[{"schur":[],"twist":2,"side":"S",'
        '"v_shape":[1,1,1],"rank":2,"multiplicity":1}]},{"degree":-1,"terms":[{"schur":[],'
        '"twist":1,"side":"S","v_shape":[1],"rank":2,"multiplicity":1}]},{"degree":0,"terms":'
        '[{"schur":[1],"twist":0,"side":"S","v_shape":[],"rank":2,"multiplicity":1}]}],'
        '"cokernel":{"delta":[1],"h_rank":1}}\n',
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_staircase_and_resolve_golden(capsys, argv):
    assert run(capsys, *argv) == (0, GOLDEN[argv], "")


def test_windows_in_a_tall_box_has_no_recursion_limit(capsys):
    # one window generator per partition in the 1 x 1000 box
    code, out, err = run(capsys, "windows", "1001", "1000", "0")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1001


@pytest.mark.parametrize("flag, out", [([], "exact\n"), (["--json"], '{"ok":true,"diffs":[]}\n')])
def test_verify_exactness_in_a_tall_box_has_no_recursion_limit(capsys, flag, out):
    # the (1^s) filling tables span d = 1100 rows, above the recursion limit
    argv = ["verify-exactness", "--d", "1100", "--r", "1000", "--delta", "1", "--degree", "2"]
    assert run(capsys, *argv, *flag) == (0, out, "")


def test_bwb_outputs(capsys):
    _, out, _ = run(capsys, "bwb", "3,1", "4", "3")
    assert out == "regular l=1: H^1 has shape (3,3,2)\n"
    _, out, _ = run(capsys, "bwb", "3,1", "2", "3")
    assert out == "non-regular: all cohomology vanishes\n"
    _, out, _ = run(capsys, "bwb", "3,1", "0", "3", "--json")
    doc = json.loads(out)
    assert doc == {"alpha": [3, 1, 0], "class": "dominant",
                   "cohomology": {"degree": 0, "shape": [3, 1]}}


def test_bwb_json_names_the_class_from_one_classification(capsys):
    _, out, _ = run(capsys, "bwb", "3,1", "4", "3", "--json")
    assert json.loads(out) == {"alpha": [3, 1, 4], "class": "regular", "length": 1,
                               "cohomology": {"degree": 1, "shape": [3, 3, 2]}}
    _, out, _ = run(capsys, "bwb", "3,1", "2", "3", "--json")
    assert json.loads(out) == {"alpha": [3, 1, 2], "class": "non-regular",
                               "cohomology": None}


def test_bwb_rejects_nonpositive_rank(capsys):
    code, out, err = run(capsys, "bwb", "", "0", "0")
    assert (code, out) == (2, "")
    assert "need r >= 1, got r=0" in err


def test_resolve_shows_cokernel(capsys):
    _, out, _ = run(capsys, "resolve", "", "--d", "2", "--r", "1")
    assert out.splitlines()[0] == "O(2) -> O(1)⊗V -> O"
    assert "cokernel: push of S^()" in out


def test_resolve_twisted(capsys):
    _, out, _ = run(capsys, "resolve", "2", "--d", "4", "--r", "2", "--twisted")
    assert out.splitlines()[0] == "S∨⊗∧^3V -> O⊗∧^2V -> O(-1)"


def test_resolve_json_carries_cokernel(capsys):
    _, out, _ = run(capsys, "resolve", "1", "--d", "4", "--r", "2", "--json")
    doc = json.loads(out)
    assert doc["cokernel"] == {"delta": [1], "h_rank": 1}
    assert doc["complex"][0]["degree"] == -3


def test_underline_marks_degree_zero_chunk(capsys):
    _, out, _ = run(capsys, "resolve", "", "--d", "2", "--r", "1")
    # degree 0 is the rightmost term here; no caret under earlier terms
    line, caret = out.splitlines()[:2]
    assert caret.endswith("^")
    assert len(caret) == len(line)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["--help"])
    assert exc.value.code == 0


SHARED_USAGE = "[-h] [--json] [--pretty] [--expand-multiplicities]"


@pytest.mark.parametrize("argv, usage", [
    ([], "grwin [-h] {windows,staircase,resolve,twist,cotwist,bwb,kmatrix,verify-exactness} ..."),
    (["twist"], f"grwin twist {SHARED_USAGE} --d D --r R delta"),
    (["cotwist"], f"grwin cotwist {SHARED_USAGE} --d D --n N delta"),
    (["kmatrix"], f"grwin kmatrix {SHARED_USAGE} --which {{twist,cotwist,identity}} "
                  "--d D --r R [--max-basis N]"),
], ids=["grwin", "twist", "cotwist", "kmatrix"])
def test_usage_names_each_subcommand_and_metavar(capsys, monkeypatch, argv, usage):
    # a wide terminal keeps each usage on its first line
    monkeypatch.setenv("COLUMNS", "200")
    code, out, err = run(capsys, *argv, "-h")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"usage: {usage}"


def test_internal_consistency_error_exits_one(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalConsistencyError("input-cancelling term mismatch")
    monkeypatch.setattr(cli.autoequiv, "twist_on_generator", broken)
    code, out, err = run(capsys, "twist", "2", "--d", "4", "--r", "2")
    assert code == 1
    assert out == ""
    assert "input-cancelling term mismatch" in err
    assert "Traceback" not in err


# Cheap sizes only: d <= 5 keeps every K-matrix and character check small,
# and short partition strings keep staircase diagrams small.
small_int = st.integers(-2, 5).map(str)
partition_text = st.one_of(
    st.text(alphabet="0123,- x", max_size=5),
    st.lists(st.integers(-1, 4), max_size=4).map(lambda xs: ",".join(map(str, xs))),
)
flags = st.lists(st.sampled_from(["--json", "--pretty", "--expand-multiplicities"]),
                 unique=True)
argvs = st.one_of(
    st.tuples(st.just("windows"), small_int, small_int, small_int),
    st.tuples(st.just("staircase"), partition_text, small_int, small_int),
    st.tuples(st.just("resolve"), partition_text, st.just("--d"), small_int,
              st.just("--r"), small_int,
              st.sampled_from([(), ("--twisted",)])),
    st.tuples(st.just("twist"), partition_text, st.just("--d"), small_int,
              st.just("--r"), small_int),
    st.tuples(st.just("cotwist"), partition_text, st.just("--d"), small_int,
              st.just("--n"), small_int),
    st.tuples(st.just("bwb"), partition_text, small_int, small_int),
    st.tuples(st.just("kmatrix"), st.just("--which"),
              st.sampled_from(["twist", "cotwist", "identity", "shift"]),
              st.just("--d"), st.integers(-1, 4).map(str), st.just("--r"), small_int),
    st.tuples(st.just("verify-exactness"), st.just("--d"), small_int, st.just("--r"),
              small_int, st.just("--delta"), partition_text, st.just("--degree"),
              st.integers(-1, 4).map(str)),
    st.lists(st.one_of(small_int, partition_text), max_size=3),
)


def _flatten(parts):
    out = []
    for part in parts:
        out.extend(part if isinstance(part, tuple) else [part])
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argv=argvs.map(_flatten), extra=flags)
def test_cli_exit_code_contract_on_arbitrary_input(argv, extra):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv + extra)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue()
