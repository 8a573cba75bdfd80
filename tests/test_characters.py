from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from grwin import characters
from grwin.characters import (
    euler_character,
    exactness_report,
    hom_invariant_dimension,
    pushforward_character,
    resolution_terms,
    verify_exactness,
)
from grwin.partitions import canonical, partitions_in_box, size
from grwin.schur import lr_fillings
from oracles import (
    cauchy_truncated, euler_character_by_cauchy, hom_dimension_by_enumeration, staircase_faults,
)


def test_cauchy_truncated_rejects_a_negative_alphabet():
    with pytest.raises(ValueError, match=r"^partition bounds must be >= 0"):
        cauchy_truncated(3, -1, 4)


def test_cauchy_degree_one():
    c = cauchy_truncated(2, 2, 1)
    assert c == {((), ()): 1, ((1,), (1,)): 1}


def test_cauchy_degree_two_heights():
    c = cauchy_truncated(4, 2, 2)
    assert c == {
        ((), ()): 1,
        ((1,), (1,)): 1,
        ((2,), (2,)): 1,
        ((1, 1), (1, 1)): 1,
    }


def test_cauchy_single_row_alphabet():
    c = cauchy_truncated(5, 1, 2)
    assert c == {((), ()): 1, ((1,), (1,)): 1, ((2,), (2,)): 1}


def test_pushforward_rank_zero_quotient():
    p = pushforward_character((), 3, 1, 4)
    assert p == {((), ()): 1}


def test_pushforward_rank_one_quotient():
    p = pushforward_character((1,), 2, 2, 2)
    assert p == {
        ((), (1,)): 1,
        ((1,), (2,)): 1,
        ((2,), (3,)): 1,
    }


def test_pushforward_wide_row():
    p = pushforward_character((2,), 4, 2, 1)
    assert p == {((), (2,)): 1, ((1,), (3,)): 1}


def test_pushforward_rejects_tall_delta():
    with pytest.raises(ValueError, match=r"^height\(\(1, 1\)\) must be <= 1$"):
        pushforward_character((1, 1), 3, 2, 3)


def test_euler_koszul_collapses_to_one():
    e = euler_character((), 2, 1, 3)
    assert e == {((), ()): 1}


def test_euler_single_box_coefficient():
    e = euler_character((1,), 2, 2, 2)
    assert e.get(((1,), (2,)), 0) == 1


def test_euler_wide_row_coefficients():
    e = euler_character((2,), 4, 2, 2)
    assert e.get(((2,), (4,)), 0) == 1
    assert e.get(((2,), (3, 1)), 0) == 0


def test_degree_zero_slice_always_agrees():
    for delta, d, r in [((), 4, 2), ((1,), 4, 2), ((2, 1), 5, 3)]:
        e = euler_character(delta, d, r, 2)
        p = pushforward_character(delta, d, r, 2)
        assert e.get(((), delta), 0) == p.get(((), delta), 0) == 1


def test_verify_exactness_figures():
    assert verify_exactness((), 4, 2, 5)
    assert verify_exactness((1,), 4, 2, 5)


def test_verify_exactness_detects_tampering():
    terms = resolution_terms((), 4, 2)
    bad = [(k, ((2,) if shape == (1, 1) else shape), s) for k, shape, s in terms]
    e = euler_character((), 4, 2, 4, terms=bad)
    assert e != pushforward_character((), 4, 2, 4)


def test_verify_exactness_detects_wrong_wedge_power():
    # the misprint-style failure: one exterior power off by one
    terms = resolution_terms((2,), 4, 2)
    bad = [(k, shape, (3 if s == 2 else s)) for k, shape, s in terms]
    e = euler_character((2,), 4, 2, 4, terms=bad)
    assert e != pushforward_character((2,), 4, 2, 4)


def test_terms_above_the_degree_build_no_tables(monkeypatch):
    # every key of a term has ambient degree >= s, so at D = 1 only the terms
    # with s <= 1 build their vertical s-strips in d rows, out of s = 0..40
    columns, real = [], characters._strips

    def spy(s, d, r):
        if d == 40:
            columns.append(s)
        return real(s, d, r)
    monkeypatch.setattr(characters, "_strips", spy)
    assert verify_exactness((1,), 40, 2, 1)
    assert resolution_terms((1,), 40, 2)[-1][2] == 40 and sorted(columns) == [0, 1]


@pytest.mark.parametrize("d", range(1, 10))
def test_pieri_strips_are_the_lr_fillings_of_a_column(d):
    # the Euler character's left tables by Pieri's rule against the one general
    # LR enumeration, with the room (1 down to row r, 0 below); r = d leaves no
    # row below the room's last 1 and s > d fits nothing
    for r in range(1, d + 1):
        for s in range(d + 2):
            strips = characters._strips(s, d, r)
            room = tuple(int(i <= r) for i in range(d))
            assert dict.fromkeys(strips, 1) == lr_fillings((1,) * s, d, room), (r, s)
            assert len(set(strips)) == len(strips), (r, s)


def test_exactness_report_empty_when_exact():
    assert exactness_report((), 3, 2, 3) == []


def test_exactness_report_puts_zero_on_the_side_that_lacks_a_key(monkeypatch):
    # the Euler side loses ((1,), (1,)) and gains ((1,), ()), each with value 1
    import grwin.characters as characters
    real = euler_character((), 4, 2, 3)
    assert real == pushforward_character((), 4, 2, 3) and real[(1,), (1,)] == 1
    slices = characters._euler_slices

    def tampered(terms, d, r, D, digit, cores):
        # the fault enters slice 1 on integer keys, where exactness_report compares
        for N, part in enumerate(slices(terms, d, r, D, digit, cores)):
            if N == 1:
                del part[characters._code((1,), digit) + characters._code((1,), digit, d)]
                part[characters._code((1,), digit)] = 1
            yield part
    monkeypatch.setattr(characters, "_euler_slices", tampered)
    assert exactness_report((), 4, 2, 3) == [(((1,), ()), 1, 0), (((1,), (1,)), 0, 1)]


def test_pushforward_independent_of_ambient_dimension():
    # alphabet saturation: same coefficients once d >= r + D
    a = pushforward_character((1,), 5, 2, 3)
    b = pushforward_character((1,), 8, 2, 3)
    assert a == b


def test_hom_dimension_self():
    assert hom_invariant_dimension("self", (2, 1), 4, 2, 12) == 1


def test_hom_dimension_tautological():
    assert hom_invariant_dimension("tautological", (1,), 3, 2, 10) == 1


def test_hom_dimension_eta():
    assert hom_invariant_dimension("eta", (2, 2), 4, 3, 14) == 1


@pytest.mark.parametrize("delta, a", [((2,), 1), ((2, 2), 2)])
def test_hom_dimension_eta_starts_at_degree_a(delta, a):
    # a = d - s_top, the number of delta's full-width rows at (4,3)
    assert hom_invariant_dimension("eta", delta, 4, 3, a - 1) == 0
    assert hom_invariant_dimension("eta", delta, 4, 3, a) == 1


def test_hom_dimension_stabilizes():
    for case, delta, d, r, D in [
        ("self", (2, 1), 4, 2, 8),
        ("tautological", (1,), 3, 2, 8),
        ("eta", (2, 2), 4, 3, 10),
    ]:
        assert hom_invariant_dimension(case, delta, d, r, D) == \
            hom_invariant_dimension(case, delta, d, r, D + 2)


def test_hom_dimension_guards():
    with pytest.raises(ValueError):
        hom_invariant_dimension("eta", (1,), 4, 2, 10)   # width != d-r+1
    with pytest.raises(ValueError):
        hom_invariant_dimension("tautological", (1, 1), 4, 2, 10)
    with pytest.raises(ValueError):
        hom_invariant_dimension("mystery", (1,), 4, 2, 10)


def outcome(hom, *args):
    try:
        return hom(*args)
    except ValueError as exc:
        return str(exc)


def test_hom_dimension_closed_forms_match_the_enumeration():
    # every delta in the (d-r+1) x r box, so each case sees valid seeds and
    # rejected ones; low degrees cut the eta strip (1^a) off when D < a
    seen = Counter()
    for d in range(1, 7):
        for r in range(1, d + 1):
            for delta in partitions_in_box(d - r + 1, r):
                stable = size(delta) + r * (d - r + 1)
                for case in ("self", "tautological", "eta"):
                    for D in sorted({0, 1, 2, 3, stable, stable + 2}):
                        args = (case, delta, d, r, D)
                        value = outcome(hom_invariant_dimension, *args)
                        assert value == outcome(hom_dimension_by_enumeration, *args), args
                        seen[value if isinstance(value, int) else "rejected"] += 1
    assert seen[0] and seen[1] and seen["rejected"], seen


@st.composite
def seeds(draw):
    """(d, r, delta) with 2 <= r < d <= 7 and delta in its (d-r+1) x (r-1)
    box, |delta| <= 2 so that the stable degree stays small."""
    d = draw(st.integers(3, 7))
    r = draw(st.integers(2, d - 1))
    delta = draw(st.sampled_from(
        [p for p in partitions_in_box(d - r + 1, r - 1) if size(p) <= 2]))
    return d, r, delta


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=seeds())
def test_exactness_at_stable_degree_and_one_box_perturbation_caught(seed):
    d, r, delta = seed
    D = size(delta) + r * (d - r + 1)
    assert verify_exactness(delta, d, r, D)
    # criterion 4's perturbation: the last box of term 1's bottom row moves
    # to its top row
    terms = resolution_terms(delta, d, r)
    k, shape, s = terms[1]
    moved = canonical((shape[0] + 1,) + shape[1:-1] + (shape[-1] - 1,))
    bad = terms[:1] + [(k, moved, s)] + terms[2:]
    assert euler_character(delta, d, r, D, terms=bad) != \
        pushforward_character(delta, d, r, D)


@pytest.mark.parametrize("d, r", [(d, r) for d in range(1, 7) for r in range(1, d + 1)])
def test_every_planted_staircase_fault_shows_by_ambient_degree_d(d, r):
    # evidence, not a proof, that D = d decides exactness: on every seed the
    # characters agree to degree d, each planted fault breaks that by degree d,
    # and some fault first breaks it at degree d, so no smaller D catches them all
    lowest = []
    for delta in partitions_in_box(d - r + 1, r - 1):
        push = pushforward_character(delta, d, r, d)
        assert euler_character(delta, d, r, d) == push, delta
        for bad in staircase_faults(resolution_terms(delta, d, r)):
            euler = euler_character(delta, d, r, d, terms=bad)
            assert euler != push, (delta, bad)
            lowest.append(min(sum(lam) for lam, mu in euler.keys() | push.keys()
                              if euler.get((lam, mu), 0) != push.get((lam, mu), 0)))
    assert max(lowest) == d


def test_euler_key_filled_in_by_translation_matches_the_cauchy_sum():
    # ((2,2),(3,1)) has two boxes in row r = 2, so only the translate of
    # ((1,1),(2,)) puts it there; exact characters have no such key
    terms = [(0, (1,), 1), (1, (1, 1), 2), (2, (2, 1), 3)]
    e = euler_character((), 3, 2, 4, terms=terms)
    assert e[(2, 2), (3, 1)] == 1
    assert e == euler_character_by_cauchy((), 3, 2, 4, terms=terms)


def test_euler_override_with_parts_above_the_degree_matches_the_cauchy_sum():
    # beta's parts are not bounded by D: these shapes reach 14 at D = 6, and
    # (9, 3) sheds three full columns in r = 2 letters, so integer keys need a
    # radix above D + shape_1 + 1 for their digits to add without carry; a
    # radix of 16, the next power of two above D + 2, is too small here
    terms = [(0, (9, 3), 1), (1, (14,), 2), (2, (7, 7), 0)]
    e = euler_character((), 4, 2, 6, terms=terms)
    assert max(mb[0] for _, mb in e) >= 16
    assert e == euler_character_by_cauchy((), 4, 2, 6, terms=terms)


@st.composite
def euler_cases(draw):
    """(delta, d, r, D, terms): a staircase or one term of it changed by a
    one-box move, s +- 1 or a random shape (up to r + 1 rows)."""
    d = draw(st.integers(1, 8))
    r = draw(st.integers(1, d))
    D = draw(st.integers(0, 18))
    delta = draw(st.sampled_from(partitions_in_box(d - r + 1, r - 1)))
    terms = resolution_terms(delta, d, r)
    i = draw(st.integers(0, len(terms) - 1))
    k, shape, s = terms[i]
    change = draw(st.sampled_from(["none", "move", "s+1", "s-1", "random"]))
    if change == "move" and len(shape) > 1:
        # the last box of the bottom row goes to the top row
        shape = canonical((shape[0] + 1,) + shape[1:-1] + (shape[-1] - 1,))
    elif change in ("s+1", "s-1"):
        s = max(s + (1 if change == "s+1" else -1), 0)
    elif change == "random":
        rows = draw(st.lists(st.integers(0, 4), max_size=r + 1))
        shape = canonical(sorted(rows, reverse=True))
    return delta, d, r, D, terms[:i] + [(k, shape, s)] + terms[i + 1:]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(case=euler_cases())
@example(case=((), 4, 4, 9, [(0, (), 0), (1, (1, 1, 1, 1), 4)]))  # r = d, s = d
@example(case=((1,), 4, 4, 8, [(0, (1,), 0), (1, (2, 1, 1, 1), 4)]))
@example(case=((1,), 4, 2, 10, [(0, (1,), 0), (1, (1, 1), 1), (2, (2, 2), 4), (3, (3, 2), 4)]))
def test_euler_character_matches_the_full_cauchy_sum(case):
    delta, d, r, D, terms = case
    assert euler_character(delta, d, r, D, terms=terms) == \
        euler_character_by_cauchy(delta, d, r, D, terms=terms)


def full_dict_report(delta, d, r, D, terms):
    """exactness_report's differences, read off the two whole characters."""
    euler = euler_character(delta, d, r, D, terms=terms)
    push = pushforward_character(delta, d, r, D)
    return sorted((key, euler.get(key, 0), push.get(key, 0)) for key in euler.keys() | push.keys()
                  if euler.get(key, 0) != push.get(key, 0))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(case=euler_cases())
def test_slice_compare_matches_the_full_dict_compare(case):
    # exactness_report compares slice by slice on integer keys; on a changed
    # staircase it must find exactly the differences of the two whole characters
    import grwin.characters as characters
    delta, d, r, D, terms = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(characters, "resolution_terms", lambda *args: terms)
        assert exactness_report(delta, d, r, D) == full_dict_report(delta, d, r, D, terms)


def test_slice_compare_reports_a_translated_key(monkeypatch):
    # ((2,2),(3,1)) reaches slice 4 only as the (1^2)-translate of a key of
    # slice 2, and the pushforward of () has no such key
    import grwin.characters as characters
    terms = [(0, (1,), 1), (1, (1, 1), 2), (2, (2, 1), 3)]
    monkeypatch.setattr(characters, "resolution_terms", lambda *args: terms)
    report = exactness_report((), 3, 2, 4)
    assert (((2, 2), (3, 1)), 1, 0) in report
    assert report == full_dict_report((), 3, 2, 4, terms)
