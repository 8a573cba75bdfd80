"""Acceptance suite: one test per criterion, each printing a pass line.

All equalities are exact (integer / Fraction arithmetic); the only stated
tolerances are wall-clock budgets, asserted per criterion.
"""

import random
import time
from math import comb

from oracles import (
    alternating_rank_sum,
    classify_bruteforce,
    complex_of,
    epsilon_sequence,
    gamma_split,
    int_matmul,
    label,
    pushdown_pi_bruteforce,
    solve_fraction_gauss_jordan,
    staircase_closed_form,
    strip_first_row_and_column,
    tensor_det,
    terms_at,
)

from grwin.autoequiv import (
    cotwist_on_generator,
    k_matrix,
    o1_matrix,
    twist_on_generator,
)
from grwin.bott import bwb_cohomology, classify
from grwin.characters import (
    euler_character,
    hom_invariant_dimension,
    pushforward_character,
    resolution_terms,
    verify_exactness,
)
from grwin.partitions import (
    complement,
    partitions_in_box,
    staircase,
    width,
)
from grwin.resolutions import pushdown_pi, theorem_resolution, unstable_resolution_twisted
from grwin.windows import gamma_set


def _finish(number, text, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.1f}s"
    print(f"PASS criterion {number:2d}: {text} ({elapsed:.2f}s < {budget}s)")


def test_criterion_01_golden_three_fold_flop():
    t0 = time.monotonic()
    assert cotwist_on_generator((), 2, 1) == complex_of((0, label((), 1, 0), 1))
    assert cotwist_on_generator((1,), 2, 1) == complex_of(
        (0, label((), 1, 0, v=1), 1),
        (1, label((), 1, -1), 1),
    )
    assert twist_on_generator((), 2, 1) == complex_of((0, label((), 1, 1), 1))
    assert twist_on_generator((1,), 2, 1) == complex_of(
        (0, label((), 1, 1, v=1), 1),
        (1, label((), 1, 0), 1),
    )
    _finish(1, "three-fold flop shift images", t0, 1)


def test_criterion_02_golden_d4_r2_suite():
    t0 = time.monotonic()
    out_sq = cotwist_on_generator((2,), 4, 2)
    assert out_sq == complex_of(
        (0, label((1,), 2, 0, v=3), 1),
        (1, label((), 2, 0, v=2), 1),
        (2, label((), 2, -1), 1),
    )
    flat = out_sq.expand_multiplicities(4)
    assert terms_at(flat, 0) == {label((1,), 2, 0): 4}      # printed ⊕4
    assert terms_at(flat, 1) == {label((), 2, 0): 6}        # printed ⊕6
    out_hook = cotwist_on_generator((2, 1), 4, 2).expand_multiplicities(4)
    assert terms_at(out_hook, 0) == {label((), 2, 1): 4}    # printed ⊕4
    assert terms_at(out_hook, 1) == {label((), 2, 0): 4}
    assert terms_at(out_hook, 2) == {label((1,), 2, -1): 1}

    corrected = cotwist_on_generator((2, 2), 4, 2)
    assert corrected == complex_of(
        (0, label((), 2, 1, v=2), 1),
        (1, label((1,), 2, 0, v=1), 1),
        (2, label((2,), 2, -1), 1),
    )
    # the printed four-term version carries the wrong exterior power and
    # fails the alternating-rank-zero necessary condition: 1-4+8-3 = 2
    printed = complex_of(
        (0, label((), 2, 2), 1),                      # top V power trivialized
        (1, label((), 2, 1, v=3), 1),
        (2, label((1,), 2, 0, v=1), 1),
        (3, label((2,), 2, -1), 1),
    )
    assert alternating_rank_sum(printed, 4) == 2
    four_term_fixed = complex_of(
        (0, label((), 2, 2), 1),
        (1, label((), 2, 1, v=2), 1),
        (2, label((1,), 2, 0, v=1), 1),
        (3, label((2,), 2, -1), 1),
    )
    assert alternating_rank_sum(four_term_fixed, 4) == 0
    _finish(2, "rank-2 shift images incl. corrected third complex", t0, 1)


def test_criterion_03_resolution_figures():
    t0 = time.monotonic()
    cx = theorem_resolution((), 4, 2)
    assert cx == complex_of(
        (-3, label((2,), 2, 1), 1),
        (-2, label((1,), 2, 1, v=3), 1),
        (-1, label((), 2, 1, v=2), 1),
        (0, label((), 2, 0), 1),
    )
    cx = theorem_resolution((1,), 4, 2)
    assert cx == complex_of(
        (-3, label((1,), 2, 2), 1),
        (-2, label((), 2, 2, v=3), 1),
        (-1, label((), 2, 1, v=1), 1),
        (0, label((1,), 2, 0), 1),
    )
    _finish(3, "resolution figures term-for-term", t0, 1)


def test_criterion_04_character_exactness_grid():
    t0 = time.monotonic()
    grid = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2)]
    checked = 0
    for d, r in grid:
        for delta in partitions_in_box(d - r + 1, r - 1):
            assert verify_exactness(delta, d, r, 6), (d, r, delta)
            checked += 1
    assert checked == 20
    # a deliberately perturbed resolution must fail
    bad = [(k, ((2,) if shape == (1, 1) else shape), s)
           for k, shape, s in resolution_terms((), 4, 2)]
    assert euler_character((), 4, 2, 6, terms=bad) != \
        pushforward_character((), 4, 2, 6)
    _finish(4, f"exactness oracle on {checked} admissible seeds at D=6", t0, 300)


def test_criterion_05_borel_weil_bott():
    t0 = time.monotonic()
    rng = random.Random(2024)
    for _ in range(2000):
        r = rng.randint(1, 6)
        alpha = tuple(rng.randint(-10, 10) for _ in range(r))
        assert classify(alpha) == classify_bruteforce(alpha)
    assert [classify((3, 1) + (i,)) for i in range(6)] == [
        (0, (3, 1, 0)), (0, (3, 1, 1)), None, (1, (3, 2, 2)), (1, (3, 3, 2)), None]
    # staircase linkage on 500 regular draws
    done = 0
    while done < 500:
        r = rng.randint(2, 6)
        delta = rng.choice(partitions_in_box(6, r - 1))
        i = rng.randint(0, 12)
        result = bwb_cohomology(delta, i, r)
        if result is None:
            continue
        l, shape = result
        k = i - l
        if k == 0:
            assert shape == delta and i == l
        else:
            chain = staircase(delta, r, k)
            assert shape == chain[k][1] and chain[k][2] == i
        done += 1
    _finish(5, "classifier oracle, figure row, staircase linkage", t0, 30)


def test_criterion_06_staircase_closed_form_and_remarks():
    t0 = time.monotonic()
    rng = random.Random(99)
    for _ in range(1000):
        d = rng.randint(2, 10)
        r = rng.randint(1, min(6, d))
        K = d - r + 1
        seed = rng.choice(partitions_in_box(d - r + 1, r - 1))
        chain = staircase(seed, r, K)
        for k in range(1, K + 1):
            assert chain[k][1] == staircase_closed_form(seed, r, k)
            assert len(chain[k][1]) == r
            assert width(chain[k][1]) <= d - r + 1
        if width(seed) < d - r + 1:
            assert chain[K][2] == d
            assert all(width(chain[k][1]) < d - r + 1 for k in range(K))
            assert width(chain[K][1]) == d - r + 1
            assert strip_first_row_and_column(chain[K][1]) == seed
        else:
            assert all(width(chain[k][1]) == d - r + 1 for k in range(K + 1))
        eps = epsilon_sequence(seed, d, r)
        assert width(eps[0]) == d - r + 1
        assert all(width(e) < d - r + 1 for e in eps[1:])
        if width(seed) < d - r + 1:
            assert all(len(eps[k]) == r for k in range(K))
            assert len(eps[K]) < r
            assert eps[K] == complement(seed, d - r, r - 1)
    _finish(6, "closed form and combinatorial remarks on 1000 draws", t0, 10)


def test_criterion_07_conjugation_identity():
    t0 = time.monotonic()
    cases = 0
    for d in range(2, 7):
        for n in range(1, d):
            for delta in gamma_set(d, n):
                assert tensor_det(cotwist_on_generator(delta, d, n), 1) == \
                    twist_on_generator(delta, d, n), (d, n, delta)
                cases += 1
    assert cases == sum(comb(d, n) for d in range(2, 7) for n in range(1, d))
    _finish(7, f"shift conjugation on {cases} generators", t0, 30)


def test_criterion_08_route_equivalence():
    t0 = time.monotonic()
    cases = 0
    for d in range(2, 7):
        for n in range(1, d):
            for delta in gamma_split(d, n)[1]:
                assert cotwist_on_generator(delta, d, n) == \
                    unstable_resolution_twisted(delta, d, n), (d, n, delta)
                cases += 1
    _finish(8, f"cone route equals resolution route on {cases} generators", t0, 30)


def test_criterion_09_k_theory_matrices():
    t0 = time.monotonic()
    for d, r in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]:
        mt = k_matrix("twist", d, r)
        mc = k_matrix("cotwist", d, r)
        assert abs(solve_fraction_gauss_jordan(mt, [])[0]) == 1, (d, r)
        assert abs(solve_fraction_gauss_jordan(mc, [])[0]) == 1, (d, r)
        T = o1_matrix(d, r)
        assert abs(solve_fraction_gauss_jordan(T, [])[0]) == 1, (d, r)
        assert int_matmul(T, mc) == int_matmul(mt, T), (d, r)
    _finish(9, "unimodularity and exact conjugation of K-matrices", t0, 60)


def test_criterion_10_hom_dimension_lemmas():
    t0 = time.monotonic()
    self_cases = [((), 2, 1), ((1,), 3, 2), ((2,), 3, 2), ((2, 1), 4, 2),
                  ((2, 2), 4, 2), ((1,), 4, 3), ((2, 1), 4, 3), ((3, 1), 5, 2),
                  ((2, 2, 1), 5, 3), ((3, 2), 6, 3)]
    taut_cases = [((1,), 3, 2), ((2,), 4, 2), ((3,), 5, 2), ((1,), 4, 3),
                  ((2, 1), 4, 3), ((2, 2), 5, 3), ((1, 1), 5, 3),
                  ((3, 1), 6, 3), ((2,), 6, 4), ((1, 1, 1), 6, 4)]
    eta_cases = [((2,), 3, 2), ((3,), 4, 2), ((4,), 5, 2), ((5,), 6, 2),
                 ((2,), 4, 3), ((2, 1), 4, 3), ((2, 2), 4, 3),
                 ((3, 1), 5, 3), ((3, 2), 5, 3), ((2, 1, 1), 5, 4)]
    assert len(self_cases) == len(taut_cases) == len(eta_cases) == 10
    for case, instances in [("self", self_cases),
                            ("tautological", taut_cases),
                            ("eta", eta_cases)]:
        for delta, d, r in instances:
            D = sum(delta) + r * (d - r + 1)
            value = hom_invariant_dimension(case, delta, d, r, D)
            assert value == 1, (case, delta, d, r)
            assert hom_invariant_dimension(case, delta, d, r, D + 2) == value
    _finish(10, "one-dimensional mapping spaces, stabilized in degree", t0, 120)


def test_criterion_11_pushforward_agreement():
    t0 = time.monotonic()
    two_term_seen = 0
    for d, r in [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)]:
        for gamma in partitions_in_box(d - r + 1, r):
            for locus in ("stack", "open"):
                closed = pushdown_pi(gamma, d, r, locus)
                assert closed == pushdown_pi_bruteforce(gamma, d, r, locus), \
                    (d, r, gamma, locus)
                if locus == "open" and len(closed.terms) == 2:
                    assert [deg for deg, _ in closed.terms] == [0, d - r]
                    two_term_seen += 1
    assert two_term_seen > 0
    _finish(11, "pushforward closed form vs filtration oracle", t0, 10)
