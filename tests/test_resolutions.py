import pytest

from oracles import (
    alternating_rank_sum,
    complex_of,
    epsilon_sequence,
    gamma_split,
    jshriek_by_epsilon,
    label,
    pushdown_pi_bruteforce,
    relabel_to_x,
)

from grwin.bundles import GradedComplex
from grwin.partitions import height, partitions_in_box, width
from grwin.resolutions import (
    jshriek_jlower,
    pushdown_pi,
    theorem_resolution,
    unstable_resolution_twisted,
)


def test_resolution_of_empty_seed_reproduces_displayed_complex():
    cx = theorem_resolution((), 4, 2)
    assert cx == complex_of(
        (-3, label((2,), 2, 1), 1),                 # square of dual taut, twisted; top V power trivial
        (-2, label((1,), 2, 1, v=3), 1),
        (-1, label((), 2, 1, v=2), 1),
        (0, label((), 2, 0), 1),
    )


def test_resolution_of_one_box_seed_reproduces_displayed_complex():
    cx = theorem_resolution((1,), 4, 2)
    assert cx == complex_of(
        (-3, label((1,), 2, 2), 1),
        (-2, label((), 2, 2, v=3), 1),
        (-1, label((), 2, 1, v=1), 1),
        (0, label((1,), 2, 0), 1),
    )


def test_resolution_koszul_case():
    cx = theorem_resolution((), 2, 1)
    assert cx == complex_of(
        (-2, label((), 1, 2), 1),
        (-1, label((), 1, 1, v=1), 1),
        (0, label((), 1, 0), 1),
    )


def test_resolution_rejects_out_of_range_seeds():
    with pytest.raises(ValueError, match=r"^seed height 2 must be < 2$"):
        theorem_resolution((1, 1), 4, 2)   # height == r
    with pytest.raises(ValueError, match=r"^width\(\(4,\)\) must be <= 3$"):
        theorem_resolution((4,), 4, 2)     # width > d-r+1


def test_resolution_alternating_rank_sum_vanishes():
    # the cokernel is torsion, so the bundle ranks must cancel
    params_list = [(3, 2), (4, 2), (4, 3), (5, 3), (6, 3),
                   (7, 3), (7, 4), (8, 3), (8, 4), (9, 4), (9, 5)]
    for d, r in params_list:
        for delta in partitions_in_box(min(3, d - r + 1), min(3, r - 1)):
            cx = theorem_resolution(delta, d, r)
            assert alternating_rank_sum(cx, d) == 0, (d, r, delta)


def test_unstable_route_for_square_of_dual_taut():
    cx = unstable_resolution_twisted((2,), 4, 2)
    assert cx == complex_of(
        (0, label((1,), 2, 0, v=3), 1),
        (1, label((), 2, 0, v=2), 1),
        (2, label((), 2, -1), 1),
    )


def test_unstable_route_for_hook():
    cx = unstable_resolution_twisted((2, 1), 4, 2)
    assert cx == complex_of(
        (0, label((), 2, 1, v=3), 1),
        (1, label((), 2, 0, v=1), 1),
        (2, label((1,), 2, -1), 1),
    )


def test_unstable_route_three_fold():
    cx = unstable_resolution_twisted((1,), 2, 1)
    assert cx == complex_of(
        (0, label((), 1, 0, v=1), 1),
        (1, label((), 1, -1), 1),
    )


def test_unstable_route_rejects_narrow_targets():
    with pytest.raises(ValueError):
        unstable_resolution_twisted((1,), 4, 2)


def test_unstable_route_rank_sum_equals_target_rank():
    from grwin.schur import schur_dimension
    for d, r in [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (6, 3)]:
        for delta in partitions_in_box(d - r, r):
            if width(delta) != d - r:
                continue
            cx = unstable_resolution_twisted(delta, d, r)
            assert alternating_rank_sum(cx, d) == schur_dimension(delta, r)


def test_jshriek_three_fold():
    cx = jshriek_jlower((), 2, 1)
    assert cx == complex_of(
        (0, label((), 1, 0, bracket=1), 1),
        (1, label((), 1, -1, v=1, bracket=1), 1),
        (2, label((), 1, -2, bracket=1), 1),
    )


def test_jshriek_4_3_terms():
    cx = jshriek_jlower((2,), 4, 3)
    # eps sequence (2,2), (1,1), (1); non-dual Schur powers enter through
    # the rectangle complement at their own width
    assert epsilon_sequence((2,), 4, 3) == [(2, 2), (1, 1), (1,)]
    assert cx == complex_of(
        (0, label((1, 1), 3, -1, v=3, bracket=1), 1),
        (1, label((1,), 3, -1, v=2, bracket=1), 1),
        (2, label((2,), 3, -2, bracket=1), 1),
    )


def test_jshriek_matches_the_epsilon_form_on_every_seed():
    # the labels come from delta_k directly; the paper's route complements
    # delta_k in the K x r box and takes that non-dual Schur power
    seeds = 0
    for d in range(1, 9):
        for r in range(1, d + 1):
            for delta in partitions_in_box(d - r + 1, r - 1):
                got, expected = jshriek_jlower(delta, d, r), jshriek_by_epsilon(delta, d, r)
                assert repr(got) == repr(expected), (d, r, delta)
                seeds += 1
    assert seeds == 502


def test_jshriek_guards():
    with pytest.raises(ValueError):
        jshriek_jlower((3, 3, 3), 4, 3)


def test_epsilon_width_and_height_remarks():
    # widths: full at k=0, strictly narrower afterwards; heights capped;
    # narrow seeds flip heights to full except at the top, which complements
    # the seed in the smaller box
    from grwin.partitions import complement
    for d, r in [(4, 2), (5, 2), (5, 3), (6, 3), (6, 4)]:
        K = d - r + 1
        for delta in partitions_in_box(d - r + 1, r - 1):
            eps = epsilon_sequence(delta, d, r)
            assert width(eps[0]) == d - r + 1
            assert all(width(e) < d - r + 1 for e in eps[1:])
            assert all(height(e) <= r for e in eps)
            if width(delta) < d - r + 1:
                assert all(height(eps[k]) == r for k in range(K))
                assert height(eps[K]) < r
                assert eps[K] == complement(delta, d - r, r - 1)
            else:
                assert all(height(e) <= r - 1 for e in eps)


def test_pushdown_single_piece():
    cx = pushdown_pi((1,), 4, 2, "stack")
    assert cx == complex_of((0, label((), 1, -1, side="H"), 1),)
    assert pushdown_pi((1,), 5, 3, "stack") == complex_of(
        (0, label((1,), 2, -1, side="H"), 1),)


def test_pushdown_full_height_vanishes():
    assert len(pushdown_pi((1, 1), 4, 2, "stack").terms) == 0


def test_pushdown_wide_diagram_two_terms():
    cx = pushdown_pi((3, 1), 4, 2, "open")
    # degree-0 piece vanishes (too tall for the corank-1 bundle); the
    # surviving piece is the stripped row with a determinant twist
    assert cx == complex_of((2, label((), 1, 0, side="H"), 1),)
    cx2 = pushdown_pi((3,), 4, 2, "open")
    assert [deg for deg, _ in cx2.terms] == [0, 2]


def test_pushdown_rejects_overwide():
    with pytest.raises(ValueError, match=r"^width\(\(4, 1\)\) > 3 is outside the pushforward"):
        pushdown_pi((4, 1), 4, 2, "open")
    with pytest.raises(ValueError):
        pushdown_pi((1,), 4, 2, "everywhere")


def test_pushdown_bruteforce_agreement_samples():
    assert pushdown_pi((1,), 4, 2, "stack") == pushdown_pi_bruteforce((1,), 4, 2, "stack")
    assert pushdown_pi((2, 1), 4, 2, "open") == pushdown_pi_bruteforce((2, 1), 4, 2, "open")
    assert pushdown_pi((3, 1), 4, 2, "open") == pushdown_pi_bruteforce((3, 1), 4, 2, "open")


def test_pushdown_bruteforce_agreement_grid():
    for d, r in [(3, 2), (4, 2), (4, 3)]:
        for gamma in partitions_in_box(d - r + 1, r):
            for locus in ("stack", "open"):
                assert pushdown_pi(gamma, d, r, locus) == \
                    pushdown_pi_bruteforce(gamma, d, r, locus), (d, r, gamma, locus)


def test_pushing_jshriek_terms_down_gives_the_cotwist():
    # the derivation chain: push each correspondence-stack term to the
    # corank-1 base and the down-shift complex appears term by term
    from grwin.autoequiv import cotwist_on_generator
    from grwin.bundles import from_nondual
    from grwin.partitions import staircase

    for d, n in [(3, 2), (4, 2), (4, 3), (5, 3)]:
        r = n + 1
        for delta in gamma_split(d, n)[1]:
            eps = epsilon_sequence(delta, d, r)
            chain = staircase(delta, r, d - r + 1)
            pushed = []
            for k, e in enumerate(eps):
                assert height(e) <= n
                s = chain[k][2]  # wedge^d V = det V is trivialized
                lb = relabel_to_x(from_nondual(
                    e, n, side="H", extra_twist=d - r, wedge=0 if s == d else s))
                pushed.append((d - r + 1 - k, lb, 1))
            assert GradedComplex.from_items(pushed) == \
                cotwist_on_generator(delta, d, n), (d, n, delta)
