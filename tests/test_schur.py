import random
from itertools import combinations
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    enumerate_ssyt,
    is_horizontal_strip,
    lr_coefficient_by_filling,
    partitions_of_size,
    pieri_filtration,
    schur_product_by_candidates,
    ssyt_count,
)

from grwin.partitions import canonical, width
from grwin.schur import (fits, gaps, lr_coefficient, lr_fillings, schur_dimension,
                         schur_product)


def test_lr_single_skew_box():
    assert lr_coefficient((1, 1), (1,), (2, 1)) == 1


def test_lr_empty_content():
    assert lr_coefficient((2, 1), (), (2, 1)) == 1
    assert lr_coefficient((2, 1), (), (3,)) == 0


def test_lr_disconnected_shape_fails_lattice():
    assert lr_coefficient((1,), (1,), (2, 2)) == 0


def test_lr_known_values():
    # classical: s_21 * s_21 contains s_42 once and s_321 twice
    assert lr_coefficient((2, 1), (2, 1), (4, 2)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (2, 2, 1, 1)) == 1


def test_lr_symmetry():
    rng = random.Random(17)
    shapes = [p for n in range(9) for p in partitions_of_size(n, 4)]
    for _ in range(500):
        lam, mu = rng.choice(shapes), rng.choice(shapes)
        nu = rng.choice(partitions_of_size(sum(lam) + sum(mu), 5))
        assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


def test_lr_pieri_specialization():
    # against direct horizontal-strip enumeration
    rng = random.Random(23)
    shapes = [p for n in range(7) for p in partitions_of_size(n, 3)]
    for _ in range(300):
        lam = rng.choice(shapes)
        t = rng.randint(0, 4)
        nu = rng.choice(partitions_of_size(sum(lam) + t, 4))
        expected = 1 if is_horizontal_strip(nu, lam) else 0
        assert lr_coefficient(lam, (t,) if t else (), nu) == expected


def test_schur_product_rank_two():
    assert schur_product((1,), (1,), 2) == {(2,): 1, (1, 1): 1}


def test_schur_product_height_filter():
    assert schur_product((2,), (1, 1), 2) == {(3, 1): 1}
    assert schur_product((2,), (1, 1), 3) == {(3, 1): 1, (2, 1, 1): 1}


def test_schur_product_by_empty():
    assert schur_product((3, 1), (), 4) == {(3, 1): 1}


def test_dimension_multiplicativity():
    rng = random.Random(29)
    shapes = [p for n in range(6) for p in partitions_of_size(n, 4)]
    for _ in range(100):
        lam, mu = rng.choice(shapes), rng.choice(shapes)
        n = rng.randint(1, 4)
        total = sum(c * schur_dimension(nu, n)
                    for nu, c in schur_product(lam, mu, n).items())
        assert total == schur_dimension(lam, n) * schur_dimension(mu, n)


def test_pieri_filtration_rank_one():
    assert pieri_filtration((1,), 1) == {((1,), 0): 1, ((), 1): 1}
    assert pieri_filtration((2, 1), 1) == {((2,), 1): 1, ((1,), 2): 1}


def test_pieri_filtration_top_piece():
    pieces = pieri_filtration((3, 1), 1)
    assert pieces[((1,), 3)] == 1


def test_pieri_filtration_rejects_tall_input():
    with pytest.raises(ValueError):
        pieri_filtration((1, 1, 1), 1)


def test_pieri_filtration_total_dimension():
    rng = random.Random(31)
    for _ in range(100):
        rank_h = rng.randint(0, 3)
        gamma = rng.choice([p for n in range(7)
                            for p in partitions_of_size(n, rank_h + 1)])
        total = sum(schur_dimension(alpha, rank_h)
                    for (alpha, _t) in pieri_filtration(gamma, rank_h))
        assert total == schur_dimension(gamma, rank_h + 1)


def test_schur_dimension_worked_values():
    assert schur_dimension((1, 1), 4) == 6
    assert schur_dimension((1, 1, 1), 4) == 4
    assert schur_dimension((2,), 2) == 3
    assert schur_dimension((), 0) == 1
    assert schur_dimension((1,), 0) == 0


def test_schur_dimension_against_tableau_enumeration():
    rng = random.Random(37)
    shapes = [p for n in range(6) for p in partitions_of_size(n, 3)]
    for _ in range(40):
        lam = rng.choice(shapes)
        n = rng.randint(0, 4)
        assert schur_dimension(lam, n) == ssyt_count(lam, n)


def test_schur_dimension_zero_above_alphabet():
    assert schur_dimension((2, 1, 1), 2) == 0
    assert len((2, 1, 1)) == 3


# every partition of at most 7 boxes: the empty one, and shapes up to 7 rows
# tall, so some are taller than the alphabet bound
SMALL_SHAPES = [p for n in range(8) for p in partitions_of_size(n)]
small_shapes = st.sampled_from(SMALL_SHAPES)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lam=small_shapes, mu=small_shapes, max_height=st.integers(1, 6))
@example(lam=(), mu=(), max_height=1)
@example(lam=(), mu=(3, 2, 1), max_height=3)
@example(lam=(2, 1, 1, 1), mu=(1,), max_height=3)
@example(lam=(2, 1), mu=(1, 1, 1, 1, 1), max_height=4)
@example(lam=(3, 2, 1), mu=(2, 2, 1, 1), max_height=6)
def test_schur_product_matches_candidate_loop(lam, mu, max_height):
    expected = schur_product_by_candidates(lam, mu, max_height)
    got = schur_product(lam, mu, max_height)
    assert got == dict(expected)
    assert list(got.items()) == expected  # lexicographically descending


@settings(derandomize=True, max_examples=150, deadline=None)
@given(lam=small_shapes, mu=small_shapes, max_height=st.integers(1, 6),
       picks=st.lists(st.integers(0, 10**6), max_size=5))
@example(lam=(2, 1), mu=(2, 1), max_height=3, picks=[0, 4, 7])
def test_lr_coefficient_matches_filling(lam, mu, max_height, picks):
    # nu from the product's support, then random nu of the right size
    support = [nu for nu, _ in schur_product_by_candidates(lam, mu, max_height)]
    others = partitions_of_size(sum(lam) + sum(mu))
    for nu in support + [others[i % len(others)] for i in picks]:
        assert lr_coefficient(lam, mu, nu) == lr_coefficient_by_filling(lam, mu, nu), nu


def test_one_letter_products_add_rows():
    # in one letter s_(a) * s_(b) = s_(a+b), and a second row vanishes
    for a in range(5):
        for b in range(5):
            assert schur_product(canonical((a,)), canonical((b,)), 1) == \
                {canonical((a + b,)): 1}
    assert schur_product((2,), (1, 1), 1) == {}


def test_wedge_taller_than_alphabet_vanishes():
    for h in range(1, 5):
        assert schur_product((2, 1), (1,) * (h + 1), h) == {}
        assert schur_product((1,) * (h + 1), (3,), h) == {}


def test_lr_coefficient_of_empty_shapes():
    # nu = () asks for a product in zero letters
    assert lr_coefficient((), (), ()) == 1
    assert lr_coefficient((1,), (), ()) == 0


row_lists = st.lists(st.integers(0, 2), min_size=1, max_size=4)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(h=st.integers(1, 4), lam_rows=row_lists, mu_rows=row_lists,
       full=st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)]))
@example(h=1, lam_rows=[0], mu_rows=[0], full=(2, 1))
@example(h=3, lam_rows=[2, 1, 0], mu_rows=[1, 1, 0], full=(0, 1))
def test_schur_product_with_full_columns_matches_candidate_loop(h, lam_rows, mu_rows,
                                                                full):
    # lam gets a and mu gets b full columns of height h, a + b >= 1; in h
    # letters s_{lam + (a^h)} = (x_1...x_h)^a s_lam, so the product sheds them
    a, b = full
    lam = canonical(x + a for x in sorted((lam_rows + [0] * h)[:h], reverse=True))
    mu = canonical(x + b for x in sorted((mu_rows + [0] * h)[:h], reverse=True))
    expected = schur_product_by_candidates(lam, mu, h)
    got = schur_product(lam, mu, h)
    assert got == dict(expected)
    assert list(got.items()) == expected


TALL_SHAPES = [p for p in SMALL_SHAPES if len(p) > width(p)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(lam=small_shapes, mu=st.sampled_from(TALL_SHAPES), max_height=st.integers(1, 7))
@example(lam=(3, 2), mu=(1, 1, 1), max_height=4)
@example(lam=(2, 2, 1), mu=(2, 1, 1), max_height=5)
def test_schur_product_with_tall_factor_matches_candidate_loop(lam, mu, max_height):
    # a mu with more rows than columns grows from LR tableaux like any other;
    # its first letter may widen row 0 by the whole strip
    expected = schur_product_by_candidates(lam, mu, max_height)
    got = schur_product(lam, mu, max_height)
    assert got == dict(expected)
    assert list(got.items()) == expected


@st.composite
def exterior_power_cases(draw):
    """(lam, s, h) with s up to h + 2; lam has exactly h rows half the time,
    so the product first sheds full columns."""
    h = draw(st.integers(1, 5))
    s = draw(st.integers(0, h + 2))
    lam = draw(small_shapes)
    if draw(st.booleans()):
        lam = tuple(x + 1 for x in (lam + (0,) * h)[:h])
    return lam, s, h


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=exterior_power_cases())
@example(case=((), 0, 1))
@example(case=((3,), 1, 1))
@example(case=((2,), 2, 1))
@example(case=((2, 1), 2, 3))
@example(case=((2, 2, 1), 2, 3))
@example(case=((3, 1, 1), 3, 4))
@example(case=((1, 1), 3, 3))
def test_exterior_power_products_match_candidate_loop(case):
    # s_lam * e_s adds a vertical strip of s boxes, at most one per row,
    # within h rows, each shape once and in lexicographically descending order
    lam, s, h = case
    column = (1,) * s
    expected = schur_product_by_candidates(lam, column, h)
    for got in (schur_product(lam, column, h), schur_product(column, lam, h)):
        assert got == dict(expected)
        assert list(got.items()) == expected


def test_pieri_filling_table_is_the_row_subsets():
    # (1,1) in three rows: each 2-subset of rows once; row i needs a gap of 1
    # where it gains a box and row i-1 does not
    assert lr_fillings((1, 1), 3) == {((0, 0, 0), (1, 1, 0)): 1,
                                      ((0, 0, 1), (1, 0, 1)): 1,
                                      ((0, 1, 0), (0, 1, 1)): 1}
    assert list(schur_product((2, 1), (1, 1), 3).items()) == \
        [((3, 2), 1), ((3, 1, 1), 1), ((2, 2, 1), 1)]


@pytest.mark.parametrize("lam, h, expected", [((2, 1), 3, (0, 1, 1)), ((2, 1), 2, (0, 1)),
                                               ((), 2, (0, 0)), ((3, 3, 1), 3, (0, 0, 2))])
def test_gaps_have_one_entry_per_row(lam, h, expected):
    # lam padded to h rows: row 0 has no row above it, and the fillings' needs
    # are compared with exactly these h entries
    assert gaps(lam, h) == expected


COLUMNS = [(1,) * s for s in range(8)]


@st.composite
def filling_cases(draw):
    """(mu, lam, h): mu of at most 7 boxes, a single column or taller than
    wide a third of the time each, and lam of at most h rows, each at most 3
    long, so some lam fill all h rows."""
    h = draw(st.integers(1, 7))
    mu = draw(st.sampled_from(draw(st.sampled_from([SMALL_SHAPES, COLUMNS, TALL_SHAPES]))))
    rows = draw(st.lists(st.integers(0, 3), min_size=h, max_size=h))
    return mu, canonical(sorted(rows, reverse=True)), h


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=filling_cases())
@example(case=((), (), 1))
@example(case=((2, 1), (2, 1), 3))
@example(case=((1, 1, 1), (3, 3, 3), 3))
@example(case=((3, 1, 1, 1), (1, 1), 4))
def test_filling_table_applies_like_the_candidate_loop(case):
    # the table of mu serves every lam: grown without a room and read off
    # through fits, as the Euler stencils apply it, or grown under lam's gaps,
    # as schur_product grows it, it gives the same products, each once and in
    # lexicographically descending order
    mu, lam, h = case
    expected = schur_product_by_candidates(lam, mu, h)
    rows, read = lam + (0,) * (h - len(lam)), {}
    for (needs, adds), count in lr_fillings(mu, h).items():
        if fits(needs, gaps(lam, h)):
            nu = canonical(map(add, rows, adds))
            read[nu] = read.get(nu, 0) + count
    assert sorted(read.items(), reverse=True) == expected
    assert list(schur_product(lam, mu, h).items()) == expected


@pytest.mark.parametrize("h", range(1, 7))
def test_filling_table_counts_by_adds_are_kostka_numbers(h):
    # for lam with every gap large, s_lam * s_mu = sum_w K_{mu,w} s_{lam+w}, so
    # the fillings with adds w number K_{mu,w}, the tableaux of shape mu and
    # weight w; a pruned state that could have landed drops one
    for mu in (p for n in range(7) for p in partitions_of_size(n)):
        by_adds: dict = {}
        for (_, adds), count in lr_fillings(mu, h).items():
            by_adds[adds] = by_adds.get(adds, 0) + count
        kostka: dict = {}
        for tableau in enumerate_ssyt(mu, h):
            weight = tuple(list(tableau.values()).count(v) for v in range(1, h + 1))
            kostka[weight] = kostka.get(weight, 0) + 1
        assert by_adds == kostka, mu
        assert sum(by_adds.values()) == schur_dimension(mu, h)
        assert 0 not in by_adds.values()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mu=st.sampled_from([p for n in range(7) for p in partitions_of_size(n)]),
       rows=st.lists(st.integers(0, 3), min_size=6, max_size=6), h=st.integers(1, 6))
@example(mu=(1, 1, 1), rows=[0, 1, 1, 1, 0, 0], h=6)
@example(mu=(2, 1), rows=[0, 0, 0, 0, 0, 0], h=3)
def test_filling_table_under_a_room_keeps_exactly_the_fillings_that_fit(mu, rows, h):
    # any componentwise bound on gaps, not only one lam's gaps
    room = tuple(rows[:h])
    assert lr_fillings(mu, h, room) == \
        {k: c for k, c in lr_fillings(mu, h).items() if fits(k[0], room)}


@pytest.mark.parametrize("h, r", [(7, 3), (13, 1), (13, 6), (40, 2), (40, 20)])
def test_tall_pieri_tables_are_the_row_subsets_that_fit(h, r):
    # lr_fillings of (1^s) in h rows under the room (1, ..., 1, 0, ...) of r + 1
    # ones, the tables the Euler character builds by Pieri's rule in
    # characters._strips: below row r a box needs the row above it filled, so
    # strips whose boxes cannot all land run to row h - 1 and drop
    room = tuple(int(i <= r) for i in range(h))
    for s in range(5):
        expected = {}
        for rows in combinations(range(h), s):
            # row i needs a gap of 1 where it gains a box and row i - 1 does not,
            # and room[i] is 1 exactly for i <= r
            if all(i <= r or i - 1 in rows for i in rows):
                adds = tuple(int(i in rows) for i in range(h))
                expected[(0,) + tuple(int(a > b) for a, b in zip(adds[1:], adds)), adds] = 1
        assert lr_fillings((1,) * s, h, room) == expected, s
