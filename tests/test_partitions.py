import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (add_full_column, canonical_by_rows, conjugate_by_cells,
                     staircase_closed_form, strip_first_row_and_column)

from grwin.cli import ascii_diagram, format_partition, parse_partition
from grwin.partitions import (
    canonical,
    complement,
    conjugate,
    partitions_in_box,
    resolution_terms,
    staircase,
    width,
)


def test_canonical_trims_and_validates():
    assert canonical([3, 2, 0, 0]) == (3, 2)
    assert canonical([]) == ()
    with pytest.raises(ValueError):
        canonical([1, 2])
    with pytest.raises(ValueError):
        canonical([2, -1])


def outcome(fn, rows):
    try:
        return fn(rows)
    except ValueError as err:
        return f"ValueError: {err}"


def test_canonical_agrees_with_the_row_by_row_check():
    # same tuple or same message, the first bad row deciding which message
    rng = random.Random(29)
    for _ in range(3000):
        rows = [rng.randint(-2, 6) for _ in range(rng.randint(0, 40))]
        shape = rng.randrange(3)
        if shape == 1:  # non-increasing, negative rows last
            rows.sort(reverse=True)
        elif shape == 2:  # valid, with trailing zeros
            rows = sorted((max(x, 0) for x in rows), reverse=True)
        given = rng.choice([list, tuple, lambda xs: (x for x in xs)])(rows)
        assert outcome(canonical, given) == outcome(canonical_by_rows, rows), rows


def test_complement_figure_example():
    assert complement((3, 2), 4, 3) == (4, 2, 1)


def test_complement_of_empty_is_full_rectangle():
    assert complement((), 4, 3) == (4, 4, 4)


def test_complement_is_involution():
    assert complement(complement((2, 1), 3, 2), 3, 2) == (2, 1)
    rng = random.Random(7)
    for _ in range(200):
        w, h = rng.randint(0, 6), rng.randint(0, 6)
        gamma = rng.choice(partitions_in_box(w, h))
        comp = complement(gamma, w, h)
        assert len(comp) <= h and width(comp) <= w
        assert complement(comp, w, h) == gamma


def test_complement_rejects_oversize():
    with pytest.raises(ValueError):
        complement((5,), 4, 3)
    with pytest.raises(ValueError):
        complement((1, 1, 1, 1), 4, 3)
    # a negative side fits nothing, the empty diagram included
    for w, h in [(-1, 2), (2, -1)]:
        with pytest.raises(ValueError, match=rf"^\(\) does not fit in a {w}x{h} rectangle$"):
            complement((), w, h)


def test_complement_reads_its_diagram_canonically():
    # padded and list-valued diagrams are the canonical ones; a malformed one is refused
    assert complement((2, 0, 0), 2, 2) == (2,)
    assert complement([2, 1], 2, 2) == (1,)
    with pytest.raises(ValueError, match="negative row length"):
        complement((1, -1), 3, 2)


def test_add_full_column():
    assert add_full_column((3, 1), 3) == (4, 2, 1)
    assert add_full_column((), 2) == (1, 1)
    with pytest.raises(ValueError):
        add_full_column((1, 1, 1), 2)


def test_add_full_column_complement_identity():
    # both sides computed by direct complement
    delta, r, w = (1,), 2, 2
    tilde = add_full_column(delta, r)
    assert complement(tilde, w + 1, r) == (2, 1)
    assert complement(delta, w, r) == (2, 1)


def test_staircase_eagon_northcott_seed():
    assert staircase((), 2, 3) == [(0, (), 0), (1, (1, 1), 2), (2, (2, 1), 3), (3, (3, 1), 4)]


def test_staircase_buchsbaum_rim_seed():
    assert staircase((1,), 2, 3) == [(0, (1,), 0), (1, (1, 1), 1), (2, (2, 2), 3), (3, (3, 2), 4)]


def test_staircase_taller_seed():
    # expected values from the closed form, computed independently
    assert staircase((3, 1), 3, 2) == [(0, (3, 1), 0), (1, (3, 1, 1), 1), (2, (3, 2, 2), 3)]
    assert staircase_closed_form((3, 1), 3, 1) == (3, 1, 1)
    assert staircase_closed_form((3, 1), 3, 2) == (3, 2, 2)


def test_staircase_rejects_tall_seed():
    with pytest.raises(ValueError):
        staircase((1, 1), 2, 3)


def test_staircase_s_strictly_increasing_and_sizes():
    rng = random.Random(3)
    for _ in range(100):
        r = rng.randint(1, 6)
        seed = rng.choice([p for p in partitions_in_box(8, r - 1)])
        chain = staircase(seed, r, 8)
        last = 0
        for k in range(1, 9):
            assert sum(chain[k][1]) == sum(seed) + chain[k][2]
            assert chain[k][2] > last
            last = chain[k][2]


def test_staircase_matches_closed_form():
    # K up to 12 on seeds of width <= 5 runs steps past width(seed) + 1,
    # where each step adds one box to every row below the seed's
    rng = random.Random(11)
    for _ in range(300):
        r = rng.randint(1, 10)
        seed = rng.choice(partitions_in_box(5, r - 1))
        K = rng.randint(1, 12)
        chain = staircase(seed, r, K)
        assert len(chain) == K + 1 and chain[0] == (0, seed, 0)
        for k in range(1, K + 1):
            delta_k = staircase_closed_form(seed, r, k)
            assert chain[k] == (k, delta_k, sum(delta_k) - sum(seed))


def test_recovery_properties_for_resolution_range():
    # with K = d-r+1 and a narrow seed: heights r, s_K = d, and stripping a
    # row and a column from the last diagram recovers the seed
    rng = random.Random(5)
    for _ in range(200):
        d = rng.randint(2, 10)
        r = rng.randint(1, min(6, d))
        K = d - r + 1
        seeds = [p for p in partitions_in_box(d - r + 1, r - 1)]
        seed = rng.choice(seeds)
        chain = staircase(seed, r, K)
        for k in range(1, K + 1):
            assert len(chain[k][1]) == r
            assert width(chain[k][1]) <= d - r + 1
        if width(seed) < d - r + 1:
            assert chain[K][2] == d
            assert width(chain[K][1]) == d - r + 1
            assert strip_first_row_and_column(chain[K][1]) == seed
        else:
            assert all(width(chain[k][1]) == d - r + 1 for k in range(K + 1))


def test_resolution_ends_at_d_less_the_full_width_rows():
    # s_K = d - #{rows of delta of width d-r+1} <= d: no term's wedge^{s_k}V
    # vanishes, which the wedge labels and the eta Hom case rely on
    seen = 0
    for d in range(1, 10):
        for r in range(1, d + 1):
            for delta in partitions_in_box(d - r + 1, r - 1):
                assert resolution_terms(delta, d, r)[-1][2] == d - delta.count(d - r + 1)
                seen += 1
    assert seen == sum(2 ** d - 1 for d in range(1, 10))


def test_partitions_in_box_matches_brute_force_filter():
    # every non-increasing h-tuple from 0..w, zeros trimmed, kept when small
    # enough; prefix-first with larger next rows first is the order of the
    # negated rows, where a prefix sorts before its extensions
    for w in range(6):
        for h in range(6):
            box = [canonical(rows) for rows in combinations_with_replacement(range(w, -1, -1), h)]
            assert partitions_in_box(w, h) == partitions_in_box(w, h, w * h)
            for max_size in range(13):
                expected = sorted((p for p in box if sum(p) <= max_size),
                                  key=lambda p: [-x for x in p])
                assert partitions_in_box(w, h, max_size) == expected, (w, h, max_size)
    assert [p for p in partitions_in_box(3, 3, 3) if sum(p) == 3] == [(3,), (2, 1), (1, 1, 1)]
    assert [p for p in partitions_in_box(3, 1, 3) if sum(p) == 3] == [(3,)]
    # a zero bound is a bound: only the empty partition fits
    assert partitions_in_box(3, 3, 0) == partitions_in_box(3, 0, 3) == [()]
    assert partitions_in_box(0, 3, 3) == partitions_in_box(0, 0, 0) == [()]


def test_partitions_in_box_walks_a_tall_or_wide_box_without_recursion():
    assert len(partitions_in_box(1, 5000, 5000)) == len(partitions_in_box(5000, 1, 5000)) == 5001


def test_conjugate_matches_cell_count_on_every_small_partition():
    for p in partitions_in_box(14, 14, 14):
        assert conjugate(p) == conjugate_by_cells(p), p
        assert conjugate(conjugate(p)) == p


@settings(derandomize=True, max_examples=100, deadline=None)
@given(rows=st.lists(st.integers(1, 40), max_size=25))
def test_conjugate_matches_cell_count_on_random_partitions(rows):
    p = tuple(sorted(rows, reverse=True))
    assert conjugate(p) == conjugate_by_cells(p)
    assert sum(conjugate(p)) == sum(p) and len(conjugate(p)) == width(p)


def test_ascii_and_parse_roundtrip():
    assert ascii_diagram((3, 1)) == "□□□\n□"
    assert ascii_diagram(()) == "∅"
    assert parse_partition("3,1") == (3, 1)
    assert parse_partition("") == ()
    assert parse_partition(format_partition((4, 2, 1))) == (4, 2, 1)
    with pytest.raises(ValueError):
        parse_partition("a,b")
