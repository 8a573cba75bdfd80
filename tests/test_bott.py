import random

import pytest

from oracles import classify_bruteforce, dominant_sorters, euler_characteristic_bruteforce

from grwin.bott import bwb_cohomology, classify, euler_characteristic
from grwin.partitions import partitions_in_box, staircase
from grwin.schur import schur_dimension


def test_classify_figure_rows():
    assert classify((3, 1, 2)) is None
    assert classify((3, 1, 3)) == (1, (3, 2, 2))
    assert classify((3, 1, 1)) == (0, (3, 1, 1))


def test_classify_regular_rep_matches_all_permutation_search():
    sorters = dominant_sorters((3, 1, 3))
    assert len(sorters) == 1
    assert classify_bruteforce((3, 1, 3)) == (1, (3, 2, 2))
    assert classify((3, 1, 3))[0] == 1


def test_classify_matches_bruteforce():
    rng = random.Random(43)
    for _ in range(400):
        r = rng.randint(1, 6)
        alpha = tuple(rng.randint(-10, 10) for _ in range(r))
        assert classify(alpha) == classify_bruteforce(alpha)
    # r = 7: a few samples, each an all-permutations scan of 5040 sorters
    for _ in range(6):
        alpha = tuple(rng.randint(-10, 10) for _ in range(7))
        assert classify(alpha) == classify_bruteforce(alpha)


def test_classify_dominant_uses_identity():
    assert dominant_sorters((5, 3, 1)) == [(0, 1, 2)]
    assert classify_bruteforce((5, 3, 1)) == classify((5, 3, 1)) == (0, (5, 3, 1))


def test_bwb_cohomology_figure_row():
    assert bwb_cohomology((3, 1), 0, 3) == (0, (3, 1))
    assert bwb_cohomology((3, 1), 1, 3) == (0, (3, 1, 1))
    assert bwb_cohomology((3, 1), 2, 3) is None
    assert bwb_cohomology((3, 1), 3, 3) == (1, (3, 2, 2))
    assert bwb_cohomology((3, 1), 4, 3) == (1, (3, 3, 2))
    assert bwb_cohomology((3, 1), 5, 3) is None


def test_bwb_cohomology_rejects_tall_shape():
    with pytest.raises(ValueError, match=r"^height\(\(1, 1, 1\)\) must be <= 2$"):
        bwb_cohomology((1, 1, 1), 0, 3)


@pytest.mark.parametrize("r", [0, -1])
def test_bwb_cohomology_rejects_nonpositive_rank(r):
    with pytest.raises(ValueError, match=rf"need r >= 1, got r={r}"):
        bwb_cohomology((), 0, r)


def test_bwb_staircase_linkage():
    # every regular weight lands on a staircase diagram with matching box count
    rng = random.Random(47)
    checked = 0
    while checked < 200:
        r = rng.randint(2, 6)
        delta = rng.choice(partitions_in_box(6, r - 1))
        i = rng.randint(0, 12)
        result = bwb_cohomology(delta, i, r)
        if result is None:
            continue
        l, shape = result
        k = i - l
        if k == 0:
            assert shape == delta
        else:
            chain = staircase(delta, r, k)
            assert shape == chain[k][1]
            assert chain[k][2] == i
        checked += 1


def test_bwb_unique_contribution_per_offset():
    rng = random.Random(53)
    for _ in range(50):
        r = rng.randint(2, 5)
        delta = rng.choice(partitions_in_box(5, r - 1))
        hits: dict[int, list[int]] = {}
        for i in range(0, 18):
            result = bwb_cohomology(delta, i, r)
            if result is not None:
                hits.setdefault(i - result[0], []).append(i)
        for k, sources in hits.items():
            assert len(sources) == 1, (delta, r, k, sources)


def test_euler_characteristic_of_a_dominant_weight_is_its_dimension():
    assert euler_characteristic((3, 1, 0)) == schur_dimension((3, 1), 3) == 15
    # a dominant weight with negative entries is a partition twisted by det
    assert euler_characteristic((1, -1, -2)) == schur_dimension((3, 1), 3)
    assert euler_characteristic(()) == 1


def test_euler_characteristic_vanishes_on_a_non_regular_weight():
    assert classify((3, 1, 2)) is None
    assert euler_characteristic((3, 1, 2)) == 0


def test_euler_characteristic_of_a_regular_weight_is_a_signed_dimension():
    # (3,1,3) has length 1 and dominant representative (3,2,2) = (1,0,0) + 2
    assert euler_characteristic((3, 1, 3)) == -schur_dimension((1,), 3) == -3
    # on P^1 = GL(2)/B the weight (n, 0) is O(n), and chi(O(n)) = n + 1
    assert [euler_characteristic((n, 0)) for n in range(-5, 5)] == list(range(-4, 6))


def test_euler_characteristic_matches_bruteforce_classifier():
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(1, 4)
        alpha = tuple(rng.randint(-3, 3) for _ in range(n))
        assert euler_characteristic(alpha) == euler_characteristic_bruteforce(alpha), alpha
