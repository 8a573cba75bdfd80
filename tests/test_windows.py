from math import comb

import pytest

from oracles import gamma_split

from grwin.bundles import BundleLabel, normalize
from grwin.windows import gamma_set, window_generators


def test_gamma_set_4_2_order():
    assert gamma_set(4, 2) == ((), (1,), (2,), (1, 1), (2, 1), (2, 2))


def test_gamma_set_2_1():
    assert gamma_set(2, 1) == ((), (1,))


def test_gamma_set_counts():
    assert len(gamma_set(5, 2)) == comb(5, 2)
    for d in range(1, 9):
        for r in range(1, d + 1):
            assert len(gamma_set(d, r)) == comb(d, r)


def test_gamma_set_rejects_bad_rank():
    with pytest.raises(ValueError):
        gamma_set(3, 0)
    with pytest.raises(ValueError):
        gamma_set(3, 4)


def test_gamma_split_4_2():
    narrow, wide = gamma_split(4, 2)
    assert narrow == ((), (1,), (1, 1))
    assert wide == ((2,), (2, 1), (2, 2))


def test_gamma_split_2_1():
    assert gamma_split(2, 1) == (((),), ((1,),))


def test_gamma_split_sizes_sum():
    narrow, wide = gamma_split(5, 3)
    assert len(narrow) + len(wide) == comb(5, 3)


@pytest.mark.parametrize("r", [-1, 0, 4])
def test_gamma_split_rejects_bad_rank(r):
    # the split checks (d, r) through gamma_set, as the library entry points do
    with pytest.raises(ValueError, match=r"need 0 < r"):
        gamma_split(3, r)


def test_window_generators_4_2_0():
    expected = [
        BundleLabel((), 2, 0),      # O
        BundleLabel((1,), 2, 0),    # dual taut
        BundleLabel((2,), 2, 0),    # its square
        BundleLabel((), 2, 1),      # O(1)
        BundleLabel((1,), 2, 1),
        BundleLabel((), 2, 2),      # O(2)
    ]
    assert window_generators(4, 2, 0) == expected


def test_window_generators_twisting():
    base = window_generators(4, 2, 0)
    twisted = window_generators(4, 2, 1)
    assert twisted == [normalize(g.schur, g.det_twist + 1, 2) for g in base]
    assert window_generators(2, 1, -1) == [BundleLabel((), 1, -1),
                                           BundleLabel((), 1, 0)]


def test_window_generators_need_proper_rank():
    with pytest.raises(ValueError):
        window_generators(2, 2, 0)


def test_window_membership_examples():
    # membership is a lookup in the window's generator list
    s_dual_1 = BundleLabel((1,), 2, 1)
    assert s_dual_1 in window_generators(4, 2, 0)
    assert s_dual_1 in window_generators(4, 2, 1)
    assert BundleLabel((), 2, 3) not in window_generators(4, 2, 0)


def test_window_membership_rejects_other_sides():
    # the other side, another rank and a bracket twist name no generator
    window = window_generators(4, 2, 0)
    assert BundleLabel((1,), 2, 0) in window
    assert BundleLabel((1,), 2, 0, side="H") not in window
    assert BundleLabel((1,), 3, 0) not in window
    assert BundleLabel((1,), 2, 0, bracket_twist=1) not in window


def test_window_overlap_by_width():
    # narrow diagrams also generate the previous window, wide ones do not
    for d, r in [(4, 2), (5, 2), (5, 3), (6, 3)]:
        narrow, wide = gamma_split(d, r)
        window = window_generators(d, r, 0)
        for delta in narrow:
            assert normalize(delta, 1, r) in window
        for delta in wide:
            assert normalize(delta, 1, r) not in window
