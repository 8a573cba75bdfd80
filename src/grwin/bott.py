"""Bott's theorem on GL(r) weights (Weyman, Cohomology of Vector Bundles, ch. 4):
the classifier and the one non-vanishing cohomology group of a dual-quotient
power.

Weights are integer tuples of length r; w . alpha = w(alpha + rho) - rho, with
rho = (r, r-1, ..., 1), is the twisted Weyl action.
"""

from __future__ import annotations

from itertools import combinations, starmap
from operator import lt

from .partitions import canonical, check_int


def classify(alpha: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Bott's theorem: None when alpha + rho has a repeated entry (all
    cohomology vanishes), else (length, w . alpha) for the unique w sorting
    alpha + rho decreasingly, read off with no permutation: w . alpha is the sorted
    weight less rho, and the length, the one degree of nonzero cohomology, counts
    the pairs i < j with (alpha + rho)_i < (alpha + rho)_j, w's inversions."""
    r = len(alpha)
    shifted = [x + r - i for i, x in enumerate(alpha)]
    if len(set(shifted)) < r:
        return None
    length = sum(starmap(lt, combinations(shifted, 2)))
    return length, tuple(x - r + i for i, x in enumerate(sorted(shifted, reverse=True)))


def bwb_cohomology(delta: tuple[int, ...], i: int,
                   r: int) -> tuple[int, tuple[int, ...]] | None:
    """Cohomology of the i-th dual-quotient power twisted by a Schur power
    of the corank-1 sub-bundle on GL(r)/P.

    Returns (degree, shape) for the single non-vanishing group, or None.
    """
    delta = canonical(delta)
    check_int(r, "r")
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if len(delta) > r - 1:
        raise ValueError(f"height({delta}) must be <= {r - 1}")
    check_int(i, "power")
    if i < 0:
        raise ValueError("power must be non-negative")
    cls = classify(delta + (0,) * (r - 1 - len(delta)) + (i,))
    return None if cls is None else (cls[0], canonical(cls[1]))
