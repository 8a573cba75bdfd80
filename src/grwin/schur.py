"""Littlewood-Richardson and Pieri combinatorics, Schur functor dimensions.

LR coefficients are computed by direct enumeration of lattice skew tableaux
(semistandard rows, strict columns, reverse-reading-word ballot condition),
memoized on (lambda, mu, nu).  Desk-scale sizes keep this exact and fast.
"""

from __future__ import annotations

from functools import cache

from .partitions import (
    canonical,
    conjugate,
    contains,
    height,
    partitions_of,
    size,
    width,
)


@cache
def lr_coefficient(lam: tuple[int, ...], mu: tuple[int, ...],
                   nu: tuple[int, ...]) -> int:
    """The coefficient of s_nu in s_lam * s_mu."""
    if size(lam) + size(mu) != size(nu) or not contains(nu, lam):
        return 0
    if not mu:
        return 1
    # Cells of nu/lam in reverse-reading-word order: rows top to bottom,
    # each row right to left.  Ballot and content checks run incrementally.
    cells = []
    lam_padded = lam + (0,) * (len(nu) - len(lam))
    for i in range(len(nu)):
        for j in range(nu[i] - 1, lam_padded[i] - 1, -1):
            cells.append((i, j))
    nvals = len(mu)
    entry: dict[tuple[int, int], int] = {}
    counts = [0] * (nvals + 1)
    total = 0

    def place(pos: int) -> None:
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        i, j = cells[pos]
        upper = nvals
        if (i, j + 1) in entry:          # right neighbour, filled earlier
            upper = entry[(i, j + 1)]
        lower = 1
        if i > 0 and j >= lam_padded[i - 1]:  # cell above is a skew cell
            lower = entry[(i - 1, j)] + 1
        for v in range(lower, upper + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            counts[v] += 1
            entry[(i, j)] = v
            place(pos + 1)
            del entry[(i, j)]
            counts[v] -= 1

    place(0)
    return total


@cache
def _schur_product_items(lam: tuple[int, ...], mu: tuple[int, ...],
                         max_height: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    n = size(lam) + size(mu)
    items = []
    for nu in partitions_of(n, max_height, width(lam) + width(mu)):
        c = lr_coefficient(lam, mu, nu)
        if c:
            items.append((nu, c))
    return tuple(items)


def schur_product(lam: tuple[int, ...], mu: tuple[int, ...],
                  max_height: int) -> dict[tuple[int, ...], int]:
    """Expand s_lam * s_mu in the Schur basis, dropping heights above
    max_height (finite alphabet)."""
    if max_height < 1:
        raise ValueError("max_height must be >= 1")
    return dict(_schur_product_items(canonical(lam), canonical(mu), max_height))


def pieri_filtration(gamma: tuple[int, ...],
                     rank_H: int) -> dict[tuple[tuple[int, ...], int], int]:
    """Graded pieces (alpha, t) of a Schur power under a corank-1 sub-bundle.

    Pieces are pairs with gamma/alpha a horizontal strip of size t and
    height(alpha) <= rank_H; each occurs with multiplicity one.
    """
    if height(gamma) > rank_H + 1:
        raise ValueError(
            f"height({gamma}) exceeds {rank_H + 1}; no filtration of this shape")
    pieces: dict[tuple[tuple[int, ...], int], int] = {}
    padded = gamma + (0,) * (rank_H + 1 - len(gamma))

    def rec(i: int, alpha: tuple[int, ...]) -> None:
        if i == rank_H:
            a = canonical(alpha)
            pieces[(a, size(gamma) - size(a))] = 1
            return
        lo, hi = padded[i + 1], padded[i]
        prev = alpha[-1] if alpha else None
        for x in range(lo, hi + 1):
            if prev is not None and x > prev:
                continue
            rec(i + 1, alpha + (x,))

    if rank_H == 0:
        pieces[((), size(gamma))] = 1
    else:
        rec(0, ())
    return pieces


@cache
def schur_dimension(lam: tuple[int, ...], n: int) -> int:
    """Number of semistandard tableaux of shape lam with entries in 1..n."""
    if n < 0:
        raise ValueError("alphabet size must be >= 0")
    if not lam:
        return 1
    if height(lam) > n:
        return 0
    num = 1
    den = 1
    conj = conjugate(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= (row - j) + (conj[j] - i) - 1  # hook length
    return num // den
