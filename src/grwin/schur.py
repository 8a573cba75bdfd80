"""Littlewood-Richardson and Pieri combinatorics, Schur functor dimensions.

A product s_lam * s_mu in h letters (Macdonald, Symmetric Functions and Hall
Polynomials, I.3, I.5, I.9) first strips the common full columns, as
s_{lam + (m^h)} = (x_1...x_h)^m s_lam.  When the smaller factor is then a
single column, s_lam * e_s is the sum of lam plus a vertical strip of s boxes
(Pieri), each once.  Otherwise the product grows from LR tableaux: letter v
of mu fills a horizontal strip of mu_v boxes, and the v's in rows <= i never
outnumber the (v-1)'s in rows < i.  Shapes past the bound are pruned as
reached; tableaux with equal shape and last strip are merged.
An LR coefficient is read off the product at the height of its shape.
"""

from __future__ import annotations

from functools import cache

from .partitions import canonical, conjugate, contains, height, size, width


@cache
def lr_coefficient(lam: tuple[int, ...], mu: tuple[int, ...],
                   nu: tuple[int, ...]) -> int:
    """The coefficient of s_nu in s_lam * s_mu."""
    lam, mu, nu = canonical(lam), canonical(mu), canonical(nu)
    if size(lam) + size(mu) != size(nu) or not contains(nu, lam):
        return 0
    return dict(_schur_product_items(lam, mu, height(nu))).get(nu, 0)


def _add_strips(shape: tuple[int, ...], last: tuple[int, ...], boxes: int,
                slack: int, max_height: int
                ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every way to add a horizontal strip of `boxes` boxes to shape within
    max_height rows, as (new shape, boxes per row).

    The running count of new boxes through row i may exceed the running
    count of `last` through row i-1 by at most `slack` (the ballot
    condition; the first letter passes slack = boxes and no `last`).
    """
    out = []
    top = min(len(shape) + 1, max_height)
    # the rows below row i take at most shape[i] - floor boxes of the strip
    floor = shape[top - 1] if top <= len(shape) else 0

    def grow(i: int, left: int, slack: int, rows: tuple[int, ...],
             per_row: tuple[int, ...]) -> None:
        if not left:
            out.append((rows + shape[i:], per_row))
            return
        old = shape[i] if i < len(shape) else 0
        room = shape[i - 1] - old if i else left
        below = last[i] if i < len(last) else 0
        for a in range(min(left, room, slack), max(0, left - old + floor) - 1, -1):
            grow(i + 1, left - a, slack - a + below,
                 rows + (old + a,) if old + a else rows, per_row + (a,))

    grow(0, boxes, slack, (), ())
    return out


def _add_vertical_strips(shape: tuple[int, ...], boxes: int,
                         max_height: int) -> list[tuple[int, ...]]:
    """Every shape plus a vertical strip of `boxes` boxes (at most one per
    row) within max_height rows, lexicographically descending."""
    out = []

    def grow(i: int, left: int, rows: tuple[int, ...]) -> None:
        if not left:
            out.append(rows + shape[i:])
        elif i + left <= max_height:
            old = shape[i] if i < len(shape) else 0
            if not i or rows[-1] > old:  # a box in row i first: larger shapes first
                grow(i + 1, left - 1, rows + (old + 1,))
            if old:  # below an empty row no box can go
                grow(i + 1, left, rows + (old,))

    grow(0, boxes, ())
    return out


@cache
def _schur_product_items(lam: tuple[int, ...], mu: tuple[int, ...],
                         max_height: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    if max(len(lam), len(mu)) > max_height:
        return ()
    if max_height and max_height in (len(lam), len(mu)):
        # strip the full columns (zero letters have none), put them back on h rows
        a, b = (p[-1] if len(p) == max_height else 0 for p in (lam, mu))
        reduced = _schur_product_items(tuple(x - a for x in lam if x > a),
                                       tuple(x - b for x in mu if x > b), max_height)
        return tuple((tuple(x + a + b for x in nu + (0,) * (max_height - len(nu))), c)
                     for nu, c in reduced)
    if size(lam) < size(mu):
        lam, mu = mu, lam  # c^nu_{lam mu} = c^nu_{mu lam}: fewer letters to place
    if width(mu) == 1:  # s_lam * e_s: each vertical strip once, already sorted
        return tuple((nu, 1) for nu in _add_vertical_strips(lam, len(mu), max_height))
    # (shape so far, boxes per row of the last letter) -> number of tableaux
    tableaux = {(lam, ()): 1}
    for v, boxes in enumerate(mu):
        grown: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (shape, last), count in tableaux.items():
            for key in _add_strips(shape, last, boxes, 0 if v else boxes, max_height):
                grown[key] = grown.get(key, 0) + count
        tableaux = grown
    product: dict[tuple[int, ...], int] = {}
    for (shape, _), count in tableaux.items():
        product[shape] = product.get(shape, 0) + count
    return tuple(sorted(product.items(), reverse=True))


def schur_product(lam: tuple[int, ...], mu: tuple[int, ...],
                  max_height: int) -> dict[tuple[int, ...], int]:
    """Expand s_lam * s_mu in the Schur basis, dropping heights above
    max_height (finite alphabet)."""
    if max_height < 1:
        raise ValueError("max_height must be >= 1")
    return dict(_schur_product_items(canonical(lam), canonical(mu), max_height))


@cache
def schur_dimension(lam: tuple[int, ...], n: int) -> int:
    """Number of semistandard tableaux of shape lam with entries in 1..n."""
    if n < 0:
        raise ValueError("alphabet size must be >= 0")
    lam = canonical(lam)
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
