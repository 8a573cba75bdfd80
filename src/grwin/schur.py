"""Littlewood-Richardson combinatorics and Schur functor dimensions.

A product s_lam * s_mu in h letters (Macdonald, Symmetric Functions and Hall
Polynomials, I.9) is read off one table of the LR fillings of content mu on
skew shapes of at most h rows.  A filling puts b[i][v] letters v in row i; the
v's in rows <= i never outnumber the (v-1)'s in rows < i (the ballot; Fulton,
Young Tableaux, §5; of itself it starts each letter strictly below the one
before, so letter v starts by row h - len(mu) + v), and row i fits under lam
iff the gap lam_{i-1} - lam_i is at least its need, max_v (sum_{u<=v} b[i][u] -
sum_{u<v} b[i-1][u]).  Neither depends on lam, so one table {(needs, adds):
count} serves every lam: s_lam * s_mu sums s_{lam+adds} over the entries whose
needs fit lam's gaps.  Grown under a room, any bound on gaps, the table keeps
exactly the entries that fit it, so a product grown under lam's gaps sums them
all.  For mu = (1^s) (the s-subsets of rows) row i needs 1 where it gains a box
and row i-1 does not.  An LR coefficient is read off a product.
"""

from __future__ import annotations

from functools import cache, lru_cache
from operator import add, le, sub

from .partitions import canonical, check_int, conjugate


@cache
def lr_coefficient(lam: tuple[int, ...], mu: tuple[int, ...],
                   nu: tuple[int, ...]) -> int:
    """The coefficient of s_nu in s_lam * s_mu."""
    lam, mu, nu = canonical(lam), canonical(mu), canonical(nu)
    return dict(_schur_product_items(lam, mu, len(nu))).get(nu, 0)


def lr_fillings(mu: tuple[int, ...], h: int, room: tuple[int, ...] | None = None
                ) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """The LR fillings of content mu (canonical) within h rows, letter by
    letter, as {(needs, adds): count}: adds[i] boxes go into row i, which
    needs a gap of needs[i] above it (needs[0] = 0).  Given room, any
    componentwise bound on gaps, exactly the fillings whose needs fit it grow."""
    room, zero = room or (sum(mu),) * h, (0,) * h  # gaps of |mu| never bind
    # (boxes per row so far, needs so far, the last letter's boxes per row) -> fillings
    level = {(zero, zero, zero): 1}
    for v, boxes in enumerate(mu):
        grown: dict = {}
        for (adds, needs, last), count in level.items():
            strips, part = [], [(boxes, 0 if v else boxes, ())]  # (left, slack, rows above i)
            for i in range(h):  # a strip with boxes left after row h - 1 is dropped
                # row i takes at most the room under row i-1 of lam + adds and the ballot slack
                cap = room[i] + adds[i - 1] - adds[i] if i else boxes
                gain, above, part = last[i], part, []
                for left, slack, row in above:
                    for b in range(min(left, slack, cap) + 1):
                        if b < left:
                            part.append((left - b, slack - b + gain, row + (b,)))
                        else:
                            strips.append(row + (b,) + zero[i + 1:])
            for row in strips:
                new = tuple(map(add, adds, row))  # row i's letters <= v against row i-1's < v
                key = (new, (0,) + tuple(map(max, needs[1:], map(sub, new[1:], adds))),
                       row if v + 1 < len(mu) else zero)  # only the next letter reads row
                grown[key] = grown.get(key, 0) + count
        level = grown
    return {(needs, adds): count for (adds, needs, _), count in level.items()}


def gaps(lam: tuple[int, ...], h: int) -> tuple[int, ...]:
    """(0, lam_0 - lam_1, ..., lam_{h-2} - lam_{h-1}), lam padded to h rows:
    the room each row leaves the row below, against a filling's needs."""
    rows = lam + (0,) * (h - len(lam))
    return (0,) + tuple(map(sub, rows, rows[1:]))


def fits(needs: tuple[int, ...], room: tuple[int, ...]) -> bool:
    """Whether a filling with these needs fits under a shape with these gaps."""
    return all(map(le, needs, room))


@cache
def _schur_product_items(lam: tuple[int, ...], mu: tuple[int, ...],
                         max_height: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    if max(len(lam), len(mu)) > max_height:
        return ()
    if (len(lam), sum(lam)) < (len(mu), sum(mu)):
        lam, mu = mu, lam  # c^nu_{lam mu} = c^nu_{mu lam}: fewer letters to place
    h = min(max_height, len(lam) + len(mu))  # no product reaches further down
    rows, out = lam + (0,) * (h - len(lam)), {}
    for (_, adds), count in lr_fillings(mu, h, gaps(lam, h)).items():  # all fit lam
        nu = tuple(x for x in map(add, rows, adds) if x)
        out[nu] = out.get(nu, 0) + count
    return tuple(sorted(out.items(), reverse=True))


def schur_product(lam: tuple[int, ...], mu: tuple[int, ...],
                  max_height: int) -> dict[tuple[int, ...], int]:
    """Expand s_lam * s_mu in the Schur basis, dropping heights above
    max_height (finite alphabet)."""
    check_int(max_height, "max_height", 1)
    return dict(_schur_product_items(canonical(lam), canonical(mu), max_height))


@lru_cache(maxsize=None, typed=True)  # typed: n = 3.0 or True is refused, not a hit
def schur_dimension(lam: tuple[int, ...], n: int) -> int:
    """Number of semistandard tableaux of shape lam with entries in 1..n."""
    check_int(n, "alphabet size", 0)
    lam = canonical(lam)
    num = den = 1  # height > n: row n's first box gives the factor n + 0 - n = 0
    conj = conjugate(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= (row - j) + (conj[j] - i) - 1  # hook length
    return num // den
