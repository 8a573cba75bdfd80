"""Truncated two-alphabet symmetric-function arithmetic.

A character here is a dict (lambda, mu) -> nonzero integer: the coefficient
of s_lambda ⊗ s_mu, with lambda in a d-letter alphabet (the ambient space)
and mu in an r-letter alphabet (the dual tautological side), truncated by
total lambda-degree.  Characters serve as the equivariant oracle for the
staircase resolutions; invariant Hom-space dimensions take closed forms.
Euler characters are determinant-periodic, E[alpha, beta] = E[alpha - (1^r),
beta - (1^r)] for alpha_r >= 2 (see euler_character): such keys are copied.
Products come from per-call LR filling tables (schur.lr_fillings), applied
to every core through stencils on integer-coded keys.  The oracle compares
the two characters once, in exactness_report: the differing coefficients as
(key, euler, pushforward) tuples, which the CLI names for its JSON.
"""

from __future__ import annotations

from .partitions import (canonical, check_box, complement, height, partitions_in_box,
                         resolution_terms, width)
from .schur import fits, gaps, lr_coefficient, lr_fillings, lr_products

Key = tuple[tuple[int, ...], tuple[int, ...]]


def _check_degree(D: int) -> None:
    if D < 0:
        raise ValueError("truncation degree must be >= 0")


def euler_character(delta: tuple[int, ...], d: int, r: int, D: int,
                    terms: list[tuple[int, tuple[int, ...], int]] | None = None
                    ) -> dict[Key, int]:
    """Alternating character sum of the resolution's terms over the
    polynomial-ring character, truncated to ambient degree D.

    Lemma: for alpha_r >= 2, lam -> lam - (1^r) is a bijection from the lam
    with alpha/lam a vertical s-strip (all have lam_r >= 1) onto those of
    alpha - (1^r), and s_lam s_mu = (y_1...y_r) s_{lam - (1^r)} s_mu in r
    letters, so E[alpha, beta] = E[alpha - (1^r), beta - (1^r)] for any terms.
    Only lam = core + (m^r), height(core) < r, m <= 1 are summed; keys with
    alpha_r >= 2 (lacking m = 2) are skipped and filled in by translation.
    A term with s > D has no key of ambient degree <= D and is skipped; any other
    builds two filling tables once: (1^s) in d rows (empty when s > d) under the
    room every such lam leaves a vertical strip (1 down to row r, 0 below), and
    its shape less its c full columns in r rows.  Cores whose gaps agree up to the
    largest need share a stencil per m: the fitting left fillings (distinct
    offsets, as a strip is its rows) times the fitting right ones merged by
    offset.  A key is an integer with alpha's d rows and then beta's r as digits
    in a radix above every part (|alpha| <= D, beta_1 <= D + shape_1 + 1), so
    offsets add without carry.  A terms override supports tamper tests.
    """
    check_box(d, r)
    if terms is None:
        terms = resolution_terms(delta, d, r)
    else:
        terms = [(k, canonical(shape), s) for k, shape, s in terms]
        for k, _, s in terms:
            if not (isinstance(k, int) and isinstance(s, int) and s >= 0):
                raise ValueError(f"override term needs int k, s >= 0: got {k!r}, {s!r}")
    _check_degree(D)

    digit = (D + 1 + max((shape[0] for _, shape, _ in terms if shape), default=0)).bit_length()

    def code(p: tuple[int, ...], row: int = 0) -> int:
        return sum(x << digit * (row + i) for i, x in enumerate(p))
    ones, both = code((1,) * r), 1 + (1 << digit * d)  # a core or (1^r) on both sides
    # bucketed by core size n: each core padded to r rows, its key on both sides, and its gaps
    cores: list[list] = [[] for _ in range(D + 1)]
    for q in partitions_in_box(D, r - 1, D):
        p = q + (0,) * (r - len(q))
        cores[sum(q)].append((p, code(p) * both, gaps(p, r)))
    total: dict[int, int] = {}
    for k, shape, s in terms:
        if s > D:
            continue  # every key of the term has ambient degree >= s
        c = shape[-1] if len(shape) == r else 0  # s_shape = (y_1...y_r)^c s_reduced
        left = [(needs, adds[r - 1], code(adds), (-1) ** k * n) for (needs, adds), n
                in lr_fillings((1,) * s, d, tuple(int(i <= r) for i in range(d))).items()]
        right = [(needs, code(adds, d) + (c * ones << digit * d), n) for (needs, adds), n
                 in lr_fillings(tuple(x - c for x in shape if x > c), r).items()]
        cap = max((x for needs, *_ in left + right for x in needs), default=0)
        stencils: dict = {}  # (capped gaps, m) -> [(offset, coefficient)]
        for n in range(D - s + 1):
            for rows, base, room in cores[n]:
                capped = tuple(min(x, cap) for x in room)
                for m in range(1 + (n + r + s <= D)):  # lam = core + (m^r)
                    if (capped, m) not in stencils:
                        stencils[capped, m] = _stencil(left, right, rows, m, d, ones * both)
                    for offset, v in stencils[capped, m]:
                        total[base + offset] = total.get(base + offset, 0) + v
    out: dict[Key, int] = {}
    mask, shifts = (1 << digit) - 1, range(0, digit * (d + r), digit)
    for key, v in total.items():
        if v:
            rows = [key >> i & mask for i in shifts]
            la = tuple(x for x in rows[:d] if x)
            out[la, tuple(x for x in rows[d:] if x)] = v
            if rows[r - 1] == 1:  # alpha_r = 1: copied up by (t^r) on both sides
                for t in range(1, (D - sum(la)) // r + 1):
                    out[tuple(x + t for x in la[:r]) + la[r:], tuple(x + t for x in rows[d:])] = v
    return out


def _stencil(left: list, right: list, rows: tuple[int, ...], m: int, d: int,
             step: int) -> list[tuple[int, int]]:
    """The (offset, coefficient) pairs of the left fillings that fit lam =
    rows + (m^r) in d rows with alpha_r < 2 and the right ones that fit rows."""
    lam_gaps, core_gaps = gaps(tuple(x + m for x in rows), d), gaps(rows, len(rows))
    fitting: dict[int, int] = {}
    for needs, b, cr in right:
        if fits(needs, core_gaps):
            fitting[b] = fitting.get(b, 0) + cr
    return [(a + m * step + b, cl * cr) for needs, top, a, cl in left
            if m + top < 2 and fits(needs, lam_gaps) for b, cr in fitting.items()]


def pushforward_character(delta: tuple[int, ...], d: int, r: int,
                          D: int) -> dict[Key, int]:
    """Character of the torsion pushforward: sum over both alphabets of
    LR products of delta against the corank-1 side, heights <= r-1."""
    delta = canonical(delta)
    check_box(d, r)
    _check_degree(D)
    if height(delta) > r - 1:
        raise ValueError(f"height({delta}) must be <= {r - 1}")
    table = lr_fillings(delta, r - 1)
    return {(lam, mu): c for lam in partitions_in_box(D, r - 1, D)
            for mu, c in lr_products(table, lam, r - 1)}


def verify_exactness(delta: tuple[int, ...], d: int, r: int, D: int) -> bool:
    """Character oracle: the resolution is exact iff its Euler character
    equals the pushforward character coefficient for coefficient."""
    return not exactness_report(delta, d, r, D)


def exactness_report(delta: tuple[int, ...], d: int, r: int,
                     D: int) -> list[tuple[Key, int, int]]:
    """The coefficients where the two characters differ, as (key, euler,
    pushforward) sorted by key: empty iff the resolution is exact."""
    euler = euler_character(delta, d, r, D)
    push = pushforward_character(delta, d, r, D)
    return sorted((key, euler.get(key, 0), push.get(key, 0)) for key in euler.keys() | push.keys()
                  if euler.get(key, 0) != push.get(key, 0))


def hom_invariant_dimension(case: str, delta: tuple[int, ...], d: int, r: int,
                            D: int) -> int:
    """Dimension of an invariant mapping space on the correspondence chart,
    truncated at degree D.

    Cases: 'self' (endomorphisms of an ambient Schur power), 'tautological'
    (maps from the corank-1 power into it), 'eta' (maps from the dual
    corank-1 power into the top staircase term, SL-equivariantly).

    The double-Cauchy sums close up by Pieri's rule (Macdonald, I.5).
    'self' and 'tautological' sum c^delta_{delta lam} dim S^lam V, and
    c^delta_{delta lam} = 0 unless lam = (): both are 1.  'eta' weights
    c^{lam_hat}_{delta eps_top}, lam_hat = lam + ((d-r)^(r-1)), by the
    SL-invariants of S^lam V ⊗ wedge^s_top V: one when (m^d)/lam is a
    vertical strip, else none.  height(lam) < r <= d forces m = 1 and lam = (1^a),
    a = d - s_top: the number of delta's full-width rows, so 1 <= a <= r - 1.
    """
    delta = canonical(delta)
    check_box(d, r)
    _check_degree(D)
    if case in ("self", "tautological"):
        top = r if case == "self" else r - 1
        if height(delta) > top:
            raise ValueError(f"height({delta}) must be <= {top}")
        return 1
    if case == "eta":
        if height(delta) >= r or width(delta) != d - r + 1:
            raise ValueError(
                f"{delta} must have height < {r} and width exactly {d - r + 1}")
        _, top, s_top = resolution_terms(delta, d, r)[-1]
        a = d - s_top
        if a > D:
            return 0
        lam_hat = canonical((d - r + 1,) * a + (d - r,) * (r - 1 - a))
        return lr_coefficient(delta, complement(top, d - r + 1, r), lam_hat)
    raise ValueError(f"unknown case {case!r}")
