"""Truncated two-alphabet symmetric-function arithmetic.

A character here is a dict (lambda, mu) -> nonzero integer: the coefficient
of s_lambda ⊗ s_mu, with lambda in a d-letter alphabet (the ambient space)
and mu in an r-letter alphabet (the dual tautological side), truncated by
total lambda-degree.  Characters serve as the equivariant oracle for the
staircase resolutions; invariant Hom-space dimensions take closed forms.
Euler characters are determinant-periodic, E[alpha, beta] = E[alpha - (1^r),
beta - (1^r)] for alpha_r >= 2 (see euler_character): such keys are copied.
"""

from __future__ import annotations

from .partitions import (canonical, check_box, complement, height, partitions_of,
                         resolution_terms, size, width)
from .schur import _schur_product_items, lr_coefficient, schur_product

Key = tuple[tuple[int, ...], tuple[int, ...]]


def _check_degree(D: int) -> None:
    if D < 0:
        raise ValueError("truncation degree must be >= 0")


def cauchy_truncated(d: int, r: int, D: int) -> dict[Key, int]:
    """Character of the symmetric algebra on the tensor product of the two
    alphabets: the diagonal sum of s_lambda ⊗ s_lambda up to degree D."""
    _check_degree(D)
    return {(lam, lam): 1 for n in range(D + 1)
            for lam in partitions_of(n, max_height=min(d, r))}


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
    A terms override supports tamper tests; the default is the staircase.
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

    def lift(p: tuple[int, ...], t: int) -> tuple[int, ...]:
        return tuple([x + t for x in p + (0,) * (r - len(p))])  # p + (t^r), canonical if t > 0
    cores = [partitions_of(n, max_height=r - 1) for n in range(D + 1)]  # by size
    # shapes are canonical and 0 < r <= d: products come straight from the cache
    total: dict[Key, int] = {}
    for k, shape, s in terms:
        if s > d:
            continue  # the exterior power vanishes
        sign = (-1) ** k
        c = shape[-1] if len(shape) == r else 0  # s_shape = (y_1...y_r)^c s_reduced
        reduced = tuple(x - c for x in shape if x > c)
        for n in range(D - s + 1):
            for core in cores[n]:
                right = _schur_product_items(core, reduced, r)
                for m in range(1 + (n + r + s <= D)):  # lam = core + (m^r)
                    taut = [(lift(mb, m + c), cr) for mb, cr in right] if m + c else right
                    for la, cl in _schur_product_items(lift(core, 1) if m else core, (1,) * s, d):
                        if len(la) < r or la[r - 1] < 2:
                            for mb, cr in taut:
                                total[la, mb] = total.get((la, mb), 0) + sign * cl * cr
    total = {key: v for key, v in total.items() if v}
    for (la, mb), v in list(total.items()):
        if len(la) >= r and la[r - 1] == 1:
            for t in range(1, (D - size(la)) // r + 1):
                total[lift(la[:r], t) + la[r:], lift(mb, t)] = v
    return total


def pushforward_character(delta: tuple[int, ...], d: int, r: int,
                          D: int) -> dict[Key, int]:
    """Character of the torsion pushforward: sum over both alphabets of
    LR products of delta against the corank-1 side, heights <= r-1."""
    delta = canonical(delta)
    check_box(d, r)
    _check_degree(D)
    if height(delta) > r - 1:
        raise ValueError(f"height({delta}) must be <= {r - 1}")
    # at r = 1 both factors are empty, so a one-letter product stays at height 0
    return {(lam, mu): c for n in range(D + 1)
            for lam in partitions_of(n, max_height=r - 1)
            for mu, c in schur_product(delta, lam, max(r - 1, 1)).items()}


def verify_exactness(delta: tuple[int, ...], d: int, r: int, D: int) -> bool:
    """Character oracle: the resolution is exact iff its Euler character
    equals the pushforward character coefficient for coefficient."""
    return euler_character(delta, d, r, D) == pushforward_character(delta, d, r, D)


def exactness_report(delta: tuple[int, ...], d: int, r: int, D: int) -> list[dict]:
    """The coefficients where the two characters differ, sorted by key."""
    euler = euler_character(delta, d, r, D)
    push = pushforward_character(delta, d, r, D)
    rows = [(key, euler.get(key, 0), push.get(key, 0))
            for key in sorted(euler.keys() | push.keys())]
    return [{"lambda": list(lam), "mu": list(mu), "euler": a, "pushforward": b}
            for (lam, mu), a, b in rows if a != b]


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
    vertical strip, else none.  height(lam) < r <= d forces m = 1 and
    lam = (1^a), a = d - s_top (m = 0 needs s_top = 0, but step 1 adds a box).
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
        if not 0 <= a <= min(D, r - 1):
            return 0
        lam_hat = canonical((d - r + 1,) * a + (d - r,) * (r - 1 - a))
        return lr_coefficient(delta, complement(top, d - r + 1, r), lam_hat)
    raise ValueError(f"unknown case {case!r}")
