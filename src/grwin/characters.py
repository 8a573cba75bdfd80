"""Truncated two-alphabet symmetric-function arithmetic.

Classes here are exact-integer linear combinations of s_lambda ⊗ s_mu with
lambda in a d-letter alphabet (the ambient space) and mu in an r-letter
alphabet (the dual tautological side), truncated by total lambda-degree.
They serve as the equivariant-character oracle for the staircase
resolutions and as the engine for invariant Hom-space dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .partitions import (
    canonical,
    check_box,
    complement,
    height,
    partitions_of,
    resolution_terms,
    size,
    width,
)
from .schur import _schur_product_items, lr_coefficient, schur_dimension, schur_product

Key = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass
class SchurBivariate:
    """Finite map (lambda, mu) -> integer with alphabet bounds and a
    lambda-degree cap; zero coefficients are absent."""

    d: int
    r: int
    degree_cap: int
    coefficients: dict[Key, int] = field(default_factory=dict)

    def add(self, lam: tuple[int, ...], mu: tuple[int, ...], c: int) -> None:
        if c == 0 or size(lam) > self.degree_cap:
            return
        if height(lam) > self.d or height(mu) > self.r:
            return
        key = (lam, mu)
        new = self.coefficients.get(key, 0) + c
        if new:
            self.coefficients[key] = new
        else:
            self.coefficients.pop(key, None)

    def coefficient(self, lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
        return self.coefficients.get((canonical(lam), canonical(mu)), 0)

    def difference_report(self, other: "SchurBivariate") -> list[dict]:
        keys = sorted(set(self.coefficients) | set(other.coefficients))
        out = []
        for lam, mu in keys:
            a = self.coefficients.get((lam, mu), 0)
            b = other.coefficients.get((lam, mu), 0)
            if a != b:
                out.append({"lambda": list(lam), "mu": list(mu),
                            "euler": a, "pushforward": b})
        return out


def _check_degree(D: int) -> None:
    if D < 0:
        raise ValueError("truncation degree must be >= 0")


def cauchy_truncated(d: int, r: int, D: int) -> SchurBivariate:
    """Character of the symmetric algebra on the tensor product of the two
    alphabets: the diagonal sum of s_lambda ⊗ s_lambda up to degree D."""
    _check_degree(D)
    out = SchurBivariate(d, r, D)
    h = min(d, r)
    for n in range(D + 1):
        for lam in partitions_of(n, max_height=h):
            out.add(lam, lam, 1)
    return out


def euler_character(delta: tuple[int, ...], d: int, r: int, D: int,
                    terms: list[tuple[int, tuple[int, ...], int]] | None = None
                    ) -> SchurBivariate:
    """Alternating character sum of the resolution's terms over the
    polynomial-ring character, truncated to ambient degree D.

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
    cauchy = cauchy_truncated(d, r, D)
    # every shape is canonical and 0 < r <= d, so the products are read
    # straight from the cache that schur_product fills
    total: dict[Key, int] = {}
    for k, shape, s in terms:
        if s > d:
            continue  # the exterior power vanishes
        sign = (-1) ** k
        column = (1,) * s
        for (a, b), c in cauchy.coefficients.items():
            if size(a) + s > D:
                continue
            right = _schur_product_items(b, shape, r)
            for la, cl in _schur_product_items(a, column, d):
                for mb, cr in right:
                    new = total.pop((la, mb), 0) + sign * c * cl * cr
                    if new:
                        total[la, mb] = new
    return SchurBivariate(d, r, D, total)


def pushforward_character(delta: tuple[int, ...], d: int, r: int,
                          D: int) -> SchurBivariate:
    """Character of the torsion pushforward: sum over both alphabets of
    LR products of delta against the corank-1 side, heights <= r-1."""
    delta = canonical(delta)
    check_box(d, r)
    _check_degree(D)
    if height(delta) > r - 1:
        raise ValueError(f"height({delta}) must be <= {r - 1}")
    out = SchurBivariate(d, r, D)
    for n in range(D + 1):
        for lam in partitions_of(n, max_height=r - 1):
            for mu, c in schur_product(delta, lam, max(r - 1, 1)).items():
                if height(mu) <= r - 1:
                    out.add(lam, mu, c)
    return out


def verify_exactness(delta: tuple[int, ...], d: int, r: int, D: int) -> bool:
    """Character oracle: the resolution is exact iff its Euler character
    equals the pushforward character coefficient for coefficient."""
    return euler_character(delta, d, r, D) == pushforward_character(delta, d, r, D)


def exactness_report(delta: tuple[int, ...], d: int, r: int, D: int) -> list[dict]:
    return euler_character(delta, d, r, D).difference_report(
        pushforward_character(delta, d, r, D))


def _sl_invariants(lam: tuple[int, ...], s: int, d: int) -> int:
    """dim of SL-invariants in S^lam V ⊗ wedge^s V: LR pairings against
    full m x d rectangles."""
    total_boxes = size(lam) + s
    if total_boxes % d:
        return 0
    m = total_boxes // d
    return lr_coefficient(lam, (1,) * s, (m,) * d)


def hom_invariant_dimension(case: str, delta: tuple[int, ...], d: int, r: int,
                            D: int) -> int:
    """Dimension of an invariant mapping space on the correspondence chart,
    by double-Cauchy expansion and invariant pairings up to degree D.

    Cases: 'self' (endomorphisms of an ambient Schur power), 'tautological'
    (maps from the corank-1 power into it), 'eta' (maps from the dual
    corank-1 power into the top staircase term, SL-equivariantly).
    """
    delta = canonical(delta)
    check_box(d, r)
    _check_degree(D)
    if case in ("self", "tautological"):
        top = r if case == "self" else r - 1
        if height(delta) > top:
            raise ValueError(f"height({delta}) must be <= {top}")
        return _pairing_dimension(delta, d, r, D)
    if case == "eta":
        if height(delta) >= r or width(delta) != d - r + 1:
            raise ValueError(
                f"{delta} must have height < {r} and width exactly {d - r + 1}")
        _, top, s_top = resolution_terms(delta, d, r)[-1]
        eps_top = complement(top, d - r + 1, r)
        rect = (d - r,) * (r - 1)
        total = 0
        for n in range(D + 1):
            for lam in partitions_of(n, max_height=r - 1):
                lam_hat = canonical(rect[i] + (lam[i] if i < len(lam) else 0)
                                    for i in range(r - 1))
                pairing = lr_coefficient(delta, eps_top, lam_hat)
                if pairing:
                    total += pairing * _sl_invariants(lam, s_top, d)
        return total
    raise ValueError(f"unknown case {case!r}")


def _pairing_dimension(delta: tuple[int, ...], d: int, r: int, D: int) -> int:
    # c^delta_{delta lam} = 0 unless lam = (), so this is 1 whatever the input
    # both Cauchy factors contract: the corank-1 pairing matches the two
    # expansion indices, the ambient pairing then weights by dim S^lam V
    total = 0
    for n in range(D + 1):
        for lam in partitions_of(n, max_height=max(r - 1, 0)):
            c = lr_coefficient(delta, lam, delta)
            if c:
                total += c * schur_dimension(lam, d)
    return total
