"""Symbolic equivariant bundle labels and graded complexes.

A label stands for S^{schur}(taut)^dual ⊗ O(det_twist) ⊗ S^{v_shape}V, with
an optional extra O<bracket_twist> factor for labels living on the
correspondence stack (S-side Schur power carrying a second, corank-1 side
determinant twist).  On the H side the det_twist itself is the <k> twist.

Canonical form keeps height(schur) < taut_rank by folding full-height
columns into the determinant twist.  det V is globally trivialized, so
builders drop top exterior powers of V before constructing labels.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

from .partitions import canonical, complement, width
from .schur import schur_dimension


class BundleLabel(namedtuple("BundleLabel",
                             "schur taut_rank det_twist side v_shape bracket_twist")):
    """A canonical label: a tuple of its fields, so equality, hash and order
    are the field tuple's.  Every construction validates, `_make` and
    `_replace` included."""

    __slots__ = ()

    def __new__(cls, schur: tuple[int, ...], taut_rank: int, det_twist: int,
                side: str = "S", v_shape: tuple[int, ...] = (),
                bracket_twist: int = 0) -> "BundleLabel":
        if side not in ("S", "H"):
            raise ValueError(f"side must be 'S' or 'H', got {side!r}")
        if taut_rank < 0:
            raise ValueError("taut_rank must be non-negative")
        if taut_rank and len(schur) >= taut_rank:
            raise ValueError(
                f"label not canonical: height({schur}) >= rank {taut_rank}")
        if taut_rank == 0 and (schur or det_twist):
            raise ValueError("rank-0 side carries only the trivial label")
        if side == "H" and bracket_twist:
            raise ValueError("bracket twist is redundant on the H side")
        return tuple.__new__(cls, (schur, taut_rank, det_twist, side, v_shape,
                                   bracket_twist))

    @classmethod
    def _make(cls, fields: Iterable) -> "BundleLabel":
        return cls(*fields)


def normalize(schur: Iterable[int], det_twist: int, taut_rank: int,
              side: str = "S", v_shape: Iterable[int] = (),
              bracket_twist: int = 0) -> BundleLabel:
    """Fold full-height columns into the determinant twist.  Raises on labels of
    vanishing bundles (height > rank); callers filter those out first."""
    return _folded(canonical(schur), det_twist, taut_rank, side, canonical(v_shape), bracket_twist)


def _folded(schur: tuple[int, ...], det_twist: int, taut_rank: int, side: str = "S",
            v_shape: tuple[int, ...] = (), bracket_twist: int = 0) -> BundleLabel:
    """normalize for a canonical schur and v_shape, as the staircase builds them."""
    if len(schur) > taut_rank:  # a Schur power vanishes above the rank
        raise ValueError(
            f"S^{schur} of a rank-{taut_rank} bundle is zero; drop the term")
    if taut_rank == 0:
        return BundleLabel((), 0, 0, side, v_shape, bracket_twist)
    if len(schur) == taut_rank:  # the last row counts the full columns
        c = schur[-1]
        schur, det_twist = tuple(x - c for x in schur if x > c), det_twist + c
    return BundleLabel(schur, taut_rank, det_twist, side, v_shape, bracket_twist)


def from_nondual(gamma: Iterable[int], taut_rank: int, side: str = "S",
                 v_shape: Iterable[int] = (), bracket_twist: int = 0,
                 extra_twist: int = 0) -> BundleLabel:
    """Label for the Schur power S^gamma(taut) of the non-dual bundle.

    Uses the rectangle complement: S^gamma(taut) equals the complement
    Schur power of the dual twisted by (det taut^dual)^{-width}.
    """
    gamma = canonical(gamma)
    w = width(gamma)
    return normalize(complement(gamma, w, taut_rank), extra_twist - w,
                     taut_rank, side, v_shape, bracket_twist)


def rank(label: BundleLabel, d: int) -> int:
    """Rank of the labeled bundle, with V of dimension d."""
    return (schur_dimension(label.schur, label.taut_rank)
            * schur_dimension(label.v_shape, d))


class GradedComplex(namedtuple("GradedComplex", "terms", defaults=((),))):
    """Map homological degree -> multiset of labels; no differentials.

    `terms` is ((degree, ((label, mult), ...)), ...), both levels sorted; the
    complex is the 1-tuple (terms,)."""

    __slots__ = ()

    @staticmethod
    def from_items(items: Iterable[tuple[int, BundleLabel, int]]) -> "GradedComplex":
        by_degree: dict[int, dict[BundleLabel, int]] = {}
        ranks = set()
        for degree, label, mult in items:
            if mult == 0:
                continue
            if mult < 0:
                raise ValueError("multiplicities are positive")
            ranks.add((label.side, label.taut_rank))
            counts = by_degree.setdefault(degree, {})
            counts[label] = counts.get(label, 0) + mult
        if len({r for _, r in ranks}) > 1:
            raise ValueError(f"labels mix tautological ranks: {sorted(ranks)}")
        packed = tuple(
            (degree, tuple(sorted(by_degree[degree].items())))
            for degree in sorted(by_degree))
        return GradedComplex(packed)

    def items(self) -> Iterator[tuple[int, BundleLabel, int]]:
        for degree, labels in self.terms:
            for label, mult in labels:
                yield degree, label, mult

    def expand_multiplicities(self, d: int) -> "GradedComplex":
        """Drop V factors, multiplying each term by its V-dimension."""
        out = []
        for degree, label, mult in self.items():
            dim = schur_dimension(label.v_shape, d)
            if dim:
                out.append((degree, label._replace(v_shape=()), mult * dim))
        return GradedComplex.from_items(out)
