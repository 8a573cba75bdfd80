"""Generalized Koszul resolutions and pushforward rules, at the level of
labeled graded complexes (no differentials).

Degree conventions, pinned per display:
  * theorem_resolution lives in degrees -K..0 with the seed term at 0,
  * jshriek_jlower lives in degrees 0..K with the K-th staircase term at 0,
  * unstable_resolution_twisted lives in degrees 0..K-1, leftmost at 0,
    and the up-shift image of a full-width generator is it tensored by
    O(1) in the same degrees.
Here K = d-r+1, every term comes from the one staircase walk,
partitions.resolution_terms, and `_complex` labels it.  The top exterior power
wedge^d V is labelled as wedge 0, no V factor (det V trivialized).
"""

from __future__ import annotations

from collections.abc import Iterable

from .bundles import GradedComplex, _folded, from_nondual
from .partitions import canonical, check_box, resolution_terms, width


class InternalConsistencyError(AssertionError):
    """A construction produced data the theory forbids."""


def _check_generator(delta: tuple[int, ...], d: int, r: int) -> tuple[int, ...]:
    delta = canonical(delta)
    check_box(d, r, strict=True)
    if len(delta) > r or width(delta) > d - r:
        raise ValueError(f"{delta} is not in the (d-r) x r index box")
    return delta


def _complex(terms: Iterable[tuple[int, tuple[int, ...], int]], d: int, r: int, top: int,
             twist: int, bracket_twist: int = 0) -> GradedComplex:
    """The one builder from staircase terms (k, delta_k, s_k), read once in order of k, to
    a complex: term k is S^{delta_k}S^dual(twist) ⊗ wedge^{s_k}V in degree top - k, s_k = d
    as wedge 0 (every s_k <= d).  The walk gives canonical rows, at most r, and one term
    per degree, so no canonical pass, merge or sort."""
    return GradedComplex(tuple(
        (top - k, ((_folded(dk, twist, r, "S", sk % d, bracket_twist), 1),))
        for k, dk, sk in terms)[::-1])


def theorem_resolution(delta: tuple[int, ...], d: int, r: int) -> GradedComplex:
    """The length-K free resolution attached to a seed diagram.

    Terms: S^{delta_k}S^dual ⊗ wedge^{s_k}V in degree -k for k = 1..K and
    the seed Schur power in degree 0, with K = d-r+1.
    """
    return _complex(resolution_terms(delta, d, r), d, r, 0, 0)


def unstable_resolution_twisted(delta_target: tuple[int, ...], d: int, r: int) -> GradedComplex:
    """Direct route for the down-shift on a full-width generator: strip the
    first row, resolve, cancel the leftmost term, twist by O(-1)."""
    delta_target = _check_generator(delta_target, d, r)
    if width(delta_target) < d - r:
        raise ValueError(f"{delta_target} is not a full-width box diagram for (d,r)=({d},{r})")
    return _cancelled_resolution(delta_target, d, r, -1)


def _cancelled_resolution(delta: tuple[int, ...], d: int, r: int, twist: int) -> GradedComplex:
    """That route for a validated delta, twisted by O(twist) instead (the up-shift
    image is twist 0).  The leftmost term of the seed resolution must normalize to
    delta twisted by O(1); anything else is an internal consistency failure."""
    terms = resolution_terms(delta[1:], d, r)
    K, top, s_top = terms[-1]
    where = f"(d,r)=({d},{r}), delta={delta}"
    if s_top != d:
        raise InternalConsistencyError(
            f"{where}: stripped seed absorbs wedge^{s_top}, not wedge^{d}; "
            f"top staircase term {top}")
    if (leftmost := _folded(top, 0, r)) != (expected := _folded(delta, 1, r)):
        raise InternalConsistencyError(
            f"{where}: input-cancelling term mismatch: {leftmost} != {expected}")
    return _complex(terms[:-1], d, r, K - 1, twist)


def jshriek_jlower(delta: tuple[int, ...], d: int, r: int) -> GradedComplex:
    """Shriek-pullback of the pushforward, on the correspondence stack.

    Terms: S^{eps_k} of the non-dual bundle, eps_k = complement(delta_k, K, r),
    bracket-twisted by d-r, with wedge^{s_k}V, in degree K-k for k = 0..K.  Each
    is S^{delta_k} of the dual twisted by O(-K), and is labeled as that.
    """
    K = d - r + 1
    return _complex(resolution_terms(delta, d, r), d, r, K, -K, d - r)


def pushdown_pi(gamma: tuple[int, ...], d: int, r: int,
                locus: str = "stack") -> GradedComplex:
    """Closed-form pushdown of a Schur power of the rank-r bundle to the
    corank-1 base.

    On the stack locus only the degree-0 piece survives; on the open locus
    a width-(d-r+1) diagram additionally contributes its first-row-stripped
    piece, det-twisted, in degree d-r.
    """
    gamma = canonical(gamma)
    if locus not in ("stack", "open"):
        raise ValueError(f"locus must be 'stack' or 'open', got {locus!r}")
    check_box(d, r)
    if len(gamma) > r:
        raise ValueError(f"height({gamma}) must be <= {r}")
    if width(gamma) > d - r + 1:
        raise ValueError(f"width({gamma}) > {d - r + 1} is outside the pushforward rules")
    rank_h = r - 1
    items = []
    if len(gamma) <= rank_h:  # S^gamma H vanishes above H's rank
        items.append((0, from_nondual(gamma, rank_h, side="H"), 1))
    if locus == "open" and width(gamma) == d - r + 1:
        tail = gamma[1:]
        if len(tail) <= rank_h:
            # S^tail H ⊗ det H^dual, in canonical dual form
            items.append((d - r, from_nondual(tail, rank_h, side="H", extra_twist=1), 1))
    return GradedComplex.from_items(items)
