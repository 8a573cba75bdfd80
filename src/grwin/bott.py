"""Twisted Weyl action on GL(r) weights, the cohomology classifier, and Euler
characteristics by Bott's theorem (Weyman, Cohomology of Vector Bundles, ch. 4).

Weights are integer tuples of length r.  Permutations are tuples p acting
by (p.v)[i] = v[p[i]], so slot p[i] of the input lands in slot i.
"""

from __future__ import annotations

from collections import namedtuple

from .partitions import canonical, height
from .schur import schur_dimension


class _Unit:
    """A class with one value: equal to instances of its class, hashed as ()."""

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ or NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Dominant(_Unit):
    """The weight is already dominant."""


class NonRegular(_Unit):
    """The weight plus rho has a repeated entry: all cohomology vanishes."""


Regular = namedtuple("Regular", "w length dominant_rep")
Regular.__doc__ = "The sorting permutation, its length and the dominant representative."

BwbClass = Dominant | Regular | NonRegular


def apply_perm(w: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v[w[i]] for i in range(len(w)))


def inversions(w: tuple[int, ...]) -> int:
    """Coxeter length: inversion count of the one-line word."""
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
               if w[i] > w[j])


def twisted_action(w: tuple[int, ...], alpha: tuple[int, ...]) -> tuple[int, ...]:
    """w . alpha = w(alpha + rho) - rho."""
    if len(w) != len(alpha):
        raise ValueError(f"length mismatch: |w|={len(w)}, |alpha|={len(alpha)}")
    r = len(alpha)
    shifted = tuple(alpha[i] + r - i for i in range(r))
    moved = apply_perm(w, shifted)
    return tuple(moved[i] - (r - i) for i in range(r))


def classify(alpha: tuple[int, ...]) -> BwbClass:
    """Classify a weight under the twisted Weyl action.

    NonRegular iff alpha + rho has a repeated entry; Dominant iff alpha is
    already non-increasing; otherwise Regular with the unique sorting
    permutation, its inversion count, and the dominant representative.
    """
    r = len(alpha)
    shifted = tuple(alpha[i] + r - i for i in range(r))
    if len(set(shifted)) < r:
        return NonRegular()
    if all(alpha[i] >= alpha[i + 1] for i in range(r - 1)):
        return Dominant()
    w = tuple(sorted(range(r), key=lambda i: -shifted[i]))
    return Regular(w=w, length=inversions(w), dominant_rep=twisted_action(w, alpha))


def euler_characteristic(weight: tuple[int, ...]) -> int:
    """Euler characteristic of the homogeneous bundle of a GL(n) weight on a
    flag variety, n = len(weight), by Bott: 0 for a non-regular weight, else
    (-1)^length times the Weyl dimension of the dominant representative."""
    if isinstance(cls := classify(weight), NonRegular):
        return 0
    sign, rep = (1, weight) if isinstance(cls, Dominant) else ((-1) ** cls.length, cls.dominant_rep)
    return sign * schur_dimension(canonical(x - min(rep, default=0) for x in rep), len(rep))


def bwb_cohomology(delta: tuple[int, ...], i: int,
                   r: int) -> tuple[int, tuple[int, ...]] | None:
    """Cohomology of the i-th dual-quotient power twisted by a Schur power
    of the corank-1 sub-bundle on GL(r)/P.

    Returns (degree, shape) for the single non-vanishing group, or None.
    """
    delta = canonical(delta)
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if height(delta) > r - 1:
        raise ValueError(f"height({delta}) must be <= {r - 1}")
    if i < 0:
        raise ValueError("power must be non-negative")
    alpha = delta + (0,) * (r - 1 - len(delta)) + (i,)
    cls = classify(alpha)
    if isinstance(cls, NonRegular):
        return None
    if isinstance(cls, Dominant):
        return 0, canonical(alpha)
    return cls.length, canonical(cls.dominant_rep)
