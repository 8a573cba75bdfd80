"""Window-shift functors on generators and the fixed-point K-theory engine.

The up-shift fixes narrow generators and replaces full-width ones by the
positive part of their staircase resolution; the down-shift is its O(1)
conjugate.  K-theory matrices are solved exactly from torus fixed-point
localization by one Fraction Gauss-Jordan elimination per matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Sequence

from .bundles import GradedComplex, normalize
from .partitions import canonical, check_box, height, resolution_terms, size, strip, width
from .resolutions import InternalConsistencyError, _wedge, unstable_resolution_twisted
from .windows import gamma_set, window_generators


class ParameterDegeneracyError(ValueError):
    """Localization parameters failed to separate the generator basis."""


def _check_generator(delta: tuple[int, ...], d: int, r: int) -> tuple[int, ...]:
    delta = canonical(delta)
    check_box(d, r, strict=True)
    if height(delta) > r or width(delta) > d - r:
        raise ValueError(f"{delta} is not in the (d-r) x r index box")
    return delta


def twist_on_generator(delta: tuple[int, ...], d: int, r: int) -> GradedComplex:
    """Image of the generator S^delta S^dual(1) under the up-shift.

    Narrow diagrams are fixed.  Full-width ones map to the degree-0-cancelled
    cone, which is the twisted resolution of the stripped diagram tensored
    by O(1): staircase terms in degrees K-1-k.
    """
    delta = _check_generator(delta, d, r)
    if width(delta) < d - r:
        return GradedComplex.from_items([(0, normalize(delta, 1, r), 1)])
    return tensor_twist(unstable_resolution_twisted(delta, d, r), 1)


def cotwist_on_generator(delta: tuple[int, ...], d: int, n: int) -> GradedComplex:
    """Image of the generator S^delta(taut)^dual under the down-shift on the
    rank-n model, relabeled to the ambient alphabet.

    Narrow diagrams are fixed.  Full-width ones map to the staircase of the
    diagram itself at height n+1, rows stripped, twisted by O(-1), in
    degrees K-k for k = 0..K with K = d-n.
    """
    delta = _check_generator(delta, d, n)
    if width(delta) < d - n:
        return GradedComplex.from_items([(0, normalize(delta, 0, n), 1)])
    K = d - n
    items = []
    for k, dk, sk in resolution_terms(delta, d, n + 1):
        hat = strip(dk, "first-row")
        items.append((K - k, normalize(hat, -1, n, v_shape=_wedge(sk, d)), 1))
    return GradedComplex.from_items(items)


def tensor_twist(cx: GradedComplex, m: int) -> GradedComplex:
    """Tensor every label by O(m); degrees unchanged."""
    return cx.tensor_det(m)


# ---------------------------------------------------------------------------
# fixed-point localization


@dataclass(frozen=True)
class FixedPointVector:
    """Localization values of a K-class at the torus fixed points, indexed
    by r-subsets of {1..d} in lexicographic order."""

    values: tuple[Fraction, ...]
    parameters: tuple[Fraction, ...]
    d: int
    r: int

    def __post_init__(self) -> None:
        from math import comb
        if len(self.values) != comb(self.d, self.r):
            raise ValueError("one value per r-subset fixed point required")
        if len(set(self.parameters)) != self.d or any(t == 0 for t in self.parameters):
            raise ValueError("parameters must be distinct and nonzero")


def schur_evaluate(lam: tuple[int, ...], xs: Sequence[Fraction]) -> Fraction:
    """Exact Schur polynomial value via horizontal-strip chains."""
    lam = canonical(lam)
    if not lam:
        return Fraction(1)
    if height(lam) > len(xs):
        return Fraction(0)
    cur: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for x in xs:
        nxt: dict[tuple[int, ...], Fraction] = {}
        for mu, val in cur.items():
            for nu in _strip_extensions(mu, lam):
                add = size(nu) - size(mu)
                nxt[nu] = nxt.get(nu, Fraction(0)) + val * x ** add
        cur = nxt
    return cur.get(lam, Fraction(0))


def _strip_extensions(mu: tuple[int, ...], lam: tuple[int, ...]):
    # nu with mu <= nu <= lam and nu/mu a horizontal strip
    rows = len(lam)
    mu_padded = mu + (0,) * (rows - len(mu))

    def rec(i: int, prefix: tuple[int, ...]):
        if i == rows:
            yield canonical(prefix)
            return
        hi = lam[i] if i == 0 else min(lam[i], mu_padded[i - 1], prefix[i - 1])
        for x in range(mu_padded[i], hi + 1):
            yield from rec(i + 1, prefix + (x,))

    yield from rec(0, ())


def first_primes(n: int) -> list[int]:
    out: list[int] = []
    c = 2
    while len(out) < n:
        if all(c % p for p in out):
            out.append(c)
        c += 1
    return out


def default_parameters(d: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(p) for p in first_primes(d))


def random_parameters(d: int, rng: Random) -> tuple[Fraction, ...]:
    while True:
        params = tuple(Fraction(rng.randint(1, 1000), rng.randint(1, 50))
                       for _ in range(d))
        if len(set(params)) == d:
            return params


def k_class(cx: GradedComplex, d: int, r: int,
             params: Sequence[Fraction] | None = None) -> FixedPointVector:
    """Alternating localization values of a complex of ambient-side labels."""
    params = tuple(params) if params is not None else default_parameters(d)
    check_box(d, r)
    for _, label, _m in cx.items():
        if label.side != "S" or label.taut_rank != r or label.bracket_twist:
            raise ValueError(f"localization needs ambient-side labels, got {label}")
    values = []
    for sigma in combinations(range(d), r):
        inv = [1 / params[i] for i in sigma]
        det = Fraction(1)
        for i in sigma:
            det *= params[i]
        total = Fraction(0)
        for degree, label, mult in cx.items():
            val = (schur_evaluate(label.schur, inv)
                   * det ** (-label.det_twist)
                   * schur_evaluate(label.v_shape, params))
            total += (-1) ** degree * mult * val
        values.append(total)
    return FixedPointVector(tuple(values), params, d, r)


# ---------------------------------------------------------------------------
# exact linear algebra over Fractions


def solve_exact(matrix: Sequence[Sequence[Fraction | int]],
                columns: Sequence[Sequence[Fraction | int]]
                ) -> tuple[Fraction, list[list[Fraction]]]:
    """One Gauss-Jordan pass over [matrix | columns], exact in Fractions.

    Returns (det, solutions) with one solution per right-hand column.  A
    singular matrix gives (0, []); pass no columns to get only the
    determinant.
    """
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(col[i]) for col in columns]
         for i, row in enumerate(matrix)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return Fraction(0), []
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        # columns left of `col` are already reduced, so only the tail changes
        inv = 1 / a[col][col]
        tail = [x * inv for x in a[col][col:]]
        a[col][col:] = tail
        for i in range(n):
            f = a[i][col]
            if i != col and f:
                a[i][col:] = [x - f * y for x, y in zip(a[i][col:], tail)]
    return det, [[a[i][n + j] for i in range(n)] for j in range(len(columns))]


# ---------------------------------------------------------------------------
# functor matrices in the Kapranov basis


def _basis_matrix(labels, d: int, r: int, params) -> list[list[Fraction]]:
    cols = [k_class(GradedComplex.from_items([(0, lb, 1)]), d, r, params).values
            for lb in labels]
    return [[cols[j][i] for j in range(len(labels))] for i in range(len(cols[0]))]


def k_matrix(which: str, d: int, r: int,
             params: Sequence[Fraction] | None = None) -> list[list[int]]:
    """Matrix of the shift functor on K-theory: one column per generator,
    coordinates of the image in the target window's generator basis.

    V factors enter through their dimensions, so entries are plain integers.
    """
    params = tuple(params) if params is not None else default_parameters(d)
    if which == "twist":
        basis_labels = window_generators(d, r, 0)
        images = [twist_on_generator(delta, d, r) for delta in gamma_set(d, r)]
    elif which == "cotwist":
        basis_labels = window_generators(d, r, -1)
        images = [cotwist_on_generator(delta, d, r) for delta in gamma_set(d, r)]
    elif which == "identity":
        basis_labels = window_generators(d, r, 0)
        images = [GradedComplex.from_items([(0, lb, 1)]) for lb in basis_labels]
    else:
        raise ValueError(f"unknown functor {which!r}")
    basis = _basis_matrix(basis_labels, d, r, params)
    ys = [k_class(img.expand_multiplicities(d), d, r, params).values for img in images]
    det, cols = solve_exact(basis, ys)
    if det == 0:
        raise ParameterDegeneracyError("basis matrix is singular")
    for delta, x in zip(gamma_set(d, r), cols):
        if any(val.denominator != 1 for val in x):
            raise InternalConsistencyError(
                f"{which} image of {delta} at (d,r)=({d},{r}): "
                f"expected integral coordinates, got {x}")
    return [[int(cols[j][i]) for j in range(len(cols))] for i in range(len(cols))]


def o1_matrix(d: int, r: int,
              params: Sequence[Fraction] | None = None) -> list[list[int]]:
    """Matrix of tensoring by O(1) on plain K-theory in the Kapranov basis.

    Narrow generators absorb the twist as an extra full column; full-width
    ones expand through the exactness of their twisted staircase resolution
    tensored by O(1).  Those are exactly the up-shift images, so this is the
    twist matrix.  Window shifts act trivially on plain K-theory, so it is
    also the conjugating matrix for the twist/cotwist matrices.
    """
    return k_matrix("twist", d, r, params)
