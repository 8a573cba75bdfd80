"""Window-shift functors on generators and the fixed-point K-theory engine.

The up-shift fixes narrow generators and replaces full-width ones by the
positive part of their staircase resolution; the down-shift is its O(1)
conjugate.  Shift matrices: fixed-point localization in integers at the first d
primes, one solve modulo a prime, certified exactly; the O(1) matrix: Kapranov
duality and Bott.  `determinant` is the Bareiss determinant of an integer matrix.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations, count, islice
from math import lcm, prod

from .bott import euler_characteristic
from .bundles import BundleLabel, GradedComplex, normalize
from .partitions import canonical, check_box, height, resolution_terms, size, strip, width
from .resolutions import InternalConsistencyError, _wedge, unstable_resolution_twisted
from .windows import gamma_set, window_generators


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
    return unstable_resolution_twisted(delta, d, r).tensor_det(1)


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


# ---------------------------------------------------------------------------
# fixed-point localization


def default_parameters(d: int) -> tuple[Fraction, ...]:
    """The first d primes."""
    primes = (c for c in count(2) if all(c % p for p in range(2, c)))
    return tuple(map(Fraction, islice(primes, d)))


def _h_table(xs: Sequence[Fraction], top: int) -> tuple[int, list[int]]:
    """(den, h) with den the common denominator of xs and h[k] = h_k(den*xs)
    = den^k h_k(xs) for k <= top: complete homogeneous values, in integers."""
    (ints,), den = _integer_rows([xs])
    h = [1] + [0] * top
    for p in ints:
        for k in range(1, top + 1):
            h[k] += p * h[k - 1]
    return den, h


def _jacobi_trudi(lam: tuple[int, ...], h: list[int]) -> int:
    """det(h_{lam_i - i + j}) over an integer h table (Macdonald, I.3)."""
    return determinant([[h[part - i + j] if part >= i - j else 0 for j in range(len(lam))]
                        for i, part in enumerate(lam)])


def _fixed_point_values(complexes: Sequence[Iterable[tuple[int, BundleLabel, int]]],
                        r: int, params: tuple[Fraction, ...]) -> list[list[Fraction]]:
    """Values of complexes, as (degree, label, mult) terms of plain labels, at each fixed
    point (lexicographic r-subset of params), one row per point, each summed in integers
    over den^(max |shape|) times the lcm of its det twists' denominators."""
    labels: dict[BundleLabel, int] = {}  # each distinct label's index
    classes: list[list[tuple[int, int]]] = []
    for items in complexes:
        net: dict[BundleLabel, int] = {}
        for degree, label, mult in items:
            if label.side != "S" or label.taut_rank != r or label.bracket_twist or label.v_shape:
                raise ValueError(f"localization needs plain ambient-side labels, got {label}")
            net[label] = net.get(label, 0) + (-1) ** degree * mult
        classes.append([(labels.setdefault(lb, len(labels)), c) for lb, c in net.items() if c])
    shapes = {lb.schur for lb in labels}
    big = max(map(size, shapes), default=0)  # >= width + height - 1, the h table's top
    twists = list({lb.det_twist for lb in labels})
    rows = []
    for sigma in combinations(params, r):
        den, h = _h_table([1 / t for t in sigma], big)
        det = prod(sigma)
        (ints,), scale = _integer_rows([[det ** -t for t in twists]])
        factor = dict(zip(twists, ints))
        scale *= den ** big
        jt = {lam: _jacobi_trudi(lam, h) * den ** (big - size(lam)) for lam in shapes}
        value = [jt[lb.schur] * factor[lb.det_twist] for lb in labels]
        rows.append([Fraction(sum(c * value[i] for i, c in cls), scale) for cls in classes])
    return rows


# ---------------------------------------------------------------------------
# exact linear algebra

PRIME = 2 ** 61 - 1


def _integer_rows(rows: Iterable[Sequence[Fraction | int]]) -> tuple[list[list[int]], int]:
    """Rows scaled to integers by the lcm of their denominators; the product of the lcms."""
    rows = list(rows)
    dens = [lcm(*(x.denominator for x in row)) for row in rows]
    return ([[x.numerator * (den // x.denominator) for x in row] for row, den in zip(rows, dens)],
            prod(dens))


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination;
    every division is exact."""
    a = [list(row) for row in matrix]
    sign, prev = 1, 1
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        p, tail = a[k][k], a[k][k + 1:]
        for row in a[k + 1:]:
            f = row[k]
            row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = p
    return sign * prev


def _solve_modular(rows: list[list[int]], n: int) -> list[list[int]] | None:
    """X with B X = Y modulo PRIME for integer rows [B | Y], in symmetric residues,
    from one Gauss-Jordan pass; None if a pivot vanishes."""
    p = PRIME
    a = [[x % p for x in row] for row in rows]
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return None
        a[k], a[pivot] = a[pivot], a[k]
        inv = pow(a[k][k], -1, p)
        a[k][k + 1:] = tail = [x * inv % p for x in a[k][k + 1:]]
        for i, row in enumerate(a):
            if i != k and (f := row[k]):
                row[k + 1:] = [(x - f * y) % p for x, y in zip(row[k + 1:], tail)]
    return [[v - p if v > p // 2 else v for v in row[n:]] for row in a]


# ---------------------------------------------------------------------------
# functor matrices in the Kapranov basis


def k_matrix(which: str, d: int, r: int) -> list[list[int]]:
    """Matrix of the shift functor on K-theory: one column per generator,
    coordinates of the image in the target window's generator basis.

    V factors enter through their dimensions, so entries are plain integers.

    The basis block is nonsingular.  With y = 1/t it is [s_delta(y_sigma)]
    up to a det twist per row.  As s_delta = a_{delta+rho} / a_rho, its
    numerators form the r-th compound of the Vandermonde matrix in y, of det
    Vandermonde^C(d-1, r-1) (Sylvester-Franke); each pair i < j divides
    C(d-2, r-2) of the a_rho.  So |det| = prod_{i<j} |y_i - y_j|^m with
    m = C(d-2, r-1), nonzero for distinct nonzero t: a zero det is a bug.

    It is solved once modulo PRIME at t = the first d primes, with no
    wraparound.  Each factor |y_i - y_j| = |p_j - p_i| / (p_i p_j) and each
    row scale is made of primes <= p_d and differences below p_d, so PRIME
    divides no det or row scale, no pivot vanishes, and the basis is
    nonsingular over Q.  The coordinates are integers far below PRIME / 2
    (the largest |entry| is C(d, floor(d/2)) for d <= 8 and 126 at (9,4)), so
    the symmetric lift recovers them.  The exact check B X = Y certifies every
    column: a failure raises, naming the generator; no wrong matrix is returned.
    """
    check_box(d, r, strict=True)
    if which not in ("twist", "cotwist", "identity"):
        raise ValueError(f"unknown functor {which!r}")
    params = default_parameters(d)
    basis = [[(0, lb, 1)] for lb in window_generators(d, r, -1 if which == "cotwist" else 0)]
    if which == "identity":
        images = basis
    else:
        image = twist_on_generator if which == "twist" else cotwist_on_generator
        images = [image(delta, d, r).expand_multiplicities(d).items()
                  for delta in gamma_set(d, r)]
    n = len(basis)
    rows, _ = _integer_rows(_fixed_point_values(basis + images, r, params))
    x = _solve_modular(rows, n)
    if x is None:
        raise InternalConsistencyError(
            f"{which} at (d,r)=({d},{r}): basis matrix singular at parameters "
            f"({', '.join(map(str, params))})")
    for j, (delta, col) in enumerate(zip(gamma_set(d, r), zip(*x))):
        nonzero = [(k, v) for k, v in enumerate(col) if v]
        if any(sum(row[k] * v for k, v in nonzero) != row[n + j] for row in rows):
            raise InternalConsistencyError(
                f"{which} image of {delta} at (d,r)=({d},{r}): the coordinates lifted "
                f"from modulo {PRIME} fail B X = Y")
    return x


def kapranov_coordinates(labels: Sequence[BundleLabel], d: int, r: int, k: int) -> list[list[int]]:
    """Coordinates of plain labels' classes in window k's basis, one column per label.

    Kapranov's dual collection (Invent. Math. 92, 1988) pairs the basis with
    chi(S^alpha S ⊗ S^{beta'} Q^dual) = (-1)^|alpha| [alpha = beta], so coordinate
    beta of E = S^gamma S^dual(t) is (-1)^|beta| chi(S^gamma S ⊗ S^{beta'} Q^dual ⊗
    (det S)^(t-k)): Bott on GL(d) at (-beta'_{d-r}, ..., -beta'_1, gamma + t - k).
    """
    check_box(d, r, strict=True)
    tails = []
    for lb in labels:
        if lb.side != "S" or lb.taut_rank != r or lb.bracket_twist or lb.v_shape:
            raise ValueError(f"coordinates need plain ambient-side labels, got {lb}")
        tails.append(tuple(x + lb.det_twist - k for x in lb.schur + (0,) * (r - len(lb.schur))))
    heads = [((-1) ** size(beta), tuple(-sum(x > j for x in beta) for j in reversed(range(d - r))))
             for beta in gamma_set(d, r)]
    return [[sign * euler_characteristic(head + tail) for tail in tails] for sign, head in heads]


def o1_matrix(d: int, r: int) -> list[list[int]]:
    """Matrix of tensoring by O(1) on plain K-theory in the Kapranov basis: the
    window-0 coordinates of each S^delta S^dual(1), with no staircase or solve.
    Window shifts act on plain K-theory as O(1), so it must equal the twist matrix:
    the independent check behind T M_cotwist = M_twist T.
    """
    check_box(d, r, strict=True)
    return kapranov_coordinates([normalize(delta, 1, r) for delta in gamma_set(d, r)], d, r, 0)
