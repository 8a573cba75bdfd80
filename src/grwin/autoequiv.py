"""Window-shift functors on generators and their matrices on K-theory.

The up-shift fixes narrow generators and replaces full-width ones by the positive
part of their staircase resolution; the down-shift is its O(1) conjugate.  The shift
matrices are a read-off: every image term is a generator of the target window, and
those labels are a basis of K-theory, so `k_matrix` walks each image once and sums
signed multiplicities per label, found by (schur, taut_rank, det_twist), V factors
folded in as dimensions.  The O(1) matrix pairs the twisted generators with Kapranov's
dual collection, `kapranov_coordinates`: one Weyl product per nonzero entry, no staircase.
`determinant` reads det off the matrix's staircase shape.  Fixed-point localization
stays out of the library, as the test oracle `k_matrix_by_localization`.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from math import comb, prod

from .bundles import BundleLabel, GradedComplex
from .partitions import canonical, check_box, height, resolution_terms, size, width
from .resolutions import InternalConsistencyError, _cancelled_resolution, _complex
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
    by O(1): staircase terms in degrees K-1-k, labelled at that twist directly.
    """
    delta = _check_generator(delta, d, r)
    if width(delta) < d - r:  # delta as its own term 0, with no V
        return _complex([(0, delta, 0)], d, r, 0, 1)
    return _cancelled_resolution(delta, d, r, 0)


def cotwist_on_generator(delta: tuple[int, ...], d: int, n: int) -> GradedComplex:
    """Image of the generator S^delta(taut)^dual under the down-shift on the
    rank-n model, relabeled to the ambient alphabet.

    Narrow diagrams are fixed.  Full-width ones map to the staircase of the
    diagram itself at height n+1, rows stripped, twisted by O(-1), in
    degrees K-k for k = 0..K with K = d-n.
    """
    delta = _check_generator(delta, d, n)
    if width(delta) < d - n:
        return _complex([(0, delta, 0)], d, n, 0, 0)
    return _complex(((k, dk[1:], sk) for k, dk, sk in resolution_terms(delta, d, n + 1)),
                    d, n, d - n, -1)  # lazily, each row stripped as it is labelled


# ---------------------------------------------------------------------------
# functor matrices in the Kapranov basis


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a shift K-matrix, read off its shape.  Unit columns (one
    nonzero entry) take their rows; every other column has one nonzero entry off
    those rows, its pivot; the pivot rows p(j) are distinct.  Up to order M is
    then [[D, A], [0, B]], D diagonal and B a signed permutation, so det M =
    sgn(p) prod M[p(j)][j].  The staircase gives every shift matrix this shape.
    A narrow delta maps to the unit vector at row delta + (1^r), and these are
    all the full-height rows.  In a full-width image every term after the first
    fills column 1 to full height, so only the first, (-1)^(d-r) at the row
    delta less its first row, of height < r, is off them; this is a bijection
    onto those rows.  Any other shape, a singular matrix included, raises
    InternalConsistencyError naming the column, also kept as its `column`."""
    support = [[i for i, x in enumerate(col) if x] for col in zip(*matrix)]
    taken = {rows[0] for rows in support if len(rows) == 1}
    owner: dict[int, int] = {}  # pivot row -> its column, in column order
    for j, rows in enumerate(support):
        free = rows if len(rows) == 1 else [i for i in rows if i not in taken]
        if len(free) != 1 or owner.setdefault(free[0], j) != j:
            error = InternalConsistencyError(f"column {j} has no pivot row of its own: "
                                             f"off the unit columns it is nonzero in rows {free}")
            error.column = j
            raise error
    p = list(owner)
    return (-1) ** sum(a > b for a, b in combinations(p, 2)) * prod(
        matrix[i][j] for j, i in enumerate(p))


def k_matrix(which: str, d: int, r: int) -> list[list[int]]:
    """Matrix of the shift functor on K-theory, by read-off.

    Every image term is a generator of the target window (k = -1 for the
    cotwist, 0 for the twist), and those labels are a basis of K(Gr(r,d)), so
    entry (i, j) sums (-1)^deg mult over the terms of image j labelled by
    generator i, a V factor wedge^s V multiplying mult by C(d, s) and leaving the
    label; `identity` is I.
    A label outside the window, on the H side or with a bracket twist raises
    InternalConsistencyError, naming the label less its V factor.  The Kapranov
    pairing (`o1_matrix`) and the test oracle `k_matrix_by_localization` reach
    the same matrices independently.
    """
    check_box(d, r, strict=True)
    if which not in ("twist", "cotwist", "identity"):
        raise ValueError(f"unknown functor {which!r}")
    n = len(gamma_set(d, r))
    if which == "identity":
        return [[int(i == j) for j in range(n)] for i in range(n)]
    k = -1 if which == "cotwist" else 0
    image = twist_on_generator if which == "twist" else cotwist_on_generator
    index = {lb[:3]: i for i, lb in enumerate(window_generators(d, r, k))}
    matrix = [[0] * n for _ in range(n)]
    for j, delta in enumerate(gamma_set(d, r)):
        for degree, labels in image(delta, d, r).terms:
            for lb, mult in labels:
                i = index.get(lb[:3])  # (schur, taut_rank, det_twist): a V factor needs no copy
                if i is None or lb.side != "S" or lb.bracket_twist:
                    raise InternalConsistencyError(
                        f"(d,r)=({d},{r}), delta={delta}: {which} image term "
                        f"{lb._replace(wedge=0)} is not a generator of window {k}")
                matrix[i][j] += (-1) ** degree * mult * comb(d, lb.wedge)
    return matrix


def _vandermonde(values: Sequence[int]) -> int:
    """prod_{i<j} (values_i - values_j): positive for a strictly decreasing sequence."""
    return prod(a - b for a, b in combinations(values, 2))


def kapranov_coordinates(labels: Sequence[BundleLabel], d: int, r: int, k: int) -> list[list[int]]:
    """Coordinates of plain labels' classes in window k's basis, one column per label.

    Kapranov's dual collection (Invent. Math. 92, 1988) pairs the basis with
    chi(S^alpha S ⊗ S^{beta'} Q^dual) = (-1)^|alpha| [alpha = beta], so coordinate
    beta of E = S^gamma S^dual(t) is (-1)^|beta| chi(S^gamma S ⊗ S^{beta'} Q^dual ⊗
    (det S)^(t-k)): Bott on GL(d) at head + tail, head = (-beta'_{d-r}, ..., -beta'_1)
    and tail = gamma + t - k.  Plus rho = (d, ..., 1), the head is a (d-r)-subset H of
    {1..d}, one for each beta, and the tail r values T.  By Weyl's dimension formula
    chi = V(H) V(T) prod_{h in H, t in T} (h - t) / V(rho), V the Vandermonde product,
    so column T visits only the rows with H in {1..d} less T, one row if T lies inside.
    """
    check_box(d, r, strict=True)
    rows = {}  # H -> (its row, (-1)^|beta| V(H))
    for i, beta in enumerate(gamma_set(d, r)):
        head = tuple(d - j - sum(x > d - r - 1 - j for x in beta) for j in range(d - r))
        rows[head] = i, (-1) ** size(beta) * _vandermonde(head)
    rho, matrix = _vandermonde(range(d, 0, -1)), [[0] * len(labels) for _ in rows]
    for j, lb in enumerate(labels):
        if lb.side != "S" or lb.taut_rank != r or lb.bracket_twist or lb.wedge:
            raise ValueError(f"coordinates need plain ambient-side labels, got {lb}")
        tail = [x + lb.det_twist - k + r - i for i, x in enumerate((lb.schur + (0,) * r)[:r])]
        meets = {h: prod(h - t for t in tail) for h in range(d, 0, -1) if h not in tail}
        column = _vandermonde(tail)
        for head in combinations(meets, d - r):  # the h in {1..d} less T, decreasing
            i, row = rows[head]
            matrix[i][j] = row * column * prod(map(meets.__getitem__, head)) // rho
    return matrix


def o1_matrix(d: int, r: int) -> list[list[int]]:
    """Matrix of tensoring by O(1) on plain K-theory in the Kapranov basis: the
    window-0 coordinates of window 1's generators S^delta S^dual(1), with no
    staircase or solve.
    Window shifts act on plain K-theory as O(1), so it must equal the twist matrix:
    the independent check behind T M_cotwist = M_twist T.
    """
    return kapranov_coordinates(window_generators(d, r, 1), d, r, 0)
