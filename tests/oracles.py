"""Brute-force oracles kept independent of the library code paths, and the
helpers the test modules share: label and complex builders, an in-process
CLI runner and the sha256 digest of the pinned tables."""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import prod


def enumerate_ssyt(shape, n):
    """All semistandard fillings of shape with entries in 1..n."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    results = []

    def fill(pos, entries):
        if pos == len(cells):
            results.append(dict(entries))
            return
        i, j = cells[pos]
        lo = 1
        if j > 0:
            lo = max(lo, entries[(i, j - 1)])
        if i > 0:
            lo = max(lo, entries[(i - 1, j)] + 1)
        for v in range(lo, n + 1):
            entries[(i, j)] = v
            fill(pos + 1, entries)
            del entries[(i, j)]

    fill(0, {})
    return results


def ssyt_count(shape, n):
    return len(enumerate_ssyt(shape, n))


def schur_value_bruteforce(shape, xs):
    """Schur polynomial as a monomial sum over semistandard fillings."""
    total = Fraction(0)
    for filling in enumerate_ssyt(shape, len(xs)):
        term = Fraction(1)
        for v in filling.values():
            term *= xs[v - 1]
        total += term
    return total


def conjugate_by_cells(p):
    """Transpose of a partition: column j counts the rows longer than j."""
    return tuple(sum(1 for x in p if x > j) for j in range(p[0] if p else 0))


def is_horizontal_strip(outer, inner):
    """outer/inner is a horizontal strip: containment with at most one box
    per column, i.e. outer[i+1] <= inner[i]."""
    outer = tuple(outer)
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    if len(tuple(x for x in inner if x)) > len(outer):
        return False
    for i in range(len(outer)):
        if outer[i] < inner[i]:
            return False
        if i + 1 < len(outer) and outer[i + 1] > inner[i]:
            return False
    return True


def lr_coefficient_by_filling(lam, mu, nu):
    """The coefficient of s_nu in s_lam * s_mu, counted by filling the cells
    of nu/lam one at a time in reverse reading order (rows top to bottom,
    each right to left) with rows weakly increasing, columns strictly
    increasing, content mu and a ballot reading word."""
    if sum(lam) + sum(mu) != sum(nu) or len(lam) > len(nu) \
            or any(x > y for x, y in zip(lam, nu)):
        return 0
    if not mu:
        return 1
    cells = []
    lam_padded = tuple(lam) + (0,) * (len(nu) - len(lam))
    for i in range(len(nu)):
        for j in range(nu[i] - 1, lam_padded[i] - 1, -1):
            cells.append((i, j))
    nvals = len(mu)
    entry = {}
    counts = [0] * (nvals + 1)
    total = 0

    def place(pos):
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        i, j = cells[pos]
        upper = nvals
        if (i, j + 1) in entry:          # right neighbour, filled earlier
            upper = entry[(i, j + 1)]
        lower = 1
        if i > 0 and j >= lam_padded[i - 1]:  # cell above is a skew cell
            lower = entry[(i - 1, j)] + 1
        for v in range(lower, upper + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            counts[v] += 1
            entry[(i, j)] = v
            place(pos + 1)
            del entry[(i, j)]
            counts[v] -= 1

    place(0)
    return total


def partitions_of_size(n, h=None, w=None):
    """Partitions of n, height <= h and width <= w (default n), lexicographically descending."""
    from grwin.partitions import partitions_in_box
    box = partitions_in_box(n if w is None else w, n if h is None else h, n)
    return [p for p in box if sum(p) == n]


def schur_product_by_candidates(lam, mu, max_height):
    """s_lam * s_mu below max_height as (nu, c) items, lexicographically
    descending: every partition nu of |lam| + |mu| in the height/width box,
    kept when its filled LR coefficient is nonzero."""
    width = (lam[0] if lam else 0) + (mu[0] if mu else 0)
    items = []
    for nu in partitions_of_size(sum(lam) + sum(mu), max_height, width):
        c = lr_coefficient_by_filling(lam, mu, nu)
        if c:
            items.append((nu, c))
    return items


def dominant_sorters(alpha):
    """All permutations sending alpha + rho to a strictly decreasing vector."""
    from itertools import permutations
    r = len(alpha)
    shifted = [alpha[i] + r - i for i in range(r)]
    found = []
    for w in permutations(range(r)):
        moved = [shifted[w[i]] for i in range(r)]
        if all(moved[i] > moved[i + 1] for i in range(r - 1)):
            found.append(w)
    return found


def classify_bruteforce(alpha):
    """Bott's classification by an all-permutations scan for sorters of
    alpha + rho: None if there is none, else (inversion count of the one
    sorter, its twisted image of alpha)."""
    sorters = dominant_sorters(alpha)
    if not sorters:
        return None
    if len(sorters) != 1:
        raise AssertionError((alpha, sorters))
    w = sorters[0]
    r = len(w)
    length = sum(1 for i in range(r) for j in range(i + 1, r) if w[i] > w[j])
    moved = [alpha[w[i]] + r - w[i] for i in range(r)]
    return length, tuple(moved[i] - (r - i) for i in range(r))


def euler_characteristic_bruteforce(alpha):
    """Bott's Euler characteristic from the all-permutations classifier: 0 for
    a non-regular weight, else (-1)^length times the number of semistandard
    fillings of the dominant representative shifted to a partition."""
    cls = classify_bruteforce(alpha)
    if cls is None:
        return 0
    length, rep = cls
    return (-1) ** length * ssyt_count([x - rep[-1] for x in rep], len(rep))


def int_matmul(a, b):
    """Integer matrix product, so matrix identities need no inversion."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def solve_fraction_gauss_jordan(matrix, columns):
    """(det, solutions) of matrix * x = y for each column y, by Gauss-Jordan
    over Fractions with the first nonzero pivot; a singular matrix gives
    (0, [])."""
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
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            f = a[i][col]
            if i != col and f:
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det, [[a[i][n + j] for i in range(n)] for j in range(len(columns))]


def k_matrix_by_localization(which, d, r, params):
    """k_matrix by torus fixed points instead of the read-off: at each
    r-subset sigma of the distinct nonzero params, S^lam S^dual(t) takes the
    value s_lam(1/sigma) det(sigma)^-t; the target window's basis values B
    and the images' class values Y give the matrix X of B X = Y, solved over
    Fractions.  The basis is nonsingular there: its determinant is a power of
    the Vandermonde (test_basis_determinant_is_a_power_of_the_vandermonde)."""
    from grwin.autoequiv import cotwist_on_generator, twist_on_generator
    from grwin.windows import gamma_set, window_generators
    basis = [[(0, lb, 1)] for lb in window_generators(d, r, -1 if which == "cotwist" else 0)]
    if which == "identity":
        images = basis
    else:
        image = twist_on_generator if which == "twist" else cotwist_on_generator
        images = [list(image(delta, d, r).expand_multiplicities(d).items())
                  for delta in gamma_set(d, r)]
    points = list(combinations(map(Fraction, params), r))

    def values(items):
        return [sum(((-1) ** k * m * schur_value_bruteforce(lb.schur, [1 / t for t in sigma])
                     / prod(sigma) ** lb.det_twist for k, lb, m in items), Fraction(0))
                for sigma in points]

    det, columns = solve_fraction_gauss_jordan(list(zip(*map(values, basis))),
                                               list(map(values, images)))
    if not det:
        raise AssertionError(f"basis singular at parameters {params}")
    return [list(row) for row in zip(*columns)]


def euler_characteristic(weight):
    """Euler characteristic of the homogeneous bundle of a GL(n) weight on a
    flag variety, n = len(weight), by Bott: 0 for a non-regular weight, else
    (-1)^length times the Weyl dimension of the dominant representative."""
    from grwin.bott import classify
    from grwin.schur import schur_dimension
    if (cls := classify(weight)) is None:
        return 0
    length, rep = cls  # rep[-1], its lowest entry, is read only when rep has one
    return (-1) ** length * schur_dimension(tuple(x - rep[-1] for x in rep), len(rep))


def kapranov_coordinates_by_bott(labels, d, r, k):
    """kapranov_coordinates by Bott's route instead of the Weyl product: every
    entry of every row, singular weights included, is one `euler_characteristic`
    at (-beta'_{d-r}, ..., -beta'_1, gamma + t - k), signed by (-1)^|beta|."""
    from grwin.windows import gamma_set
    columns = []
    for lb in labels:
        gamma = lb.schur + (0,) * (r - len(lb.schur))
        columns.append(tuple(x + lb.det_twist - k for x in gamma))
    rows = []
    for beta in gamma_set(d, r):
        conj = conjugate_by_cells(beta)
        head = tuple(-(conj[j] if j < len(conj) else 0) for j in reversed(range(d - r)))
        rows.append([(-1) ** sum(beta) * euler_characteristic(head + tail) for tail in columns])
    return rows


def _sl_invariants_by_rectangles(lam, s, d):
    """dim of SL-invariants in S^lam V ⊗ wedge^s V: LR pairings against
    full m x d rectangles."""
    from grwin.schur import lr_coefficient
    total_boxes = sum(lam) + s
    if total_boxes % d:
        return 0
    m = total_boxes // d
    return lr_coefficient(lam, (1,) * s, (m,) * d)


def hom_dimension_by_enumeration(case, delta, d, r, D):
    """hom_invariant_dimension by its double-Cauchy expansion: every
    partition lam up to degree D is paired, most of them to zero.  The
    validation and its messages are the library's."""
    from grwin.partitions import (
        canonical, check_box, complement, partitions_in_box,
        resolution_terms, width,
    )
    from grwin.schur import lr_coefficient, schur_dimension
    delta = canonical(delta)
    check_box(d, r)
    if D < 0:
        raise ValueError("truncation degree must be >= 0")
    if case in ("self", "tautological"):
        top = r if case == "self" else r - 1
        if len(delta) > top:
            raise ValueError(f"height({delta}) must be <= {top}")
        # the corank-1 pairing matches the two expansion indices, the
        # ambient pairing then weights by dim S^lam V
        total = 0
        for lam in partitions_in_box(D, max(r - 1, 0), D):
            c = lr_coefficient(delta, lam, delta)
            if c:
                total += c * schur_dimension(lam, d)
        return total
    if case == "eta":
        if len(delta) >= r or width(delta) != d - r + 1:
            raise ValueError(
                f"{delta} must have height < {r} and width exactly {d - r + 1}")
        _, top, s_top = resolution_terms(delta, d, r)[-1]
        eps_top = complement(top, d - r + 1, r)
        rect = (d - r,) * (r - 1)
        total = 0
        for lam in partitions_in_box(D, r - 1, D):
            lam_hat = canonical(rect[i] + (lam[i] if i < len(lam) else 0)
                                for i in range(r - 1))
            pairing = lr_coefficient(delta, eps_top, lam_hat)
            if pairing:
                total += pairing * _sl_invariants_by_rectangles(lam, s_top, d)
        return total
    raise ValueError(f"unknown case {case!r}")


def canonical_by_rows(rows):
    """Row-by-row partition check: at each row, negative before increasing."""
    rows = tuple(int(x) for x in rows)
    for i, x in enumerate(rows):
        if x < 0:
            raise ValueError(f"negative row length in {rows}")
        if i > 0 and rows[i - 1] < x:
            raise ValueError(f"row lengths must be non-increasing: {rows}")
    while rows and rows[-1] == 0:
        rows = rows[:-1]
    return rows


def strip_first_row_and_column(delta):
    """delta less its first row and its first column."""
    return tuple(x - 1 for x in delta[1:] if x > 1)


def staircase_closed_form(seed, r, k):
    """Independent closed form for delta_k of the staircase: insert k below
    the rows taller than column k and add one box to every deeper row."""
    from grwin.partitions import canonical
    if len(seed) >= r:
        raise ValueError(f"seed height {len(seed)} must be < {r}")
    h_k = sum(1 for x in seed if x >= k)  # height of column k of the seed
    padded = seed + (0,) * (r - 1 - len(seed))
    return canonical(padded[:h_k] + (k,) + tuple(x + 1 for x in padded[h_k:]))


def epsilon_sequence(delta, d, r):
    """The complement diagrams eps_0..eps_K of the staircase of delta."""
    from grwin.partitions import complement, resolution_terms
    return [complement(dk, d - r + 1, r) for _, dk, _ in resolution_terms(delta, d, r)]


def jshriek_by_epsilon(delta, d, r):
    """The correspondence-stack complex as the paper writes it: term k is the
    non-dual Schur power of eps_k, through the rectangle complement at its
    own width, bracket-twisted by d-r, with wedge^{s_k}V, in degree K-k."""
    from grwin.bundles import GradedComplex, from_nondual
    from grwin.partitions import complement, resolution_terms
    K = d - r + 1
    items = []
    for k, dk, sk in resolution_terms(delta, d, r):
        eps = complement(dk, K, r)  # wedge^d V = det V is trivialized
        items.append((K - k, from_nondual(eps, r, bracket_twist=d - r,
                                          wedge=0 if sk == d else sk), 1))
    return GradedComplex.from_items(items)


def add_full_column(delta, r):
    """Add one column of height r on the left (each of the first r rows +1)."""
    from grwin.partitions import canonical
    if len(delta) > r:
        raise ValueError(f"height({delta}) exceeds column height {r}")
    padded = delta + (0,) * (r - len(delta))
    return canonical(x + 1 for x in padded)


def gamma_split(d, r):
    """Split the Kapranov index set by width: (< d-r, == d-r)."""
    from grwin.partitions import width
    from grwin.windows import gamma_set
    narrow = tuple(p for p in gamma_set(d, r) if width(p) < d - r)
    wide = tuple(p for p in gamma_set(d, r) if width(p) == d - r)
    return narrow, wide


def relabel_to_x(label):
    """Rename an H-side label to the ambient-stack alphabet (H -> S, <k> -> (k))."""
    if label.side != "H":
        raise ValueError("relabel_to_x expects an H-side label")
    return label._replace(side="S")


def pieri_filtration(gamma, rank_H):
    """Graded pieces (alpha, t) of a Schur power under a corank-1 sub-bundle.

    Pieces are pairs with gamma/alpha a horizontal strip of size t and
    height(alpha) <= rank_H; each occurs with multiplicity one.
    """
    from grwin.partitions import canonical
    if len(gamma) > rank_H + 1:
        raise ValueError(
            f"height({gamma}) exceeds {rank_H + 1}; no filtration of this shape")
    pieces = {}
    padded = gamma + (0,) * (rank_H + 1 - len(gamma))

    def rec(i, alpha):
        if i == rank_H:
            a = canonical(alpha)
            pieces[(a, sum(gamma) - sum(a))] = 1
            return
        lo, hi = padded[i + 1], padded[i]
        prev = alpha[-1] if alpha else None
        for x in range(lo, hi + 1):
            if prev is not None and x > prev:
                continue
            rec(i + 1, alpha + (x,))

    if rank_H == 0:
        pieces[((), sum(gamma))] = 1
    else:
        rec(0, ())
    return pieces


def pushdown_pi_bruteforce(gamma, d, r, locus="stack"):
    """The pushdown of S^gamma of the rank-r bundle to the corank-1 base,
    through the filtration: each determinant-power piece pushes down by
    the per-power rules."""
    from grwin.bundles import GradedComplex, from_nondual
    rank_h = r - 1
    items = []
    for (alpha, t), mult in pieri_filtration(gamma, rank_h).items():
        if t == 0:
            items.append((0, from_nondual(alpha, rank_h, side="H"), mult))
        elif locus == "open" and t == d - r + 1:
            # S^alpha H ⊗ det H^dual, in canonical dual form
            items.append((d - r, from_nondual(alpha, rank_h, side="H", extra_twist=1), mult))
        # all other powers push down to zero on their locus
    return GradedComplex.from_items(items)


def cauchy_truncated(d, r, D):
    """Character of the symmetric algebra on the tensor product of the two
    alphabets: the diagonal sum of s_lambda ⊗ s_lambda up to degree D."""
    from grwin.partitions import partitions_in_box
    if D < 0:
        raise ValueError("truncation degree must be >= 0")
    return {(lam, lam): 1 for lam in partitions_in_box(D, min(d, r), D)}


def euler_character_by_cauchy(delta, d, r, D, terms=None):
    """euler_character by the full Cauchy sum: every lambda of height <= r
    and |lambda| <= D is multiplied into every term, with no determinant
    translation.  The validation and its messages are the library's."""
    from grwin.partitions import canonical, check_box, resolution_terms
    from grwin.schur import _schur_product_items
    check_box(d, r)
    if terms is None:
        terms = resolution_terms(delta, d, r)
    else:
        terms = [(k, canonical(shape), s) for k, shape, s in terms]
        for k, _, s in terms:
            if not (isinstance(k, int) and isinstance(s, int) and min(k, s) >= 0):
                raise ValueError(f"override term needs int k, s >= 0: got {k!r}, {s!r}")
    cauchy = cauchy_truncated(d, r, D)
    # every shape is canonical and 0 < r <= d, so the products are read
    # straight from the cache that schur_product fills
    total = {}
    for k, shape, s in terms:
        if s > d:
            continue  # the exterior power vanishes
        sign = (-1) ** k
        column = (1,) * s
        for a, b in cauchy:  # each with coefficient 1
            if sum(a) + s > D:
                continue
            right = _schur_product_items(b, shape, r)
            for la, cl in _schur_product_items(a, column, d):
                for mb, cr in right:
                    new = total.pop((la, mb), 0) + sign * cl * cr
                    if new:
                        total[la, mb] = new
    return total


def staircase_faults(terms):
    """Faulty copies of a staircase's terms [(k, delta_k, s_k), ...]: for each
    term j >= 1, the term dropped, s_j - 1 (when that is >= 0), s_j + 1, and
    delta_j with one more row of length 1."""
    faults = []
    for j in range(1, len(terms)):
        head, (k, shape, s), tail = terms[:j], terms[j], terms[j + 1:]
        faults.append(head + tail)
        changed = [(k, shape, s - 1)] if s >= 1 else []
        changed += [(k, shape, s + 1), (k, shape + (1,), s)]
        faults.extend(head + [term] + tail for term in changed)
    return faults


def terms_at(cx, degree):
    """The terms of a GradedComplex in one degree as {label: mult}; {} if none."""
    return dict(dict(cx.terms).get(degree, ()))


def tensor_det(cx, m):
    """A GradedComplex tensored by the m-th power of the side determinant line."""
    from grwin.bundles import GradedComplex
    return GradedComplex.from_items(
        (degree, label._replace(det_twist=label.det_twist + m), mult)
        for degree, label, mult in cx.items())


def alternating_rank_sum(cx, d):
    """Sum of (-1)^degree * mult * rank over a GradedComplex's terms, dim V = d."""
    from grwin.bundles import rank
    return sum((-1) ** degree * mult * rank(label, d) for degree, label, mult in cx.items())


def label(schur, rank, twist, v=0, side="S", bracket=0):
    """BundleLabel with schur given as any sequence and v the s of its wedge^s V."""
    from grwin.bundles import BundleLabel
    return BundleLabel(tuple(schur), rank, twist, side, v, bracket)


def complex_of(*items):
    """GradedComplex of (degree, label, mult) items."""
    from grwin.bundles import GradedComplex
    return GradedComplex.from_items(items)


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process grwin.cli.main call."""
    from grwin import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(table):
    """sha256 of the compact JSON of a table: the form every pinned digest takes."""
    return hashlib.sha256(json.dumps(table, separators=(",", ":")).encode()).hexdigest()
