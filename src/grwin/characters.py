"""Truncated two-alphabet symmetric-function arithmetic.

A character is a dict (lambda, mu) -> nonzero integer, the coefficient of
s_lambda ⊗ s_mu (lambda in d ambient letters, mu in r dual tautological ones)
up to total lambda-degree D, built one degree N = |lambda| at a time as slices
on integer keys, Euler keys with alpha_r >= 2 copied up (key + step).  The
oracle, exactness_report, compares slice by slice and decodes only the
differences; invariant Hom-space dimensions take closed forms.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations

from .partitions import (canonical, check_box, check_int, complement, partitions_in_box,
                         resolution_terms, width)
from .schur import fits, gaps, lr_coefficient, lr_fillings

Key = tuple[tuple[int, ...], tuple[int, ...]]


def _checked(delta: tuple[int, ...], d: int, r: int, D: int, top: int | None) -> tuple[int, ...]:
    delta = canonical(delta)  # the library's one order: diagram, box, degree, height
    check_box(d, r)
    check_int(D, "truncation degree", 0)
    if top is not None and len(delta) > top:
        raise ValueError(f"height({delta}) must be <= {top}")
    return delta


def euler_character(delta: tuple[int, ...], d: int, r: int, D: int,
                    terms: list[tuple[int, tuple[int, ...], int]] | None = None) -> dict[Key, int]:
    """Alternating character sum of the resolution's terms over the
    polynomial-ring character, truncated to ambient degree D.

    Lemma: for alpha_r >= 2, lam -> lam - (1^r) is a bijection from the lam
    with alpha/lam a vertical s-strip (all have lam_r >= 1) onto those of
    alpha - (1^r), and s_lam s_mu = (y_1...y_r) s_{lam - (1^r)} s_mu in r
    letters, so E[alpha, beta] = E[alpha - (1^r), beta - (1^r)] for any terms.
    Only lam = core + (m^r), height(core) < r, m <= 1 are summed: slice N takes each
    term with s <= N, each m and the cores of size N - s - m r, then copies its
    nonzero keys with alpha_r >= 1 into slice N + r as key + step, step coding (1^r)
    on both sides.  Each term with s <= D builds two tables per call: by Pieri's rule
    its vertical s-strips in d rows that fit every such lam (gap 1 down to row r, m
    at r, 0 below), m folded into their needs and offsets, and the LR fillings of its
    shape less its c full columns in r rows.  Cores of a size fall into classes whose
    gaps agree up to the term's largest need, each with one stencil per m: the fitting
    left strips times the fitting right fillings.  A terms override supports tamper tests.
    """
    delta = _checked(delta, d, r, D, None)
    terms = (resolution_terms(delta, d, r) if terms is None
             else [(k, canonical(shape), s) for k, shape, s in terms])
    for k, _, s in terms:
        if not (isinstance(k, int) and isinstance(s, int) and min(k, s) >= 0):
            raise ValueError(f"override term needs int k, s >= 0: got {k!r}, {s!r}")
    digit, cores = _cores(d, r, D, [shape for _, shape, _ in terms])
    return {_decode(key, digit, d, r): v for part in _euler_slices(terms, d, r, D, digit, cores)
            for key, v in part.items() if v}


def _cores(d: int, r: int, D: int, shapes: list[tuple[int, ...]]) -> tuple[int, list[list]]:
    """Bits per digit of a key, alpha's d rows then beta's r, so that offsets add without
    carry (|alpha| <= D, beta_1 <= D + shape_1 + 1 or D + delta_1); the cores by size."""
    digit = (D + 1 + max((shape[0] for shape in shapes if shape), default=0)).bit_length()
    cores: list[list] = [[] for _ in range(D + 1)]
    for q in partitions_in_box(D, r - 1, D):
        cores[sum(q)].append((_code(q, digit) * (1 + (1 << digit * d)), gaps(q, r)))
    return digit, cores


def _code(p: tuple[int, ...], digit: int, row: int = 0) -> int:
    return sum(x << digit * (row + i) for i, x in enumerate(p) if x)  # zero rows add nothing


def _decode(key: int, digit: int, d: int, r: int) -> Key:
    rows = [key >> digit * i & (1 << digit) - 1 for i in range(d + r)]
    return tuple(x for x in rows[:d] if x), tuple(x for x in rows[d:] if x)


def _strips(s: int, d: int, r: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """lr_fillings((1,) * s, d, room) for the room 1 down to row r, 0 below, by Pieri's rule:
    vertical s-strips on rows 0..min(r, d - 1), one holding row r running on below it."""
    subsets = list(combinations(range(min(r + 1, d)), s))
    for t in range(max(s + r + 1 - d, 1), s):  # t rows up to r, r among them, s - t below
        subsets += [c + tuple(range(r, r + 1 + s - t)) for c in combinations(range(r), t - 1)]
    return [((0,) + tuple(int(a > b) for a, b in zip(adds[1:], adds)), adds)
            for adds in (tuple(int(i in rows) for i in range(d)) for rows in subsets)]


def _euler_slices(terms: list, d: int, r: int, D: int, digit: int,
                  cores: list[list]) -> Iterator[dict[int, int]]:
    ones, plans, ahead, classes = _code((1,) * r, digit), [], [{} for _ in range(D + 1)], {}
    step = ones * (1 + (1 << digit * d))
    for k, shape, s in terms:
        if s > D:
            continue  # every key of the term has ambient degree >= s
        c = shape[-1] if len(shape) == r else 0  # s_shape = (y_1...y_r)^c s_reduced
        strips = _strips(s, d, r)  # lam = core + (m^r): gap m at row r, 0 below, lam_r = m
        lefts = [[(needs[:r], _code(adds, digit) + m * step, (-1) ** k) for needs, adds in strips
                  if sum(needs[r:]) <= m and adds[r - 1] + m < 2] for m in (0, 1)]
        right = [(needs, _code(adds, digit, d) + (c * ones << digit * d), n) for (needs, adds), n
                 in lr_fillings(tuple(x - c for x in shape if x > c), r).items()]
        cap = max((x for needs, *_ in lefts[0] + lefts[1] + right for x in needs), default=0)
        plans.append((s, lefts, right, (cap,) * r, {}))  # stencils by capped gaps, per m
    for N in range(D + 1):
        total, ahead[N] = ahead[N], None
        for s, lefts, right, caps, stencils in plans:
            for m in range((N >= s) + (N >= s + r)):  # lam = core + (m^r), n >= 0
                if (caps, n := N - s - m * r) not in classes:  # cores of size n by capped gaps
                    classes[caps, n] = {}
                    for base, room in cores[n]:
                        classes[caps, n].setdefault(tuple(map(min, room, caps)), []).append(base)
                for capped, bases in classes[caps, n].items():
                    if capped not in stencils:
                        stencils[capped] = _stencil(lefts, right, capped)
                    for base in bases:
                        for offset, v in stencils[capped][m]:
                            total[key] = total.get(key := base + offset, 0) + v  # binds key first
        for key, v in total.items() if N + r <= D else ():
            if v and key >> digit * (r - 1) & (1 << digit) - 1:  # alpha_r >= 1
                ahead[N + r][key + step] = v  # translated: alpha_r >= 2 in slice N + r
        yield total


def _stencil(lefts: list, right: list, room: tuple[int, ...]) -> list[list[tuple[int, int]]]:
    """Per m, the (offset, coefficient) pairs of the left strips and the right fillings
    whose needs fit a class of cores' room, their gaps capped at the largest need."""
    fitting: dict[int, int] = {}
    for needs, b, cr in right:
        if fits(needs, room):
            fitting[b] = fitting.get(b, 0) + cr
    return [[(a + b, cl * cr) for needs, a, cl in left if fits(needs, room)
             for b, cr in fitting.items()] for left in lefts]


def pushforward_character(delta: tuple[int, ...], d: int, r: int, D: int) -> dict[Key, int]:
    """Character of the torsion pushforward: sum over both alphabets of
    LR products of delta against the corank-1 side, heights <= r-1."""
    delta = _checked(delta, d, r, D, r - 1)
    digit, cores = _cores(d, r, D, [delta])
    return {_decode(key, digit, d, r): v for part in _pushforward_slices(delta, d, r, digit, cores)
            for key, v in part.items()}


def _pushforward_slices(delta: tuple[int, ...], d: int, r: int, digit: int,
                        cores: list[list]) -> Iterator[dict[int, int]]:
    # slice N: delta's table in r - 1 rows on each core of size N, added on beta's side
    table = [(needs, _code(adds, digit, d), n)
             for (needs, adds), n in lr_fillings(delta, r - 1).items()]
    for bucket in cores:
        part: dict[int, int] = {}
        for base, room in bucket:
            for needs, b, n in table:
                if fits(needs, room):  # its first r - 1 gaps
                    part[base + b] = part.get(base + b, 0) + n
        yield part


def verify_exactness(delta: tuple[int, ...], d: int, r: int, D: int) -> bool:
    """Character oracle: whether the Euler and pushforward characters agree up to degree
    D.  Every exact resolution passes, but a pass alone does not prove exactness."""
    return not exactness_report(delta, d, r, D)


def exactness_report(delta: tuple[int, ...], d: int, r: int, D: int) -> list[tuple[Key, int, int]]:
    """The coefficients where the two characters differ, as (key, euler,
    pushforward) sorted by key: empty for every exact resolution, and perhaps for others."""
    delta = _checked(delta, d, r, D, None)
    terms = resolution_terms(delta, d, r)  # (0, delta, 0) first; refuses a height >= r
    (digit, cores), diffs = _cores(d, r, D, [shape for _, shape, _ in terms]), []
    for euler, push in zip(_euler_slices(terms, d, r, D, digit, cores),
                           _pushforward_slices(delta, d, r, digit, cores)):
        diffs += [(key, v, push.get(key, 0)) for key, v in euler.items() if v != push.get(key, 0)]
        diffs += [(key, 0, w) for key, w in push.items() if key not in euler]
    return sorted((_decode(key, digit, d, r), v, w) for key, v, w in diffs)


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
    top = {"self": r, "tautological": r - 1}.get(case)
    delta = _checked(delta, d, r, D, top)
    if top is not None:
        return 1
    if case == "eta":
        if len(delta) >= r or width(delta) != d - r + 1:
            raise ValueError(f"{delta} must have height < {r} and width exactly {d - r + 1}")
        _, top, s_top = resolution_terms(delta, d, r)[-1]
        a = d - s_top
        if a > D:
            return 0
        lam_hat = canonical((d - r + 1,) * a + (d - r,) * (r - 1 - a))
        return lr_coefficient(delta, complement(top, d - r + 1, r), lam_hat)
    raise ValueError(f"unknown case {case!r}")
