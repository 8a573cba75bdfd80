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

from .partitions import (canonical, check_box, complement, height, partitions_in_box,
                         resolution_terms, width)
from .schur import fits, gaps, lr_coefficient, lr_fillings

Key = tuple[tuple[int, ...], tuple[int, ...]]


def _checked(delta: tuple[int, ...], d: int, r: int, D: int, top: int | None) -> tuple[int, ...]:
    delta = canonical(delta)  # the library's one order: diagram, box, degree, height
    check_box(d, r)
    if D < 0:
        raise ValueError("truncation degree must be >= 0")
    if top is not None and height(delta) > top:
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
    on both sides.  Each term with s <= D builds two filling tables per call, (1^s)
    in d rows under the room every such lam leaves a vertical strip (1 down to row
    r, 0 below) and its shape less its c full columns in r rows, and a stencil per m
    for each class of cores whose gaps agree up to the largest need: the fitting
    left fillings times the fitting right ones merged by offset (a strip is its
    rows, so offsets are distinct).  A terms override supports tamper tests.
    """
    delta = _checked(delta, d, r, D, None)
    terms = (resolution_terms(delta, d, r) if terms is None
             else [(k, canonical(shape), s) for k, shape, s in terms])
    for k, _, s in terms:
        if not (isinstance(k, int) and isinstance(s, int) and s >= 0):
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
        p = q + (0,) * (r - len(q))
        cores[sum(q)].append((p, _code(p, digit) * (1 + (1 << digit * d)), gaps(p, r)))
    return digit, cores


def _code(p: tuple[int, ...], digit: int, row: int = 0) -> int:
    return sum(x << digit * (row + i) for i, x in enumerate(p))


def _decode(key: int, digit: int, d: int, r: int) -> Key:
    rows = [key >> digit * i & (1 << digit) - 1 for i in range(d + r)]
    return tuple(x for x in rows[:d] if x), tuple(x for x in rows[d:] if x)


def _euler_slices(terms: list, d: int, r: int, D: int, digit: int,
                  cores: list[list]) -> Iterator[dict[int, int]]:
    ones, plans, ahead = _code((1,) * r, digit), [], [{} for _ in range(D + 1)]
    step = ones * (1 + (1 << digit * d))
    for k, shape, s in terms:
        if s > D:
            continue  # every key of the term has ambient degree >= s
        c = shape[-1] if len(shape) == r else 0  # s_shape = (y_1...y_r)^c s_reduced
        left = [(needs, adds[r - 1], _code(adds, digit), (-1) ** k * n) for (needs, adds), n
                in lr_fillings((1,) * s, d, tuple(int(i <= r) for i in range(d))).items()]
        right = [(needs, _code(adds, digit, d) + (c * ones << digit * d), n) for (needs, adds), n
                 in lr_fillings(tuple(x - c for x in shape if x > c), r).items()]
        cap = max((x for needs, *_ in left + right for x in needs), default=0)
        plans.append((s, left, right, (cap,) * r, ({}, {})))  # stencils per m, by capped gaps
    for N in range(D + 1):
        total, ahead[N] = ahead[N], None
        for s, left, right, caps, stencils in plans:
            for m in range((N >= s) + (N >= s + r)):  # lam = core + (m^r), n >= 0
                for rows, base, room in cores[N - s - m * r]:
                    if (capped := tuple(map(min, room, caps))) not in stencils[m]:
                        stencils[m][capped] = _stencil(left, right, rows, m, d, step)
                    for offset, v in stencils[m][capped]:
                        total[base + offset] = total.get(base + offset, 0) + v
        for key, v in total.items() if N + r <= D else ():
            if v and key >> digit * (r - 1) & (1 << digit) - 1:  # alpha_r >= 1
                ahead[N + r][key + step] = v  # translated: alpha_r >= 2 in slice N + r
        yield total


def _stencil(left: list, right: list, rows: tuple[int, ...], m: int, d: int,
             step: int) -> list[tuple[int, int]]:
    """The (offset, coefficient) pairs of the left fillings that fit lam =
    rows + (m^r) in d rows with alpha_r < 2 and the right ones that fit rows."""
    lam_gaps, core_gaps = gaps(tuple(x + m for x in rows), d), gaps(rows, len(rows))
    fitting: dict[int, int] = {}
    for needs, b, cr in right:
        if fits(needs, core_gaps):
            fitting[b] = fitting.get(b, 0) + cr
    return [(a + m * step + b, cl * cr) for needs, top, a, cl in left
            if m + top < 2 and fits(needs, lam_gaps) for b, cr in fitting.items()]


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
        for _, base, room in bucket:
            for needs, b, n in table:
                if fits(needs, room):  # its first r - 1 gaps
                    part[base + b] = part.get(base + b, 0) + n
        yield part


def verify_exactness(delta: tuple[int, ...], d: int, r: int, D: int) -> bool:
    """Character oracle: the resolution is exact iff its Euler character
    equals the pushforward character coefficient for coefficient."""
    return not exactness_report(delta, d, r, D)


def exactness_report(delta: tuple[int, ...], d: int, r: int, D: int) -> list[tuple[Key, int, int]]:
    """The coefficients where the two characters differ, as (key, euler,
    pushforward) sorted by key: empty iff the resolution is exact."""
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
        if height(delta) >= r or width(delta) != d - r + 1:
            raise ValueError(f"{delta} must have height < {r} and width exactly {d - r + 1}")
        _, top, s_top = resolution_terms(delta, d, r)[-1]
        a = d - s_top
        if a > D:
            return 0
        lam_hat = canonical((d - r + 1,) * a + (d - r,) * (r - 1 - a))
        return lr_coefficient(delta, complement(top, d - r + 1, r), lam_hat)
    raise ValueError(f"unknown case {case!r}")
