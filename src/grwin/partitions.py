"""Young diagram arithmetic: complements, staircases.

Partitions are plain tuples of non-increasing positive integers (trailing
zeros trimmed).  All functions treat them as immutable values.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import ge


def canonical(rows: Iterable[int]) -> tuple[int, ...]:
    """Validate and canonicalize a row-length sequence.

    Raises ValueError on a row that is not an integer, is negative or increases.
    """
    rows = tuple(rows)
    if type(sum(rows)) is not int:  # a float, Fraction or NumPy row: convert if integral
        given, rows = rows, tuple(map(int, rows))
        if rows != given:
            bad = next(x for x, n in zip(given, rows) if x != n)
            raise ValueError(f"row length {bad!r} is not an integer")
    if not all(map(ge, rows, rows[1:] + (0,))):  # each row >= the next, the last >= 0
        for i, x in enumerate(rows):
            if x < 0:
                raise ValueError(f"negative row length in {rows}")
            if i and rows[i - 1] < x:
                raise ValueError(f"row lengths must be non-increasing: {rows}")
    return rows[:len(rows) - rows.count(0)]


def width(p: tuple[int, ...]) -> int:
    return p[0] if p else 0


def conjugate(p: tuple[int, ...]) -> tuple[int, ...]:
    # the columns p[i] <= j < p[i-1] are exactly i rows tall (p[len(p)] = 0)
    out: tuple[int, ...] = ()
    shorter = 0
    for i in range(len(p), 0, -1):
        out += (i,) * (p[i - 1] - shorter)
        shorter = p[i - 1]
    return out


def check_box(d: int, r: int, strict: bool = False) -> None:
    """Validate a (d, r) pair of ints: 0 < r <= d, or 0 < r < d when strict."""
    if type(d) is not int or type(r) is not int:  # bool and integral floats too
        raise ValueError(f"d and r must be ints, got d={d!r}, r={r!r}")
    if not 0 < r <= (d - 1 if strict else d):
        raise ValueError(f"need 0 < r {'<' if strict else '<='} d, got r={r}, d={d}")


def check_int(value: int, what: str, low: int | None = None) -> None:
    """Validate a scalar named what: an int, and at least low when low is given."""
    if type(value) is not int:  # bool and integral floats too
        raise ValueError(f"{what} must be an int, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{what} must be >= {low}")


def complement(gamma: tuple[int, ...], w: int, h: int) -> tuple[int, ...]:
    """180-degree rotated complement of gamma inside the w x h rectangle."""
    gamma = canonical(gamma)
    check_int(w, "w")
    check_int(h, "h")
    if len(gamma) > h or width(gamma) > w:
        raise ValueError(f"{gamma} does not fit in a {w}x{h} rectangle")
    padded = gamma + (0,) * (h - len(gamma))
    return canonical(w - padded[h - 1 - i] for i in range(h))


def staircase(seed: tuple[int, ...], r: int,
              K: int) -> list[tuple[int, tuple[int, ...], int]]:
    """The column-filling procedure as (k, delta_k, s_k) for k = 0..K,
    starting from (0, seed, 0).

    Step 1 fills column 1 to height r; step k fills column k to one more
    than the height of column k-1 of the seed.  s_k is the total number of
    boxes added after step k.
    """
    seed = canonical(seed)
    check_int(r, "r")
    if len(seed) >= r:
        raise ValueError(f"seed height {len(seed)} must be < {r}")
    check_int(K, "step count", 1)
    # r rows hold the walk: no later target exceeds height(seed) + 1, and
    # once step 1 has filled column 1 no row is empty, so none is trimmed;
    # raising a prefix to at least k keeps the rows non-increasing
    rows = list(seed) + [0] * (r - len(seed))
    steps = [(0, seed, 0)]
    for k in range(1, K + 1):
        target = r if k == 1 else sum(1 for x in seed if x >= k - 1) + 1
        for i in range(target):
            rows[i] = max(rows[i], k)
        steps.append((k, tuple(rows), sum(rows) - sum(seed)))
    return steps


def resolution_terms(delta: tuple[int, ...], d: int,
                     r: int) -> list[tuple[int, tuple[int, ...], int]]:
    """(k, delta_k, s_k) for k = 0..K with K = d-r+1: the staircase walk
    behind every resolution built from a seed diagram.  s_k rises with k to
    s_K = d - #{rows of delta of width K} <= d: no wedge^{s_k}V vanishes."""
    delta = canonical(delta)
    check_box(d, r)
    if width(delta) > d - r + 1:
        raise ValueError(f"width({delta}) must be <= {d - r + 1}")
    return staircase(delta, r, d - r + 1)


def partitions_in_box(w: int, h: int, max_size: int | None = None) -> list[tuple[int, ...]]:
    """All partitions with width <= w, height <= h and at most max_size
    boxes (default w*h), each prefix before its extensions, larger next
    rows first."""
    if max_size is None:
        max_size = w * h
    for what, bound in (("w", w), ("h", h), ("max_size", max_size)):
        check_int(bound, what)
    if min(w, h, max_size) < 0:
        raise ValueError(f"partition bounds must be >= 0, got w={w}, h={h}, max_size={max_size}")
    out: list[tuple[int, ...]] = []
    stack: list[tuple[tuple[int, ...], int]] = [((), max_size)]  # (prefix, boxes left)
    while stack:
        prefix, room = stack.pop()
        out.append(prefix)
        if len(prefix) < h:
            top = min(prefix[-1] if prefix else w, room)
            stack.extend([(prefix + (x,), room - x) for x in range(1, top + 1)])
    return out
