"""Kapranov index sets and window generator enumeration."""

from __future__ import annotations

from functools import lru_cache

from .bundles import BundleLabel, _folded
from .partitions import check_box, check_int, partitions_in_box


@lru_cache(maxsize=None, typed=True)  # typed: d = 4.0 or True is refused, not a hit
def gamma_set(d: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Partitions in the (d-r) x r box, in Kapranov's order.

    Ordered by size, then first-row-major within each size, so the list
    starts O, dual-taut, Sym^2, ... as in the rank-2 collection.
    """
    check_box(d, r)
    box = partitions_in_box(d - r, r)
    return tuple(sorted(box, key=lambda p: (sum(p), tuple(-x for x in p))))


def window_generators(d: int, r: int, k: int) -> list[BundleLabel]:
    """Normalized labels of the k-th window's generating bundles."""
    check_box(d, r, strict=True)
    check_int(k, "window index")
    return [_folded(delta, k, r) for delta in gamma_set(d, r)]

