"""Kapranov index sets and window generator enumeration."""

from __future__ import annotations

from functools import cache

from .bundles import BundleLabel, _folded
from .partitions import check_box, partitions_in_box, size


@cache
def gamma_set(d: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Partitions in the (d-r) x r box, in Kapranov's order.

    Ordered by size, then first-row-major within each size, so the list
    starts O, dual-taut, Sym^2, ... as in the rank-2 collection.
    """
    check_box(d, r)
    box = partitions_in_box(d - r, r)
    return tuple(sorted(box, key=lambda p: (size(p), tuple(-x for x in p))))


def window_generators(d: int, r: int, k: int) -> list[BundleLabel]:
    """Normalized labels of the k-th window's generating bundles."""
    check_box(d, r, strict=True)
    if type(k) is not int:
        raise ValueError(f"window index must be an int, got {k!r}")
    return [_folded(delta, k, r) for delta in gamma_set(d, r)]

