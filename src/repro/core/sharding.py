"""Contiguous corpus sharding for the shard-parallel index builds.

Lives in the fusion tier, below the index, so both builders
(:mod:`repro.index.inverted` and :mod:`repro.index.segbuild`) import
it without an upward dependency.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TypeVar

_T = TypeVar("_T")


def split_shards(items: Sequence[_T], n: int) -> list[list[_T]]:
    """Contiguous shards of near-equal size, preserving order.

    Contiguous splits keep corpus order within and across shards, which
    the bit-identical merge contracts of the shard-parallel index
    builds rely on.
    """
    if n < 1:
        raise ValueError("shard count must be >= 1")
    size = (len(items) + n - 1) // n
    return [list(items[i : i + size]) for i in range(0, len(items), size)]
