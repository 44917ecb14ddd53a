"""Exhaustive enumeration and counting of embedding data."""

from __future__ import annotations

from math import comb
from typing import Iterator

from .embedding import EmbeddingDatum


def _weak_compositions(total: int, parts: int) -> Iterator[list[int]]:
    """Non-negative integer vectors of the given length and sum.

    Ascending lexicographic order on the vectors; no parts give the
    empty vector when the total is 0 and nothing otherwise.
    """
    if parts <= 1:
        # one part takes the whole total; no parts hold only a total of 0
        if parts == 1 or total == 0:
            yield [total] * parts
        return
    for head in range(total + 1):
        for tail in _weak_compositions(total - head, parts - 1):
            yield [head] + tail


def enumerate_data(f: int, r: int, m: int, head: int | None = None) -> Iterator[EmbeddingDatum]:
    """Every datum of M(f, r; m) once, ascending in the flattened matrix.

    With head, only the shard of data whose first flattened entry is
    head (0 <= head <= m); the shards for head = 0, ..., m, in turn, are
    the whole set in the same order.  Empty when r > m, since each of
    the r columns needs a positive entry.  The compositions and the
    zero-column filter already make every datum valid, so none goes
    through make_datum.
    """
    if f < 1 or r < 1 or m < 1:
        raise ValueError("f, r and m must be positive")
    if head is not None and not 0 <= head <= m:
        raise ValueError("head must lie in 0..m")
    n = f * r
    for h in range(m + 1) if head is None else (head,):
        for tail in _weak_compositions(m - h, n - 1):
            flat = [h] + tail
            if any(not any(flat[j::r]) for j in range(r)):
                continue
            yield EmbeddingDatum(f, r, m, tuple(tuple(flat[i * r : (i + 1) * r]) for i in range(f)))


def count_data(f: int, r: int, m: int) -> int:
    """Size of M(f, r; m), by inclusion and exclusion over empty columns."""
    if f < 1 or r < 1 or m < 1:
        raise ValueError("f, r and m must be positive")
    total = 0
    for j in range(r + 1):
        parts = f * (r - j)
        ways = comb(m + parts - 1, m) if parts else 0
        total += (-1 if j % 2 else 1) * comb(r, j) * ways
    return total
