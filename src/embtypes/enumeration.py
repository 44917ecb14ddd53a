"""Exhaustive enumeration and counting of embedding data."""

from __future__ import annotations

from math import comb
from typing import Iterator

from .embedding import EmbeddingDatum


def _weak_compositions(total: int, parts: int) -> Iterator[list[int]]:
    """Non-negative integer vectors of the given length and sum.

    Ascending lexicographic order on the vectors.
    """
    if parts == 1:
        yield [total]
        return
    for head in range(total + 1):
        for tail in _weak_compositions(total - head, parts - 1):
            yield [head] + tail


def enumerate_data(f: int, r: int, m: int) -> Iterator[EmbeddingDatum]:
    """Every datum of M(f, r; m) once, ascending in the flattened matrix.

    Empty when r > m, since each of the r columns needs a positive
    entry.  The compositions and the zero-column filter already make
    every datum valid, so none goes through make_datum.
    """
    if f < 1 or r < 1 or m < 1:
        raise ValueError("f, r and m must be positive")
    for flat in _weak_compositions(m, f * r):
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
