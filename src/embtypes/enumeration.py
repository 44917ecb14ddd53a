"""Exhaustive enumeration and counting of embedding data."""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from operator import sub
from typing import Iterator

from .cyclic import _ints
from .embedding import EmbeddingDatum, _datum


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Non-negative integer vectors of the given length and sum.

    Ascending lexicographic order on the vectors; no parts give the
    empty vector when the total is 0 and nothing otherwise.  Stars and
    bars: the cuts 0 <= c_1 <= ... <= c_{parts-1} <= total give the
    vector (c_1, c_2 - c_1, ..., total - c_{parts-1}), and itertools
    yields the cuts in ascending lexicographic order, hence the vectors
    too (Knuth, TAOCP 7.2.1.3).  One part has one empty cut: (total,).
    """
    if not parts:
        if total == 0:
            yield ()
        return
    end = (total,)
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + end, (0,) + cuts))


def enumerate_data(f: int, r: int, m: int, head: int | None = None) -> Iterator[EmbeddingDatum]:
    """Every datum of M(f, r; m) once, ascending in the flattened matrix.

    With head, only the shard of data whose first flattened entry is
    head (0 <= head <= m); the shards for head = 0, ..., m, in turn, are
    the whole set in the same order.  Empty when r > m, since each of
    the r columns needs a positive entry.  Every datum is valid by
    construction, so none goes through make_datum.
    """
    _ints((f, r, m), "f, r and m must be positive integers", 1)
    message = "head must be an integer in 0..m"
    if head is not None and _ints((head,), message, 0)[0] > m:
        raise ValueError(message)
    for h in range(m + 1) if head is None else (head,):
        for v in _shard(f, r, m, h):
            yield _datum(f, r, m, v)


def _shard(f: int, r: int, m: int, head: int) -> Iterator[tuple[int, ...]]:
    """The flattenings of the shard (f, r, m, head) of enumerate_data, in order; column j is v[j::r]."""
    for tail in _weak_compositions(m - head, f * r - 1):
        v = (head,) + tail
        if all([any(v[j::r]) for j in range(r)]):
            yield v


def count_data(f: int, r: int, m: int) -> int:
    """Size of M(f, r; m), by inclusion and exclusion over empty columns."""
    _ints((f, r, m), "f, r and m must be positive integers", 1)
    total = 0
    for j in range(r + 1):
        parts = f * (r - j)
        ways = comb(m + parts - 1, m) if parts else 0
        total += (-1 if j % 2 else 1) * comb(r, j) * ways
    return total
