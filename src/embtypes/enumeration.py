"""Exhaustive enumeration and counting of embedding data and of their rotation classes."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, gcd
from operator import add, sub
from typing import Iterator

from .cyclic import _ints
from .embedding import EmbeddingDatum, _datum


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Non-negative integer vectors of the given length (parts >= 1) and sum.

    Ascending lexicographic order on the vectors.  Stars and bars: the
    cuts 0 <= c_1 <= ... <= c_{parts-1} <= total give the vector
    (c_1, c_2 - c_1, ..., total - c_{parts-1}), and itertools yields the
    cuts in ascending lexicographic order, hence the vectors too (Knuth,
    TAOCP 7.2.1.3).  One part has one empty cut: (total,).
    """
    end = (total,)
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + end, (0,) + cuts))


def enumerate_data(f: int, r: int, m: int) -> Iterator[EmbeddingDatum]:
    """Every datum of M(f, r; m) once, ascending in the flattened matrix v; column j is v[j::r].

    Only valid vectors are built, by one construction, so none goes
    through make_datum.  A weak composition of m into (f - 1) * r + 1
    parts (so parts >= 1) gives the prefix, every row but the last, and
    as its last part the slack s of the last row.  The last row puts a
    unit in each column the prefix leaves empty (need), so it is need
    plus a weak composition of s - sum(need) into r parts, and a prefix
    whose need passes s gives nothing.  With one row the prefix is empty
    and every column needs a unit, so nothing comes when r > m.  Each
    prefix comes once, ascending, and adding the fixed vector need keeps
    the order of the last rows, so the vectors come out ascending.
    """
    _ints((f, r, m), "f, r and m must be positive integers", 1)
    for comp in _weak_compositions(m, (f - 1) * r + 1):
        prefix = comp[:-1]
        need = [0 if any(prefix[j::r]) else 1 for j in range(r)]
        short = sum(need)
        if short > comp[-1]:
            continue
        rows = _last_rows(comp[-1] - short, r)
        if short:
            for row in rows:
                yield _datum(f, r, m, prefix + tuple(map(add, row, need)))
        else:
            for row in rows:
                yield _datum(f, r, m, prefix + row)


@lru_cache(maxsize=None)
def _last_rows(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """The weak compositions of total into parts, kept for the next prefix that needs them."""
    return tuple(_weak_compositions(total, parts))


def _necklaces(f: int, r: int, m: int, z: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(v, p) for each necklace v of M(f, r; m) with exactly z leading zeros, ascending; p is its least period.

    A necklace is the least rotation of its class, whose p members are
    the rotations v[k:] + v[:k] for k < p.  It starts with its longest
    run of zeros, so z = 0 when every entry is positive.  Rotating v
    permutes its column sums, as r divides f * r, so having no zero
    column is a property of the class.

    Iterative FKM (Ruskey, Savage & Wang, J. Algorithms 13, 1992) over
    the prenecklaces in ascending order, pruned by the sum: a prefix of
    period q extends by copying a[j - q], or by a raise above it, which
    makes the prefix a Lyndon word of period j + 1.  The walk copies
    while the sum allows; where a copy would pass m, no extension of the
    prefix can stay within it, so the next prenecklace raises the last
    entry before that point whose raise keeps the sum within m.  The sum
    sets the last entry, a prenecklace when it is at least its copy, and
    a prenecklace whose period divides f * r is a necklace.
    """
    n = f * r
    a = [0] * n
    s = [0] * n  # s[k] = sum(a[:k]) on the filled prefix a[:j]
    j, q, total = z, 1, 0  # a[:j] is a prenecklace of period q and sum total
    if z < n - 1:  # the first raise ends the leading zeros; at n - 1 the sum sets the last entry
        a[z], j, q, total = 1, z + 1, z + 1, 1
    while True:
        while j < n - 1:
            s[j] = total
            c = a[j - q]
            if total + c > m:
                break
            a[j] = c
            total += c
            j += 1
        else:
            s[j] = total
            x, c = m - total, a[j - q]
            if x >= c:
                a[j] = x
                p = q if x == c else n
                if not n % p and all(any(a[k::r]) for k in range(r)):
                    yield tuple(a), p
        i = j - 1
        while i >= z and s[i + 1] >= m:
            i -= 1
        if i < z:
            return
        a[i] += 1
        j = q = i + 1
        total = s[j] + 1


def _class_count(f: int, r: int, m: int) -> int:
    """Number of rotation classes of the flattenings of M(f, r; m), by Burnside's lemma.

    With n = f * r, the phi(n / g) rotations of gcd g with n fix the
    vectors that repeat a block of length g, n / g times; they exist
    when n / g divides m, and the block sums to m * g / n.  Column j of
    such a vector meets the block in the positions congruent to j mod
    c = gcd(g, r), so the vector is a datum when the block, cut into
    rows of c, has no zero column: count_data(g / c, c, m * g / n)
    blocks.
    """
    n = f * r
    total = 0
    for g in range(1, n + 1):
        if n % g or m % (n // g):
            continue
        c = gcd(g, r)
        phi = sum(gcd(k, n // g) == 1 for k in range(n // g))
        total += phi * count_data(g // c, c, m * g // n)
    return total // n


def count_data(f: int, r: int, m: int) -> int:
    """Size of M(f, r; m), by inclusion and exclusion over empty columns."""
    _ints((f, r, m), "f, r and m must be positive integers", 1)
    total = 0
    for j in range(r + 1):
        parts = f * (r - j)
        ways = comb(m + parts - 1, m) if parts else 0
        total += (-1 if j % 2 else 1) * comb(r, j) * ways
    return total
