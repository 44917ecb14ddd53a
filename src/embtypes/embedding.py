"""Embedding data: multiplicity matrices with positive columns.

An embedding datum is an f x r matrix of non-negative integers summing
to m in which every column has a positive entry.  Two data are the same
embedding type when their row-major flattenings are rotations of each
other.  The skeleton records the column sums and the row level of each
of the m units in column-major order.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .cyclic import _ints, classes_equal, flatten, make_matrix


class EmbeddingDatum(NamedTuple):
    """f x r multiplicity matrix with entry sum m and positive columns."""

    f: int
    r: int
    m: int
    rows: tuple[tuple[int, ...], ...]


def make_datum(rows: Sequence[Sequence[int]], f: int, r: int, m: int) -> EmbeddingDatum:
    """Validated embedding datum; f, r, m and the entries must be integers."""
    _ints((f, r, m), "f, r and m must be positive integers", 1)
    mat = make_matrix(rows)
    if len(mat) != f or len(mat[0]) != r:
        raise ValueError(f"expected a {f}x{r} matrix, got {len(mat)}x{len(mat[0])}")
    total = sum(sum(row) for row in mat)
    if total != m:
        raise ValueError(f"size mismatch: entries sum to {total}, not {m}")
    for j in range(r):
        if all(row[j] == 0 for row in mat):
            raise ValueError(f"invalid embedding datum: column {j} is zero")
    return EmbeddingDatum(f, r, m, mat)


def data_equivalent(a: EmbeddingDatum, b: EmbeddingDatum) -> bool:
    """Same embedding type: flattenings agree up to rotation."""
    if (a.f, a.r, a.m) != (b.f, b.r, b.m):
        return False
    return classes_equal(flatten(a.rows), flatten(b.rows))


class PearlSkeleton(NamedTuple):
    """Column sums and the row level of each unit, column-major."""

    partition: tuple[int, ...]
    levels: tuple[int, ...]


def _datum(f: int, r: int, m: int, v: Sequence[int]) -> EmbeddingDatum:
    """The datum whose row-major flattening is v, cut into rows of r; no checks."""
    return EmbeddingDatum(f, r, m, tuple(zip(*[iter(v)] * r)))


def _vector(datum: EmbeddingDatum) -> tuple[int, ...]:
    """flatten(datum.rows), once the rows are checked to form the f x r matrix strided columns need."""
    rows = datum.rows
    if len(rows) != datum.f or set(map(len, rows)) != {datum.r}:
        raise ValueError(f"expected a {datum.f}x{datum.r} matrix")
    return flatten(rows)


def skeleton(datum: EmbeddingDatum) -> PearlSkeleton:
    """Partition and levels of the datum.

    Column j contributes its sum to the partition and, scanning its
    rows upward, repeats level i exactly rows[i][j] times.
    """
    return PearlSkeleton(*_skeleton(datum.r, _vector(datum)))


def _skeleton(r: int, v: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(partition, levels) of the flat vector v of a matrix with r columns; column j is v[j::r]."""
    partition = []
    levels = []
    for j in range(r):
        col = v[j::r]
        partition.append(sum(col))
        for i, x in enumerate(col):
            if x:
                levels += [i] * x
    return tuple(partition), tuple(levels)


def datum_to_json(datum: EmbeddingDatum) -> dict:
    """Wire form {f, r, m, rows}."""
    return {"f": datum.f, "r": datum.r, "m": datum.m, "rows": [list(r) for r in datum.rows]}


def datum_from_json(obj: dict) -> EmbeddingDatum:
    """Datum from its wire form, an object with exactly the keys f, r, m and rows; make_datum checks every field."""
    keys = ("f", "r", "m", "rows")
    if not isinstance(obj, dict):
        raise ValueError("a datum must be a JSON object with the keys f, r, m and rows")
    wrong = [f"missing key {k!r}" for k in keys if k not in obj] + [f"unknown key {k!r}" for k in obj if k not in keys]
    if wrong:
        raise ValueError("datum: " + ", ".join(wrong))
    return make_datum(obj["rows"], obj["f"], obj["r"], obj["m"])
