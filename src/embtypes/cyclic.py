"""Cyclic classes of integer vectors and the complement operation.

A vector of non-negative integers is considered up to cyclic rotation.
This module fixes a canonical rotation for each class, converts a class
to and from its pairs form (the nonzero values together with the gaps
separating them), and implements the complement, which swaps values
with gaps and exchanges classes of length s summing to t with classes
of length t summing to s.  Matrices enter through their row-major
flattening; reshape cuts a class back into a matrix with no zero
column.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

Vec = tuple[int, ...]
Matrix = tuple[Vec, ...]

_only_int = {int}.issuperset


def _ints(values: Iterable, message: str, least: int | None = None) -> tuple:
    """values as a tuple of entries of type int exactly, each >= least if given.

    Bools, floats and strings raise ValueError(message), never convert.  least
    is tested once, on the minimum, so each entry costs one type lookup.
    """
    v = tuple(values)
    if not _only_int(map(type, v)) or least is not None and v and min(v) < least:
        raise ValueError(message)
    return v


def rotate(entries: Sequence[int], k: int) -> Vec:
    """Left rotation by k places: (v_k, v_{k+1}, ..., v_{k-1}); entries and k of type int exactly."""
    v = _ints(entries, "entries must be integers")
    _ints((k,), "k must be an integer")
    if not v:
        raise ValueError("empty vector")
    k %= len(v)
    return v[k:] + v[:k]


def _least_rotation(items: tuple) -> tuple:
    """Lexicographically least rotation of a nonempty tuple; no validation.

    A least rotation starts a maximal run of the least entry, so only
    those starts are tried: a start inside a run is never least, since
    the rotation from the run's start has more leading minima.  The
    tuple itself is the first candidate, so with all entries equal, and
    no run start, it comes back as it is.
    """
    low = min(items)
    best = items
    for k, e in enumerate(items):
        if e == low and items[k - 1] != low:
            rot = items[k:] + items[:k]
            if rot < best:
                best = rot
    return best


class CyclicClass(tuple):
    """A rotation class, the tuple of its canonical representative.

    Construction replaces vector by its lexicographically least rotation,
    so every class is canonical whoever builds it (a copy or an unpickled
    class too), and == and hash are equality of classes.  The entries are
    not validated, as in EmbeddingDatum; canonical validates them.  A
    class is a tuple of entries, so it goes wherever a vector does.
    """

    __slots__ = ()

    def __new__(cls, vector: Iterable[int]) -> CyclicClass:
        v = tuple(vector)
        return tuple.__new__(cls, _least_rotation(v) if v else v)

    def __repr__(self) -> str:
        return f"CyclicClass(vector={tuple.__repr__(self)})"

    @property
    def vector(self) -> Vec:
        return tuple(self)

    @property
    def total(self) -> int:
        return sum(self)


def _rotation_of(a: tuple, b: tuple) -> bool:
    """Whether b is a rotation of a: equal lengths and b occurs in a + a."""
    if len(a) != len(b):
        return False
    try:
        return bytes(b) in bytes(a) * 2
    except ValueError:  # an entry outside 0..255: try each rotation
        return any(a[k:] + a[:k] == b for k in range(len(a)))


def _class_entries(entries: Sequence[int] | CyclicClass) -> Vec:
    """Entries of a nonempty vector of non-negative ints, as a tuple."""
    v = _ints(entries, "entries must be non-negative integers", 0)
    if not v:
        raise ValueError("empty vector has no rotation class")
    return v


def canonical(entries: Sequence[int] | CyclicClass) -> CyclicClass:
    """Canonical representative of the rotation class of entries.

    Entries must be of type int exactly, as in make_matrix.
    """
    return CyclicClass(_class_entries(entries))


def classes_equal(a: Sequence[int] | CyclicClass, b: Sequence[int] | CyclicClass) -> bool:
    """Whether two vectors are rotations of each other."""
    return _rotation_of(_class_entries(a), _class_entries(b))


def pairs_of(entries: Sequence[int] | CyclicClass) -> tuple[tuple[int, int], ...]:
    """Pairs form of the class of entries: (value, gap to the next nonzero).

    One pair per nonzero entry, in cyclic order around the vector; the
    gap of the last pair wraps past the end, so the gaps sum to the
    vector's length and the values to its total.  Rotating the vector
    rotates the pair list, so the form, returned in its least rotation,
    only depends on the class.  An empty or zero vector has no pairs form.
    """
    v = _class_entries(entries)
    support = [i for i, e in enumerate(v) if e != 0]
    if not support:
        raise ValueError("zero vector has no pairs form")
    ends = support[1:] + [support[0] + len(v)]
    return _least_rotation(tuple((v[i], end - i) for i, end in zip(support, ends)))


def from_pairs(form: Iterable[Sequence[int]]) -> CyclicClass:
    """Class of the vector with the given pairs form.

    Gaps say how far each value sits from the next one, so the gaps sum
    to the vector length and the values fill the support.
    """
    pairs = tuple((a, b) for a, b in form)
    if not pairs:
        raise ValueError("pairs form must be nonempty")
    _ints(flatten(pairs), "values and gaps must be positive integers", 1)
    out = [0] * sum(b for _, b in pairs)
    pos = 0
    for a, b in pairs:
        out[pos] = a
        pos += b
    return CyclicClass(out)


def complement(entries: Sequence[int] | CyclicClass) -> CyclicClass:
    """Complement class: swap the roles of values and gaps.

    If the pairs form is ((a_0, b_0), ..., (a_k, b_k)), the complement
    has pairs form ((b_0, a_1), (b_1, a_2), ..., (b_k, a_0)).  It maps
    classes of length s and sum t to classes of length t and sum s, and
    applying it twice gives back the original class.
    """
    return CyclicClass(_complement(_class_entries(entries)))


def _complement(v: Vec) -> Vec:
    """A vector of the complement class of v, taken as valid; no canonical form.

    Gap k of v becomes a value, and value k + 1 the gap after it.  One
    pass over v: from its first nonzero entry on, each nonzero entry
    writes the gap from the one before it and moves the write position
    on by its own value; the gap that wraps past the end comes last.
    """
    total = sum(v)
    if not total:
        raise ValueError("zero vector has no pairs form")
    out = [0] * total
    entries = enumerate(v)
    for first, e in entries:
        if e:
            break
    last = first
    pos = 0
    for i, e in entries:
        if e:
            out[pos] = i - last
            pos += e
            last = i
    out[pos] = first + len(v) - last
    return tuple(out)


def make_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    """Validated matrix of non-negative integers from nested sequences.

    Entries must be of type int exactly: bools, floats and strings are
    rejected rather than converted.
    """
    try:
        tup = tuple(_ints(row, "entries must be non-negative integers", 0) for row in rows)
    except TypeError:  # rows, or one of them, is not iterable
        raise ValueError("matrix must be a sequence of rows") from None
    if not tup or not tup[0]:
        raise ValueError("matrix must be nonempty")
    if any(len(r) != len(tup[0]) for r in tup):
        raise ValueError("ragged matrix")
    return tup


def flatten(rows: Sequence[Sequence[int]]) -> Vec:
    """Row-major flattening of a matrix; does not validate the rows."""
    return tuple(chain.from_iterable(rows))


def reshape(entries: Sequence[int] | CyclicClass, nrows: int, ncols: int) -> Matrix:
    """Cut a class into an nrows x ncols matrix with no zero column.

    Cuts the canonical vector into rows.  Rotating a vector of length
    nrows * ncols by k places moves column j of its cut onto column
    (j - k) mod ncols, so every rotation cuts into the same column sums
    in some order: when this cut has a zero column, so does every other.
    """
    v = canonical(entries)
    s = len(v)
    _ints((nrows, ncols), "matrix dimensions must be positive integers", 1)
    if s != nrows * ncols:
        raise ValueError(f"cannot reshape length {s} into {nrows}x{ncols}")
    rows = tuple(v[i * ncols : (i + 1) * ncols] for i in range(nrows))
    if not all(map(any, zip(*rows))):
        raise ValueError("no rotation yields positive columns")
    return rows
