"""Embedding data and skeletons."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from embtypes.cyclic import classes_equal, flatten, rotate
from embtypes.embedding import (
    EmbeddingDatum,
    PearlSkeleton,
    data_equivalent,
    datum_from_json,
    datum_to_json,
    make_datum,
    skeleton,
)
from embtypes.enumeration import enumerate_data
from oracles import skeleton_of

WORKED_ROWS = ((1, 0), (1, 3), (0, 0), (0, 1), (0, 1), (0, 0))


@st.composite
def data(draw, max_f=3, max_r=3, max_m=5):
    f = draw(st.integers(1, max_f))
    r = draw(st.integers(1, max_r))
    m = draw(st.integers(r, max_m + r - 1))
    pool = list(enumerate_data(f, r, m))
    return pool[draw(st.integers(0, len(pool) - 1))]


def test_make_datum_accepts_the_worked_matrix():
    d = make_datum(WORKED_ROWS, 6, 2, 7)
    assert d.rows == WORKED_ROWS
    assert (d.f, d.r, d.m) == (6, 2, 7)


def test_make_datum_single_cell():
    d = make_datum([(9,)], 1, 1, 9)
    assert d.rows == ((9,),)


def test_make_datum_rejects_zero_column():
    with pytest.raises(ValueError, match="invalid embedding datum"):
        make_datum([(1, 0), (1, 0)], 2, 2, 2)


def test_make_datum_rejects_bad_sum_and_shape():
    with pytest.raises(ValueError, match="size mismatch"):
        make_datum([(1, 1)], 1, 2, 3)
    with pytest.raises(ValueError, match="expected"):
        make_datum([(1, 1)], 2, 1, 2)
    with pytest.raises(ValueError):
        make_datum([(1, -1)], 1, 2, 0)


def test_data_equivalence_is_rotation_of_the_flattening():
    a = make_datum([(0, 1), (1, 0)], 2, 2, 2)
    b = make_datum([(1, 1), (0, 0)], 2, 2, 2)
    assert data_equivalent(a, b)
    big = make_datum([(1, 1), (1, 0)], 2, 2, 3)
    other = make_datum([(2, 0), (0, 1)], 2, 2, 3)
    assert not data_equivalent(big, other)
    assert not data_equivalent(a, big)  # mismatched sizes never compare equal
    assert data_equivalent(a, a)


def test_skeleton_of_the_worked_matrix():
    sk = skeleton(make_datum(WORKED_ROWS, 6, 2, 7))
    assert sk == PearlSkeleton(partition=(2, 5), levels=(0, 1, 1, 1, 1, 3, 4))


def test_skeleton_small_cases():
    assert skeleton(make_datum([(4,)], 1, 1, 4)) == PearlSkeleton((4,), (0, 0, 0, 0))
    assert skeleton(make_datum([(1,), (1,)], 2, 1, 2)) == PearlSkeleton((2,), (0, 1))


def test_skeleton_matches_the_definition_on_every_small_datum():
    for f, r, m in product(range(1, 4), range(1, 4), range(1, 6)):
        for datum in enumerate_data(f, r, m):
            sk = skeleton(datum)
            assert (sk.partition, sk.levels) == skeleton_of(datum.rows)


@pytest.mark.parametrize(
    "rows",
    [((1, 1), (1,)), ((1, 1, 0), (1, 0, 0)), ((1, 1),), ((1, 1), (1, 0), (0, 0))],
    ids=["short-row", "long-rows", "too-few-rows", "too-many-rows"],
)
def test_skeleton_rejects_rows_that_are_not_f_by_r(rows):
    # a hand-built datum skips make_datum, so skeleton checks the shape itself
    with pytest.raises(ValueError, match="expected a 2x2 matrix"):
        skeleton(EmbeddingDatum(2, 2, 3, rows))


@given(data())
def test_skeleton_level_counts_are_row_sums(datum):
    sk = skeleton(datum)
    assert sum(sk.partition) == datum.m
    assert len(sk.levels) == datum.m
    for i in range(datum.f):
        assert sum(1 for l in sk.levels if l == i) == sum(datum.rows[i])


@given(data(), st.integers(0, 11))
def test_rotating_the_flattening_shifts_reduced_levels(datum, k):
    # rotating the single-column datum by k relabels every level by -k mod f*r
    ft = datum.f * datum.r
    flat = flatten(datum.rows)
    turned = make_datum([(v,) for v in rotate(flat, k)], ft, 1, datum.m)
    before = skeleton(make_datum([(v,) for v in flat], ft, 1, datum.m)).levels
    after = skeleton(turned).levels
    assert sorted((l - k) % ft for l in before) == sorted(after)


@given(data())
def test_datum_json_round_trip(datum):
    assert datum_from_json(datum_to_json(datum)) == datum


def test_datum_is_hashable_and_frozen():
    d = make_datum([(2,)], 1, 1, 2)
    assert d == EmbeddingDatum(1, 1, 2, ((2,),))
    assert hash(d) == hash(EmbeddingDatum(1, 1, 2, ((2,),)))
    with pytest.raises(AttributeError):
        d.m = 3
