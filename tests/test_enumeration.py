"""Enumeration and counting of embedding data."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from embtypes.cyclic import flatten
from embtypes.embedding import make_datum
from embtypes.enumeration import _class_count, _necklaces, _weak_compositions, count_data, enumerate_data
from oracles import all_rotations, class_count, least_rotation, valid_flattenings


def _flats(f, r, m):
    return [flatten(d.rows) for d in enumerate_data(f, r, m)]


def test_single_cell_pool():
    assert list(enumerate_data(1, 1, 5)) == [make_datum([(5,)], 1, 1, 5)]
    assert count_data(1, 1, 5) == 1


def test_one_column_pool_is_every_composition():
    pool = list(enumerate_data(2, 1, 2))
    assert [d.rows for d in pool] == [((0,), (2,)), ((1,), (1,)), ((2,), (0,))]
    assert count_data(2, 1, 2) == 3


def test_unit_pool_excludes_zero_columns():
    pool = list(enumerate_data(2, 2, 2))
    assert len(pool) == count_data(2, 2, 2) == 4
    flats = [flatten(d.rows) for d in pool]
    assert (1, 0, 1, 0) not in flats and (0, 1, 0, 1) not in flats


def test_more_columns_than_units_is_empty():
    assert list(enumerate_data(2, 3, 2)) == []
    assert count_data(2, 3, 2) == 0
    assert count_data(1, 4, 3) == 0


def test_counts_match_the_enumeration():
    for f, r, m in product(range(1, 5), range(1, 5), range(1, 6)):
        assert count_data(f, r, m) == sum(1 for _ in enumerate_data(f, r, m))


def test_the_class_count_formula_matches_the_enumeration():
    # every configuration of the fr<=8 slice of the gate (f<=6, r<=4, m<=7)
    for f, r, m in product(range(1, 7), range(1, 5), range(1, 8)):
        if f * r <= 8:
            classes = {least_rotation(flatten(d.rows)) for d in enumerate_data(f, r, m)}
            assert class_count(f, r, m) == len(classes), (f, r, m)


def test_the_runtime_class_count_matches_the_oracle():
    # every configuration of f, r <= 10, f*r <= 20, m <= 10, which holds the
    # gate (f<=6, r<=4, f*r<=12, m<=7) and the extended range (f, r <= 8, f*r <= 16, m <= 9)
    totals = {(6, 4, 7, 12): 0, (8, 8, 9, 16): 0, (10, 10, 10, 20): 0}
    for f, r, m in product(range(1, 11), range(1, 11), range(1, 11)):
        if f * r <= 20:
            classes = _class_count(f, r, m)
            assert classes == class_count(f, r, m), (f, r, m)
            for bounds in totals:
                if f <= bounds[0] and r <= bounds[1] and m <= bounds[2] and f * r <= bounds[3]:
                    totals[bounds] += classes
    assert list(totals.values()) == [12327, 412876, 5388529]


def test_necklaces_are_the_least_rotations_of_the_data():
    # every configuration of the fr<=8 slice of the gate: the shards z = 0, ...,
    # f*r - r split the classes by their leading zeros, each necklace with its
    # least period, ascending within a shard
    for f, r, m in product(range(1, 7), range(1, 5), range(1, 8)):
        if f * r > 8:
            continue
        n = f * r
        shards = [list(_necklaces(f, r, m, z)) for z in range(n - r + 1)]
        for z, shard in enumerate(shards):
            assert [v for v, _ in shard] == sorted({v for v, _ in shard}), (f, r, m, z)
            for v, p in shard:
                assert v[:z] == (0,) * z and v[z] > 0, (f, r, m, z, v)
                assert p == (all_rotations(v) + [v]).index(v, 1), (v, p)  # the rotation by n is v
        found = sorted(v for shard in shards for v, _ in shard)
        assert found == sorted({least_rotation(v) for v in valid_flattenings(f, r, m)}), (f, r, m)
        assert sum(p for shard in shards for _, p in shard) == count_data(f, r, m), (f, r, m)


def test_enumerated_data_pass_make_datum_unchanged():
    # enumerate_data builds data without make_datum; each must be one it accepts as is
    for f, r, m in product(range(1, 4), range(1, 4), range(1, 6)):
        for d in enumerate_data(f, r, m):
            assert make_datum(d.rows, d.f, d.r, d.m) == d
            assert type(d.rows) is tuple and all(type(row) is tuple for row in d.rows)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 6))
def test_enumeration_is_sorted_and_duplicate_free(f, r, m):
    flats = [flatten(d.rows) for d in enumerate_data(f, r, m)]
    assert flats == sorted(set(flats))
    for d in enumerate_data(f, r, m):
        assert (d.f, d.r, d.m) == (f, r, m)


def test_the_enumeration_matches_the_filter_oracle():
    # every configuration of the gate (f<=6, r<=4, f*r<=12, m<=7)
    for f, r, m in product(range(1, 7), range(1, 5), range(1, 8)):
        if f * r <= 12:
            assert _flats(f, r, m) == valid_flattenings(f, r, m), (f, r, m)
    # one row, wider than the gate: the prefix is empty and every column needs a unit
    for r, m in product(range(1, 9), range(1, 10)):
        assert _flats(1, r, m) == valid_flattenings(1, r, m), (r, m)
    # the wide shapes, where most weak compositions have an empty column
    for f, r, m in product(range(1, 3), range(1, 17), range(1, 10)):
        if f * r <= 16:
            assert sum(1 for _ in enumerate_data(f, r, m)) == count_data(f, r, m), (f, r, m)


def test_enumeration_edge_cases():
    # one row: no column may be 0 when r > 1, and the other r - 1 columns
    # need r - 1 of the m - v[0] units
    flats = _flats(1, 3, 5)
    assert [v for v in flats if v[0] in (0, 4)] == [] and [v for v in _flats(1, 2, 3) if v[0] == 3] == []
    assert [v for v in flats if v[0] == 3] == [(3, 1, 1)]
    # one column: every composition has its column filled, so the
    # construction yields each once, the last row topped up to the slack
    for f, m in product(range(2, 5), range(1, 5)):
        assert _flats(f, 1, m) == list(_weak_compositions(m, f))
    # up to f = 16 and m = 9, less the corner f > 8, m > 5, which holds 5.2M of its 5.3M data
    for f, m in product(range(2, 17), range(1, 10)):
        if f <= 8 or m <= 5:
            assert sum(1 for _ in enumerate_data(f, 1, m)) == count_data(f, 1, m), (f, m)
    # more columns than units
    for f in range(1, 4):
        assert _flats(f, 3, 2) == []
    # a single entry holds all of m
    assert _flats(1, 1, 3) == [(3,)] and _flats(1, 1, 4) == [(4,)]
    # the prefix (2, 0) leaves column 1 empty with no units left for it
    assert [v for v in _flats(2, 2, 2) if v[0] == 2] == []


def test_weak_compositions_match_brute_force():
    # p = 1 gives the single vector (t,)
    for t in range(7):
        for p in range(1, 6):
            expected = sorted(v for v in product(range(t + 1), repeat=p) if sum(v) == t)
            assert list(_weak_compositions(t, p)) == expected


def test_rejects_non_positive_sizes():
    with pytest.raises(ValueError):
        list(enumerate_data(0, 1, 1))
    with pytest.raises(ValueError):
        count_data(1, 0, 1)
    with pytest.raises(ValueError):
        count_data(1, 1, 0)
