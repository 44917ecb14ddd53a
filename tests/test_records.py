"""The records: immutable, equal by value, hashable, with a Name(field=...) repr."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from embtypes.apartment import ApartmentPoint, ChainFace, make_point, standard_chain
from embtypes.cli import VerifyRange
from embtypes.correspondence import CorrespondenceReport, verify_correspondence
from embtypes.cyclic import CyclicClass
from embtypes.embedding import EmbeddingDatum, PearlSkeleton, make_datum, skeleton
from oracles import least_rotation

# record type: (a build of one record, its repr)
RECORDS = {
    CyclicClass: (lambda: CyclicClass((1, 0, 2)), "CyclicClass(vector=(0, 2, 1))"),
    ChainFace: (lambda: standard_chain([1, 2]), "ChainFace(steps=((0, 0, 0), (1, 0, 0)))"),
    ApartmentPoint: (lambda: make_point(2, [Fraction(1, 2), 0]), "ApartmentPoint(d=2, num=(1, 0), den=2)"),
    EmbeddingDatum: (lambda: make_datum([(1, 2)], 1, 2, 3), "EmbeddingDatum(f=1, r=2, m=3, rows=((1, 2),))"),
    PearlSkeleton: (
        lambda: skeleton(make_datum([(1, 2)], 1, 2, 3)),
        "PearlSkeleton(partition=(1, 2), levels=(0, 0, 0))",
    ),
    CorrespondenceReport: (
        lambda: verify_correspondence(make_datum([(1, 2)], 1, 2, 3)),
        "CorrespondenceReport(datum=EmbeddingDatum(f=1, r=2, m=3, rows=((1, 2),)), "
        "coordinates=(Fraction(1, 2), Fraction(1, 2), Fraction(0, 1)), "
        "geometric=CyclicClass(vector=(0, 1, 1)), complement_class=CyclicClass(vector=(1, 2)), "
        "verdict=True, mismatch=None)",
    ),
    VerifyRange: (lambda: VerifyRange(1, 2, 3, 4), "VerifyRange(f_max=1, r_max=2, m_max=3, fr_max=4, jobs=1)"),
}
NAMES = [t.__name__ for t in RECORDS]


def _fields(record):
    return getattr(record, "_fields", ("vector", "total"))


@pytest.mark.parametrize("kind", RECORDS, ids=NAMES)
def test_a_record_rejects_assignment(kind):
    record = RECORDS[kind][0]()
    for name in (*_fields(record), "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert record == RECORDS[kind][0]()


@pytest.mark.parametrize("kind", RECORDS, ids=NAMES)
def test_a_record_is_equal_by_value_and_hashable(kind):
    a, b = RECORDS[kind][0](), RECORDS[kind][0]()
    assert type(a) is kind and a is not b
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    if kind is not CyclicClass:  # a named tuple unpacks into its fields, in order
        assert tuple(a) == tuple(getattr(a, name) for name in a._fields)


@pytest.mark.parametrize("kind", RECORDS, ids=NAMES)
def test_a_record_keeps_its_repr(kind):
    build, text = RECORDS[kind]
    assert repr(build()) == text


def test_a_range_checks_its_bounds_however_it_is_built():
    rng = VerifyRange(1, 2, 3, 4)
    assert rng._replace(jobs=2) == VerifyRange(1, 2, 3, 4, 2)
    assert pickle.loads(pickle.dumps(rng)) == rng
    for build in (lambda: rng._replace(jobs=0), lambda: VerifyRange._make((1, 2, 3, True))):
        with pytest.raises(ValueError, match="^all bounds must be positive integers$"):
            build()


@given(st.lists(st.integers(0, 300), max_size=9), st.integers(0, pickle.HIGHEST_PROTOCOL))
def test_a_class_stays_canonical_through_pickle_and_copy(v, protocol):
    c = CyclicClass(v)
    for back in (pickle.loads(pickle.dumps(c, protocol)), copy.copy(c), copy.deepcopy(c)):
        assert type(back) is CyclicClass and back == c
        assert back.vector == (least_rotation(v) if v else ())
    # the class is the tuple of its vector
    assert len(c) == len(c.vector) and list(c) == list(c.vector)
    assert type(c.vector) is tuple and c.total == sum(v)
