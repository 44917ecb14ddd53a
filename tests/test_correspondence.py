"""Centralizer map, the two local-type routes, and the verifier."""

from __future__ import annotations

import ast
import cProfile
import inspect
import pstats
import random
import textwrap
from fractions import Fraction as F
from itertools import product
from math import ceil, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtypes.apartment import (
    barycenter,
    coordinate_class,
    local_type,
    make_point,
    square_lattice_exponents,
    standard_chain,
    translate,
)
from embtypes.cyclic import CyclicClass, canonical, flatten, rotate
from embtypes import cli
from embtypes.correspondence import (
    CorrespondenceReport,
    _checks,
    _class_kernel,
    _member_kernel,
    embedding_type_from_local,
    from_centralizer,
    intersection_property,
    local_type_direct,
    local_type_geometric,
    report_to_json,
    to_centralizer,
    verify_correspondence,
)
from embtypes.embedding import data_equivalent, make_datum, skeleton
from embtypes.enumeration import enumerate_data
from oracles import brute_square_entry

WORKED = make_datum(((1, 0), (1, 3), (0, 0), (0, 1), (0, 1), (0, 0)), 6, 2, 7)
WORKED_MU = tuple(F(n, 12) for n in (3, 2, 1, 0, 0, 4, 2))
WORKED_CLASS = CyclicClass((0, 0, 4, 2, 3, 2, 1))


@st.composite
def data(draw, max_f=3, max_r=3, max_m=5):
    f = draw(st.integers(1, max_f))
    r = draw(st.integers(1, max_r))
    m = draw(st.integers(r, max_m + r - 1))
    pool = list(enumerate_data(f, r, m))
    return pool[draw(st.integers(0, len(pool) - 1))]


@st.composite
def points_with_degree(draw, max_m=5):
    # denominator a multiple of f, coordinates on a fixed rational grid
    f = draw(st.sampled_from([2, 3, 4, 6]))
    k = draw(st.integers(1, 24 // f))
    m = draw(st.integers(1, max_m))
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]))
    nums = draw(st.lists(st.integers(-2 * den, 2 * den), min_size=m, max_size=m))
    point = make_point(f * k, [F(n, den) for n in nums])
    return point, f


def test_to_centralizer_divides_the_denominator():
    x = make_point(12, [F(1, 4), F(-1, 3), 0])
    y = to_centralizer(x, 6)
    assert (y.d, len(y.num)) == (2, 3)
    assert y.alpha == x.alpha
    assert to_centralizer(x, 1) == x


def test_to_centralizer_rejects_bad_degrees():
    x = make_point(4, [F(1, 2), 0])
    with pytest.raises(ValueError, match="must be unramified of degree dividing d"):
        to_centralizer(x, 3)
    with pytest.raises(ValueError, match="positive"):
        to_centralizer(x, 0)


@pytest.mark.parametrize("bad", [2.0, True, F(2)])
def test_centralizer_maps_reject_non_int_degrees(bad):
    # to_centralizer(x, 2.0) used to give a point with d = 2.0
    x = make_point(4, [F(1, 2), 0])
    with pytest.raises(ValueError, match="positive integer"):
        to_centralizer(x, bad)
    with pytest.raises(ValueError, match="positive integer"):
        from_centralizer(x, bad)


@given(points_with_degree())
def test_centralizer_round_trips(pair):
    x, f = pair
    assert from_centralizer(to_centralizer(x, f), f) == x
    assert to_centralizer(from_centralizer(x, f), f) == x


def _worked_moved():
    sk = skeleton(WORKED)
    x = barycenter(standard_chain(sk.partition), WORKED.f * WORKED.r)
    assert x.alpha == (F(1, 24), F(1, 24), 0, 0, 0, 0, 0)
    return translate(x, [-l for l in sk.levels])


WORKED_GEOMETRIC_MOVED = _worked_moved()


def literal_intersection(x, f):
    """The defining identity, checked entry by entry with exact ceilings."""
    y = to_centralizer(x, f)
    d = x.d
    m = len(x.num)
    grid = lcm(d, *[a.denominator for a in x.alpha])
    for k in range(2 * grid * f // d):
        t = F(k, 2 * grid)
        big = square_lattice_exponents(x, t)
        small = square_lattice_exponents(y, t)
        for i in range(m):
            for j in range(m):
                if ceil(F(big[i][j], f)) != small[i][j]:
                    return False
    return True


def test_intersection_property_known_points():
    x = make_point(6, [F(1, 3), 0])
    assert intersection_property(x, 2)
    assert intersection_property(x, 3)
    assert intersection_property(x, 6)
    assert intersection_property(WORKED_GEOMETRIC_MOVED, 6)


@settings(max_examples=60)
@given(points_with_degree(max_m=4))
def test_intersection_property_matches_the_literal_identity(pair):
    x, f = pair
    assert intersection_property(x, f)
    assert literal_intersection(x, f)


def test_intersection_identity_holds_by_brute_force():
    # both sides by the maximization oracle, which shares no code with the library
    rng = random.Random(59)
    for _ in range(20):
        f = rng.choice((2, 3, 4, 6))
        d = f * rng.randint(1, 24 // f)
        m = rng.randint(1, 3)
        den = rng.choice((1, 2, 3, 4, 6, 8, 12, 24))
        x = make_point(d, [F(rng.randint(-2 * den, 2 * den), den) for _ in range(m)])
        y = to_centralizer(x, f)
        grid = 2 * lcm(d, den)
        for k in range(grid * f // d):
            t = F(k, grid)
            for i, j in product(range(m), repeat=2):
                assert ceil(F(brute_square_entry(x, t, i, j), f)) == brute_square_entry(y, t, i, j)
        assert intersection_property(x, f)


def test_direct_coordinates_of_the_worked_datum():
    assert local_type_direct(WORKED) == WORKED_MU


def test_direct_coordinates_small_cases():
    assert local_type_direct(make_datum([(4,)], 1, 1, 4)) == (1, 0, 0, 0)
    assert local_type_direct(make_datum([(1,)], 1, 1, 1)) == (1,)
    assert local_type_direct(make_datum([(1,), (1,)], 2, 1, 2)) == (F(1, 2), F(1, 2))
    assert local_type_direct(make_datum([(0, 1), (1, 0)], 2, 2, 2)) == (F(3, 4), F(1, 4))


def test_direct_coordinates_match_the_counting_formula_on_every_small_datum():
    for f, r, m in product(range(1, 4), range(1, 4), range(1, 6)):
        ft = f * r
        for datum in enumerate_data(f, r, m):
            a = [i for i, v in enumerate(flatten(datum.rows)) for _ in range(v)]
            expected = [F(ft - a[-1] + a[0], ft)] + [F(a[j] - a[j - 1], ft) for j in range(1, m)]
            mu = local_type_direct(datum)
            assert mu == tuple(expected)
            assert all(type(v) is F for v in mu)


def test_verifier_builds_no_fraction_once_warm():
    # the direct route shares its Fractions per f * r, and nothing else builds one
    data = [d for f, r, m in product(range(1, 4), range(1, 4), range(1, 6)) for d in enumerate_data(f, r, m)]
    for datum in {d.f * d.r: d for d in data}.values():
        verify_correspondence(datum)
    prof = cProfile.Profile()
    prof.enable()
    reports = [verify_correspondence(d) for d in data]
    prof.disable()
    assert all(report.verdict for report in reports)
    built = sum(
        calls
        for (path, _, func), (_, calls, *_rest) in pstats.Stats(prof).stats.items()
        if func == "__new__" and path.endswith("fractions.py")
    )
    assert built == 0


@given(data())
def test_direct_coordinates_are_barycentric(datum):
    mu = local_type_direct(datum)
    assert len(mu) == datum.m
    assert sum(mu) == 1
    assert all(v >= 0 for v in mu)
    ft = datum.f * datum.r
    assert all((ft * v).denominator == 1 for v in mu)


@given(data())
def test_direct_class_is_constant_on_the_equivalence_class(datum):
    mine = coordinate_class(local_type_direct(datum))
    flat = flatten(datum.rows)
    for k in range(1, len(flat)):
        turned = rotate(flat, k)
        rows = [turned[j * datum.r:(j + 1) * datum.r] for j in range(datum.f)]
        try:
            other = make_datum(rows, datum.f, datum.r, datum.m)
        except ValueError:
            continue
        assert coordinate_class(local_type_direct(other)) == mine


def test_geometric_route_of_the_worked_datum():
    moved = WORKED_GEOMETRIC_MOVED
    assert moved.alpha == tuple(F(n, 24) for n in (9, 7, 6, 6, 6, 2, 0))
    assert local_type_geometric(WORKED) == WORKED_CLASS


def test_geometric_route_small_cases():
    assert local_type_geometric(make_datum([(3,)], 1, 1, 3)) == CyclicClass((0, 0, 1))
    assert local_type_geometric(make_datum([(1,), (1,)], 2, 1, 2)) == CyclicClass((1, 1))


def test_geometric_route_matches_the_uncached_pipeline():
    # the route shares one chain per partition; build each one afresh here
    for f in range(1, 4):
        for r in range(1, 4):
            for m in range(1, 6):
                for datum in enumerate_data(f, r, m):
                    sk = skeleton(datum)
                    chain = standard_chain(list(sk.partition))
                    x = barycenter(chain, f * r)
                    moved = translate(x, [-l for l in sk.levels])
                    expected = local_type(to_centralizer(moved, f))
                    assert local_type_geometric(datum) == expected


def test_embedding_type_inverts_the_worked_class():
    back = embedding_type_from_local(WORKED_CLASS, 6, 2)
    assert data_equivalent(back, WORKED)


def test_embedding_type_small_cases():
    vertex = CyclicClass((0, 0, 0, 1))
    assert embedding_type_from_local(vertex, 1, 1) == make_datum([(4,)], 1, 1, 4)
    half = CyclicClass((1, 1))
    assert embedding_type_from_local(half, 2, 1) == make_datum([(1,), (1,)], 2, 1, 2)


def test_embedding_type_rejects_incompatible_denominators():
    with pytest.raises(ValueError, match=r"not a local type for \(3,1\)"):
        embedding_type_from_local(CyclicClass((1, 1)), 3, 1)
    with pytest.raises(ValueError, match="positive"):
        embedding_type_from_local(CyclicClass((1,)), 0, 1)
    with pytest.raises(ValueError, match=r"not a local type for \(1,1\)"):
        embedding_type_from_local(CyclicClass((0, 0)), 1, 1)
    with pytest.raises(ValueError, match=r"not a local type for \(1,1\)"):
        embedding_type_from_local(CyclicClass(()), 1, 1)


@given(data())
def test_embedding_type_inverts_the_direct_route(datum):
    mu = coordinate_class(local_type_direct(datum))
    back = embedding_type_from_local(mu, datum.f, datum.r)
    assert data_equivalent(back, datum)


def test_verifier_on_the_worked_datum():
    report = verify_correspondence(WORKED)
    assert isinstance(report, CorrespondenceReport)
    assert report.verdict and report.mismatch is None
    assert report.coordinates == WORKED_MU
    assert report.geometric == WORKED_CLASS
    assert report.complement_class.vector == canonical(flatten(WORKED.rows)).vector


@given(data())
def test_verifier_passes_everywhere(datum):
    report = verify_correspondence(datum)
    assert report.verdict, report.mismatch


def test_report_wire_form():
    obj = report_to_json(verify_correspondence(WORKED))
    assert set(obj) == {"datum", "mu", "complement", "verdict", "mismatch"}
    assert obj["verdict"] == "pass" and obj["mismatch"] is None
    assert obj["datum"]["rows"] == [[1, 0], [1, 3], [0, 0], [0, 1], [0, 1], [0, 0]]
    assert obj["mu"] == [[1, 4], [1, 6], [1, 12], [0, 1], [0, 1], [1, 3], [1, 6]]
    assert obj["complement"] == [0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 3]


def _names_in(fn) -> set[str]:
    """Every name and attribute the source of fn mentions."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }


def _names_reached(fn) -> set[str]:
    """The names of fn and of every embtypes function it reaches through its module's globals."""
    names, seen, todo = set(), set(), [fn]
    while todo:
        f = inspect.unwrap(todo.pop())  # a cached function is read through __wrapped__
        if f in seen:
            continue
        seen.add(f)
        for name in _names_in(f):
            names.add(name)
            target = inspect.unwrap(f.__globals__.get(name))
            if inspect.isfunction(target) and target.__module__.startswith("embtypes."):
                todo.append(target)
    return names


CANONICAL = {"CyclicClass", "canonical", "_least_rotation", "CorrespondenceReport"}
DIRECT_ROUTE = {"local_type_direct", "_unit_fractions", "_complement"}
GEOMETRIC_ROUTE = {"_local_type_geometric", "skeleton", "_barycenter", "translate", "to_centralizer", "_local_gaps"}


def test_the_checks_of_a_datum_build_no_canonical_form():
    # the sweep compares by rotation only, so a passing datum needs no
    # canonical class and no report; _verify_one builds them for a failure
    for kernel in (_class_kernel, _member_kernel, _checks):
        assert not _names_reached(kernel) & CANONICAL, kernel.__name__
    assert not _names_in(cli._verify_one) & CANONICAL


def test_the_kernels_keep_the_routes_independent():
    # their agreement is what the sweep certifies, so neither kernel may
    # reach the other's route
    direct, geometric = _names_reached(_class_kernel), _names_reached(_member_kernel)
    assert DIRECT_ROUTE <= direct and not direct & GEOMETRIC_ROUTE
    assert GEOMETRIC_ROUTE <= geometric and not geometric & DIRECT_ROUTE
