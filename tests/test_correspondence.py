"""Centralizer map, the two local-type routes, and the verifier."""

from __future__ import annotations

import ast
import cProfile
import inspect
import io
import pstats
import random
import textwrap
from fractions import Fraction as F
from itertools import product
from math import ceil, gcd, lcm

import pytest
from hypothesis import assume, given, settings
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
from embtypes import cli, cyclic
from embtypes.correspondence import (
    CorrespondenceReport,
    _checks,
    _class_kernel,
    _lifted_barycenter,
    _local_type_direct,
    _local_type_geometric,
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
from embtypes.embedding import EmbeddingDatum, _skeleton, data_equivalent, make_datum, skeleton
from embtypes.enumeration import _necklaces, enumerate_data
from oracles import (
    all_rotations,
    brute_square_entry,
    class_count,
    complement_of,
    least_rotation,
    skeleton_of,
    valid_flattenings,
)

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


@st.composite
def flat_data(draw, max_f=6, max_r=4):
    # a random valid flat vector: every column that came out empty gets a unit
    f = draw(st.integers(1, max_f))
    r = draw(st.integers(1, max_r))
    v = draw(st.lists(st.integers(0, 3), min_size=f * r, max_size=f * r))
    for j in range(r):
        if not any(v[j::r]):
            v[draw(st.integers(0, f - 1)) * r + j] = draw(st.integers(1, 3))
    return f, r, tuple(v)


@given(flat_data())
def test_the_lifted_core_matches_the_checked_maps(fv):
    # the sweep's one-pass core against the public pipeline it stands for:
    # translate and to_centralizer build a point at each stage, and the
    # skeleton here is the oracle's
    f, r, v = fv
    partition, levels = skeleton_of([v[i : i + r] for i in range(0, f * r, r)])
    moved = translate(barycenter(standard_chain(partition), f * r), [-l for l in levels])
    assert CyclicClass(_local_type_geometric(f, r, v)) == local_type(to_centralizer(moved, f))


@given(points_with_degree(), st.integers(1, 30))
def test_to_centralizer_refuses_a_degree_not_dividing_d(pair, f):
    # a point outside the centralizer's apartment is a geometric condition
    x, _ = pair
    assume(x.d % f)
    with pytest.raises(ValueError, match="not applicable"):
        to_centralizer(x, f)


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


def test_the_sweep_builds_no_fraction():
    # the kernels check flat integer vectors; only a failing datum's report has Fractions
    prof = cProfile.Profile()
    prof.enable()
    code = cli.run_verify(cli.VerifyRange(3, 3, 5, 9), stream=io.StringIO())
    prof.disable()
    assert code == 0
    built = sum(
        calls
        for (path, _, func), (_, calls, *_rest) in pstats.Stats(prof).stats.items()
        if func == "__new__" and path.endswith("fractions.py")
    )
    assert built == 0


def test_the_flat_layers_agree_with_the_datum_layers():
    # every flat datum of every small configuration: the direct numerators
    # over f * r and the strided columns
    for f, r, m in product(range(1, 4), range(1, 4), range(1, 6)):
        ft = f * r
        for v in valid_flattenings(f, r, m):
            d = make_datum([v[i : i + r] for i in range(0, ft, r)], f, r, m)
            assert _local_type_direct(f, r, v) == (tuple(x * ft for x in local_type_direct(d)), ft)
            assert _skeleton(r, v) == tuple(skeleton(d)) == skeleton_of(d.rows)


@pytest.mark.parametrize("rows, m", [(((1, 1, 1), (1,)), 4), (((1, 1), (1,)), 3)])
def test_the_routes_check_the_shape_of_a_hand_built_datum(rows, m):
    # the first is flat of length f * r, so a flat route without the check would misread it
    datum = EmbeddingDatum(2, 2, m, rows)
    for route in (verify_correspondence, local_type_geometric):
        with pytest.raises(ValueError, match="^expected a 2x2 matrix$"):
            route(datum)


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


@pytest.mark.parametrize(
    "bounds",
    [pytest.param((6, 4, 7, 8), id="fr8-slice"), pytest.param((6, 4, 7, 12), id="gate", marks=pytest.mark.slow)],
)
def test_the_class_kernel_gives_every_datum_what_it_gives_its_necklace(bounds):
    # the sweep runs the direct side on each necklace only, so on every datum
    # it must fail at the same site, with vectors that are rotations of the
    # necklace's; the necklace here is the oracle's least rotation
    def turned(a, b):
        return a is None and b is None or a is not None and tuple(b) in all_rotations(a)

    for f, r, m in cli.VerifyRange(*bounds).configurations():
        sides = {}
        for u in valid_flattenings(f, r, m):
            v = least_rotation(u)
            if v not in sides:
                sides[v] = _class_kernel(f, r, v)
            _, comp, direct, site = _class_kernel(f, r, u)
            _, class_comp, class_direct, class_site = sides[v]
            assert site == class_site and turned(class_comp, comp) and turned(class_direct, direct), (f, r, u)


@pytest.mark.parametrize(
    "bounds",
    [pytest.param((6, 4, 7, 8), id="fr8-slice"), pytest.param((6, 4, 7, 12), id="gate", marks=pytest.mark.slow)],
)
def test_every_local_type_necklace_maps_back_to_its_class(bounds):
    # the reverse of the class sweep: a necklace mu of length m and sum f * r
    # is a local type of M(f, r; m) exactly when its complement, cut into f
    # rows of r, has no zero column; one column is never empty, so z < m.
    # Both routes of the datum it gives must return mu's class
    for f, r, m in cli.VerifyRange(*bounds).configurations():
        n, mapped = f * r, 0
        for z in range(m):
            for mu, _ in _necklaces(m, 1, n, z):
                comp = complement_of(mu)
                valid = all(any(comp[j::r]) for j in range(r))
                try:
                    datum = embedding_type_from_local(mu, f, r)
                except ValueError:
                    assert not valid, (f, r, m, mu)
                    continue
                assert valid, (f, r, m, mu)
                g = gcd(*mu)
                assert local_type_geometric(datum) == CyclicClass(tuple(x // g for x in mu)), (f, r, m, mu)
                assert tuple(n * x for x in local_type_direct(datum)) in all_rotations(mu), (f, r, m, mu)
                mapped += 1
        assert mapped == class_count(f, r, m), (f, r, m)


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


def test_embedding_type_takes_a_plain_vector_as_its_class():
    # mu is checked as every class is, so a tuple is read as its class, and a bool is no entry
    assert embedding_type_from_local((1, 0, 0, 0), 1, 1) == embedding_type_from_local(CyclicClass((0, 0, 0, 1)), 1, 1)
    with pytest.raises(ValueError, match="non-negative integers"):
        embedding_type_from_local((True, True), 1, 2)


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


def _names_reached(fn, skip=()) -> set[str]:
    """The names of fn and of every embtypes function it reaches through its module's globals.

    A function in skip is named but not entered.
    """
    names, seen, todo = set(), set(map(inspect.unwrap, skip)), [fn]
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
FLAT = {"Fraction", "_unit_fractions", "EmbeddingDatum"}
DIRECT_ROUTE = {"_local_type_direct", "_complement"}
GEOMETRIC_ROUTE = {"_local_type_geometric", "_skeleton", "_lifted_barycenter", "_local_gaps"}
VALIDATION = {"_ints", "_over_common_denominator"}


def test_the_checks_of_a_datum_build_no_canonical_form():
    # the sweep compares flat vectors by rotation only, so a passing datum
    # needs no canonical class, no report, no rows and no Fraction;
    # cli._failure builds them for a failing one
    for fn in (_class_kernel, _member_kernel, _checks, _necklaces):
        assert not _names_reached(fn) & (CANONICAL | FLAT), fn.__name__
    shard_loop = _names_reached(cli._verify_shard, skip={cli._failure})
    assert "_failure" in shard_loop and not shard_loop & (CANONICAL | FLAT)


def test_the_kernels_keep_the_routes_independent():
    # their agreement is what the sweep certifies, so neither kernel may
    # reach the other's route
    direct, geometric = _names_reached(_class_kernel), _names_reached(_member_kernel)
    assert DIRECT_ROUTE <= direct and not direct & GEOMETRIC_ROUTE
    assert GEOMETRIC_ROUTE <= geometric and not geometric & DIRECT_ROUTE


def test_the_complement_core_shares_no_code_with_the_pairs_form():
    # so checking _complement against the swap of pairs_of compares two
    # implementations, not one with itself
    reached = _names_reached(cyclic._complement)
    assert not reached & {"_pairs", "_unfold"}


def test_the_shard_loop_validates_nothing():
    # the loop builds every vector, level and degree a datum's checks read,
    # so the per-datum path re-checks none of them; it calls the class kernel
    # on each necklace, the member kernel on each rotation and _checks on a
    # failing member itself; the cached _lifted_barycenter checks its chain
    # and d on a cache miss only, once per key
    reached = _names_reached(cli._verify_shard, skip={cli._failure, _lifted_barycenter})
    loop = {"_necklaces", "_class_kernel", "_member_kernel", "_checks", "_failure"}
    assert loop | DIRECT_ROUTE | GEOMETRIC_ROUTE <= reached
    assert not reached & VALIDATION
