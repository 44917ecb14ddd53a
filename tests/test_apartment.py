"""Points, chains, orders, barycenters, local types."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from embtypes.apartment import (
    ChainFace,
    _local_gaps,
    barycenter,
    chain_face,
    chain_of_order,
    coordinate_class,
    face_of,
    gap_class,
    invariant_of,
    lattice_at,
    local_type,
    make_point,
    normalize_exponents,
    order_of_chain,
    square_lattice_exponents,
    standard_chain,
    translate,
)
from embtypes.correspondence import to_centralizer
from embtypes.cyclic import CyclicClass, canonical
from embtypes.embedding import skeleton
from embtypes.enumeration import enumerate_data
from oracles import (
    barycenter_alpha,
    brute_square_entry,
    chains_with_base,
    chamber_coordinates,
    class_of_fractions,
    least_rotation,
)

F = Fraction


@st.composite
def points(draw, max_m=5, max_d=12, max_den=12):
    m = draw(st.integers(1, max_m))
    d = draw(st.integers(1, max_d))
    alpha = [
        F(draw(st.integers(-24, 24)), draw(st.integers(1, max_den))) for _ in range(m)
    ]
    return make_point(d, alpha)


@st.composite
def chains(draw, max_m=5):
    m = draw(st.integers(1, max_m))
    r = draw(st.integers(1, m))
    labels = draw(st.lists(st.integers(1, r), min_size=m, max_size=m))
    assume(set(labels) == set(range(1, r + 1)))
    base = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    steps = [
        tuple(base[i] + (1 if labels[i] <= l else 0) for i in range(m)) for l in range(r)
    ]
    return chain_face(steps)


@pytest.mark.parametrize(
    "d",
    [0, -1, 1.5, 2.0, True, "2", F(2)],
    ids=["zero", "negative", "float", "integral-float", "bool", "str", "Fraction"],
)
def test_make_point_and_barycenter_reject_a_bad_d(d):
    with pytest.raises(ValueError, match="d must be a positive integer"):
        make_point(d, [F(1, 2), 0])
    with pytest.raises(ValueError, match="d must be a positive integer"):
        barycenter(chain_face([(0, 0), (1, 0)]), d)


def test_make_point_normalizes_last_coordinate():
    x = make_point(1, [F(3, 2), 1])
    assert x.alpha == (F(1, 2), F(0))
    y = make_point(12, [F(1, 24), F(1, 24), 0, 0, 0, 0, 0])
    assert y.alpha == (F(1, 24), F(1, 24), 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="at least one coordinate"):
        make_point(1, [])
    assert make_point(1, [F(2, 4), 0]) == make_point(1, [F(1, 2), 0])


@given(
    points(),
    chains(),
    st.integers(1, 4),
    st.integers(1, 3),
    st.lists(st.integers(-4, 4), min_size=5, max_size=5),
)
def test_points_are_stored_in_least_terms(x, ch, d, f, shift):
    b = barycenter(ch, d * f)
    moved = translate(b, shift[: ch.size])
    for y in (x, translate(x, shift[: len(x.num)]), b, moved, to_centralizer(moved, f)):
        assert y.num[-1] == 0 and y.den >= 1 and gcd(y.den, *y.num) == 1


@given(points(), st.integers(-5, 5), st.integers(1, 7))
def test_make_point_mods_out_constant_shifts(x, num, den):
    c = F(num, den)
    shifted = make_point(x.d, [a + c for a in x.alpha])
    assert shifted == x


def test_lattice_at_known_values():
    zero = make_point(1, [0, 0, 0])
    assert lattice_at(zero, 0) == (0, 0, 0)
    assert lattice_at(zero, F(1, 2)) == (1, 1, 1)
    y = make_point(12, [F(1, 24), F(1, 24), 0, 0, 0, 0, 0])
    assert lattice_at(y, 0) == (1, 1, 0, 0, 0, 0, 0)


@given(points(), st.integers(-6, 6), st.integers(1, 8))
def test_lattice_periodicity(x, num, den):
    t = F(num, den)
    up = lattice_at(x, t + F(1, x.d))
    assert up == tuple(c + 1 for c in lattice_at(x, t))


def test_exponent_normalization_and_homothety():
    assert normalize_exponents((3, 5, 3)) == (0, 2, 0)
    assert normalize_exponents((1, 2)) == normalize_exponents((4, 5))
    assert normalize_exponents((1, 2)) != normalize_exponents((2, 1))


def test_chain_face_canonicalizes_any_representative():
    a = chain_face([(0, 0), (1, 0)])
    b = chain_face([(1, 0), (1, 1)])  # same cycle, rotated and shifted
    c = chain_face([(5, 5), (6, 5)])
    assert a == b == c
    assert a.steps == ((0, 0), (1, 0))
    assert a.period == 2 and a.size == 2


def test_chain_face_rejects_bad_steps():
    with pytest.raises(ValueError):
        chain_face([])
    with pytest.raises(ValueError):
        chain_face([(0, 0), (0, 0)])  # not strict
    with pytest.raises(ValueError):
        chain_face([(0, 0), (2, 0)])  # rises by 2
    with pytest.raises(ValueError):
        chain_face([(0, 0), (1, 1)])  # wrap step would be empty
    with pytest.raises(ValueError):
        chain_face([(0, 0), (1, 0, 0)])


def test_standard_chain_shapes():
    ch = standard_chain((1, 2))
    assert ch.steps == ((0, 0, 0), (1, 0, 0))
    vertex = standard_chain((4,))
    assert vertex.steps == ((0, 0, 0, 0),)
    with pytest.raises(ValueError):
        standard_chain((2, 0))


@given(st.lists(st.integers(1, 4), min_size=1, max_size=5))
def test_standard_chain_has_the_given_invariant(parts):
    r, cls = invariant_of(standard_chain(parts))
    assert r == len(parts)
    assert cls == canonical(parts)


def test_face_of_known_points():
    vertex = make_point(3, [F(2, 3), F(1, 3), 0, 0])
    assert face_of(vertex).period == 1
    y = make_point(12, [F(1, 24), F(1, 24), 0, 0, 0, 0, 0])
    assert face_of(y) == chain_face([(0,) * 7, (1, 1, 0, 0, 0, 0, 0)])
    chamber = make_point(1, [F(2, 3), F(1, 3), 0])
    assert face_of(chamber).period == 3


@given(points())
def test_face_period_counts_distinct_fractional_parts(x):
    fracs = {(x.d * a) % 1 for a in x.alpha}
    assert face_of(x).period == len(fracs)


def test_order_of_chain_known_values():
    assert order_of_chain(standard_chain((3,))) == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    ch = chain_face([(0, 0, 0), (1, 0, 0)])
    assert order_of_chain(ch) == ((0, 1, 1), (0, 0, 0), (0, 0, 0))
    assert order_of_chain(chain_face([(0, 0), (1, 0)])) == ((0, 1), (0, 0))


def test_chain_of_order_known_values():
    assert chain_of_order(((0, 0), (0, 0))) == chain_face([(0, 0)])
    assert chain_of_order(((0, 1), (0, 0))) == chain_face([(0, 0), (1, 0)])


def test_chain_of_order_rejects_non_orders():
    with pytest.raises(ValueError, match="not a split hereditary order"):
        chain_of_order(((1, 0), (0, 0)))  # nonzero diagonal
    with pytest.raises(ValueError, match="not a split hereditary order"):
        chain_of_order(((0, 2), (0, 0)))  # e_ij + e_ji = 2
    with pytest.raises(ValueError, match="not a split hereditary order"):
        chain_of_order(((0, 0, 1), (0, 0, 0), (-1, 0, 0)))  # triangle fails
    with pytest.raises(ValueError, match="not a split hereditary order"):
        chain_of_order(((0, 0), (0, 0), (0, 0)))


@pytest.mark.parametrize("e", [((0, 0.9), (0.2, 0)), ((0, True), (0, 0)), ((0, "1"), (0, 0))])
def test_chain_of_order_rejects_non_ints(e):
    # int() used to truncate these to a valid order
    with pytest.raises(ValueError, match="entries must be integers"):
        chain_of_order(e)


@given(chains())
def test_chain_order_round_trip(ch):
    assert chain_of_order(order_of_chain(ch)) == ch


def test_round_trip_over_every_small_jump_pattern():
    for m in range(1, 5):
        for steps in chains_with_base(m, [0] * m):
            ch = chain_face(steps)
            assert chain_of_order(order_of_chain(ch)) == ch


def test_invariant_of_known_chains():
    ch = chain_face([(0,) * 7, (1, 1, 0, 0, 0, 0, 0)])
    assert invariant_of(ch) == (2, canonical((2, 5)))
    assert invariant_of(standard_chain((5,))) == (1, canonical((5,)))
    chamber = face_of(make_point(1, [F(2, 3), F(1, 3), 0]))
    assert invariant_of(chamber) == (3, canonical((1, 1, 1)))


def test_invariant_of_counts_the_jumps_of_every_small_chain():
    # the jump count of step l, coordinate by coordinate; the wrap adds 1 to c^(0)
    for m in range(1, 6):
        for steps in chains_with_base(m, [0] * m):
            ch = chain_face(steps)
            s, r = ch.steps, ch.period
            counts = [sum(s[l][i] - s[l - 1][i] for i in range(m)) for l in range(1, r)]
            counts.append(sum(s[0][i] + 1 - s[r - 1][i] for i in range(m)))
            period, cls = invariant_of(ch)
            assert period == r
            assert cls.vector == least_rotation(counts)


def test_square_lattice_known_values():
    zero = make_point(1, [0, 0, 0])
    assert square_lattice_exponents(zero, 0) == ((0,) * 3,) * 3
    assert square_lattice_exponents(zero, F(3, 10)) == ((1,) * 3,) * 3
    x = make_point(2, [F(1, 2), 0])
    assert square_lattice_exponents(x, 0) == ((0, 1), (-1, 0))


@given(points(max_m=8))
def test_square_lattice_at_zero_is_the_face_order(x):
    assert square_lattice_exponents(x, 0) == order_of_chain(face_of(x))


@given(points(max_m=3, max_d=4, max_den=6), st.integers(-3, 3), st.integers(1, 6))
@settings(max_examples=40)
def test_square_lattice_matches_brute_maximization(x, num, den):
    t = F(num, den)
    mat = square_lattice_exponents(x, t)
    for i in range(len(x.num)):
        for j in range(len(x.num)):
            assert mat[i][j] == brute_square_entry(x, t, i, j)


def test_barycenter_known_values():
    ch = chain_face([(0,) * 7, (1, 1, 0, 0, 0, 0, 0)])
    assert barycenter(ch, 12).alpha == (F(1, 24), F(1, 24), 0, 0, 0, 0, 0)
    edge = chain_face([(0, 0), (1, 0)])
    assert barycenter(edge, 1).alpha == (F(1, 2), 0)
    vertex = chain_face([(2, 5)])
    assert barycenter(vertex, 3).alpha == (F(-1), F(0))


def test_barycenter_matches_the_mean_of_the_steps_on_every_small_datum():
    for f in range(1, 4):
        for r in range(1, 4):
            for m in range(1, 6):
                for datum in enumerate_data(f, r, m):
                    ch = standard_chain(skeleton(datum).partition)
                    x = barycenter(ch, f * r)
                    assert x.alpha == barycenter_alpha(ch.steps, f * r)


@given(chains(), st.integers(1, 6))
def test_face_of_barycenter_returns_the_chain(ch, d):
    assert face_of(barycenter(ch, d)) == ch


def test_translate_known_values():
    x = make_point(12, [0, 0])
    assert translate(x, (1, 0)).alpha == (F(1, 12), 0)
    assert translate(x, (3, 3)) == x


@pytest.mark.parametrize("bad", [0.5, 1.0, True, F(1), "1"])
def test_translate_rejects_non_int_shifts(bad):
    # int() used to truncate these, so translate(x, [0.5, 0]) left x unmoved
    x = make_point(12, [0, 0])
    with pytest.raises(ValueError, match="shift entries must be integers"):
        translate(x, [bad, 0])


@given(
    points(),
    st.lists(st.integers(-4, 4), min_size=5, max_size=5),
    st.lists(st.integers(-4, 4), min_size=5, max_size=5),
)
def test_translate_composes_additively(x, h_seed, k_seed):
    m = len(x.num)
    h, k = h_seed[:m], k_seed[:m]
    assert translate(translate(x, h), k) == translate(x, [a + b for a, b in zip(h, k)])


def test_local_type_known_values():
    vertex = make_point(2, [F(1, 2), 1, 0, 0])
    assert local_type(vertex) == CyclicClass((0, 0, 0, 1))
    x = make_point(1, [F(1, 2), 0])
    assert local_type(x) == CyclicClass((1, 1))
    y = make_point(2, [F(n, 24) for n in (1, -1, -2, -2, -2, -6, -8)])
    assert local_type(y) == canonical((3, 2, 1, 0, 0, 4, 2))


def test_gap_class_shift_invariance_without_normalization():
    vals = [F(3, 4), F(1, 3), F(7, 12), 2]
    base = gap_class(vals)
    for c in (1, F(1, 5), F(-7, 12)):
        assert gap_class([v + c for v in vals]) == base
    with pytest.raises(ValueError):
        gap_class([])


@pytest.mark.parametrize("bad", [0.1, "1/3", True])
def test_lattice_parameter_rejects_non_rationals(bad):
    x = make_point(2, [F(1, 3), F(1, 2), 0])
    with pytest.raises(ValueError, match="int or a Fraction"):
        lattice_at(x, bad)
    with pytest.raises(ValueError, match="int or a Fraction"):
        square_lattice_exponents(x, bad)
    assert lattice_at(x, 1) == lattice_at(x, F(1))


@pytest.mark.parametrize("bad", [1.5, "1", True])
def test_standard_chain_rejects_non_ints(bad):
    with pytest.raises(ValueError, match="positive integers"):
        standard_chain([bad, 2])


@pytest.mark.parametrize("bad", [1.5, "1", True])
def test_chain_face_rejects_non_ints(bad):
    with pytest.raises(ValueError, match="integer vectors"):
        chain_face([(0, 0), (bad, 0)])


@pytest.mark.parametrize("bad", [1.5, "1", True])
def test_normalize_exponents_rejects_non_ints(bad):
    with pytest.raises(ValueError, match="must be integers"):
        normalize_exponents([bad, 0])


@pytest.mark.parametrize("bad", [0.1, "1/3", True])
def test_make_point_and_gap_class_reject_non_rationals(bad):
    with pytest.raises(ValueError, match="ints or Fractions"):
        make_point(1, [bad, 0])
    with pytest.raises(ValueError, match="ints or Fractions"):
        gap_class([bad, 0])


@given(points())
def test_local_type_matches_chamber_coordinates(x):
    mu = chamber_coordinates(x)
    lt = local_type(x)
    assert class_of_fractions(mu) == (lt.vector, lt.total)


@given(points())
def test_the_local_type_core_returns_a_vector_of_the_local_type(x):
    gaps = _local_gaps(x.d, x.num, x.den)
    assert CyclicClass(gaps) == local_type(x)
    assert class_of_fractions(chamber_coordinates(x)) == (least_rotation(gaps), sum(gaps))


@given(points(), st.integers(1, 50), st.integers(2, 4))
def test_the_gap_reader_takes_numerators_neither_shifted_nor_reduced(x, c, k):
    # the geometric route lifts its numerators and never shifts them to
    # alpha_m = 0, so adding c / den to every coordinate, or writing them
    # over k * den, must leave the class alone
    lifted = [k * (n + c) for n in x.num]
    assert CyclicClass(_local_gaps(x.d, lifted, k * x.den)) == local_type(x)


def test_the_wrap_gap_keeps_the_smallest_value():
    # (3/4, 1/4) is the point (1/2, 0): class (1, 1); a wrap gap of
    # den - largest alone would read the unshifted numerators as (1, 2)
    num, den = (3, 1), 4
    assert local_type(make_point(1, [Fraction(3, 4), Fraction(1, 4)])) == CyclicClass((1, 1))
    assert CyclicClass(_local_gaps(1, num, den)) == CyclicClass((1, 1))
    assert CyclicClass((den - max(num), max(num) - min(num))) == CyclicClass((1, 2))


@given(chains(), st.integers(1, 6))
def test_barycenter_local_type_is_uniform_on_the_face(ch, d):
    lt = local_type(barycenter(ch, d))
    r = ch.period
    expected = sorted([1] * r + [0] * (ch.size - r), reverse=True)
    assert sorted(lt.vector, reverse=True) == expected
    assert lt.total == r


def test_coordinate_class_validation():
    assert coordinate_class([F(1, 2), F(1, 2)]) == CyclicClass((1, 1))
    assert coordinate_class([F(3, 12), F(2, 12), F(1, 12), 0, 0, F(4, 12), F(2, 12)]) == canonical(
        (3, 2, 1, 0, 0, 4, 2)
    )
    with pytest.raises(ValueError):
        coordinate_class([F(1, 2), F(1, 4)])
    with pytest.raises(ValueError):
        coordinate_class([F(3, 2), F(-1, 2)])
    assert coordinate_class([0, F(1, 2), F(1, 2)]) == CyclicClass((0, 1, 1))
    with pytest.raises(ValueError):
        coordinate_class([])
    with pytest.raises(ValueError):
        coordinate_class([0.5, 0.5])
