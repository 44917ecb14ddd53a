"""Rotation classes, pairs form, complement, flatten and reshape."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from embtypes.cyclic import (
    CyclicClass,
    _complement,
    _least_rotation,
    canonical,
    classes_equal,
    complement,
    flatten,
    from_pairs,
    make_matrix,
    pairs_of,
    reshape,
    rotate,
)
from oracles import all_rotations, least_rotation, reshape_by_scan, row_classes, weak_compositions

vectors = st.lists(st.integers(0, 5), min_size=1, max_size=9)


def test_rotate_is_left_rotation():
    assert rotate((2, 0, 1, 3, 0, 1), 4) == (0, 1, 2, 0, 1, 3)
    assert rotate((1, 2, 3), 0) == (1, 2, 3)
    assert rotate((1, 2, 3), 5) == (3, 1, 2)


def test_canonical_picks_least_rotation():
    c = canonical((2, 0, 1, 3, 0, 1))
    assert c.vector == (0, 1, 2, 0, 1, 3)
    assert canonical((0, 0)) == CyclicClass((0, 0))
    assert canonical((7,)) == CyclicClass((7,))
    assert canonical((1, 0, 1, 0)) == CyclicClass((0, 1, 0, 1))
    # a class is already canonical
    assert canonical(c) == c


def test_canonical_rejects_bad_input():
    with pytest.raises(ValueError):
        canonical(())
    with pytest.raises(ValueError):
        canonical((1, -1))


@pytest.mark.parametrize("bad", [1.9, "1", True])
def test_canonical_rejects_non_ints(bad):
    with pytest.raises(ValueError, match="non-negative integers"):
        canonical([bad, 0, 2])


@pytest.mark.parametrize("bad", [1.5, "1", True])
def test_pairs_of_and_complement_reject_non_ints(bad):
    with pytest.raises(ValueError, match="non-negative integers"):
        pairs_of([bad, 0, 1])
    with pytest.raises(ValueError, match="non-negative integers"):
        complement([bad, 0, 1])


@pytest.mark.parametrize("bad", [1.7, "1", True])
def test_from_pairs_rejects_non_ints(bad):
    with pytest.raises(ValueError, match="positive integers"):
        from_pairs([(bad, 2)])
    with pytest.raises(ValueError, match="positive integers"):
        from_pairs([(2, bad)])


@given(st.lists(st.integers(-3, 300), min_size=1, max_size=9), st.integers(0, 20))
def test_every_class_is_built_canonical(v, k):
    # construction canonicalizes whoever builds the class, so == and hash
    # are class equality; entries are not validated
    assert CyclicClass(tuple(v)).vector == least_rotation(v)
    assert CyclicClass(rotate(v, k)) == CyclicClass(tuple(v))
    assert hash(CyclicClass(rotate(v, k))) == hash(CyclicClass(tuple(v)))


def test_a_class_and_its_entries_give_the_same_results():
    assert reshape(CyclicClass((2, 0, 1, 1)), 2, 2) == reshape((2, 0, 1, 1), 2, 2)
    assert CyclicClass((1, 0, 2)) == canonical((1, 0, 2))


def test_the_empty_class_has_total_zero():
    assert CyclicClass(()).vector == ()
    assert CyclicClass(()).total == 0


@given(vectors)
def test_canonical_matches_brute_force(v):
    c = canonical(v)
    assert c.vector == least_rotation(v)
    assert canonical(c.vector) == c


@given(
    st.one_of(
        st.lists(st.integers(0, 2), min_size=1, max_size=9),
        st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), min_size=1, max_size=6),
    )
)
@example([3, 3, 3, 3])
@example([0, 1, 0, 1, 0, 0])
@example([(1, 2), (1, 1), (1, 2), (1, 1)])
@example([0, 1, 0, 0, 2, 0])
@example([0, 0, 1, 0, 0, 1, 0])
@example([2, 0, 0, 1, 0])
@example([7])
def test_least_rotation_is_the_min_over_all_rotations(v):
    # repeated minima, runs of minima that wrap past the end and
    # all-equal vectors included
    assert _least_rotation(tuple(v)) == min(all_rotations(v))


@given(vectors, st.integers(0, 20))
def test_canonical_is_rotation_invariant(v, k):
    assert canonical(rotate(v, k)).vector == canonical(v).vector
    assert classes_equal(rotate(v, k), v)


@st.composite
def vector_pairs(draw):
    # b is a rotation of a, a rearrangement of a, or any vector; entries up
    # to 300 take the path for entries outside 0..255
    top = draw(st.sampled_from([2, 3, 300]))
    a = draw(st.lists(st.integers(0, top), min_size=1, max_size=8))
    b = draw(
        st.one_of(
            st.integers(0, 20).map(lambda k: rotate(a, k)),
            st.permutations(a),
            st.lists(st.integers(0, top), min_size=1, max_size=9),
        )
    )
    return a, b


@given(vector_pairs())
@example(([1, 1, 0, 0], [1, 0, 1, 0]))
@example(([0, 1, 2], [2, 1, 0]))
@example(([1, 2], [1, 2, 1, 2]))
@example(([1, 2, 1, 2], [1, 2]))
@example(([256, 0, 300], [300, 256, 0]))
@example(([256, 0, 300], [300, 0, 256]))
@example(([256, 1], [1, 256, 0]))
def test_classes_equal_is_rotation_equality(pair):
    # same multiset but no rotation, reversal, and one side occurring in the
    # doubled other with a different length are all unequal classes
    a, b = pair
    assert classes_equal(a, b) == (least_rotation(a) == least_rotation(b))


def test_pairs_of_known_values():
    # one pair per nonzero entry, gap wrapping past the end
    p = pairs_of((3, 2, 1, 0, 0, 4, 2))
    expected = least_rotation(((3, 1), (2, 1), (1, 3), (4, 1), (2, 1)))
    assert p == expected
    assert sum(g for _, g in p) == 7
    assert sum(a for a, _ in p) == 12
    assert pairs_of((0, 2, 0)) == ((2, 3),)
    assert pairs_of((5,)) == ((5, 1),)


def test_pairs_of_zero_vector_rejected():
    with pytest.raises(ValueError):
        pairs_of((0, 0, 0))


@given(vectors)
def test_pairs_round_trip(v):
    assume(any(v))
    p = pairs_of(v)
    assert from_pairs(p).vector == canonical(v).vector
    assert sum(g for _, g in p) == len(v)
    assert sum(a for a, _ in p) == sum(v)


@given(vectors, st.integers(0, 20))
def test_pairs_form_is_rotation_invariant(v, k):
    assume(any(v))
    assert pairs_of(rotate(v, k)) == pairs_of(v)


def test_complement_known_values():
    assert classes_equal(complement((3, 2, 1, 0, 0, 4, 2)).vector, (1, 0, 1, 3, 0, 0, 0, 1, 0, 1, 0, 0))
    assert complement((0, 2, 0)).vector == canonical((3, 0)).vector
    assert complement((5,)).vector == canonical((1, 0, 0, 0, 0)).vector
    assert complement((1, 0, 0, 0, 0)).vector == (5,)


@given(vectors)
def test_complement_is_the_swap_of_its_pairs(v):
    assume(any(v))
    p = pairs_of(v)
    swapped = [(p[j][1], p[(j + 1) % len(p)][0]) for j in range(len(p))]
    assert complement(v) == from_pairs(swapped)


@given(vectors)
def test_the_complement_core_returns_a_vector_of_the_complement_class(v):
    assume(any(v))
    raw = _complement(tuple(v))
    assert CyclicClass(raw) == complement(v)
    # complement is written on the core, so check the core against the swap of the pairs too
    p = pairs_of(v)
    swapped = [(p[j][1], p[(j + 1) % len(p)][0]) for j in range(len(p))]
    assert least_rotation(raw) == from_pairs(swapped).vector


def test_complement_swaps_length_and_sum():
    c = complement((3, 2, 1, 0, 0, 4, 2))
    assert len(c) == 12 and c.total == 7


@given(vectors)
def test_complement_is_an_involution(v):
    assume(any(v))
    back = complement(complement(v))
    assert back.vector == canonical(v).vector


def test_complement_bijection_on_small_ranges():
    # against enumeration of both sides, s and t up to 5 here
    for s in range(1, 6):
        for t in range(1, 6):
            source = row_classes(s, t)
            image = {complement(v).vector for v in source}
            assert image == row_classes(t, s)
            assert len(image) == len(source)


def test_flatten_is_row_major():
    rows = ((1, 0), (1, 3), (0, 0), (0, 1), (0, 1), (0, 0))
    assert flatten(rows) == (1, 0, 1, 3, 0, 0, 0, 1, 0, 1, 0, 0)


def test_make_matrix_validation():
    with pytest.raises(ValueError):
        make_matrix([[1, 0], [1]])
    with pytest.raises(ValueError):
        make_matrix([])
    with pytest.raises(ValueError):
        make_matrix([[1, -2]])
    # entries are taken as given, never converted
    for bad in (1.9, True, "1"):
        with pytest.raises(ValueError):
            make_matrix([[bad, 0], [0, 2]])
    assert make_matrix([[1, 0], [0, 2]]) == ((1, 0), (0, 2))


def test_reshape_recovers_a_matrix_in_the_same_class():
    rows = ((1, 0), (1, 3), (0, 0), (0, 1), (0, 1), (0, 0))
    out = reshape(canonical(flatten(rows)), 6, 2)
    assert classes_equal(flatten(out), flatten(rows))
    # the cut of the canonical vector, which has no zero column
    assert out == ((0, 0), (0, 1), (0, 1), (0, 0), (1, 0), (1, 3))


def test_reshape_rejects_zero_columns_and_bad_shapes():
    with pytest.raises(ValueError):
        reshape((0, 0, 1, 0), 2, 2)
    with pytest.raises(ValueError):
        reshape((1, 1, 1), 2, 2)
    with pytest.raises(ValueError):
        reshape((1, 1), 2, -1)


@given(st.lists(st.integers(0, 3), min_size=4, max_size=8))
def test_reshape_round_trips_through_flatten(v):
    n = len(v)
    for nrows in range(1, n + 1):
        if n % nrows:
            continue
        try:
            mat = reshape(v, nrows, n // nrows)
        except ValueError:
            continue
        assert classes_equal(flatten(mat), v)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=10))
def test_reshape_is_the_scan_over_rotations(v):
    # rotating the flattening permutes its column sums, so the scan over the
    # rotations of the least rotation stops at the first one or never
    n = len(v)
    for nrows in range(1, n + 1):
        if n % nrows:
            continue
        expected = reshape_by_scan(v, nrows, n // nrows)
        if expected is None:
            with pytest.raises(ValueError, match="^no rotation yields positive columns$"):
                reshape(v, nrows, n // nrows)
        else:
            assert reshape(v, nrows, n // nrows) == expected


def test_weak_composition_oracle_counts():
    # sanity for the test oracle itself: stars and bars count
    from math import comb

    for total, parts in [(2, 2), (4, 3), (5, 1)]:
        seen = list(weak_compositions(total, parts))
        assert len(seen) == comb(total + parts - 1, parts - 1)
        assert len(set(seen)) == len(seen)
        assert all(sum(v) == total and len(v) == parts for v in seen)


@given(st.integers(1, 6), st.integers(1, 6))
def test_complement_image_counts_match(s, t):
    assert len(row_classes(s, t)) == len(row_classes(t, s))


def _int_type_tests(tree):
    """(function, line) of every comparison of a type(...) call with int."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call)
            and getattr(node.left.func, "id", None) == "type"
            and any(isinstance(n, ast.Name) and n.id == "int" for c in node.comparators for n in ast.walk(c))
        ):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _functions_naming(tree, name):
    """Qualified names of the functions that name `name` or import it."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (
            isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and node.name == name
        ):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_the_least_rotation_rule_has_one_owner():
    # a class is canonical because CyclicClass makes it so; a second caller
    # of the rule, in this module or another, can drift from it
    src = Path(__file__).resolve().parents[1] / "src" / "embtypes"
    users = [
        f"{path.name}:{function}"
        for path in sorted(src.glob("*.py"))
        for function in _functions_naming(ast.parse(path.read_text()), "_least_rotation")
    ]
    assert sorted(users) == ["cyclic.py:CyclicClass.__new__", "cyclic.py:pairs_of"]


def test_the_integer_rule_is_written_once():
    # every boundary checks ints through cyclic._ints, and int-or-Fraction
    # through apartment._over_common_denominator; a hand-written type(v) is
    # int elsewhere is one more copy of the rule to keep in step
    src = Path(__file__).resolve().parents[1] / "src" / "embtypes"
    stray = [
        f"{path.name}:{line} in {function}"
        for path in sorted(src.glob("*.py"))
        for function, line in _int_type_tests(ast.parse(path.read_text()))
        if function not in ("_ints", "_over_common_denominator")
    ]
    assert stray == []


def test_the_oracles_import_nothing_from_the_library():
    # an oracle that reuses library code would agree with the library's faults
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "embtypes"]
