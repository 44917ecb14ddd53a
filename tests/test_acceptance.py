"""Acceptance gate: the seven certification criteria, timed and exact.

Each test prints one [PASS] or [FAIL] line with its runtime.  All
comparisons are exact equality; every failure is a real failure.
"""

from __future__ import annotations

import io
import random
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import permutations, product
from time import perf_counter

from embtypes.apartment import (
    chain_face,
    chain_of_order,
    coordinate_class,
    gap_class,
    local_type,
    make_point,
    normalize_exponents,
    order_of_chain,
    square_lattice_exponents,
)
from embtypes.cli import VerifyRange, run_verify
from embtypes.correspondence import (
    embedding_type_from_local,
    from_centralizer,
    intersection_property,
    local_type_direct,
    local_type_geometric,
    to_centralizer,
)
from embtypes.cyclic import complement, from_pairs, pairs_of
from embtypes.embedding import data_equivalent, make_datum
from embtypes.enumeration import count_data

from oracles import brute_square_entry, chains_with_base, least_rotation, row_classes


@contextmanager
def criterion(num, label, capsys, budget):
    start = perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = perf_counter() - start
        verdict = "FAIL" if failed or elapsed >= budget else "PASS"
        with capsys.disabled():
            print(f"[{verdict}] criterion {num}: {label} ({elapsed:.2f}s)")
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_1_worked_example(capsys):
    with criterion(1, "worked example, both routes and the inverse", capsys, 1.0):
        datum = make_datum(((1, 0), (1, 3), (0, 0), (0, 1), (0, 1), (0, 0)), 6, 2, 7)
        mu = local_type_direct(datum)
        assert mu == tuple(F(n, 12) for n in (3, 2, 1, 0, 0, 4, 2))
        scaled = [int(12 * v) for v in mu]
        assert pairs_of(scaled) == least_rotation(((3, 1), (2, 1), (1, 3), (4, 1), (2, 1)))
        expected = least_rotation((1, 0, 1, 3, 0, 0, 0, 1, 0, 1, 0, 0))
        assert complement(scaled).vector == expected
        assert data_equivalent(embedding_type_from_local(coordinate_class(mu), 6, 2), datum)
        assert local_type_geometric(datum) == coordinate_class(mu)


def test_criterion_2_exhaustive_certification(capsys):
    with criterion(2, "every datum with f<=6, r<=4, f*r<=12, m<=7", capsys, 120.0):
        rng = VerifyRange(6, 4, 7, 12)
        expected = sum(count_data(f, r, m) for f, r, m in rng.configurations())
        assert expected == 130830
        buf = io.StringIO()
        assert run_verify(rng, stream=buf) == 0
        assert buf.getvalue().splitlines()[-1] == f"total data={expected} fail=0"


def test_criterion_3_complement_calculus(capsys):
    with criterion(3, "complement bijection and pairs round trip, s,t<=7", capsys, 5.0):
        for s, t in product(range(1, 8), repeat=2):
            source = row_classes(s, t)
            image = set()
            for v in source:
                c = complement(v)
                image.add(c.vector)
                assert complement(c.vector).vector == v
                assert from_pairs(pairs_of(v)).vector == v
            assert image == row_classes(t, s)


def _base_universe(m):
    return [chain_face(steps) for steps in chains_with_base(m, (0,) * m)]


def test_criterion_4_chain_order_duality(capsys):
    with criterion(4, "order round trip and containment reversal, m<=6", capsys, 10.0):
        sizes = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541, 6: 4683}
        for m, expected in sizes.items():
            chains = _base_universe(m)
            assert len(chains) == expected
            for ch in chains:
                assert chain_of_order(order_of_chain(ch)) == ch
        rng = random.Random(41)
        for _ in range(300):
            m = rng.randint(2, 6)
            r = rng.randint(1, m)
            labels = list(range(1, r + 1)) + [rng.randint(1, r) for _ in range(m - r)]
            rng.shuffle(labels)
            base = [rng.randint(-3, 3) for _ in range(m)]
            steps = [
                tuple(base[i] + (1 if labels[i] <= l else 0) for i in range(m))
                for l in range(r)
            ]
            ch = chain_face(steps)
            assert chain_of_order(order_of_chain(ch)) == ch
        # full biconditional on every pair of base-0 chains, m <= 5
        for m in range(2, 6):
            chains = _base_universe(m)
            classes = [frozenset(normalize_exponents(s) for s in ch.steps) for ch in chains]
            mats = [tuple(v for row in order_of_chain(ch) for v in row) for ch in chains]
            for i, (ci, ei) in enumerate(zip(classes, mats)):
                for j, (cj, ej) in enumerate(zip(classes, mats)):
                    below = all(a <= b for a, b in zip(ei, ej))
                    assert (ci <= cj) == below, (m, i, j)
        # m = 6: every covering face against its chamber side, with strictness
        for ch in _base_universe(6):
            if ch.period == 1:
                continue
            big = tuple(v for row in order_of_chain(ch) for v in row)
            for drop in range(ch.period):
                sub = chain_face([s for l, s in enumerate(ch.steps) if l != drop])
                small = tuple(v for row in order_of_chain(sub) for v in row)
                assert all(a <= b for a, b in zip(small, big))
                assert small != big


def test_criterion_5_centralizer_defining_property(capsys):
    with criterion(5, "intersection identity and round trips, 1000 points", capsys, 10.0):
        rng = random.Random(43)
        dens = (1, 2, 3, 4, 6, 8, 12, 24)
        for _ in range(1000):
            f = rng.choice((2, 3, 4, 6))
            d = f * rng.randint(1, 24 // f)
            m = rng.randint(1, 5)
            den = rng.choice(dens)
            x = make_point(d, [F(rng.randint(-2 * den, 2 * den), den) for _ in range(m)])
            assert intersection_property(x, f)
            assert from_centralizer(to_centralizer(x, f), f) == x
            assert to_centralizer(from_centralizer(x, f), f) == x


def test_criterion_6_local_type_well_defined(capsys):
    with criterion(6, "tie permutations and constant shifts, 1000 points", capsys, 10.0):
        rng = random.Random(47)
        for _ in range(1000):
            m = rng.randint(2, 5)
            d = rng.randint(1, 12)
            pool = set()
            k = rng.randint(1, m - 1)
            while len(pool) < k:
                den = rng.choice((4, 6, 8, 12, 24))
                pool.add(F(rng.randrange(den), den))
            values = list(pool)
            picks = values + [rng.choice(values) for _ in range(m - k)]
            rng.shuffle(picks)
            alpha = [F(rng.randint(-6, 6)) + b for b in picks]
            x = make_point(d, [a / d for a in alpha])
            base = local_type(x)
            frac = [(d * a) % 1 for a in x.alpha]
            groups = {}
            for i, b in enumerate(frac):
                groups.setdefault(b, []).append(i)
            ordered_groups = [groups[b] for b in sorted(groups, reverse=True)]
            for perm_choice in product(*[permutations(g) for g in ordered_groups]):
                order = [i for grp in perm_choice for i in grp]
                gaps = [1 - frac[order[0]] + frac[order[-1]]]
                gaps.extend(frac[order[j - 1]] - frac[order[j]] for j in range(1, m))
                assert coordinate_class(gaps) == base
            shift = F(rng.randint(-24, 24), rng.choice((1, 2, 3, 4, 6, 8, 12, 24)))
            assert gap_class([d * a + shift for a in x.alpha]) == base


def test_criterion_7_square_lattice_oracle(capsys):
    with criterion(7, "closed form matches the maximization oracle, 100 points", capsys, 10.0):
        rng = random.Random(53)
        dens = (1, 2, 3, 4, 6, 12)
        for _ in range(100):
            m = rng.randint(1, 4)
            d = rng.randint(1, 12)
            den = rng.choice(dens)
            x = make_point(d, [F(rng.randint(-2 * den, 2 * den), den) for _ in range(m)])
            for _ in range(3):
                t = F(rng.randint(-12, 12), rng.choice(dens))
                mat = square_lattice_exponents(x, t)
                for i in range(m):
                    for j in range(m):
                        assert mat[i][j] == brute_square_entry(x, t, i, j)
