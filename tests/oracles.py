"""Independent reference implementations used only by the tests.

Everything here recomputes results from definitions or by brute force,
sharing no code path with the library.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import ceil, comb, gcd, lcm
from typing import Iterator, Sequence


def all_rotations(v: Sequence) -> list[tuple]:
    t = tuple(v)
    return [t[k:] + t[:k] for k in range(len(t))]


def least_rotation(v: Sequence) -> tuple:
    return min(all_rotations(v))


def reshape_by_scan(v: Sequence[int], nrows: int, ncols: int) -> tuple[tuple[int, ...], ...] | None:
    """First rotation of the least rotation, in shift order, whose rows have no zero column.

    Cuts every rotation into nrows rows of ncols entries and returns the
    first cut whose columns all have a positive entry; None when none has.
    """
    for w in all_rotations(least_rotation(v)):
        rows = tuple(w[i * ncols : (i + 1) * ncols] for i in range(nrows))
        if all(any(row[j] for row in rows) for j in range(ncols)):
            return rows
    return None


def class_count(f: int, r: int, m: int) -> int:
    """Rotation classes of the flattenings of M(f, r; m), in closed form.

    Burnside over the n = f r rotations: the phi(n / g) rotations with
    gcd g of n fix the vectors of period g, which repeat one block of
    length g and sum s = m g / n, n / g times.  Position p
    lies in column p mod r, so column j meets the block in the residues
    j mod c, c = gcd(g, r), and a fixed vector is a datum when the block
    has a positive entry in each of the c residue classes: inclusion and
    exclusion over the classes left empty.
    """
    n = f * r
    total = 0
    for g in range(1, n + 1):
        if n % g or m % (n // g):
            continue
        s, c = m * g // n, gcd(g, r)
        ways = 0
        for j in range(c + 1):
            free = g * (c - j) // c
            ways += (-1) ** j * comb(c, j) * (comb(s + free - 1, s) if free else 0)
        total += phi(n // g) * ways
    assert total % n == 0
    return total // n


def phi(n: int) -> int:
    """Euler's totient, by counting."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All length-parts vectors of non-negative integers summing to total.

    Stars and bars: choose bar positions among total + parts - 1 slots.
    """
    for bars in combinations(range(total + parts - 1), parts - 1):
        out = []
        prev = -1
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def valid_flattenings(f: int, r: int, m: int) -> list[tuple[int, ...]]:
    """Row-major flattenings of the f x r matrices with entry sum m and no zero column, ascending.

    Filters every weak composition of m into f * r parts by its columns.
    """
    return sorted(
        v for v in weak_compositions(m, f * r) if all(any(v[i * r + j] for i in range(f)) for j in range(r))
    )


def skeleton_of(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Partition and levels of a matrix, from the definition.

    Column j sums to rows[0][j] + ... + rows[f-1][j]; scanning column j
    from row 0 upward, the level i is listed rows[i][j] times.
    """
    f, r = len(rows), len(rows[0])
    partition = tuple(sum(rows[i][j] for i in range(f)) for j in range(r))
    levels = []
    for j in range(r):
        for i in range(f):
            levels.extend([i] * rows[i][j])
    return partition, tuple(levels)


def barycenter_alpha(steps: Sequence[Sequence[int]], d: int) -> tuple[Fraction, ...]:
    """Chart coordinates of the mean of the vertex points c^(l) / d.

    The mean is taken coordinatewise in Fractions, then shifted by its
    last coordinate so that alpha_m = 0.
    """
    mean = [sum(Fraction(s[i], d) for s in steps) / len(steps) for i in range(len(steps[0]))]
    return tuple(v - mean[-1] for v in mean)


def row_classes(s: int, t: int) -> set[tuple[int, ...]]:
    """Rotation classes of length-s vectors summing to t, by enumeration."""
    return {least_rotation(v) for v in weak_compositions(t, s)}


def complement_of(v: Sequence[int]) -> tuple[int, ...]:
    """A vector of the complement class of a nonzero vector v, from the definition.

    v has one pair (a_j, b_j) per nonzero entry a_j, where b_j is the
    distance to the next nonzero entry around the cycle.  The complement
    has the pairs (b_j, a_{j+1}): each gap b_j, then a_{j+1} - 1 zeros.
    """
    n = len(v)
    support = [i for i in range(n) if v[i] != 0]
    out = []
    for here, there in zip(support, support[1:] + support[:1]):
        out += [(there - here) % n or n] + [0] * (v[there] - 1)
    return tuple(out)


def solve_linear(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square system over the rationals by Gaussian elimination."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def refined_chamber(point) -> list[tuple[int, ...]]:
    """Steps of a complete chain whose closure contains the point.

    Coordinate i jumps as t passes (-d * alpha_i) mod 1, so sorting the
    coordinates by that threshold (ties by index) and inserting one jump
    per step refines the face of the point into a chamber.
    """
    d = point.d
    m = len(point.num)
    scaled = [d * a for a in point.alpha]
    theta = [Fraction(-x) % 1 for x in scaled]
    order = sorted(range(m), key=lambda i: (theta[i], i))
    cur = [ceil(x) for x in scaled]
    steps = [tuple(cur)]
    for i in order[:-1]:
        cur[i] += 1
        steps.append(tuple(cur))
    return steps


def chamber_coordinates(point) -> list[Fraction]:
    """Barycentric coordinates of the point in a chamber containing it.

    Solves x = sum_k mu_k * (c_k / d) + c * 1 with sum_k mu_k = 1
    exactly, and returns the mu in chamber step order.
    """
    steps = refined_chamber(point)
    m = len(point.num)
    d = point.d
    rows = []
    rhs = []
    for i in range(m):
        rows.append([Fraction(steps[k][i], d) for k in range(m)] + [Fraction(1)])
        rhs.append(point.alpha[i])
    rows.append([Fraction(1)] * m + [Fraction(0)])
    rhs.append(Fraction(1))
    sol = solve_linear(rows, rhs)
    mu = sol[:m]
    assert sum(mu) == 1
    assert all(x >= 0 for x in mu)
    return mu


def class_of_fractions(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Least-denominator integer form of a rational vector, canonicalized.

    Returns (least rotation of the scaled entries, denominator).  Only
    valid for non-negative entries with a positive sum.
    """
    den = lcm(*(v.denominator for v in values))
    ints = [int(v * den) for v in values]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return least_rotation([x // g for x in ints]), den // g


def brute_square_entry(point, t: Fraction, i: int, j: int) -> int:
    """Largest c_i(s + t) - c_j(s) over s, by dense period sampling.

    Both step functions have period 1/d in s and only jump at rationals
    with denominator dividing d * M, so a half-step grid over one period
    sees every value they take.
    """
    d = point.d
    ai, aj = point.alpha[i], point.alpha[j]
    t = Fraction(t)
    M = lcm(t.denominator, ai.denominator, aj.denominator)
    best = None
    for k in range(2 * M):
        s = Fraction(k, 2 * d * M)
        val = ceil(d * (s + t + ai)) - ceil(d * (s + aj))
        if best is None or val > best:
            best = val
    return best


def chains_with_base(m: int, base: Sequence[int], max_period: int | None = None) -> Iterator[list[tuple[int, ...]]]:
    """Step lists of every chain on m coordinates over the given base.

    Label each coordinate with the step at which it jumps; a labelling
    is a chain of period r exactly when it is onto {1, ..., r}.
    """
    rmax = m if max_period is None else min(max_period, m)
    for r in range(1, rmax + 1):
        for labels in product(range(1, r + 1), repeat=m):
            if set(labels) != set(range(1, r + 1)):
                continue
            yield [
                tuple(base[i] + (1 if labels[i] <= l else 0) for i in range(m))
                for l in range(r)
            ]
