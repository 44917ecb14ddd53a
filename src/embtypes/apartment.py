"""One apartment of the affine building, in exact rational coordinates.

Lattices are integer exponent vectors of length m, considered modulo
adding a constant (homothety).  A point of the apartment is a rational
coordinate vector alpha with alpha_m = 0, stored as integer numerators
over one least denominator, together with the denominator d of the
valuation it is read against; it selects the lattice
ceil(d * (t + alpha)) at parameter t.  Chains of lattices are the faces
of the apartment, hereditary orders are exponent matrices, and the
local type of a point is the cyclic class of its barycentric gaps.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .cyclic import CyclicClass, _ints, flatten

Exponents = tuple[int, ...]
Rational = Fraction | int


def normalize_exponents(c: Sequence[int]) -> Exponents:
    """Shift so the least entry is 0, fixing a homothety representative."""
    v = _ints(c, "exponents must be integers")
    if not v:
        raise ValueError("empty exponent vector")
    low = min(v)
    return tuple(x - low for x in v)


class ChainFace(NamedTuple):
    """One period of a lattice chain, stored canonically.

    steps lists (c^(0), ..., c^(r-1)), componentwise non-decreasing and
    strictly increasing around the cycle, with c^(r) := c^(0) + 1.  The
    stored representative starts at the lexicographically least
    normalized step, so equal chains compare equal.
    """

    steps: tuple[Exponents, ...]

    @property
    def period(self) -> int:
        return len(self.steps)

    @property
    def size(self) -> int:
        return len(self.steps[0])


def chain_face(steps: Sequence[Sequence[int]]) -> ChainFace:
    """Canonical chain face from one period of steps.

    Accepts any representative: the steps may carry a common shift and
    may start anywhere in the cycle.
    """
    raw = tuple(tuple(s) for s in steps)
    if not raw or not raw[0]:
        raise ValueError("a chain needs at least one step")
    _ints(flatten(raw), "steps must be integer vectors")
    m = len(raw[0])
    if any(len(s) != m for s in raw):
        raise ValueError("steps must share one length")
    r = len(raw)
    # jump vectors, cyclically: jumps[l] leads into step l, jumps[0] wraps
    jumps = [tuple(raw[0][i] + 1 - raw[-1][i] for i in range(m))]
    for l in range(1, r):
        jumps.append(tuple(raw[l][i] - raw[l - 1][i] for i in range(m)))
    for j in jumps:
        if any(x not in (0, 1) for x in j):
            raise ValueError("each coordinate must rise exactly once per period")
        if not any(j):
            raise ValueError("steps must be strictly increasing around the cycle")
    norm = [normalize_exponents(s) for s in raw]
    start = min(range(r), key=lambda l: norm[l])
    out = [norm[start]]
    for k in range(1, r):
        j = jumps[(start + k) % r]
        out.append(tuple(out[-1][i] + j[i] for i in range(m)))
    return ChainFace(tuple(out))


def standard_chain(composition: Sequence[int]) -> ChainFace:
    """Chain of the composition (n_1, ..., n_r): block l jumps at step l.

    Step l is the 0/1 indicator of the first l blocks, so the period is
    the number of blocks and the jump counts are exactly the given
    composition.
    """
    message = "composition entries must be positive integers"
    parts = _ints(composition, message, 1)
    if not parts:
        raise ValueError(message)
    m = sum(parts)
    cur = [0] * m
    steps = [tuple(cur)]
    pos = 0
    for n in parts[:-1]:
        for i in range(pos, pos + n):
            cur[i] = 1
        pos += n
        steps.append(tuple(cur))
    return chain_face(steps)


class ApartmentPoint(NamedTuple):
    """A point of the apartment in chart coordinates: alpha_i = num_i / den.

    d is the valuation denominator and m is len(num).  num[-1] == 0,
    den >= 1 and gcd(den, *num) == 1, so equal points compare equal.
    local_type relies on num[-1] == 0: _point ensures it, and a point
    built by hand must keep it.
    """

    d: int
    num: tuple[int, ...]
    den: int

    @property
    def alpha(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions, for readers at the API boundary."""
        return tuple(Fraction(n, self.den) for n in self.num)


def _point(d: int, num: Sequence[int], den: int) -> ApartmentPoint:
    """Point num / den (den >= 1, num not empty), shifted so alpha_m = 0, in least terms."""
    last = num[-1]
    if last:
        num = [n - last for n in num]
    g = gcd(den, *num)
    if g == 1:
        return ApartmentPoint(d, tuple(num), den)
    return ApartmentPoint(d, tuple(n // g for n in num), den // g)


def _over_common_denominator(values: Sequence[Rational], message: str) -> tuple[list[int], int]:
    """Numerators of int or Fraction values over their least common denominator.

    Any other type, bool, float and str included, raises ValueError(message).
    """
    if any(type(v) not in (int, Fraction) for v in values):
        raise ValueError(message)
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def make_point(d: int, values: Sequence[Rational]) -> ApartmentPoint:
    """Point with the given int or Fraction chart coordinates, normalized so alpha_m = 0."""
    _ints((d,), "d must be a positive integer", 1)
    if not values:
        raise ValueError("a point needs at least one coordinate")
    return _point(d, *_over_common_denominator(values, "coordinates must be ints or Fractions"))


def lattice_at(x: ApartmentPoint, t: Rational) -> Exponents:
    """Exponent vector of the lattice the point selects at an int or Fraction t."""
    (p,), s = _over_common_denominator((t,), "the parameter t must be an int or a Fraction")
    d, q = x.d, s * x.den
    return tuple(-(-d * (p * x.den + n * s) // q) for n in x.num)


def face_of(x: ApartmentPoint) -> ChainFace:
    """The face whose closure contains the point.

    Coordinate i moves as t crosses (-d * alpha_i) mod 1 (in the scaled
    parameter), so the distinct thresholds give one step each and the
    period is the number of distinct fractional parts of d * alpha.
    """
    d, den = x.d, x.den
    thetas = sorted({-d * n % den for n in x.num})
    return chain_face([lattice_at(x, Fraction(th, d * den)) for th in thetas])


def order_of_chain(ch: ChainFace) -> tuple[Exponents, ...]:
    """Exponent matrix of the chain: entry (i, j) is max_l (c^(l)_i - c^(l)_j)."""
    m = ch.size
    return tuple(
        tuple(max(s[i] - s[j] for s in ch.steps) for j in range(m)) for i in range(m)
    )


def chain_of_order(e: Sequence[Sequence[int]]) -> ChainFace:
    """The chain of all lattices stable under the exponent matrix.

    A vector c is stable exactly when c_i - c_j <= e_ij for all i, j.
    Column j (c_i = e_ij) is stable by the triangle inequality, and
    every step of the chain is a column up to homothety.
    """
    mat = tuple(tuple(row) for row in e)
    _ints(flatten(mat), "not a split hereditary order: entries must be integers")
    m = len(mat)
    if m == 0 or any(len(row) != m for row in mat):
        raise ValueError("not a split hereditary order: matrix must be square")
    for i in range(m):
        if mat[i][i] != 0:
            raise ValueError("not a split hereditary order: nonzero diagonal")
        for j in range(m):
            if mat[i][j] + mat[j][i] not in (0, 1):
                raise ValueError("not a split hereditary order: e_ij + e_ji not in {0, 1}")
            for k in range(m):
                if mat[i][j] + mat[j][k] < mat[i][k]:
                    raise ValueError("not a split hereditary order: triangle inequality fails")
    classes = sorted({normalize_exponents([row[j] for row in mat]) for j in range(m)})
    base = classes[0]
    window = []
    for n in classes[1:]:
        k = max(base[i] - n[i] for i in range(m))
        window.append(tuple(x + k for x in n))
    window.sort(key=sum)
    return chain_face([base] + window)


def invariant_of(ch: ChainFace) -> tuple[int, CyclicClass]:
    """Period and jump-count class: how many coordinates move at each step.

    Each coordinate rises by 0 or 1 per step, so a jump count is the
    difference of consecutive step sums; the wrap adds the size.
    """
    sums = [sum(s) for s in ch.steps]
    counts = [b - a for a, b in zip(sums, sums[1:])]
    counts.append(sums[0] + ch.size - sums[-1])
    return ch.period, CyclicClass(tuple(counts))


def square_lattice_exponents(x: ApartmentPoint, t: Rational) -> tuple[Exponents, ...]:
    """Exponent matrix of the square lattice the point selects at t.

    Entry (i, j) is ceil(d * (t + alpha_i - alpha_j)), the largest value
    of c_i(s + t) - c_j(s) over all s; t is an int or a Fraction.  So
    column j is the lattice the point selects at t - alpha_j.
    """
    (p,), s = _over_common_denominator((t,), "the parameter t must be an int or a Fraction")
    return tuple(zip(*(lattice_at(x, Fraction(p * x.den - n * s, s * x.den)) for n in x.num)))


def barycenter(ch: ChainFace, d: int) -> ApartmentPoint:
    """Equal-weight average of the chain's vertex points, read against d."""
    _ints((d,), "d must be a positive integer", 1)
    return _point(d, [sum(col) for col in zip(*ch.steps)], ch.period * d)


def translate(x: ApartmentPoint, shift: Sequence[int]) -> ApartmentPoint:
    """Translate by an integer exponent vector: alpha_i += shift_i / d.

    Every entry of the shift must be of type int.
    """
    if len(shift) != len(x.num):
        raise ValueError("shift length must match the point")
    shift = _ints(shift, "shift entries must be integers")
    den = lcm(x.den, x.d)
    up, step = den // x.den, den // x.d
    return _point(x.d, [n * up + s * step for n, s in zip(x.num, shift)], den)


def _least_terms(ints: Sequence[int]) -> tuple[int, ...]:
    """Non-negative integer coordinates divided by their gcd, in their order.

    The vector is then in least terms, and its total is the denominator
    of the rational coordinates it stands for.
    """
    g = gcd(*ints)
    return tuple(ints) if g == 1 else tuple(x // g for x in ints)


def gap_class(values: Sequence[Rational]) -> CyclicClass:
    """Gap class of a rational vector, a function of fractional parts only.

    It is the local type of the values read as a point with d = 1, so
    adding one constant to all values leaves it unchanged.
    """
    return local_type(make_point(1, values))


def coordinate_class(values: Sequence[Rational]) -> CyclicClass:
    """The cyclic class of an explicit coordinate vector, in least terms.

    For turning an ordered vector of barycentric coordinates (ints or
    Fractions summing to 1) into a local type comparable with gap_class
    output.
    """
    ints, den = _over_common_denominator(values, "coordinates must be ints or Fractions")
    if any(n < 0 for n in ints) or sum(ints) != den:
        raise ValueError("coordinates must be non-negative and sum to 1")
    return CyclicClass(_least_terms(ints))


def local_type(x: ApartmentPoint) -> CyclicClass:
    """Local type of the point: the gap class of d * alpha.

    Sort the fractional parts of d * alpha decreasingly; the gaps
    between consecutive ones, led by the wrap gap 1 - largest +
    smallest, form the local coordinate vector.  The smallest part is
    0, because num[-1] == 0, so the wrap gap is 1 - largest.  The
    class is in least terms, so its total is the denominator.
    """
    return CyclicClass(_local_gaps(x))


def _local_gaps(x: ApartmentPoint) -> tuple[int, ...]:
    """The gaps of local_type in least terms, wrap gap first; no canonical form."""
    d, den = x.d, x.den
    b = sorted([d * n % den for n in x.num], reverse=True)
    gaps = [den - b[0]]
    gaps += [p - q for p, q in zip(b, b[1:])]
    return _least_terms(gaps)

