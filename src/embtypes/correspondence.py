"""The centralizer map and the two routes to the local type.

A point of the apartment with denominator d also lives in the smaller
apartment of a degree-f centralizer when f divides d: the coordinates
stay put and only the denominator shrinks.  The local type of an
embedding datum can be computed two independent ways, by a counting
formula on the flattened datum and by walking the geometric pipeline
(standard chain, barycenter, diagonal move, centralizer); the verifier
checks both against the complement identity on the flattening.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import sub
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .apartment import ApartmentPoint, _local_gaps, _square_lattice, barycenter, standard_chain
from .cyclic import CyclicClass, Vec, _complement, _ints, _rotation_of, complement, flatten, reshape
from .embedding import EmbeddingDatum, _skeleton, _vector, datum_to_json, make_datum

if TYPE_CHECKING:
    from fractions import Fraction


@lru_cache(maxsize=None)
def _lifted_barycenter(partition: tuple[int, ...], d: int) -> tuple[tuple[int, ...], int, int]:
    """(num, step, den): the standard chain's barycenter in denominator d, lifted for translation.

    num are its numerators over den = lcm(its denominator, d), and step
    = den / d lifts one unit of a translation.  The geometric route
    meets few keys (266 on the fr<=8 slice, 413 over the gate range);
    the direct route does not read this cache.
    """
    x = barycenter(standard_chain(partition), d)
    den = lcm(x.den, d)
    return tuple([n * (den // x.den) for n in x.num]), den // d, den


def to_centralizer(x: ApartmentPoint, f: int) -> ApartmentPoint:
    """Image of the point in the apartment of the degree-f centralizer.

    Coordinates are unchanged; the denominator shrinks from d to d / f,
    so in the affine chart this divides by f.
    """
    _ints((f,), "f must be a positive integer", 1)
    if x.d % f:
        raise ValueError("not applicable: E must be unramified of degree dividing d")
    return ApartmentPoint(x.d // f, x.num, x.den)


def from_centralizer(y: ApartmentPoint, f: int) -> ApartmentPoint:
    """Inverse direction: scale the denominator back up by f."""
    _ints((f,), "f must be a positive integer", 1)
    return ApartmentPoint(y.d * f, y.num, y.den)


def intersection_property(x: ApartmentPoint, f: int) -> bool:
    """Exponent identity defining the centralizer map.

    Entrywise ceil(e / f) of the square lattice of x at t must equal
    the square lattice of the image at t for every t.  Both sides are
    step functions of t whose jumps lie on a known rational grid, so
    sampling half steps over one period decides the identity for all t.
    """
    y = to_centralizer(x, f)
    q = 2 * lcm(x.d, x.den)
    # one period of the image side: t in [0, f/d), i.e. k < q * f / d
    for k in range(q * f // x.d):  # t = k / q
        big = flatten(_square_lattice(x, k, q))
        small = flatten(_square_lattice(y, k, q))
        if any(-(-e // f) != s for e, s in zip(big, small)):
            return False
    return True


def local_type_direct(datum: EmbeddingDatum) -> tuple[Fraction, ...]:
    """Ordered local coordinates of the datum, by the counting formula."""
    from fractions import Fraction
    nums, den = _local_type_direct(datum.f, datum.r, _vector(datum))
    return tuple(Fraction(n, den) for n in nums)


def _local_type_direct(f: int, r: int, v: Vec) -> tuple[Vec, int]:
    """(numerators, denominator f * r) of the direct coordinates of the flat datum v.

    Over the smaller field the datum is the single column v; with a_j
    the row of its j-th unit, the coordinates are the cyclic differences
    of the a_j over f * r, wrap term first.
    """
    ft = f * r
    a = [i for i, x in enumerate(v) if x for _ in range(x)]
    return (ft - a[-1] + a[0], *map(sub, a[1:], a)), ft


def local_type_geometric(datum: EmbeddingDatum) -> CyclicClass:
    """Local type of the datum, through the geometry of the apartment."""
    return CyclicClass(_local_type_geometric(datum.f, datum.r, _vector(datum)))


def _local_type_geometric(f: int, r: int, v: Vec) -> Vec:
    """The gaps of local_type_geometric of the flat datum v in least terms; no canonical form.

    Barycenter of the standard chain of the column sums in denominator
    f * r (lifted once per key), moved to the diagonal frame by the
    skeleton levels, then read in the centralizer apartment, with
    denominator f * r / f = r: one integer pass that builds no point.
    """
    partition, levels = _skeleton(r, v)
    num, step, den = _lifted_barycenter(partition, f * r)
    return _local_gaps(r, [n - l * step for n, l in zip(num, levels)], den)


def embedding_type_from_local(mu: Sequence[int] | CyclicClass, f: int, r: int) -> EmbeddingDatum:
    """A datum whose local type is the class of mu, non-negative ints whose total must divide f * r.

    Scale the class to f * r, complement, and cut into f rows; the
    result is one representative of the matrix class.
    """
    _ints((f, r), "f and r must be positive integers", 1)
    entries = _ints(mu, "entries must be non-negative integers", 0)
    den = sum(entries)
    if den < 1 or (f * r) % den:
        raise ValueError(f"not a local type for ({f},{r})")
    rows = reshape(complement([e * (f * r // den) for e in entries]), f, r)
    return make_datum(rows, f, r, len(entries))


class CorrespondenceReport(NamedTuple):
    """Outcome of the three agreement checks for one datum."""

    datum: EmbeddingDatum
    coordinates: tuple[Fraction, ...]
    geometric: CyclicClass
    complement_class: CyclicClass | None
    verdict: bool
    mismatch: str | None


def _class_kernel(f: int, r: int, v: Vec) -> tuple[tuple[Vec, int], Vec | None, Vec | None, str | None]:
    """The direct side of the check on the flat datum v: (coords, comp, direct, site).

    coords are the direct (numerators, denominator).  When the
    denominator divides f * r, comp is a vector of the complement class
    of f * r times the coordinates and direct is that vector over its
    gcd; else both are None.  site is the first failing check,
    integrality then the complement identity, or None.
    """
    coords = nums, den = _local_type_direct(f, r, v)
    ft = f * r
    if ft % den:
        return coords, None, None, "integrality"
    k = ft // den
    scaled = nums if k == 1 else tuple([n * k for n in nums])
    comp = _complement(scaled)
    g = gcd(*scaled)
    site = None if _rotation_of(comp, v) else "complement-identity"
    return coords, comp, scaled if g == 1 else tuple([x // g for x in scaled]), site


def _member_kernel(f: int, r: int, v: Vec, direct: Vec | None) -> tuple[Vec, str | None]:
    """The geometric side of the check on the flat datum v: (gaps, site).

    gaps are the geometric route's least-terms vector; site is None if
    direct, from _class_kernel, is a rotation of them (equal vectors
    have equal totals, so the denominators need no check of their own),
    else "pipeline-agreement".  The route reads the matrix shape, so it
    runs for every member of a rotation class.
    """
    gaps = _local_type_geometric(f, r, v)
    agree = direct is not None and _rotation_of(direct, gaps)
    return gaps, None if agree else "pipeline-agreement"


def _checks(f: int, r: int, v: Vec) -> tuple[tuple[Vec, int], Vec | None, Vec, str | None]:
    """(coords, comp, gaps, site) of the flat datum v: both kernels, then the first failing site or None.

    Both routes run before a site is chosen, so an exception in either
    comes first; then integrality, the complement identity and the
    agreement of the two routes.  Every comparison is by rotation.
    """
    coords, comp, direct, site = _class_kernel(f, r, v)
    gaps, agreement = _member_kernel(f, r, v, direct)
    return coords, comp, gaps, site or agreement


def _report(datum: EmbeddingDatum, coords, comp, gaps, site) -> CorrespondenceReport:
    """The report of the outcome of _checks, with Fraction coordinates and canonical classes."""
    from fractions import Fraction
    nums, den = coords
    mu = tuple(Fraction(n, den) for n in nums)
    complement_class = None if comp is None else CyclicClass(comp)
    return CorrespondenceReport(datum, mu, CyclicClass(gaps), complement_class, site is None, site)


def verify_correspondence(datum: EmbeddingDatum) -> CorrespondenceReport:
    """Check the datum against its local type from every side.

    The checks of _checks run in order (integrality of f * r times the
    direct coordinates, complement identity against the flattening,
    agreement of the two pipelines) and the first failing site is
    recorded.  The sweep builds this report only for a failing datum.
    """
    return _report(datum, *_checks(datum.f, datum.r, _vector(datum)))


def report_to_json(report: CorrespondenceReport) -> dict:
    """Wire form {datum, mu, complement, verdict, mismatch}."""
    return {
        "datum": datum_to_json(report.datum),
        "mu": [[v.numerator, v.denominator] for v in report.coordinates],
        "complement": None if report.complement_class is None else list(report.complement_class),
        "verdict": "pass" if report.verdict else "fail",
        "mismatch": report.mismatch,
    }
