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

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .apartment import (
    ApartmentPoint,
    _local_gaps,
    barycenter,
    square_lattice_exponents,
    standard_chain,
    translate,
)
from .cyclic import CyclicClass, Vec, _complement, _ints, _rotation_of, complement, flatten, reshape
from .embedding import EmbeddingDatum, datum_to_json, make_datum, skeleton


@lru_cache(maxsize=None)
def _barycenter(partition: tuple[int, ...], d: int) -> ApartmentPoint:
    """Barycenter of the standard chain of the partition in denominator d.

    The geometric route meets few keys (266 on the fr<=8 slice, 413 over
    the whole gate range), so it builds each chain and barycenter once;
    the direct route does not read this cache.
    """
    return barycenter(standard_chain(partition), d)


@lru_cache(maxsize=None)
def _unit_fractions(n: int) -> tuple[Fraction, ...]:
    """(0/n, 1/n, ..., n/n), built once per n for the direct route.

    Fractions are immutable, so every datum with f * r = n can share
    them; the geometric route does not read this table.
    """
    return tuple(Fraction(k, n) for k in range(n + 1))


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
    for k in range(q * f // x.d):
        t = Fraction(k, q)
        big = flatten(square_lattice_exponents(x, t))
        small = flatten(square_lattice_exponents(y, t))
        if any(-(-e // f) != s for e, s in zip(big, small)):
            return False
    return True


def local_type_direct(datum: EmbeddingDatum) -> tuple[Fraction, ...]:
    """Ordered local coordinates of the datum, by the counting formula.

    Over the smaller field the datum is the single column flatten(rows)
    of length f * r; let a_j be the row holding the j-th of the m units.
    The coordinates are the cyclic differences of the a_j over f * r,
    wrap term first.
    """
    ft = datum.f * datum.r
    a = [i for i, v in enumerate(flatten(datum.rows)) for _ in range(v)]
    units = _unit_fractions(ft)
    mu = [units[ft - a[-1] + a[0]]]
    mu.extend(units[a[j] - a[j - 1]] for j in range(1, datum.m))
    return tuple(mu)


def local_type_geometric(datum: EmbeddingDatum) -> CyclicClass:
    """Local type of the datum, through the geometry of the apartment.

    Barycenter of the standard chain of the column sums in denominator
    f * r, moved to the diagonal frame by the skeleton levels, then
    read in the centralizer apartment.  The barycenter is shared per
    (partition, f * r); translate, centralizer and local type run for
    every datum.
    """
    return CyclicClass(_local_type_geometric(datum))


def _local_type_geometric(datum: EmbeddingDatum) -> Vec:
    """The gaps of local_type_geometric in least terms, in sort order; no canonical form."""
    sk = skeleton(datum)
    moved = translate(_barycenter(sk.partition, datum.f * datum.r), [-l for l in sk.levels])
    return _local_gaps(to_centralizer(moved, datum.f))


def embedding_type_from_local(mu: CyclicClass, f: int, r: int) -> EmbeddingDatum:
    """A datum whose local type is the given class, whose total must divide f * r.

    Scale the class to f * r, complement, and cut into f rows; the
    result is one representative of the matrix class.
    """
    _ints((f, r), "f and r must be positive integers", 1)
    den = mu.total
    if den < 1 or (f * r) % den:
        raise ValueError(f"not a local type for ({f},{r})")
    rows = reshape(complement([e * (f * r // den) for e in mu]), f, r)
    return make_datum(rows, f, r, len(mu))


class CorrespondenceReport(NamedTuple):
    """Outcome of the three agreement checks for one datum."""

    datum: EmbeddingDatum
    coordinates: tuple[Fraction, ...]
    geometric: CyclicClass
    complement_class: CyclicClass | None
    verdict: bool
    mismatch: str | None


def _class_kernel(datum: EmbeddingDatum) -> tuple[tuple[Fraction, ...], Vec | None, Vec | None, str | None]:
    """The direct side of the check: (mu, comp, direct, site).

    mu are the direct coordinates.  When f * r clears them, comp is a
    vector of the complement class of f * r times mu and direct is that
    vector over its gcd, in order; else both are None.  site is the
    first failing check, integrality then the complement identity, or
    None.  Both checks depend on the rotation class of the datum only.
    """
    mu = local_type_direct(datum)
    ft = datum.f * datum.r
    scaled = []
    for v in mu:
        n, d = v.as_integer_ratio()
        if ft % d:
            return mu, None, None, "integrality"
        scaled.append(n * (ft // d))
    comp = _complement(scaled)
    g = gcd(*scaled)
    site = None if _rotation_of(comp, flatten(datum.rows)) else "complement-identity"
    return mu, comp, tuple(x // g for x in scaled), site


def _member_kernel(datum: EmbeddingDatum, direct: Vec | None) -> tuple[Vec, str | None]:
    """The geometric side of the check: (gaps, site).

    gaps are the geometric route's least-terms vector; site is
    "pipeline-agreement" unless direct, from _class_kernel, is a
    rotation of them, and None then.  Equal vectors have equal totals,
    so the denominators need no check of their own.  The route reads
    the matrix shape, so it runs for every member of a rotation class.
    """
    gaps = _local_type_geometric(datum)
    agree = direct is not None and _rotation_of(direct, gaps)
    return gaps, None if agree else "pipeline-agreement"


def _checks(datum: EmbeddingDatum) -> tuple[tuple[Fraction, ...], Vec | None, Vec, str | None]:
    """(mu, comp, gaps, site): both kernels, then the first failing site or None.

    Both routes run before a site is chosen, so an exception in either
    comes first; then integrality, the complement identity and the
    agreement of the two routes.  Every comparison is by rotation, so
    no canonical form is built.
    """
    mu, comp, direct, site = _class_kernel(datum)
    gaps, agreement = _member_kernel(datum, direct)
    return mu, comp, gaps, site or agreement


def _report(datum: EmbeddingDatum, mu, comp, gaps, site) -> CorrespondenceReport:
    """The report of the outcome of _checks, with its classes canonical."""
    complement_class = None if comp is None else CyclicClass(comp)
    return CorrespondenceReport(datum, mu, CyclicClass(gaps), complement_class, site is None, site)


def verify_correspondence(datum: EmbeddingDatum) -> CorrespondenceReport:
    """Check the datum against its local type from every side.

    The checks run in order (integrality of f * r times the direct
    coordinates, complement identity against the flattening, agreement
    of the two pipelines) and the first failing site is recorded.  Both
    identities compare by rotation, so they do not trust canonical forms.
    The sweep runs the same checks and builds the report only for a
    failing datum.
    """
    return _report(datum, *_checks(datum))


def report_to_json(report: CorrespondenceReport) -> dict:
    """Wire form {datum, mu, complement, verdict, mismatch}."""
    return {
        "datum": datum_to_json(report.datum),
        "mu": [[v.numerator, v.denominator] for v in report.coordinates],
        "complement": None if report.complement_class is None else list(report.complement_class),
        "verdict": "pass" if report.verdict else "fail",
        "mismatch": report.mismatch,
    }
