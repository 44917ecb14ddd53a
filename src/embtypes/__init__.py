"""Exact arithmetic for embedding types and apartment-level invariants.

The package computes with cyclic classes of integer vectors (canonical
rotations, pairs form, complement), models one apartment of an affine
building over exact rationals (lattice chains, hereditary orders,
barycenters, local types), and ties the two together: every embedding
datum determines a local type by two independent routes, and the
complement of the scaled local type recovers the datum.  A command
line front end exposes the core operations and an exhaustive verifier.
"""

from __future__ import annotations

from .apartment import (
    ApartmentPoint,
    ChainFace,
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
from .cli import VerifyRange, main, run_verify
from .correspondence import (
    CorrespondenceReport,
    embedding_type_from_local,
    from_centralizer,
    intersection_property,
    local_type_direct,
    local_type_geometric,
    report_to_json,
    to_centralizer,
    verify_correspondence,
)
from .cyclic import (
    CyclicClass,
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
from .embedding import (
    EmbeddingDatum,
    PearlSkeleton,
    data_equivalent,
    datum_from_json,
    datum_to_json,
    make_datum,
    skeleton,
)
from .enumeration import count_data, enumerate_data

__version__ = "0.1.0"
