"""
From an embedding datum to its local type and back
==================================================

The running example: a 6 x 2 datum with seven units.  Its local type
is computed twice, by the counting formula and through the geometry,
and the complement of the type recovers the datum.
"""

from embtypes import (
    canonical,
    complement,
    coordinate_class,
    data_equivalent,
    embedding_type_from_local,
    flatten,
    local_type_direct,
    local_type_geometric,
    make_datum,
    report_to_json,
    skeleton,
    verify_correspondence,
)

datum = make_datum(((1, 0), (1, 3), (0, 0), (0, 1), (0, 1), (0, 0)), f=6, r=2, m=7)
print("datum rows  ", datum.rows)

# The skeleton records the column sums and where the units sit.
sk = skeleton(datum)
print("skeleton    ", sk.partition, sk.levels)

# Route one: count unit positions in the flattening.
mu = local_type_direct(datum)
print("mu direct   ", mu)

# Route two: barycenter of the standard chain, translated by the
# skeleton levels, then read in the centralizer apartment.
geo = local_type_geometric(datum)
print("mu geometric", geo.vector, "/", geo.total)
print("routes agree", coordinate_class(mu) == geo)

# The complement of the scaled type is exactly the flattened datum,
# which is the content of the classification theorem.
scaled = [int(12 * v) for v in mu]
print("complement  ", complement(scaled).vector)
print("flattening  ", canonical(flatten(datum.rows)).vector)

# And the type determines the datum up to equivalence.
back = embedding_type_from_local(coordinate_class(mu), f=6, r=2)
print("recovered   ", back.rows, "-> equivalent:", data_equivalent(back, datum))

# The verifier bundles all three checks into one report.
print(report_to_json(verify_correspondence(datum)))
