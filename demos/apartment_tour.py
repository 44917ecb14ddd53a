"""
A tour of one apartment
=======================

Points, the lattices they select, the faces they lie in, and the
hereditary orders those faces correspond to, all in exact arithmetic.
"""

from fractions import Fraction as F

from embtypes import (
    barycenter,
    chain_of_order,
    face_of,
    invariant_of,
    lattice_at,
    local_type,
    make_point,
    order_of_chain,
    square_lattice_exponents,
)

# Three frame lines (one coordinate each), valuation denominator 4.
d = 4
x = make_point(d, [F(1, 4), F(1, 16), 0])
print("point       ", x.alpha)

# The point picks one lattice per parameter value.  Within one period
# the coordinates jump one threshold at a time; advancing t by a full
# period 1/d adds 1 everywhere, which is the same lattice again.
for t in (0, F(1, 16), F(7, 32), F(1, 4)):
    print("lattice at", t, "->", lattice_at(x, t))

# Collecting the distinct lattices over one period gives the face the
# point lies in, a periodic chain.  Its period and jump counts are the
# classical invariant of the associated hereditary order.
ch = face_of(x)
print("face steps  ", ch.steps)
period, counts = invariant_of(ch)
print("invariant   ", (period, counts.vector))

# The exponent matrix of the face determines it: the chain of all
# lattices stable under the matrix is the face again.
e = order_of_chain(ch)
print("order       ", e)
print("round trip  ", chain_of_order(e) == ch)

# The square lattice family records pairwise exponents at every t.
print("square at 0 ", square_lattice_exponents(x, 0))

# The barycenter of a face has that face as its own face, and the local
# type reads off the barycentric coordinates as a cyclic class.
b = barycenter(ch, d)
print("barycenter  ", b.alpha, "-> same face:", face_of(b) == ch)
mu = local_type(x)
print("local type  ", mu.vector, "/", mu.total)
