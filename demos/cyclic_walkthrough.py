"""
Cyclic vectors: canonical form, pairs, complement
=================================================

Everything downstream rests on rotation classes of integer vectors.
This script walks the four basic moves on one small example.
"""

from embtypes import canonical, complement, flatten, from_pairs, pairs_of, reshape

# A cyclic vector is stored by its lexicographically least rotation.
v = (3, 2, 1, 0, 0, 4, 2)
cls = canonical(v)
print("vector     ", v)
print("canonical  ", cls.vector)

# The pairs form lists (value, gap to the next nonzero) around the cycle.
p = pairs_of(v)
print("pairs      ", p)
print("round trip ", from_pairs(p).vector)

# The complement swaps the roles of values and gaps.  Applied twice it
# returns to the start, and it exchanges vectors of (sum s, length t)
# with vectors of (sum t, length s).
c = complement(v)
print("complement ", c.vector)
print("and back   ", complement(c.vector).vector)

# Matrices flatten row-major; reshape cuts a vector back into rows so
# that every column keeps a nonzero entry.
rows = ((1, 0), (1, 3), (0, 0), (0, 1), (0, 1), (0, 0))
flat = flatten(rows)
print("flattening ", flat)
print("reshaped   ", reshape(flat, 6, 2))
