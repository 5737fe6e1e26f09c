"""
Volume polynomials and edge functionals
=======================================

A complete unimodular fan plus support parameters c = (c_1, ..., c_m)
cuts out the polytope { x : <x, ray_i> >= -c_i }.  Its volume is a
homogeneous cubic in c, assembled here purely from the intersection
table — no vertex is ever enumerated.  Differentiating the cubic along
a wall direction gives the edge functional, an exact rational length
of the dual edge; all edge functionals positive means c really is a
polytope (the support is valid).
"""

from fractions import Fraction

from toriclab import (
    edge_functionals,
    serialize_volume_polynomial,
    volume_polynomial,
)
from toriclab.corpus import load_fan
from toriclab.errors import SupportInvalid

box = load_fan("cube-fan")
V = volume_polynomial(box)

# the cubic itself: one monomial per triple of pairwise-meeting facets
print("volume polynomial of the box fan:")
for line in serialize_volume_polynomial(V).splitlines():
    print(f"  {line}")

# at c = (1,...,1) the polytope is the cube [-1,1]^3
ones = (Fraction(1),) * 6
print(f"\nvolume at c = 1^6: {V(ones)}")

# scaling all supports by t scales the volume by t^3
for t in (2, 3, Fraction(1, 2)):
    scaled = tuple(t * c for c in ones)
    print(f"volume at c = {t}*1^6: {V(scaled)}")

# squeeze the box: shrink one pair of opposite facets
squeezed = (Fraction(1), Fraction(1), Fraction(1, 4), Fraction(1, 4),
            Fraction(1), Fraction(1))
print(f"\nvolume of the squeezed box: {V(squeezed)}")

# edge functionals are the exact edge lengths of the cut-out polytope
print("\nedge functionals at the squeezed support:")
for pair, length in edge_functionals(box, squeezed).items():
    print(f"  wall {pair}: {length}")

# push one facet past its opposite and the support stops being valid:
# four edges collapse to length <= 0 and certification refuses it
from toriclab import certify_support

bad = (Fraction(1), Fraction(-1), Fraction(1), Fraction(1),
       Fraction(1), Fraction(1))
try:
    certify_support(box, bad)
except SupportInvalid as exc:
    pretty = "(" + ", ".join(str(c) for c in bad) + ")"
    print(f"\nrejected support {pretty}:\n  {exc}")
