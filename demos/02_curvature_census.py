"""
Wall curvature and the constant 24
==================================

Across every wall of a complete unimodular fan in Z^3 the four incident
rays satisfy one integral relation; its two coefficients (a1, a2) give
the wall curvature 2 - a1 - a2.  Summed over all walls the curvature is
always exactly 24, whatever the fan — a discrete Gauss–Bonnet theorem.
The Chern number c1c2 of the intersection calculus is the same sum read
the other way: each wall class's integrals add up to the wall's
curvature.  This script tabulates both on the whole bundled corpus.
"""

from toriclab import chern_number_c1c2, gauss_bonnet_sum
from toriclab.corpus import FAN_NAMES, load_fan

for name in FAN_NAMES:
    f = load_fan(name)
    print(f"\n{f.name}  ({f.m} rays, {len(f.maximal_cones)} cones)")

    # per-wall data: coefficients, curvature, convex/flat/concave
    for w in f.walls:
        print(f"  wall {w.pair}: a = ({w.a[0]:>2}, {w.a[1]:>2})   "
              f"curvature {w.curvature:>2}   {w.classification}")

    total = gauss_bonnet_sum(f)
    chern = chern_number_c1c2(f)
    print(f"  total curvature: {total}")
    print(f"  chern number   : {chern}")
    assert total == 24 == chern

print("\nevery fan sums to 24, and so does its Chern number")

# the flat-wall fan is the interesting one: subdividing an octant of the
# box fan creates three flat walls (curvature 0), yet the twelve convex
# walls still balance the books to 24.
f = load_fan("flatwall")
histogram = {}
for w in f.walls:
    histogram[w.curvature] = histogram.get(w.curvature, 0) + 1
print(f"\nflatwall curvature histogram: {dict(sorted(histogram.items()))}")
