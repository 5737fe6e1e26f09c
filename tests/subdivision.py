"""Seeded star subdivisions of cp3, for property tests at scale.

Each step picks a random maximal cone (i, j, k), adds the ray
r_i + r_j + r_k and replaces the cone by the three cones around the new
ray, so the fan stays complete and unimodular.  Its support value is
c_i + c_j + c_k - delta: the polytope loses the corner tetrahedron of
volume delta^3 / 6 at the vertex dual to the cone.  delta halves at every
step, so the later cuts together shorten no edge by as much as its length.
"""

from __future__ import annotations

import random
from fractions import Fraction

from toriclab.fan import Fan3

from oracles import apply_matrix, random_unimodular


def subdivided_cp3(m: int, seed: int, delta=Fraction(1, 2)):
    """cp3 after m - 4 seeded star subdivisions, with support parameters
    and in a random lattice basis, together with the exact volume of its
    polytope: 32/3 (the simplex of support 1, 1, 1, 1) minus the cuts."""
    rng = random.Random(seed)
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    support = [Fraction(1)] * 4
    volume = Fraction(32, 3)
    for new in range(4, m):
        i, j, k = cones.pop(rng.randrange(len(cones)))
        cones += [(i, j, new), (i, k, new), (j, k, new)]
        rays.append(tuple(a + b + c for a, b, c in zip(rays[i], rays[j], rays[k])))
        support.append(support[i] + support[j] + support[k] - delta)
        volume -= delta ** 3 / 6
        delta /= 2
    basis = random_unimodular(rng)
    rays = [apply_matrix(basis, r) for r in rays]
    return Fan3.from_data(f"cp3+{m - 4}", rays, cones, support=support), volume
