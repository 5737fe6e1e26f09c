"""Seeded document generators for the benchmark.

Every generator takes a size and two ``random.Random`` streams and
returns a :class:`Doc`: the document text the library will parse, plus
the exact answers the benchmark checks against.  The answers are derived
from the construction itself, never from the library under test.

``shape`` draws the combinatorial object (which cones get subdivided).
``look`` draws its presentation: a unimodular change of lattice basis for
fans, vertex ids and cycle rotations for polytopes.  Neither changes the
work the library does beyond noise, which lets a benchmark vary its
inputs with the seed through ``look`` alone.

Families:

* ``subdivided_cp3`` -- the fan of cp3 after ``m - 4`` seeded star
  subdivisions.  Each new ray is ``r_i + r_j + r_k`` for a random maximal
  cone ``(i, j, k)``, so the fan stays complete and unimodular.  With
  support, the new parameter is ``c_i + c_j + c_k - delta`` with
  ``delta = 2**-(step + 1)``: this cuts the polytope vertex dual to the
  cone by a unimodular corner of volume ``delta**3 / 6``.  The halving
  deltas keep every edge length positive, so the volume is exactly
  ``32/3 - sum(delta**3) / 6``.
* ``nanotube`` -- the (5,0) capped nanotube fullerene C_{20+10k}: two
  dodecahedron caps with k rings of five hexagons, 12 + 5k facets.
* ``stacked_dual`` -- the simple polytope dual to the subdivided cp3
  sphere (a stacked sphere): repeated vertex truncations of a tetrahedron,
  so it has triangular faces.

Polytope facets keep the construction's order (see ``_polytope_text``).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

CP3_RAYS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
# oriented boundary of the tetrahedron on vertices 0..3
TETRA_ORIENTED = ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))
CP3_VOLUME = Fraction(32, 3)


@dataclass(frozen=True)
class Doc:
    """One generated document with its exact expected answers."""

    family: str
    size: int                    # rays (fans) or facets (polytopes)
    text: str
    expect: dict = field(repr=False, compare=False)


# ---------------------------------------------------------------------------
# fans


def _stacked(m: int, rng: random.Random):
    """Oriented triangles and subdivision history of a seeded stacked sphere.

    Returns the oriented triangles and, per subdivision step, the cone
    index triple that was subdivided.
    """
    oriented = list(TETRA_ORIENTED)
    steps = []
    for _ in range(m - 4):
        idx = rng.randrange(len(oriented))
        a, b, c = oriented[idx]
        v = 4 + len(steps)
        oriented[idx] = (a, b, v)
        oriented.append((b, c, v))
        oriented.append((c, a, v))
        steps.append((a, b, c))
    return oriented, steps


def random_unimodular(rng: random.Random, steps: int = 4):
    """A 3x3 integer matrix of determinant 1: a product of elementary
    shears with entries kept within 3."""
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    done = 0
    while done < steps:
        i, j = rng.sample(range(3), 2)
        s = rng.choice((-1, 1))
        cand = [list(r) for r in rows]
        for k in range(3):
            cand[i][k] += s * cand[j][k]
        if max(abs(x) for r in cand for x in r) <= 3:
            rows = cand
            done += 1
    return rows


def nth_unimodular(rng: random.Random, n: int):
    """The n-th distinct matrix that ``random_unimodular`` draws from rng."""
    seen = set()
    while True:
        rows = random_unimodular(rng)
        key = tuple(map(tuple, rows))
        if key not in seen:
            if len(seen) == n:
                return rows
            seen.add(key)


def _vertex_degrees(m: int, triangles) -> tuple[int, ...]:
    count = Counter(v for t in triangles for v in t)
    return tuple(count[v] for v in range(m))


def subdivided_cp3(m: int, shape: random.Random, look: random.Random,
                   support: bool = True, nth: int = 0) -> Doc:
    """cp3 after m - 4 seeded star subdivisions (see module docstring),
    in a random lattice basis.  A unimodular change of basis keeps the
    fan complete and unimodular, its walls, its support and its volume.
    Calls with the same ``look`` seed and different ``nth`` get different
    bases (see ``nth_unimodular``), hence unequal fans."""
    if m < 4:
        raise ValueError("a subdivided cp3 has at least 4 rays")
    oriented, steps = _stacked(m, shape)
    rays = list(CP3_RAYS)
    c = [Fraction(1)] * 4
    cut = Fraction(0)
    for step, (i, j, k) in enumerate(steps):
        rays.append(tuple(rays[i][t] + rays[j][t] + rays[k][t] for t in range(3)))
        delta = Fraction(1, 2 ** (step + 1))
        c.append(c[i] + c[j] + c[k] - delta)
        cut += delta ** 3
    basis = nth_unimodular(look, nth)
    rays = [tuple(sum(basis[i][k] * r[k] for k in range(3)) for i in range(3))
            for r in rays]
    cones = sorted(tuple(sorted(t)) for t in oriented)
    name = f"cp3+{m - 4}"
    lines = [f"fan3 {name}", f"rays {m}"]
    lines += [f"R {i}: {x} {y} {z}" for i, (x, y, z) in enumerate(rays)]
    lines.append(f"cones {len(cones)}")
    lines += [f"C: {a} {b} {d}" for a, b, d in cones]
    expect = {
        "rays": tuple(rays),
        "cones": tuple(cones),
        "degrees": _vertex_degrees(m, cones),
    }
    if support:
        lines.append("support: " + " ".join(str(x) for x in c))
        expect["support"] = tuple(c)
        expect["volume"] = CP3_VOLUME - cut / 6
    family = "cp3-support" if support else "cp3"
    return Doc(family, m, "\n".join(lines) + "\n", expect)


# ---------------------------------------------------------------------------
# polytopes


def _dual_cycles(m: int, oriented) -> list[tuple[int, ...]]:
    """Facet vertex cycles of the simple polytope dual to an oriented
    simplicial sphere: polytope vertex t is triangle t, facet v walks the
    triangles around sphere vertex v."""
    owner = {}
    for t, (a, b, c) in enumerate(oriented):
        for e in ((a, b), (b, c), (c, a)):
            owner[e] = t
    first = {}
    for t, tri in enumerate(oriented):
        for v in tri:
            first.setdefault(v, t)
    cycles = []
    for v in range(m):
        start = first[v]
        cycle = [start]
        t = start
        while True:
            a, b, c = oriented[t]
            k = (a, b, c).index(v)
            prev = (a, b, c)[(k + 2) % 3]
            t = owner[(v, prev)]
            if t == start:
                break
            cycle.append(t)
        cycles.append(tuple(cycle))
    return cycles


def _polytope_text(name: str, cycles, look: random.Random) -> str:
    """POLY3 text with seeded vertex ids and cycle rotations.

    Facets keep the construction's order.  ``four_color`` breaks ties by
    facet id, and on some seeded facet orders of the nanotubes its
    backtracking search runs for minutes (C1800: one order in six went
    past 20 s), so shuffling facets would make run time a lottery.
    """
    nverts = 1 + max(v for cyc in cycles for v in cyc)
    relabel = list(range(nverts))
    look.shuffle(relabel)
    lines = [f"poly3 {name}", f"facets {len(cycles)}"]
    for i, cycle in enumerate(cycles):
        cyc = [relabel[v] for v in cycle]
        r = look.randrange(len(cyc))
        lines.append(f"F {i}: " + " ".join(map(str, cyc[r:] + cyc[:r])))
    return "\n".join(lines) + "\n"


def _polytope_doc(family: str, name: str, m: int, oriented, look) -> Doc:
    cycles = _dual_cycles(m, oriented)
    hist = dict(sorted(Counter(len(c) for c in cycles).items()))
    expect = {
        "histogram": hist,
        "fullerene": set(hist) <= {5, 6},
        # facets sharing an edge are the edges of the dual sphere
        "adjacent": tuple(sorted({tuple(sorted(e)) for t in oriented
                                  for e in ((t[0], t[1]), (t[1], t[2]))})),
    }
    return Doc(family, m, _polytope_text(name, cycles, look), expect)


def _nanotube_sphere(k: int):
    """Oriented dual sphere of C_{20+10k}: two poles, k + 2 rings of five."""
    top, bottom = 0, 1 + 5 * (k + 2)

    def ring(r, i):
        return 1 + 5 * r + i % 5

    tris = []
    for i in range(5):
        tris.append((top, ring(0, i), ring(0, i + 1)))
        for r in range(k + 1):
            tris.append((ring(r, i), ring(r + 1, i), ring(r, i + 1)))
            tris.append((ring(r, i + 1), ring(r + 1, i), ring(r + 1, i + 1)))
        tris.append((bottom, ring(k + 1, i + 1), ring(k + 1, i)))
    return bottom + 1, tris


def nanotube(k: int, shape: random.Random, look: random.Random) -> Doc:
    """The (5,0) capped nanotube fullerene with k hexagon rings (one shape
    per k, so ``shape`` is unused)."""
    m, oriented = _nanotube_sphere(k)
    return _polytope_doc("nanotube", f"C{20 + 10 * k}", m, oriented, look)


def stacked_dual(m: int, shape: random.Random, look: random.Random) -> Doc:
    """The polytope dual to a seeded stacked sphere on m vertices."""
    oriented, _ = _stacked(m, shape)
    return _polytope_doc("stacked", f"stacked-dual-{m}", m, oriented, look)
