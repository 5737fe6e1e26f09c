"""Characteristic functions: facet 4-colorings and lattice-vector assignments.

The constructive route goes sphere -> proper 4-coloring -> vectors
(a, b, c, d) -> (e1, e2, e3, e1+e2+e3).  Any three distinct vectors among
those four form a lattice basis, so the resulting assignment automatically
satisfies the basis condition on every triangle of the sphere.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from functools import cached_property
from itertools import chain

from .combinatorics import SimplicialSphere2, Triangle, _Lines
from .errors import InternalError, ValidationError
from .lattice import Vec3, det3, is_primitive
from .value import _Value

COLORS = ("a", "b", "c", "d")

COLOR_VECTORS: dict[str, Vec3] = {
    "a": (1, 0, 0),
    "b": (0, 1, 0),
    "c": (0, 0, 1),
    "d": (1, 1, 1),
}


class FacetColoring(_Value):
    """Colors in {a, b, c, d}, one per sphere vertex (= polytope facet)."""

    colors: tuple[str, ...]

    def __init__(self, colors: tuple[str, ...]):
        bad = [c for c in colors if c not in COLORS]
        if bad:
            raise ValidationError(f"unknown color {bad[0]!r}")
        self.__dict__["colors"] = colors

    @property
    def m(self) -> int:
        return len(self.colors)

    def is_proper(self, sphere: SimplicialSphere2) -> bool:
        return all(self.colors[u] != self.colors[v] for u, v in sphere.walls)


class CharacteristicFunction(_Value):
    """An assignment of a primitive integer vector to each of m facets."""

    vectors: tuple[Vec3, ...]

    def __init__(self, vectors: tuple[Vec3, ...]):
        # With int entries only (no bool, no 1.0, which would equal 1 and
        # hide), equal vectors pass or fail alike, so each distinct one is
        # checked once: a coloring has at most four.  A failure is named
        # by the scan over every index.
        if not (set(map(type, chain.from_iterable(vectors))) <= {int}
                and all(len(v) == 3 and is_primitive(v) for v in dict.fromkeys(vectors))):
            for i, v in enumerate(vectors):
                if len(v) != 3 or not all(type(x) is int for x in v):
                    raise ValidationError(f"lambda({i}) = {v!r} is not an integer 3-vector")
                if not is_primitive(v):
                    raise ValidationError(f"lambda({i}) = {v} is not primitive")
        self.__dict__["vectors"] = vectors

    @property
    def m(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i: int) -> Vec3:
        return self.vectors[i]


class CharacteristicPair(_Value):
    """A sphere together with a vector assignment of matching size.

    Construction only enforces the size agreement; whether every triangle
    spans a lattice basis is a separate, reportable check
    (:func:`check_star_condition`), so invalid assignments can be loaded
    and diagnosed.
    """

    sphere: SimplicialSphere2
    lam: CharacteristicFunction

    def __init__(self, sphere: SimplicialSphere2, lam: CharacteristicFunction):
        if sphere.m != lam.m:
            raise ValidationError(
                f"sphere has {sphere.m} vertices but lambda has {lam.m} values")
        self.__dict__.update(sphere=sphere, lam=lam)

    @cached_property
    def _calculus(self):
        from .cohomology import integral_table  # cohomology imports this module

        return integral_table(self)

    @property
    def integrals(self) -> dict[tuple[int, int, int], int]:
        """Every nonzero degree-3 integral of the pair, keyed by sorted
        index multiset; built on first use by
        :func:`toriclab.cohomology.integral_table` and kept here."""
        return self._calculus[0]

    @property
    def pairings(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """Each wall's nonzero entries ``(t, integral of v_u v_v v_t)``,
        keyed by wall in ``sphere.walls`` order; built with the integrals."""
        return self._calculus[1]


class StarVerdict(_Value):
    """Outcome of the basis condition scan over all triangles."""

    ok: bool
    violations: tuple[tuple[Triangle, int], ...]  # (triangle, determinant)

    def __init__(self, ok: bool, violations: tuple[tuple[Triangle, int], ...]):
        self.__dict__.update(ok=ok, violations=violations)


def check_star_condition(pair: CharacteristicPair) -> StarVerdict:
    """Check det(lambda(i), lambda(j), lambda(k)) = +-1 on every triangle.

    Both signs are accepted; orientation-sensitive sign constraints belong
    to the fan layer.  Every violating triangle is reported together with
    its determinant.
    """
    bad = []
    lam = pair.lam
    for t in pair.sphere.triangles:
        d = det3(lam[t[0]], lam[t[1]], lam[t[2]])
        if d not in (1, -1):
            bad.append((t, d))
    return StarVerdict(ok=not bad, violations=tuple(bad))


def four_color(sphere: SimplicialSphere2) -> FacetColoring:
    """Properly 4-color the 1-skeleton of a simplicial 2-sphere.

    Deterministic backtracking: vertices are chosen by descending
    saturation (number of distinct neighbor colors), ties broken by
    descending degree and then by smallest id; colors are tried in the
    fixed order a, b, c, d.  Vertex 0 therefore always receives 'a' and the
    first differently-colored vertex receives 'b'.

    The choice is incremental.  ``seen[v][c]`` counts the neighbors of v
    colored c, and ``sat[v]`` the nonzero counts; both are updated whenever
    a vertex is colored, recolored or uncolored.  A heap holds entries
    (-saturation, -degree, id) with lazy deletion: an entry is live while
    its vertex is uncolored and its saturation is current.  Every change of
    an uncolored vertex's saturation, and every uncoloring, pushes a fresh
    entry, so each uncolored vertex always has a live entry and the least
    live entry is the vertex the rule above picks.  A coloring without
    backtracking therefore costs O(m log m).  The neighbour lists are the
    sphere's kept ones; their order cannot change a pick, nor the coloring.

    The skeleton is planar, so a proper 4-coloring exists; exhaustion of
    the search would indicate corrupted input or a solver bug and raises
    InternalError.
    """
    m = sphere.m
    adj = sphere._index[1]

    color: list[int | None] = [None] * m  # index into COLORS
    seen = [[0] * len(COLORS) for _ in range(m)]
    sat = [0] * m
    heap = [(0, -len(adj[v]), v) for v in range(m)]
    heapq.heapify(heap)

    def recolor(u: int, c: int | None) -> None:
        old, color[u] = color[u], c
        for w in adj[u]:
            s = sat[w]
            if old is not None:
                seen[w][old] -= 1
                if seen[w][old] == 0:
                    s -= 1
            if c is not None:
                seen[w][c] += 1
                if seen[w][c] == 1:
                    s += 1
            if s != sat[w]:
                sat[w] = s
                if color[w] is None:
                    heapq.heappush(heap, (-s, -len(adj[w]), w))
        if c is None:
            heapq.heappush(heap, (-sat[u], -len(adj[u]), u))

    def pick() -> int | None:
        while heap:
            neg_sat, _, v = heap[0]
            if color[v] is None and sat[v] == -neg_sat:
                return v
            heapq.heappop(heap)
        return None

    # Depth-first search on an explicit stack, one frame per colored
    # vertex: the vertex and the colors still to try, free at the time it
    # was picked.  Recursion would overflow at about a thousand vertices.
    frames: list[tuple[int, Iterator[int]]] = []
    v = pick()
    while v is not None:
        frames.append((v, iter([c for c, n in enumerate(seen[v]) if not n])))
        while frames:
            u, untried = frames[-1]
            c = next(untried, None)
            recolor(u, c)
            if c is not None:
                break
            frames.pop()
        else:
            raise InternalError("4-coloring search exhausted on a planar graph")
        v = pick()
    coloring = FacetColoring(tuple(COLORS[c] for c in color))
    if not coloring.is_proper(sphere):
        raise InternalError("solver produced an improper coloring")
    return coloring


def coloring_to_charfunc(coloring: FacetColoring) -> CharacteristicFunction:
    """Replace colors by vectors: a, b, c, d -> e1, e2, e3, e1+e2+e3."""
    return CharacteristicFunction(
        tuple(COLOR_VECTORS[c] for c in coloring.colors))


def parse_charfunc(text: str) -> CharacteristicFunction:
    """Parse a CHARFUNC block, `lambda <m>` then m lines `L <id>: <x> <y> <z>`
    (line grammar: :class:`~toriclab.combinatorics._Lines`)."""
    doc = _Lines(text)
    vectors = doc.records("L", "vector", doc.count("lambda"), width=3)
    doc.end()
    return CharacteristicFunction(tuple(vectors))


def format_charfunc(lam: CharacteristicFunction) -> str:
    out = [f"lambda {lam.m}"]
    for i, (x, y, z) in enumerate(lam.vectors):
        out.append(f"L {i}: {x} {y} {z}")
    return "\n".join(out) + "\n"
