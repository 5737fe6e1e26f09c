"""Characteristic functions: facet 4-colorings and lattice-vector assignments.

The constructive route goes sphere -> proper 4-coloring -> vectors
(a, b, c, d) -> (e1, e2, e3, e1+e2+e3).  Any three distinct vectors among
those four form a lattice basis, so the resulting assignment automatically
satisfies the basis condition on every triangle of the sphere.  The
coloring is a DSATUR backtracking search under a node budget; past the
budget, :mod:`toriclab._kempe` colors the sphere by Kempe-chain repair.
A characteristic pair keeps its intersection calculus, built on first use
by :mod:`toriclab.cohomology`: the integrals and one class per wall.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

from .combinatorics import SimplicialSphere2, Triangle, _Lines
from .errors import InternalError, ValidationError
from .lattice import Vec3, det3, primitive_vectors
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
        if not all(map(COLORS.__contains__, colors)):
            bad = next(c for c in colors if c not in COLORS)
            raise ValidationError(f"unknown color {bad!r}")
        self.__dict__["colors"] = colors

    @property
    def m(self) -> int:
        return len(self.colors)

    def is_proper(self, sphere: SimplicialSphere2) -> bool:
        colors = self.colors
        return all(colors[u] != colors[v] for u, v in sphere.walls)


class CharacteristicFunction(_Value):
    """An assignment of a primitive integer vector to each of m facets."""

    vectors: tuple[Vec3, ...]

    def __init__(self, vectors: tuple[Vec3, ...]):
        self.__dict__["vectors"] = primitive_vectors(vectors, "lambda({})")

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
    def wall_classes(self) -> tuple:
        """Each wall's :class:`~toriclab.cohomology.WallClass`, in
        ``sphere.walls`` order; built with the integrals."""
        return self._calculus[1]


class StarVerdict(_Value):
    """Outcome of the basis condition scan over all triangles."""

    ok: bool
    violations: tuple[tuple[Triangle, int], ...]  # (triangle, determinant)


def check_star_condition(pair: CharacteristicPair) -> StarVerdict:
    """Check det(lambda(i), lambda(j), lambda(k)) = +-1 on every triangle.

    Both signs are accepted; orientation-sensitive sign constraints belong
    to the fan layer.  Every violating triangle is reported together with
    its determinant, in triangle order.  One determinant is computed per
    distinct triple of vectors met (a coloring has at most 24).
    """
    lam = pair.lam.vectors
    tris = pair.sphere.triangles
    vectors = list(dict.fromkeys(lam))
    code = list(map(dict(zip(vectors, range(len(vectors)))).__getitem__, lam))
    det = {t: det3(vectors[t[0]], vectors[t[1]], vectors[t[2]])
           for t in {(code[i], code[j], code[k]) for i, j, k in tris}}
    if all(d in (1, -1) for d in det.values()):
        return StarVerdict(ok=True, violations=())
    bad = tuple((t, d) for t in tris
                if (d := det[code[t[0]], code[t[1]], code[t[2]]]) not in (1, -1))
    return StarVerdict(ok=False, violations=bad)


# A set of colors as a 4-bit mask, bit c for color c: its size, and the
# colors it leaves free in the order a, b, c, d.  _BIT[-1], for an
# uncolored vertex, is the empty mask.
_POP = tuple(bin(s).count("1") for s in range(16))
_FREE = tuple(tuple(c for c in range(4) if not s >> c & 1) for s in range(16))
_BIT = (1, 2, 4, 8, 0)


def four_color(sphere: SimplicialSphere2) -> FacetColoring:
    """Properly 4-color the 1-skeleton of a simplicial 2-sphere.

    Stage 1 is a deterministic backtracking search: vertices are chosen by
    descending saturation (number of distinct neighbor colors), ties
    broken by descending degree and then by smallest id; colors are tried
    in the fixed order a, b, c, d.  Vertex 0 therefore always receives 'a'
    and the first differently-colored vertex receives 'b'.

    The choice is incremental, over flat int lists.  ``mask[v]`` holds the
    colors of v's colored neighbors as four bits, so v's saturation is the
    mask's popcount and the colors free for v are its zero bits; ``key[v]``
    is v's heap key ``(4 - sat) * D * m + (D - deg) * m + v``, deg being
    its degree and D the largest degree plus one: one int, ordered as
    (-saturation, -degree, id).  Coloring a vertex for the first time ORs
    its bit into each uncolored neighbor's mask; recoloring or uncoloring
    it recounts each uncolored neighbor's mask from that neighbor's own
    neighbors.  A colored vertex's mask and key stay as they were when it
    was picked, and are right again when it is uncolored: only the vertex
    on top of the stack changes color, so its neighbors then have the
    colors they had when it was picked.  So the mask of every uncolored
    vertex is, after each step, exactly the set of colors around it, and
    the saturations, keys and free colors, hence the picks, the order
    colors are tried in and the coloring, are those of the plain
    rescanning search.  The heap holds keys with lazy deletion: a key is
    live while its vertex (the key mod m) is uncolored and the key is
    current.  Every change of an uncolored vertex's key, and every
    uncoloring, pushes the key, so the least live key is the vertex the
    rule above picks, and a coloring without backtracking costs
    O(m log m).  The order of the sphere's neighbour lists cannot change
    a pick, nor the coloring.

    Some labellings of large fullerene duals still backtrack for minutes,
    so stage 1 assigns at most 10m + 1000 colors.  Past that,
    stage 2 (:mod:`toriclab._kempe`) colors the sphere afresh by
    smallest-last greedy coloring with Kempe-chain swaps, and its coloring
    is re-verified by :meth:`FacetColoring.is_proper` and
    :func:`check_star_condition`.

    The skeleton is planar, so a proper 4-coloring exists; a failure of
    both stages would indicate corrupted input or a solver bug and raises
    InternalError.
    """
    return _search(sphere)[0]


def _search(sphere: SimplicialSphere2) -> tuple[FacetColoring, dict[str, int]]:
    """:func:`four_color`, with its counters: stage 1's ``nodes`` (colors
    assigned) and ``undone`` (colors taken back), its ``budget``, the
    ``stage`` that colored the sphere, and stage 2's Kempe ``swaps`` and
    ``restarts``."""
    import heapq  # here, so the fan commands that import this module skip it

    m = sphere.m
    adj = sphere._neighbours
    D = max(map(len, adj)) + 1
    step = D * m  # one unit of saturation
    base = [(D - len(nbrs)) * m + v for v, nbrs in enumerate(adj)]
    key = [4 * step + b for b in base]
    heap = key[:]
    heapq.heapify(heap)
    color = [-1] * m  # index into COLORS, -1 while uncolored
    mask = [0] * m
    # ten times or more the colors assigned on the corpus and on the
    # reference spheres of the tests, so those keep their colorings
    budget = 10 * m + 1000
    nodes = undone = 0
    heappop, heappush = heapq.heappop, heapq.heappush

    # Depth-first search on an explicit stack, one frame per colored
    # vertex: the vertex and the colors still to try, free at the time it
    # was picked.  Recursion would overflow at about a thousand vertices.
    frames: list[tuple[int, Iterator[int]]] = []
    while heap and nodes < budget:
        k = heappop(heap)
        v = k % m
        if color[v] >= 0 or key[v] != k:
            continue
        frames.append((v, iter(_FREE[mask[v]])))
        while frames:
            u, untried = frames[-1]
            c = next(untried, -1)
            old, color[u] = color[u], c
            if old >= 0:
                undone += 1
                for w in adj[u]:
                    if color[w] < 0:
                        s = 0
                        for x in adj[w]:
                            s |= _BIT[color[x]]
                        if s != mask[w]:
                            mask[w] = s
                            key[w] = k = (4 - _POP[s]) * step + base[w]
                            heappush(heap, k)
            elif c >= 0:
                bit = _BIT[c]
                for w in adj[u]:
                    if color[w] < 0 and not mask[w] & bit:
                        mask[w] |= bit
                        key[w] = k = key[w] - step
                        heappush(heap, k)
            if c >= 0:
                nodes += 1
                break
            heappush(heap, key[u])
            frames.pop()
        else:
            raise InternalError("4-coloring search exhausted on a planar graph")
    counters = {"nodes": nodes, "undone": undone, "budget": budget, "stage": 1,
                "swaps": 0, "restarts": 0}
    if -1 in color:  # the budget ran out; no other call compiles stage 2
        from ._kempe import kempe_color

        color, counters["swaps"], counters["restarts"] = kempe_color(adj)
        counters["stage"] = 2
    coloring = FacetColoring(tuple(map(COLORS.__getitem__, color)))
    if not coloring.is_proper(sphere):
        raise InternalError("solver produced an improper coloring")
    if counters["stage"] == 2 and not check_star_condition(
            CharacteristicPair(sphere, coloring_to_charfunc(coloring))).ok:
        raise InternalError("solver produced a coloring that fails the star condition")
    return coloring, counters


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
