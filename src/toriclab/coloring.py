"""Facet 4-colorings and the characteristic functions they induce.

The constructive route goes sphere -> proper 4-coloring -> vectors
(a, b, c, d) -> (e1, e2, e3, e1+e2+e3).  Any three distinct vectors among
those four form a lattice basis, so the resulting assignment automatically
satisfies the basis condition on every triangle of the sphere.  The
coloring is a DSATUR backtracking search under a node budget; past the
budget, :mod:`toriclab._kempe` colors the sphere by Kempe-chain repair.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

from .charfunc import CharacteristicFunction
from .combinatorics import SimplicialSphere2
from .errors import InternalError
from .lattice import Vec3
from .read import _colors
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
        self.__dict__["colors"] = _colors(colors, COLORS)

    @property
    def m(self) -> int:
        return len(self.colors)

    def is_proper(self, sphere: SimplicialSphere2) -> bool:
        colors = self.colors
        return all(colors[u] != colors[v] for u, v in sphere.walls)


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
    smallest-last greedy coloring with Kempe-chain swaps.  Either coloring
    is re-verified by :meth:`FacetColoring.is_proper`, which implies the
    star condition (see the module docstring).

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
    if not coloring.is_proper(sphere):  # so it meets the star condition too
        raise InternalError("solver produced an improper coloring")
    return coloring, counters


def coloring_to_charfunc(coloring: FacetColoring) -> CharacteristicFunction:
    """Replace colors by vectors: a, b, c, d -> e1, e2, e3, e1+e2+e3."""
    return CharacteristicFunction(
        tuple(COLOR_VECTORS[c] for c in coloring.colors))
