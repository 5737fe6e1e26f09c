"""Stage 2 of :func:`toriclab.coloring.four_color`, run only when the
backtracking search of stage 1 runs out of its node budget.

Smallest-last greedy coloring (Matula and Beck): vertices are removed one
of least remaining degree at a time and colored in the reverse order, so
each meets at most five colored neighbours, a planar graph always having
a vertex of degree at most five.  When its neighbours use all four colors,
a Kempe-chain swap (Kempe, 1879; Morgenstern and Shapiro, "Heuristics for
rapidly four-coloring large planar maps", Algorithmica 6, 1991) frees one:
the colored vertices of colors a and b reachable from v's a-neighbours
through a- and b-colored vertices swap a and b, which keeps the coloring
proper, and frees a at v unless that chain reaches a b-neighbour of v.
With four colored neighbours some pair always works; with five none may,
and the pass restarts with its ties broken by a seeded permutation; after
``_RESTARTS`` passes it gives up, to stage 1 with no budget.  Everything
runs on explicit stacks, without recursion.
"""

from __future__ import annotations

import heapq
import random

from .coloring import _BIT, _FREE

_RESTARTS = 64
_PAIRS = tuple((a, b) for a in range(4) for b in range(4) if a != b)


def kempe_color(adj: list[list[int]]) -> tuple[list[int] | None, int, int]:
    """A proper 4-coloring (colors 0..3) of the planar graph with neighbour
    lists ``adj``, or None once ``_RESTARTS`` passes have failed, with the
    number of Kempe swaps and of restarts made."""
    m = len(adj)
    swaps = 0
    for restart in range(_RESTARTS):
        rank = random.Random(restart).sample(range(m), m) if restart else range(m)
        color = [-1] * m
        for v in reversed(_smallest_last(adj, rank)):
            used = 0
            for w in adj[v]:
                used |= _BIT[color[w]]
            free = _FREE[used]
            if free:
                color[v] = free[0]
                continue
            color[v] = _swap_free(adj, color, v)
            if color[v] < 0:
                break
            swaps += 1
        else:
            return color, swaps, restart
    return None, swaps, _RESTARTS


def _smallest_last(adj: list[list[int]], rank) -> list[int]:
    """Vertices in the order removed, each of least remaining degree, ties
    to the least ``rank``; a heap of keys ``degree * m + rank`` with lazy
    deletion."""
    m = len(adj)
    of_rank = [0] * m
    for v, r in enumerate(rank):
        of_rank[r] = v
    deg = list(map(len, adj))
    heap = [d * m + r for d, r in zip(deg, rank)]
    heapq.heapify(heap)
    gone = [False] * m
    order = []
    while heap:
        k = heapq.heappop(heap)
        v = of_rank[k % m]
        if gone[v] or k // m != deg[v]:
            continue
        gone[v] = True
        order.append(v)
        for w in adj[v]:
            if not gone[w]:
                deg[w] -= 1
                heapq.heappush(heap, deg[w] * m + rank[w])
    return order


def _swap_free(adj: list[list[int]], color: list[int], v: int) -> int:
    """Free a color at v by one Kempe swap and return it, or -1 if for no
    pair of colors (a, b) the a/b chain of v's a-neighbours misses all of
    v's b-neighbours."""
    ring = set(adj[v])
    for a, b in _PAIRS:
        chain = _chain(adj, color, [w for w in adj[v] if color[w] == a], a, b, ring)
        if chain is not None:
            for x in chain:
                color[x] ^= a ^ b  # a <-> b
            return a
    return -1


def _chain(adj: list[list[int]], color: list[int], starts: list[int], a: int, b: int,
           ring: set[int]) -> set[int] | None:
    """The vertices colored a or b reachable from ``starts`` through such
    vertices, or None once one colored b lies in ``ring``."""
    chain, stack = set(starts), starts[:]
    while stack:
        for y in adj[stack.pop()]:
            if y not in chain and (color[y] == a or color[y] == b):
                if color[y] == b and y in ring:
                    return None
                chain.add(y)
                stack.append(y)
    return chain
