"""Oriented simplicial 2-spheres and their half-edge index.

A sphere keeps one kind of half-edge index, built by :func:`_half_edges`
and, when a face must turn, oriented by :func:`_orient`: the faces are its
oriented triangles as 3-cycles, or, for :mod:`toriclab.polytope`, a
polytope's facet cycles.  A sphere's maker adds its own checks: proper
distinct triangles and one ring round every vertex.  An index runs each
face in its stored direction.  Facts are decided by bulk tests over whole
lists; a sort or an ordered scan runs only once one fails, to name the
fault.  Outside input is read by :mod:`toriclab.read`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain, groupby, repeat
from functools import cached_property
from operator import eq, lt

from .errors import ValidationError
from .read import _id_triples, _int, _int_ids, _int_key, _sequences, _vertex
from .value import _Value

Triangle = tuple[int, int, int]
Wall = tuple[int, int]
Index = tuple[list[int], list[int], list[int], list[int], list[int]]
_WALL_FAULT = "wall {} lies in {} triangles (expected 2)"


class SimplicialSphere2(_Value):
    """A simplicial 2-sphere on vertex set {0, ..., m-1}.

    ``triangles`` are stored sorted; ``oriented`` holds one oriented
    representative per triangle (aligned with ``triangles``) such that every
    wall is traversed once in each direction, i.e. the orientation is
    globally consistent.  ``walls`` are the sorted 2-element faces.

    Three caches are kept, each built on first use unless a maker stores
    it: the half-edge index (:attr:`_index`; triangle t owns half-edges
    3t..3t+2 and runs as ``oriented[t]``), the neighbour lists and the
    apex pairs read off the index.  None is a field, so equality and
    hashing see only the fields.  A fan's characteristic pair holds the
    fan's own sphere, so the two share all three.
    """

    m: int
    triangles: tuple[Triangle, ...]
    oriented: tuple[Triangle, ...]
    walls: tuple[Wall, ...]

    @classmethod
    def from_triangles(cls, m, triangles, oriented=None) -> "SimplicialSphere2":
        """Validate a triangle list as a 2-sphere and fix an orientation.

        The sorted triangles, or the given representatives if they match
        them, become the index, which :func:`_orient` orients (a given
        orientation must need no flip); each vertex's ring must go once
        round it.  Without ``oriented``, each triangle runs as the first
        does, read from the half-edge it was reached by.
        """
        m = _int(m, "vertex count m")
        given = list(_sequences(triangles, "triangles", "triangle {}"))
        reps = (None if oriented is None
                else _sequences(oriented, "oriented", "oriented triangle {}"))
        ids = _int_ids(given + list(reps or ()), "triangle {c} has a non-integer vertex id")
        tris = _id_triples(given, ids, m, "degenerate triangle {}",
                           "triangle {} uses a vertex outside 0..{}")
        return cls._from_sorted(m, tris, reps)

    @classmethod
    def _from_sorted(cls, m: int, tris: tuple[Triangle, ...], reps=None,
                     reverse_first=False) -> "SimplicialSphere2":
        """:meth:`from_triangles` after its checks of single triangles:
        ``tris`` is sorted, and each triangle is sorted, with three
        distinct vertices in 0..m-1 (:func:`~toriclab.read._id_triples`).
        ``Fan3.from_data`` reads its cones by that reader too, in its own
        words, and then calls this, with ``reverse_first`` (triangle 0
        seeds the orientation reversed) set when its first cone has a
        negative determinant."""
        if not all(map(lt, tris, tris[1:])):
            raise ValidationError("duplicate triangle in sphere")
        matched = reps is not None and tuple(map(tuple, map(sorted, reps))) == tris
        cycles = reps if matched else (tris[0][::-1], *tris[1:]) if reverse_first else tris
        index = _half_edges(cycles, list(chain.from_iterable(cycles)), m, _WALL_FAULT)
        flat, _, twin, codes, _ = index
        if m - len(codes) + len(tris) != 2:
            raise ValidationError(f"Euler characteristic {m - len(codes) + len(tris)} != 2")
        if matched and any(map(eq, flat, map(flat.__getitem__, twin))):
            # a twin starting where its half-edge starts runs the wall the
            # same way; the second of the two met is named
            h = next(h for h, g in enumerate(twin) if g < h and flat[g] == flat[h])
            raise ValidationError(f"orientation traverses edge "
                                  f"{(flat[h], flat[h + 1 if h % 3 < 2 else h - 2])} twice")
        _, entry, parts = _orient(index, tris, "sphere complex is not orientable")
        around = _rings(flat, twin, m, list(map(flat.__getitem__, twin)))
        # the rings hold every half-edge exactly when each goes once round
        if [] in around or sum(map(len, around)) != len(flat):
            degree = Counter(flat)
            v = next(v for v, ring in enumerate(around) if not ring or len(ring) != degree[v])
            raise ValidationError(f"link of vertex {v} is not a single cycle" if around[v]
                                  else f"vertex {v} lies in no triangle")
        if reps is not None and not matched:
            raise ValidationError("oriented representatives do not match triangles")
        if parts > 1:
            raise ValidationError("sphere complex is disconnected")
        if reps is None:
            # triangle t, read from the half-edge k it was entered by
            reps = tuple(tuple(flat[k:k - k % 3 + 3] + flat[k - k % 3:k]) for k in entry)
        sphere = cls(m, tris, reps, walls=tuple(map(divmod, codes, repeat(m))))
        sphere.__dict__.update(_index=index, _neighbours=around)  # cached_property slots
        return sphere

    @cached_property
    def _index(self) -> Index:
        """The index of the oriented triangles.  A sphere
        :func:`~toriclab.polytope.dual_sphere` made is already proved, so
        its index is only built; any other is the one
        :meth:`from_triangles` builds of the stored fields, which must be
        the fields it makes."""
        if "_proved" in self.__dict__:
            return _half_edges(self.oriented, list(chain.from_iterable(self.oriented)), self.m,
                               _WALL_FAULT)
        sphere = SimplicialSphere2.from_triangles(self.m, self.triangles, self.oriented)
        if sphere != self:
            raise ValidationError("sphere fields do not match its triangles")
        return sphere._index

    @cached_property
    def _neighbours(self) -> list[list[int]]:
        """Each vertex's neighbours, in the order of its ring."""
        flat, _, twin, _, _ = self._index
        return _rings(flat, twin, self.m, list(map(flat.__getitem__, twin)))

    @cached_property
    def _apex_pairs(self) -> dict[int, tuple[int, int]]:
        """Each wall (u, v)'s two apexes keyed by its code u * m + v, in
        ``walls`` order: first the one whose triangle runs u -> v, then the
        one across the twin.  Fans ask for every wall several times; one
        dict entry is read faster than a bisection and a dozen lookups."""
        flat, _, twin, codes, edge = self._index
        third = [0] * len(flat)  # of each half-edge's triangle
        third[0::3], third[1::3], third[2::3] = flat[2::3], flat[0::3], flat[1::3]
        twins = list(map(twin.__getitem__, edge))
        return dict(zip(codes, [(x, y) if s < t else (y, x) for s, t, x, y in zip(
            map(flat.__getitem__, edge), map(flat.__getitem__, twins),
            map(third.__getitem__, edge), map(third.__getitem__, twins))]))

    def wall_apexes(self, wall: Wall) -> tuple[int, int]:
        """The two vertices completing the given wall to triangles, ascending."""
        key, m = _int_key(wall), self.m
        u, v = key if len(key) == 2 else (0, 0)  # no wall
        pair = self._apex_pairs.get(u * m + v) if 0 <= u < v < m else None
        if pair is None:
            raise ValidationError(f"{key} is not a wall of this sphere")
        return pair if pair[0] < pair[1] else (pair[1], pair[0])

    def vertex_degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self._neighbours[_vertex(v, self.m)]))

    def orientation_sign(self, i: int, j: int, k: int) -> int:
        """+1 if (i, j, k) is an even permutation of the stored oriented
        representative of the triangle {i, j, k}, else -1."""
        key = _int_key((i, j, k))
        n = bisect_left(self.triangles, key)
        if n == len(self.triangles) or self.triangles[n] != key:
            raise ValidationError(f"{key} is not a triangle of this sphere")
        rep = self.oriented[n]  # an even permutation is a rotation
        return 1 if rep[rep.index(i) - 2] == j else -1


def _rings(flat, twin, m: int, of) -> list[list]:
    """``of[h]`` along each vertex's ring in an oriented triangle index: the
    half-edges h leaving it, each the one after the last one's twin, once
    round it exactly when its link is one cycle (empty if it has none)."""
    turn = [g + 1 if g % 3 < 2 else g - 2 for g in twin]
    rings = [[] for _ in range(m)]
    for v, h in dict(zip(flat, range(len(flat)))).items():
        ring, g = rings[v], turn[h]
        ring.append(of[h])
        while g != h:
            ring.append(of[g])
            g = turn[g]
    return rings


def _heads(flat, cycles) -> list:
    """``flat``, laid out as the cycles, with each entry replaced by the
    next one in its cycle: for vertices, where each half-edge runs to."""
    heads, s = flat[1:] + flat[:1], 0
    for e in accumulate(map(len, cycles)):
        heads[e - 1], s = flat[s], e
    return heads


def _half_edges(cycles, flat: list, n: int, fault: str) -> Index:
    """The half-edge index ``(flat, face, twin, codes, edge)`` of cycles on
    0..n-1, refused unless every edge lies in two faces.  ``flat`` is the
    cycles' vertices, one after another, as the maker already has them; it
    becomes the index's own list.

    Half-edge h runs from vertex ``flat[h]`` to the next vertex of face
    ``face[h]``, face after face in cycle order; ``twin[h]`` is the other
    half-edge on its edge, paired by one sort by the edge code
    ``min(u, v) * n + max(u, v)``; ``codes`` holds each edge's code,
    ascending, and ``edge`` its first half-edge.  Counts decide whether an
    edge is wrong; only then is the first one named, as
    ``fault.format(edge, count)``.
    """
    codes = [u * n + v if u < v else v * n + u for u, v in zip(flat, _heads(flat, cycles))]
    order = sorted(range(len(flat)), key=codes.__getitem__)
    first, second = order[0::2], order[1::2]
    edge_codes = list(map(codes.__getitem__, first))
    # every code exactly twice; two half-edges of one face on one edge
    # would need a repeated vertex or a 2-cycle, which no maker lets in
    if (edge_codes != list(map(codes.__getitem__, second))
            or not all(map(lt, edge_codes, edge_codes[1:]))):
        for code, hs in groupby(order, codes.__getitem__):
            k = len(list(hs))
            if k != 2:
                raise ValidationError(fault.format(divmod(code, n), k))
    twin = [0] * len(flat)
    for a, b in zip(first, second):
        twin[a], twin[b] = b, a
    face = list(chain.from_iterable(map(repeat, range(len(cycles)), map(len, cycles))))
    return flat, face, twin, edge_codes, first


def _orient(index: Index, cycles, fault: str) -> tuple[list[bool], list[int], int]:
    """Reverse faces of an index in place so each edge runs once each way;
    return which were reversed, each face's entry half-edge and the number
    of components.  Face 0 (then the first face not reached) keeps its
    direction, and the faces across its edges follow depth first, each
    crossed from the twin it was entered by on, in the direction it ends
    up running.

    An index in which no twin starts where its half-edge starts turns no
    face; :meth:`~toriclab.polytope.SimplePolytope3.from_facets`, which
    does not read the entries, then checks only that the faces connect."""
    flat, face, twin, _, edge = index
    same = list(map(eq, flat, map(flat.__getitem__, twin)))
    ends = list(accumulate(map(len, cycles)))
    starts = [0, *ends[:-1]]
    flipped: list[bool | None] = [None] * len(cycles)
    entry, parts = starts[:], 0
    for seed in range(len(cycles)):
        if flipped[seed] is not None:
            continue
        flipped[seed], stack, parts = False, [seed], parts + 1
        while stack:
            i = stack.pop()
            s, e, h, flip = starts[i], ends[i], entry[i], flipped[i]
            for h in (chain(range(h, s - 1, -1), range(e - 1, h, -1)) if flip
                      else chain(range(h, e), range(s, h))):
                g = twin[h]
                # j must flip when, as given, it runs the edge the way i ends up
                j, need = face[g], same[h] != flip
                if flipped[j] is None:
                    flipped[j], entry[j] = need, g
                    stack.append(j)
                elif flipped[j] != need:
                    raise ValidationError(fault)
    if any(flipped):
        # half-edge s + j (v_j -> v_j+1) of a reversed face moves to
        # e - 2 - j, and the last one stays; the move is its own inverse
        move = list(range(len(flat)))
        for s, e, f in zip(starts, ends, flipped):
            if f:
                flat[s:e] = reversed(flat[s:e])
                move[s:e - 1] = range(e - 2, s - 1, -1)
        twin[:] = map(move.__getitem__, map(twin.__getitem__, move))
        edge[:] = map(move.__getitem__, edge)
        entry = list(map(move.__getitem__, entry))
    return flipped, entry, parts


def betti_numbers(sphere: SimplicialSphere2) -> tuple[int, int, int, int]:
    """Even-degree Betti numbers (b0, b2, b4, b6) via the h-vector of the
    sphere; for an m-vertex 2-sphere this works out to (1, m-3, m-3, 1)."""
    fvec = (1, sphere.m, len(sphere.walls), len(sphere.triangles))
    return tuple(sum((-1) ** (k - i) * math.comb(3 - i, k - i) * fvec[i] for i in range(k + 1))
                 for k in range(4))
