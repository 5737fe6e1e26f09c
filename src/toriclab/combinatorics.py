"""Combinatorial simple 3-polytopes and their dual simplicial 2-spheres.

A polytope is stored purely combinatorially, as one vertex cycle per facet.
Parsing normalizes all cycles to a single consistent rotational direction
(facet 0 keeps its given direction and is declared counterclockwise), so the
dual sphere inherits one global orientation.  That orientation is the sign
convention used by the signed intersection calculus downstream.

Each polytope keeps the index of its one incidence pass (edge -> facets,
facet -> cycle successors), read by validation, orientation and
:func:`dual_sphere`, which emits sorted triangles and their oriented
representatives.  A sphere keeps one wall index (ascending apex pairs and
neighbour lists), which its checks, adjacency queries, :func:`dual_polytope`
and the 4-coloring read.  Faults are named after a sort or ordered scan.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, replace
from collections import Counter, defaultdict
from itertools import chain
from functools import cached_property
from operator import lt

from .errors import ParseError, ValidationError

Triangle = tuple[int, int, int]
Wall = tuple[int, int]


def _canon_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate a cycle so its smallest vertex comes first (direction kept)."""
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


@dataclass(frozen=True)
class SimplicialSphere2:
    """A simplicial 2-sphere on vertex set {0, ..., m-1}.

    ``triangles`` are stored sorted; ``oriented`` holds one oriented
    representative per triangle (aligned with ``triangles``) such that every
    wall is traversed once in each direction, i.e. the orientation is
    globally consistent.  ``walls`` are the sorted 2-element faces.

    One wall index is kept (:attr:`_index`): each wall's apexes, ascending,
    and each vertex's neighbours, as stored by :meth:`from_triangles` or
    built on first use.  It is not a field, so equality and hashing see
    only the fields.
    """

    m: int
    triangles: tuple[Triangle, ...]
    oriented: tuple[Triangle, ...]
    walls: tuple[Wall, ...]

    @classmethod
    def from_triangles(cls, m, triangles, oriented=None) -> "SimplicialSphere2":
        """Validate a triangle list as a 2-sphere and fix an orientation.

        Sorted triangles with ``oriented`` representatives, as from
        :func:`dual_sphere`, are indexed by one directed-edge map
        (:func:`_oriented_index`); other input, and any fault, by the scan
        below, which names the first fault.  The other checks read the kept
        wall index; without ``oriented``, its apexes orient by propagation.
        """
        tris = triangles = tuple(map(tuple, triangles))
        if oriented is not None:
            oriented = tuple(map(tuple, oriented))
        index = oriented is not None and _oriented_index(m, triangles, oriented)
        if not index:
            tris = sorted(tuple(sorted(t)) for t in triangles)
            if len(set(tris)) != len(tris):
                raise ValidationError("duplicate triangle in sphere")
            for t in tris:
                if len(set(t)) != 3:
                    raise ValidationError(f"degenerate triangle {t}")
                if not all(0 <= v < m for v in t):
                    raise ValidationError(f"triangle {t} uses a vertex outside 0..{m - 1}")
            index = _wall_index(m, tris)
            for w, tops in index[0].items():
                if len(tops) != 2:
                    raise ValidationError(
                        f"wall {w} lies in {len(tops)} triangles (expected 2)")
        apexes, around = index

        # Euler characteristic of a 2-sphere
        if m - len(apexes) + len(tris) != 2:
            raise ValidationError(
                f"Euler characteristic {m - len(apexes) + len(tris)} != 2")

        # The link of every vertex must be one cycle.  Each neighbour u of v
        # has exactly two link neighbours, the apexes of the wall {u, v}, so
        # the link is 2-regular; it is one cycle iff a walk from one
        # neighbour visits all of them.
        for v in range(m):
            if not around[v]:
                raise ValidationError(f"vertex {v} lies in no triangle")
            start = prev = around[v][0]
            cur = apexes[(v, start) if v < start else (start, v)][0]
            steps = 1
            while cur != start:
                p, q = apexes[(v, cur) if v < cur else (cur, v)]
                prev, cur = cur, q if p == prev else p
                steps += 1
            if steps != len(around[v]):
                raise ValidationError(f"link of vertex {v} is not a single cycle")

        if oriented is None:
            oriented = _orient_by_propagation(tris, apexes)
        if tris is not triangles:  # not checked by _oriented_index
            oriented = _checked_orientation(oriented, tris)

        # connectivity of the whole complex: with every link a cycle, the
        # triangles are connected exactly when the 1-skeleton is
        seen = [False] * m
        seen[0] = True
        stack = [0]
        reached = 1
        while stack:
            for u in around[stack.pop()]:
                if not seen[u]:
                    seen[u] = True
                    reached += 1
                    stack.append(u)
        if reached != m:
            raise ValidationError("sphere complex is disconnected")

        sphere = cls(m=m, triangles=tuple(tris), oriented=oriented,
                     walls=tuple(sorted(apexes)))
        sphere.__dict__["_index"] = index  # cached_property slot
        return sphere

    def reoriented(self, oriented) -> "SimplicialSphere2":
        """This sphere with other oriented representatives.

        The triangles are already validated, so only the orientation is
        checked: it must match the triangles and be globally consistent.
        The result shares this sphere's kept wall index; it builds none.
        """
        sphere = replace(self, oriented=_checked_orientation(oriented, self.triangles))
        sphere.__dict__["_index"] = self._index  # cached_property slot
        return sphere

    @cached_property
    def _index(self) -> tuple[dict[Wall, tuple[int, ...]], dict[int, list[int]]]:
        """The :func:`_wall_index` maps of the stored triangles."""
        return _wall_index(self.m, self.triangles)

    def wall_apexes(self, wall: Wall) -> tuple[int, int]:
        """The two vertices completing the given wall to triangles."""
        u, v = sorted(wall)
        try:
            return self._index[0][(u, v)]
        except KeyError:
            raise ValidationError(f"{(u, v)} is not a wall of this sphere") from None

    def vertex_degree(self, v: int) -> int:
        return len(self._index[1][v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self._index[1][v]))

    def orientation_sign(self, i: int, j: int, k: int) -> int:
        """+1 if (i, j, k) is an even permutation of the stored oriented
        representative of the triangle {i, j, k}, else -1."""
        key = tuple(sorted((i, j, k)))
        n = bisect_left(self.triangles, key)
        if n == len(self.triangles) or self.triangles[n] != key:
            raise ValidationError(f"{key} is not a triangle of this sphere")
        return _permutation_sign((i, j, k), self.oriented[n])


def _wall_index(m: int, tris) -> tuple[dict[Wall, tuple[int, ...]], dict[int, list[int]]]:
    """For sorted triangles on vertices 0..m-1: the apexes of each (sorted)
    wall, in the order of their triangles, and each vertex's neighbours,
    in the order their walls are first met."""
    apexes: dict[Wall, list[int]] = defaultdict(list)
    for a, b, c in tris:
        apexes[(a, b)].append(c)
        apexes[(a, c)].append(b)
        apexes[(b, c)].append(a)
    around: dict[int, list[int]] = {v: [] for v in range(m)}
    for u, v in apexes:
        around[u].append(v)
        around[v].append(u)
    return {w: tuple(t) for w, t in apexes.items()}, around


def _oriented_index(m: int, tris, oriented):
    """The wall index of sorted triangles with aligned, consistent
    representatives, or None."""
    if len(oriented) != len(tris) or not all(map(lt, tris, tris[1:])):
        return None
    nxt: dict[Wall, int] = {}  # the rotations of every representative
    apexes: dict[Wall, tuple[int, int]] = {}
    around: dict[int, list[int]] = {v: [] for v in range(m)}
    try:
        for (a, b, c), (x, y, z) in zip(tris, oriented):
            nxt[x, y], nxt[y, z], nxt[z, x] = z, x, y
            # it matches (a, b, c) iff it wrote c after a -> b or b -> a
            if not (0 <= a < b < c < m and c in (nxt.get((a, b)), nxt.get((b, a)))):
                return None
        for (u, v), w in nxt.items():
            around[u].append(v)
            if u < v:  # each wall once, its apexes ascending
                x = nxt[v, u]
                apexes[u, v] = (w, x) if w < x else (x, w)
    except (KeyError, ValueError):  # an edge without its reverse; no triple
        return None
    # no edge traversed twice and each reversed: every wall in two triangles
    return (apexes, around) if len(nxt) == 3 * len(tris) == 2 * len(apexes) else None


def _permutation_sign(t: Triangle, rep: Triangle) -> int:
    # both are permutations of the same 3 distinct values
    perm = [rep.index(x) for x in t]
    sign = 1
    for a in range(3):
        for b in range(a + 1, 3):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def _orient_by_propagation(tris, apexes) -> tuple[Triangle, ...]:
    """Orient all triangles consistently, seeding from the first one.

    ``apexes`` maps each wall to the apexes of its two triangles."""
    oriented: dict[Triangle, Triangle] = {tris[0]: tris[0]}
    stack = [tris[0]]
    while stack:
        a, b, c = oriented[stack.pop()]
        for u, v, own in ((a, b, c), (b, c, a), (c, a, b)):
            p, q = apexes[(u, v) if u < v else (v, u)]
            apex = q if p == own else p
            other = tuple(sorted((u, v, apex)))
            want = (v, u, apex)  # traverse the shared wall in reverse
            if other in oriented:
                if _permutation_sign(want, oriented[other]) != 1:
                    raise ValidationError("sphere complex is not orientable")
            else:
                oriented[other] = want
                stack.append(other)
    if len(oriented) != len(tris):
        raise ValidationError("sphere complex is disconnected")
    return tuple(oriented[t] for t in tris)


def _checked_orientation(oriented, tris) -> tuple[Triangle, ...]:
    """Given oriented representatives as tuples, checked against the sorted
    triangles ``tris`` and for global consistency."""
    oriented = tuple(tuple(t) for t in oriented)
    if [tuple(sorted(t)) for t in oriented] != list(tris):
        raise ValidationError("oriented representatives do not match triangles")
    seen: set[tuple[int, int]] = set()
    for a, b, c in oriented:
        for e in ((a, b), (b, c), (c, a)):
            if e in seen:
                raise ValidationError(f"orientation traverses edge {e} twice")
            seen.add(e)
    for u, v in list(seen):
        if (v, u) not in seen:
            raise ValidationError(f"orientation is inconsistent across wall {(u, v)}")
    return oriented


@dataclass(frozen=True)
class SimplePolytope3:
    """A combinatorial simple 3-polytope given by facet vertex cycles.

    Cycles are stored in the normalized orientation (facet 0's direction as
    given, all others made consistent with it) and rotated so each cycle
    starts at its smallest vertex.

    The incidence index (:attr:`_index`) is kept on the polytope: each
    edge's two facets, and each facet's successor map in the normalized
    orientation.  :meth:`from_facets` stores the maps its validation pass
    built; a polytope made by the constructor or ``dataclasses.replace``
    validates its cycles and builds them on first use.  The index is not a
    field, so equality and hashing see only ``name`` and ``facets``.
    """

    name: str
    facets: tuple[tuple[int, ...], ...]

    @classmethod
    def from_facets(cls, name: str, facets) -> "SimplePolytope3":
        cycles = [tuple(f) for f in facets]
        edge_owner, succ = _validate_cycles(cycles)
        cycles = _normalize_orientation(cycles, edge_owner, succ)
        p = cls(name=name, facets=tuple(_canon_cycle(c) for c in cycles))
        p.__dict__["_index"] = edge_owner, succ  # cached_property slot
        return p

    @cached_property
    def _index(self) -> tuple[dict[Wall, list[int]], list[dict[int, int]]]:
        """The :func:`_validate_cycles` maps of the stored facet cycles."""
        return _validate_cycles(self.facets)

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    @property
    def num_vertices(self) -> int:
        return len({v for f in self.facets for v in f})

    @property
    def edges(self) -> tuple[Wall, ...]:
        return tuple(sorted(self._index[0]))

    @property
    def num_edges(self) -> int:
        return len(self._index[0])


def _incidence(cycles) -> tuple[dict[Wall, list[int]], list[dict[int, int]]]:
    """One pass over facet cycles without repeated vertices: the facets
    owning each (sorted) edge, in facet order, and for each facet the map
    vertex -> next vertex along its cycle."""
    edge_owner: dict[Wall, list[int]] = defaultdict(list)
    succ = []
    for i, cyc in enumerate(cycles):
        nxt = dict(zip(cyc, cyc[1:] + cyc[:1]))
        for u, v in nxt.items():
            edge_owner[(u, v) if u < v else (v, u)].append(i)
        succ.append(nxt)
    return dict(edge_owner), succ


def _validate_cycles(cycles):
    """Check the cycles describe a simple 3-polytope; return their
    :func:`_incidence` maps.

    Each scan over vertices, edges or facet pairs first decides, without
    sorting, whether anything is wrong.  Only then does it sort, to name
    the first fault in sorted order.
    """
    if not cycles:
        raise ValidationError("polytope has no facets")
    for i, cyc in enumerate(cycles):
        if len(cyc) < 3:
            raise ValidationError(f"facet {i} has cycle length {len(cyc)} < 3")
        if len(set(cyc)) != len(cyc):
            raise ValidationError(f"facet {i} repeats a vertex in its cycle")

    if not all(isinstance(v, int) for v in chain.from_iterable(cycles)):
        i = next(i for i, c in enumerate(cycles) if not all(isinstance(v, int) for v in c))
        raise ValidationError(f"facet {i} = {cycles[i]} has a non-integer vertex id")
    ids = {v for cyc in cycles for v in cyc}
    # len(ids) distinct integers are 0..len(ids)-1 iff all lie in that range
    if min(ids) < 0 or max(ids) >= len(ids):
        raise ValidationError("vertex ids are not 0-based contiguous integers")

    incidence = Counter(chain.from_iterable(cycles))
    if set(incidence.values()) != {3}:
        for v, n in sorted(incidence.items()):
            if n != 3:
                raise ValidationError(f"vertex {v} lies in {n} facets")

    edge_owner, succ = _incidence(cycles)
    owners = edge_owner.values()
    if set(map(len, owners)) != {2} or any(a == b for a, b in owners):
        for e, o in sorted(edge_owner.items()):
            if len(o) != 2:
                raise ValidationError(f"edge {e} lies in {len(o)} facets")
            if o[0] == o[1]:
                raise ValidationError(f"facet {o[0]} is adjacent to itself along {e}")

    # each owner pair is in facet order, so sorted
    if len(set(map(tuple, owners))) != len(edge_owner):
        pair_edges = Counter(map(tuple, owners))
        for pair, n in sorted(pair_edges.items()):
            if n > 1:
                raise ValidationError(f"facets {pair[0]} and {pair[1]} share {n} edges")

    v_count = len(ids)
    e_count = len(edge_owner)
    f_count = len(cycles)
    if v_count - e_count + f_count != 2:
        raise ValidationError(
            f"Euler characteristic {v_count - e_count + f_count} != 2 "
            f"(v={v_count}, e={e_count}, f={f_count})")
    return edge_owner, succ


def _normalize_orientation(cycles, edge_owner, succ):
    """Flip facet cycles so every edge is traversed once in each direction.

    Facet 0 is kept as given; consistency is propagated across shared
    edges.  ``edge_owner`` and ``succ`` are the :func:`_incidence` maps of
    ``cycles``; the successor maps of flipped facets are inverted in
    place, so they describe the returned cycles.
    """
    state: dict[int, bool] = {0: False}  # facet -> flipped?
    stack = [0]
    while stack:
        i = stack.pop()
        cyc = cycles[i][::-1] if state[i] else cycles[i]
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            a, b = edge_owner[(u, v) if u < v else (v, u)]
            j = b if a == i else a
            # consistent iff j traverses this edge in the opposite direction
            needs_flip = succ[j].get(u) == v
            if j in state:
                if state[j] != needs_flip:
                    raise ValidationError("facet cycles are not consistently orientable")
            else:
                state[j] = needs_flip
                stack.append(j)
    if len(state) != len(cycles):
        raise ValidationError("facet adjacency graph is disconnected")
    for i, flipped in state.items():
        if flipped:
            c = cycles[i]
            succ[i] = dict(zip(c, c[-1:] + c[:-1]))  # vertex -> predecessor
    return [c[::-1] if state[i] else c for i, c in enumerate(cycles)]


def dual_sphere(p: SimplePolytope3) -> SimplicialSphere2:
    """The dual simplicial 2-sphere: sphere vertex i <-> facet i of p.

    Each polytope vertex lies in exactly three facets and becomes one
    triangle, oriented by walking the facets around the vertex in the
    direction of the normalized facet cycles (read from the polytope's kept
    index), from its lowest facet: the first facet in order that holds it.
    So the triangles come out grouped by lowest facet, and sorting each
    small group emits them sorted, ready for the one-pass check of
    :meth:`SimplicialSphere2.from_triangles`.
    """
    edge_owner, succ = p._index
    pairs, bad, placed = [], [], set()
    for i, cyc in enumerate(p.facets):
        group = []
        for v in cyc:
            if v in placed:
                continue
            placed.add(v)
            f, walk = i, [i]
            while len(walk) <= 3:  # a longer walk is not simple
                s = succ[f][v]
                g, h = edge_owner[(v, s) if v < s else (s, v)]
                f = h if g == f else g
                if f == i:
                    break
                walk.append(f)
            if len(walk) != 3:
                bad.append((v, walk))
                continue
            _, b, c = walk
            group.append(((i, b, c) if b < c else (i, c, b), (i, b, c)))
        pairs += sorted(group)
    if bad:  # the smallest, as a scan in vertex order names it
        raise ValidationError("vertex {} is not simple: facet walk {}".format(*min(bad)))
    tris, reps = zip(*pairs)
    return SimplicialSphere2.from_triangles(p.num_facets, tris, oriented=reps)


def dual_polytope(sphere: SimplicialSphere2, name: str) -> SimplePolytope3:
    """The simple 3-polytope dual to a simplicial 2-sphere.

    Facet i of the result corresponds to sphere vertex i; polytope vertex t
    corresponds to sphere triangle number t (position in sphere.triangles).
    The walk around each vertex starts at its lowest triangle and reads the
    sphere's kept adjacency index: the far apex of each wall comes from
    the index and its triangle is found by bisection in the sorted
    ``triangles``, and a vertex's degree is its neighbour count.
    """
    apexes, around = sphere._index
    tris = sphere.triangles
    lowest: dict[int, int] = {}
    for idx, t in enumerate(tris):
        for v in t:
            lowest.setdefault(v, idx)

    facets = []
    for v, nbrs in around.items():
        cycle = [lowest[v]]
        while True:
            a, b, c = sphere.oriented[cycle[-1]]
            # cross the wall from v to its successor; ``own`` is this apex
            succ, own = (b, c) if a == v else (c, a) if b == v else (a, b)
            p, q = apexes[(v, succ) if v < succ else (succ, v)]
            nxt = bisect_left(tris, tuple(sorted((v, succ, q if p == own else p))))
            if nxt == cycle[0]:
                break
            cycle.append(nxt)
            if len(cycle) > len(nbrs):
                raise ValidationError(f"triangles around vertex {v} do not close up")
        if len(cycle) != len(nbrs):
            raise ValidationError(f"triangles around vertex {v} form more than one cycle")
        facets.append(tuple(cycle))
    return SimplePolytope3.from_facets(name, facets)


def face_histogram(p: SimplePolytope3) -> dict[int, int]:
    """Counts of facets by cycle length k (k >= 3)."""
    return dict(sorted(Counter(len(f) for f in p.facets).items()))


def is_fullerene(p: SimplePolytope3) -> bool:
    """True iff every facet is a pentagon or a hexagon."""
    return set(face_histogram(p)) <= {5, 6}


_HEADER_RE = re.compile(r"^poly3\s+(\S.*)$")
_FACET_RE = re.compile(r"^F\s+(\d+)\s*:\s*(.*)$")


def _strip_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_polytope(text: str) -> SimplePolytope3:
    """Parse a POLY3 document.

    Grammar (UTF-8, line based, '#' starts a comment):
        poly3 <name>
        facets <m>
        F <id>: <v1> <v2> ... <vk>     (m lines, ids 0..m-1 in order)
    """
    lines = list(_strip_lines(text))
    if not lines:
        raise ParseError("empty POLY3 document")
    head = _HEADER_RE.match(lines[0])
    if not head:
        raise ParseError(f"expected 'poly3 <name>', got {lines[0]!r}")
    name = head.group(1).strip()
    if len(lines) < 2 or not lines[1].startswith("facets"):
        raise ParseError("expected 'facets <m>' on line 2")
    try:
        m = int(lines[1].split()[1])
    except (IndexError, ValueError):
        raise ParseError(f"malformed facet count line {lines[1]!r}") from None
    if len(lines) != 2 + m:
        raise ParseError(f"expected {m} facet lines, found {len(lines) - 2}")
    facets = []
    for k, line in enumerate(lines[2:]):
        match = _FACET_RE.match(line)
        if not match:
            raise ParseError(f"malformed facet line {line!r}")
        if int(match.group(1)) != k:
            raise ParseError(f"facet ids must appear in order; got {match.group(1)} "
                             f"where {k} was expected")
        try:
            cycle = tuple(map(int, match.group(2).split()))
        except ValueError:
            raise ParseError(f"non-integer vertex id in {line!r}") from None
        facets.append(cycle)
    return SimplePolytope3.from_facets(name, facets)


def serialize_polytope(p: SimplePolytope3) -> str:
    """Canonical POLY3 text; parse(serialize(p)) == p, bit-exact."""
    out = [f"poly3 {p.name}", f"facets {p.num_facets}"]
    for i, cyc in enumerate(p.facets):
        out.append(f"F {i}: " + " ".join(str(v) for v in cyc))
    return "\n".join(out) + "\n"
