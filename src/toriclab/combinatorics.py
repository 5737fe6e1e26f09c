"""Combinatorial simple 3-polytopes and their dual simplicial 2-spheres.

A polytope is stored purely combinatorially, as one vertex cycle per facet.
Parsing normalizes all cycles to a single consistent rotational direction
(facet 0 keeps its given direction and is declared counterclockwise), so the
dual sphere inherits one global orientation.  That orientation is the sign
convention used by the signed intersection calculus downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from collections import Counter, defaultdict
from functools import cached_property

from .errors import ParseError, ValidationError

Triangle = tuple[int, int, int]
Wall = tuple[int, int]


def _canon_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate a cycle so its smallest vertex comes first (direction kept)."""
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def _directed_edges(cycle: tuple[int, ...]):
    n = len(cycle)
    for i in range(n):
        yield cycle[i], cycle[(i + 1) % n]


@dataclass(frozen=True)
class SimplicialSphere2:
    """A simplicial 2-sphere on vertex set {0, ..., m-1}.

    ``triangles`` are stored sorted; ``oriented`` holds one oriented
    representative per triangle (aligned with ``triangles``) such that every
    wall is traversed once in each direction, i.e. the orientation is
    globally consistent.  ``walls`` are the sorted 2-element faces.
    """

    m: int
    triangles: tuple[Triangle, ...]
    oriented: tuple[Triangle, ...]
    walls: tuple[Wall, ...]

    @classmethod
    def from_triangles(cls, m, triangles, oriented=None) -> "SimplicialSphere2":
        """Validate a triangle list as a 2-sphere and fix an orientation.

        If ``oriented`` is not given, an orientation is constructed by
        propagation from the lexicographically first triangle.  One index,
        wall -> apexes, serves the wall check, every vertex link, the
        propagation and the connectivity walk.
        """
        tris = sorted(tuple(sorted(t)) for t in triangles)
        if len(set(tris)) != len(tris):
            raise ValidationError("duplicate triangle in sphere")
        for t in tris:
            if len(set(t)) != 3:
                raise ValidationError(f"degenerate triangle {t}")
            if not all(0 <= v < m for v in t):
                raise ValidationError(f"triangle {t} uses a vertex outside 0..{m - 1}")

        apexes: dict[Wall, list[int]] = defaultdict(list)
        for a, b, c in tris:
            apexes[(a, b)].append(c)
            apexes[(a, c)].append(b)
            apexes[(b, c)].append(a)
        for w, tops in apexes.items():
            if len(tops) != 2:
                raise ValidationError(
                    f"wall {w} lies in {len(tops)} triangles (expected 2)")

        # Euler characteristic of a 2-sphere
        if m - len(apexes) + len(tris) != 2:
            raise ValidationError(
                f"Euler characteristic {m - len(apexes) + len(tris)} != 2")

        # The link of every vertex must be one cycle.  Each neighbour u of v
        # has exactly two link neighbours, the apexes of the wall {u, v}, so
        # the link is 2-regular; it is one cycle iff a walk from one
        # neighbour visits all of them.
        around: list[list[int]] = [[] for _ in range(m)]
        for u, v in apexes:
            around[u].append(v)
            around[v].append(u)
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
            _check_orientation_consistent(oriented)
        else:
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

        return cls(m=m, triangles=tuple(tris), oriented=tuple(oriented),
                   walls=tuple(sorted(apexes)))

    def reoriented(self, oriented) -> "SimplicialSphere2":
        """This sphere with other oriented representatives.

        The triangles are already validated, so only the orientation is
        checked: it must match the triangles and be globally consistent.
        The result shares this sphere's adjacency index.
        """
        sphere = replace(self, oriented=_checked_orientation(oriented, self.triangles))
        sphere.__dict__["_apexes"] = self._apexes  # cached_property slot
        return sphere

    @cached_property
    def _apexes(self) -> dict[int, dict[int, tuple[int, ...]]]:
        """``_apexes[u][v]``: the apexes of the wall {u, v}, in the order of
        their triangles in ``triangles``, stored under both endpoints.

        Built on first use, so spheres that never ask for adjacency (the
        polytope pipeline) do not pay for it.
        """
        index: dict[int, dict[int, tuple[int, ...]]] = {v: {} for v in range(self.m)}
        for a, b, c in self.triangles:
            for u, v, apex in ((a, b, c), (a, c, b), (b, c, a)):
                index[u][v] = index[v][u] = index[u].get(v, ()) + (apex,)
        return index

    def wall_apexes(self, wall: Wall) -> tuple[int, int]:
        """The two vertices completing the given wall to triangles."""
        u, v = sorted(wall)
        try:
            return self._apexes[u][v]
        except KeyError:
            raise ValidationError(f"{(u, v)} is not a wall of this sphere") from None

    def vertex_degree(self, v: int) -> int:
        return len(self._apexes[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self._apexes[v]))

    @cached_property
    def _position(self) -> dict[Triangle, int]:
        """Triangle -> its position in ``triangles``."""
        return {t: n for n, t in enumerate(self.triangles)}

    def orientation_sign(self, i: int, j: int, k: int) -> int:
        """+1 if (i, j, k) is an even permutation of the stored oriented
        representative of the triangle {i, j, k}, else -1."""
        key = tuple(sorted((i, j, k)))
        try:
            rep = self.oriented[self._position[key]]
        except KeyError:
            raise ValidationError(f"{key} is not a triangle of this sphere") from None
        return _permutation_sign((i, j, k), rep)


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
    _check_orientation_consistent(oriented)
    return oriented


def _check_orientation_consistent(oriented) -> None:
    seen: set[tuple[int, int]] = set()
    for a, b, c in oriented:
        for e in ((a, b), (b, c), (c, a)):
            if e in seen:
                raise ValidationError(f"orientation traverses edge {e} twice")
            seen.add(e)
    for u, v in list(seen):
        if (v, u) not in seen:
            raise ValidationError(f"orientation is inconsistent across wall {(u, v)}")


@dataclass(frozen=True)
class SimplePolytope3:
    """A combinatorial simple 3-polytope given by facet vertex cycles.

    Cycles are stored in the normalized orientation (facet 0's direction as
    given, all others made consistent with it) and rotated so each cycle
    starts at its smallest vertex.
    """

    name: str
    facets: tuple[tuple[int, ...], ...]

    @classmethod
    def from_facets(cls, name: str, facets) -> "SimplePolytope3":
        cycles = [tuple(int(v) for v in f) for f in facets]
        edge_owner, succ = _validate_cycles(cycles)
        cycles = _normalize_orientation(cycles, edge_owner, succ)
        return cls(name=name, facets=tuple(_canon_cycle(c) for c in cycles))

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    @property
    def num_vertices(self) -> int:
        return len({v for f in self.facets for v in f})

    @property
    def edges(self) -> tuple[Wall, ...]:
        es = {tuple(sorted(e)) for f in self.facets for e in _directed_edges(f)}
        return tuple(sorted(es))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def vertex_facets(self, v: int) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.facets) if v in f)


def _incidence(cycles) -> tuple[dict[Wall, list[int]], list[dict[int, int]]]:
    """One pass over facet cycles without repeated vertices: the facets
    owning each (sorted) edge, in facet order, and for each facet the map
    vertex -> next vertex along its cycle."""
    edge_owner: dict[Wall, list[int]] = defaultdict(list)
    succ = []
    for i, cyc in enumerate(cycles):
        nxt = dict(_directed_edges(cyc))
        for u, v in nxt.items():
            edge_owner[(u, v) if u < v else (v, u)].append(i)
        succ.append(nxt)
    return edge_owner, succ


def _validate_cycles(cycles):
    """Check the cycles describe a simple 3-polytope; return their
    :func:`_incidence` maps."""
    if not cycles:
        raise ValidationError("polytope has no facets")
    for i, cyc in enumerate(cycles):
        if len(cyc) < 3:
            raise ValidationError(f"facet {i} has cycle length {len(cyc)} < 3")
        if len(set(cyc)) != len(cyc):
            raise ValidationError(f"facet {i} repeats a vertex in its cycle")

    ids = {v for cyc in cycles for v in cyc}
    if ids != set(range(len(ids))):
        raise ValidationError("vertex ids are not 0-based contiguous integers")

    incidence = Counter(v for cyc in cycles for v in set(cyc))
    for v, n in sorted(incidence.items()):
        if n != 3:
            raise ValidationError(f"vertex {v} lies in {n} facets")

    edge_owner, succ = _incidence(cycles)
    for e, owners in sorted(edge_owner.items()):
        if len(owners) != 2:
            raise ValidationError(f"edge {e} lies in {len(owners)} facets")
        if owners[0] == owners[1]:
            raise ValidationError(f"facet {owners[0]} is adjacent to itself along {e}")

    pair_edges = Counter(tuple(sorted(o)) for o in edge_owner.values())
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
    ``cycles``.
    """
    state: dict[int, bool] = {0: False}  # facet -> flipped?
    stack = [0]
    while stack:
        i = stack.pop()
        cyc = tuple(reversed(cycles[i])) if state[i] else cycles[i]
        for u, v in _directed_edges(cyc):
            j = next(o for o in edge_owner[(u, v) if u < v else (v, u)] if o != i)
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
    return [tuple(reversed(c)) if state[i] else c for i, c in enumerate(cycles)]


def dual_sphere(p: SimplePolytope3) -> SimplicialSphere2:
    """The dual simplicial 2-sphere: sphere vertex i <-> facet i of p.

    Each polytope vertex lies in exactly three facets and becomes one
    triangle, oriented by walking the facets around the vertex in the
    direction induced by the normalized facet cycles, starting from its
    lowest facet.  One :func:`_incidence` pass indexes the edges and the
    cycle successors, so every step of a walk is a dict lookup and the
    dualisation is linear in the size of p apart from sorting (plus the
    linear re-validation in :meth:`SimplicialSphere2.from_triangles`).
    """
    edge_owner, succ = _incidence(p.facets)
    lowest: dict[int, int] = {}
    for i, cyc in enumerate(p.facets):
        for v in cyc:
            lowest.setdefault(v, i)

    oriented = []
    for v in sorted(lowest):
        walk = [lowest[v]]
        while True:
            f = walk[-1]
            s = succ[f][v]
            g = next(o for o in edge_owner[(v, s) if v < s else (s, v)] if o != f)
            if g == walk[0]:
                break
            walk.append(g)
        if len(walk) != 3:
            raise ValidationError(f"vertex {v} is not simple: facet walk {walk}")
        oriented.append(tuple(walk))

    oriented.sort(key=lambda t: tuple(sorted(t)))
    return SimplicialSphere2.from_triangles(
        p.num_facets, [tuple(sorted(t)) for t in oriented], oriented=oriented)


def dual_polytope(sphere: SimplicialSphere2, name: str) -> SimplePolytope3:
    """The simple 3-polytope dual to a simplicial 2-sphere.

    Facet i of the result corresponds to sphere vertex i; polytope vertex t
    corresponds to sphere triangle number t (position in sphere.triangles).
    One pass indexes the triangles by wall and by vertex, so building the
    cycles is linear in the size of the sphere.
    """
    wall_tris: dict[Wall, list[int]] = defaultdict(list)
    vertex_tris: list[list[int]] = [[] for _ in range(sphere.m)]
    for idx, (a, b, c) in enumerate(sphere.triangles):
        for w in ((a, b), (a, c), (b, c)):
            wall_tris[w].append(idx)
        for v in (a, b, c):
            vertex_tris[v].append(idx)

    facets = []
    for v, incident in enumerate(vertex_tris):
        cycle = [incident[0]]
        while True:
            idx = cycle[-1]
            rep = sphere.oriented[idx]
            k = rep.index(v)
            succ = rep[(k + 1) % 3]  # walk around v following the orientation
            w = tuple(sorted((v, succ)))
            nxt = next(t for t in wall_tris[w] if t != idx)
            if nxt == cycle[0]:
                break
            cycle.append(nxt)
            if len(cycle) > len(incident):
                raise ValidationError(f"triangles around vertex {v} do not close up")
        if len(cycle) != len(incident):
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
            cycle = tuple(int(tok) for tok in match.group(2).split())
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
