"""Combinatorial simple 3-polytopes and their dual simplicial 2-spheres.

A polytope is stored purely combinatorially, as one vertex cycle per facet.
Parsing normalizes all cycles to a single consistent rotational direction
(facet 0 keeps its given direction and is declared counterclockwise), so the
dual sphere inherits one global orientation.  That orientation is the sign
convention used by the signed intersection calculus downstream.

Each polytope keeps one half-edge index (start vertex, facet and twin of
every half-edge, in int arrays), read by validation, orientation and
:func:`dual_sphere`.  A sphere keeps one wall index (an int-keyed map from
directed walls to apexes, and neighbour lists), which its checks, adjacency
queries, :func:`dual_polytope` and the 4-coloring read.  Faults are named
after a sort or ordered scan.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, defaultdict
from itertools import accumulate, chain, groupby, repeat
from functools import cached_property
from operator import eq, lt

from .errors import ParseError, ValidationError
from .value import _Value

Triangle = tuple[int, int, int]
Wall = tuple[int, int]


def _canon_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate a cycle so its smallest vertex comes first (direction kept)."""
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


class SimplicialSphere2(_Value):
    """A simplicial 2-sphere on vertex set {0, ..., m-1}.

    ``triangles`` are stored sorted; ``oriented`` holds one oriented
    representative per triangle (aligned with ``triangles``) such that every
    wall is traversed once in each direction, i.e. the orientation is
    globally consistent.  ``walls`` are the sorted 2-element faces.

    One wall index is kept (:attr:`_index`): a map from each directed wall
    ``x * m + y`` to an apex, the two directions of a wall holding its two
    apexes, and each vertex's neighbours, as stored by
    :meth:`from_triangles` or built on first use.  It is not a field, so
    equality and hashing see only the fields.
    """

    m: int
    triangles: tuple[Triangle, ...]
    oriented: tuple[Triangle, ...]
    walls: tuple[Wall, ...]

    def __init__(self, m: int, triangles: tuple[Triangle, ...], oriented: tuple[Triangle, ...],
                 walls: tuple[Wall, ...]):
        self.__dict__.update(m=m, triangles=triangles, oriented=oriented, walls=walls)

    @classmethod
    def from_triangles(cls, m, triangles, oriented=None) -> "SimplicialSphere2":
        """Validate a triangle list as a 2-sphere and fix an orientation.

        Sorted triangles with ``oriented`` representatives, as from
        :func:`dual_sphere`, are indexed by their directed walls
        (:func:`_directed_index`); other input, and any fault, by the scan
        below, which names the first fault.  The other checks read the kept
        wall index, by which propagation orients when ``oriented`` is None.
        """
        tris = triangles = tuple(map(tuple, triangles))
        if oriented is not None:
            oriented = tuple(map(tuple, oriented))
        index = oriented is not None and _directed_index(m, triangles, oriented)
        if not index:
            tris = sorted(tuple(sorted(t)) for t in triangles)
            if len(set(tris)) != len(tris):
                raise ValidationError("duplicate triangle in sphere")
            for t in tris:
                if len(set(t)) != 3:
                    raise ValidationError(f"degenerate triangle {t}")
                if not all(0 <= v < m for v in t):
                    raise ValidationError(f"triangle {t} uses a vertex outside 0..{m - 1}")
            index = _apex_index(m, tris)
        nxt, around, walls = index

        # Euler characteristic of a 2-sphere
        if m - len(walls) + len(tris) != 2:
            raise ValidationError(
                f"Euler characteristic {m - len(walls) + len(tris)} != 2")

        # The link of every vertex must be one cycle.  Each neighbour u of v
        # has exactly two link neighbours, the apexes of the wall {u, v}, so
        # the link is 2-regular; it is one cycle iff a walk from one
        # neighbour visits all of them.
        for v in range(m):
            if not around[v]:
                raise ValidationError(f"vertex {v} lies in no triangle")
            start = prev = around[v][0]
            cur = nxt[v * m + start]
            steps = 1
            while cur != start:
                p = nxt[v * m + cur]
                prev, cur = cur, nxt[cur * m + v] if p == prev else p
                steps += 1
            if steps != len(around[v]):
                raise ValidationError(f"link of vertex {v} is not a single cycle")

        if oriented is None:
            oriented = _orient_by_propagation(m, tris, nxt)
        if tris is not triangles:  # not checked by _directed_index
            oriented = _checked_orientation(oriented, tris)

        # connectivity of the whole complex: with every link a cycle, the
        # triangles are connected exactly when the 1-skeleton is
        seen = frontier = {0}
        while frontier:
            frontier = set(chain.from_iterable(map(around.__getitem__, frontier)))
            frontier -= seen
            seen |= frontier
        if len(seen) != m:
            raise ValidationError("sphere complex is disconnected")

        sphere = cls(m=m, triangles=tuple(tris), oriented=oriented,
                     walls=tuple(map(divmod, walls, repeat(m))))
        sphere.__dict__["_index"] = nxt, around  # cached_property slot
        return sphere

    def reoriented(self, oriented) -> "SimplicialSphere2":
        """This sphere with other oriented representatives.

        The triangles are already validated, so only the orientation is
        checked: it must match the triangles and be globally consistent.
        The result shares this sphere's kept wall index; it builds none.
        """
        sphere = SimplicialSphere2(self.m, self.triangles,
                                   _checked_orientation(oriented, self.triangles), self.walls)
        sphere.__dict__["_index"] = self._index  # cached_property slot
        return sphere

    @cached_property
    def _index(self) -> tuple[dict[int, int], dict[int, list[int]]]:
        """The :func:`_apex_index` maps of the stored triangles."""
        return _apex_index(self.m, self.triangles)[:2]

    def wall_apexes(self, wall: Wall) -> tuple[int, int]:
        """The two vertices completing the given wall to triangles, ascending."""
        u, v = wall
        if u > v:
            u, v = v, u
        m, nxt = self.m, self._index[0]
        p = nxt.get(u * m + v) if 0 <= u < v < m else None
        if p is None:
            raise ValidationError(f"{(u, v)} is not a wall of this sphere")
        q = nxt[v * m + u]
        return (p, q) if p < q else (q, p)

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
        rep = self.oriented[n]  # an even permutation is a rotation
        return 1 if rep[rep.index(i) - 2] == j else -1


def _apex_index(m: int, tris):
    """For sorted triangles on 0..m-1: the wall index (wall {u, v} keeps its
    two apexes under ``u * m + v`` and ``v * m + u``), each vertex's
    neighbours and the sorted wall codes ``u * m + v`` (u < v).  Names the
    first wall met that does not lie in two triangles."""
    apexes: dict[int, list[int]] = defaultdict(list)
    for a, b, c in tris:
        apexes[a * m + b].append(c)
        apexes[a * m + c].append(b)
        apexes[b * m + c].append(a)
    nxt: dict[int, int] = {}
    around: dict[int, list[int]] = {v: [] for v in range(m)}
    for w, tops in apexes.items():
        u, v = divmod(w, m)
        if len(tops) != 2:
            raise ValidationError(f"wall {(u, v)} lies in {len(tops)} triangles (expected 2)")
        nxt[w], nxt[v * m + u] = tops
        around[u].append(v)
        around[v].append(u)
    return nxt, around, sorted(apexes)


def _directed_index(m: int, tris, oriented):
    """As :func:`_apex_index`, for sorted triangles whose aligned
    representatives run every wall once each way, else None: ``x * m + y``
    maps to z for each rotation (x, y, z) of a representative."""
    if len(oriented) != len(tris) or not all(map(lt, tris, tris[1:])):
        return None
    nxt: dict[int, int] = {}
    around: dict[int, list[int]] = {v: [] for v in range(m)}
    try:
        for (a, b, c), (x, y, z) in zip(tris, oriented):
            nxt[x * m + y], nxt[y * m + z], nxt[z * m + x] = z, x, y
            # it matches (a, b, c) iff it wrote c after a -> b or b -> a
            if not (0 <= a < b < c < m and c in (nxt.get(a * m + b), nxt.get(b * m + a))):
                return None
            around[x].append(y)
            around[y].append(z)
            around[z].append(x)
    except ValueError:  # not a triple
        return None
    walls = {a * m + b for a, b, _ in tris}
    walls.update([a * m + c for a, _, c in tris], [b * m + c for _, b, c in tris])
    # no directed wall written twice, and 3T/2 walls: each wall in two
    # triangles, so run once each way
    if len(nxt) != 3 * len(tris) or 2 * len(walls) != len(nxt):
        return None
    return nxt, around, sorted(walls)


def _orient_by_propagation(m: int, tris, nxt) -> tuple[Triangle, ...]:
    """Orient all triangles consistently, seeding from the first one and
    reading the far apex of each wall from the wall index ``nxt``."""
    oriented: dict[Triangle, Triangle] = {tris[0]: tris[0]}
    stack = [tris[0]]
    while stack:
        a, b, c = oriented[stack.pop()]
        for u, v, own in ((a, b, c), (b, c, a), (c, a, b)):
            apex = nxt[u * m + v] + nxt[v * m + u] - own  # the far one
            other = tuple(sorted((u, v, apex)))
            rep = oriented.get(other)
            if rep is None:
                oriented[other] = (v, u, apex)  # the shared wall in reverse
                stack.append(other)
            elif rep[rep.index(v) - 2] != u:  # u does not follow v
                raise ValidationError("sphere complex is not orientable")
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


class SimplePolytope3(_Value):
    """A combinatorial simple 3-polytope given by facet vertex cycles.

    Cycles are stored in the normalized orientation (facet 0's direction as
    given, all others made consistent with it) and rotated so each cycle
    starts at its smallest vertex.

    The half-edge index (:attr:`_index`, see :func:`_half_edges`) is kept:
    :meth:`from_facets` stores the one its validation built, reversed along
    the facets it flipped; a polytope made by the constructor validates
    and orients its cycles the same way on first use, leaving the stored
    cycles as given.  It is not a field, so equality and hashing see only
    the fields.
    """

    name: str
    facets: tuple[tuple[int, ...], ...]

    def __init__(self, name: str, facets: tuple[tuple[int, ...], ...]):
        self.__dict__.update(name=name, facets=facets)

    @classmethod
    def from_facets(cls, name: str, facets) -> "SimplePolytope3":
        cycles = [tuple(f) for f in facets]
        index = _half_edges(cycles)
        flipped = _orient(index, cycles)
        p = cls(name=name, facets=tuple(_canon_cycle(c[::-1] if f else c)
                                        for c, f in zip(cycles, flipped)))
        p.__dict__["_index"] = index  # cached_property slot
        return p

    @cached_property
    def _index(self) -> tuple[list[int], list[int], list[int]]:
        """The :func:`_half_edges` index of the stored facet cycles, oriented
        by :func:`_orient` as :meth:`from_facets` orients it."""
        index = _half_edges(self.facets)
        _orient(index, self.facets)
        return index

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    @property
    def num_vertices(self) -> int:
        return len(self._index[0]) // 3

    @property
    def edges(self) -> tuple[Wall, ...]:
        flat = self._index[0]
        return tuple(sorted({(u, v) if u < v else (v, u)
                             for u, v in zip(flat, _heads(flat, self.facets))}))

    @property
    def num_edges(self) -> int:
        return len(self._index[2]) // 2


def _heads(flat, cycles) -> list:
    """``flat``, laid out as the cycles, with each entry replaced by the
    next one in its cycle: for vertices, where each half-edge runs to."""
    heads, s = flat[1:] + flat[:1], 0
    for e in accumulate(map(len, cycles)):
        heads[e - 1], s = flat[s], e
    return heads


def _half_edges(cycles) -> tuple[list[int], list[int], list[int]]:
    """Check the cycles describe a simple 3-polytope; return its half-edge
    index ``(flat, face, twin)``.

    Half-edge h runs from vertex ``flat[h]`` to the next vertex of facet
    ``face[h]``, facet after facet in cycle order; ``twin[h]`` is the other
    half-edge on its edge, paired by one sort by the edge code
    ``min(u, v) * n + max(u, v)``.  Each scan decides with counts and that
    sort whether anything is wrong; only then does it sort to name the
    first fault in sorted order.
    """
    if not cycles:
        raise ValidationError("polytope has no facets")
    for i, cyc in enumerate(cycles):
        if len(cyc) < 3:
            raise ValidationError(f"facet {i} has cycle length {len(cyc)} < 3")
        if len(set(cyc)) != len(cyc):
            raise ValidationError(f"facet {i} repeats a vertex in its cycle")

    flat = list(chain.from_iterable(cycles))
    if not set(map(type, flat)) <= {int}:  # no float, no bool
        i = next(i for i, c in enumerate(cycles) if not all(type(v) is int for v in c))
        raise ValidationError(f"facet {i} = {cycles[i]} has a non-integer vertex id")
    n = len(set(flat))
    # n distinct integers are 0..n-1 iff all lie in that range
    if min(flat) < 0 or max(flat) >= n:
        raise ValidationError("vertex ids are not 0-based contiguous integers")

    incidence = Counter(flat)
    if set(incidence.values()) != {3}:
        for v, k in sorted(incidence.items()):
            if k != 3:
                raise ValidationError(f"vertex {v} lies in {k} facets")

    face = list(chain.from_iterable(repeat(i, len(c)) for i, c in enumerate(cycles)))
    codes = [u * n + v if u < v else v * n + u for u, v in zip(flat, _heads(flat, cycles))]
    order = sorted(range(len(flat)), key=codes.__getitem__)
    first, second = order[0::2], order[1::2]
    edge_codes = list(map(codes.__getitem__, first))
    # the sort is stable, so each edge's owners are in facet order
    one, other = list(map(face.__getitem__, first)), list(map(face.__getitem__, second))
    # every code exactly twice; two half-edges of one facet on one edge
    # would need a repeated vertex or a 2-cycle, both refused above
    if (edge_codes != list(map(codes.__getitem__, second))
            or not all(map(lt, edge_codes, edge_codes[1:]))):
        for code, hs in groupby(order, codes.__getitem__):
            k = len(list(hs))
            if k != 2:
                raise ValidationError(f"edge {divmod(code, n)} lies in {k} facets")

    shared = Counter(zip(one, other))
    if len(shared) != len(one):
        for (a, b), k in sorted(shared.items()):
            if k > 1:
                raise ValidationError(f"facets {a} and {b} share {k} edges")

    e_count, f_count = len(one), len(cycles)
    if n - e_count + f_count != 2:
        raise ValidationError(
            f"Euler characteristic {n - e_count + f_count} != 2 "
            f"(v={n}, e={e_count}, f={f_count})")
    twin = [0] * len(flat)
    for a, b in zip(first, second):
        twin[a], twin[b] = b, a
    return flat, face, twin


def _orient(index, cycles) -> list[bool]:
    """Which facets to flip so every edge is run once each way.  Facet 0
    keeps its direction and the others follow across twins; a twin runs its
    edge the same way exactly when it starts at the same vertex.  Flipped
    facets are reversed in the index, in place."""
    flat, face, twin = index
    same = list(map(eq, flat, map(flat.__getitem__, twin)))
    across = list(map(face.__getitem__, twin))
    ends = list(accumulate(map(len, cycles)))
    starts = [0, *ends[:-1]]
    flipped: list[bool | None] = [False] + [None] * (len(cycles) - 1)
    stack = [0]
    while stack:
        i = stack.pop()
        flip_i = flipped[i]
        for j, alike in zip(across[starts[i]:ends[i]], same[starts[i]:ends[i]]):
            need = alike != flip_i  # as given, j runs the edge the way i ends up
            if flipped[j] is None:
                flipped[j] = need
                stack.append(j)
            elif flipped[j] != need:
                raise ValidationError("facet cycles are not consistently orientable")
    if None in flipped:
        raise ValidationError("facet adjacency graph is disconnected")
    if any(flipped):
        # half-edge s + j (v_j -> v_j+1) of a reversed facet moves to
        # e - 2 - j, and the last one stays; the move is its own inverse
        move = list(range(len(flat)))
        for s, e, f in zip(starts, ends, flipped):
            if f:
                flat[s:e] = reversed(flat[s:e])
                move[s:e - 1] = range(e - 2, s - 1, -1)
        twin[:] = [move[twin[h]] for h in move]
    return flipped


def dual_sphere(p: SimplePolytope3) -> SimplicialSphere2:
    """The dual simplicial 2-sphere: sphere vertex i <-> facet i of p.

    The neighbours of vertex i are the facets of the twins of facet i's
    half-edges, in cycle order.  Each polytope vertex becomes the triangle
    (i, b, c) read at its lowest facet i, b and c being the neighbours across
    the edges the cycle leaves and enters it by.  The triangles are emitted
    sorted, as :meth:`SimplicialSphere2.from_triangles` checks them in one pass.
    """
    flat, face, twin = p._index
    across = list(map(face.__getitem__, twin))
    # at the vertex each half-edge runs into: b across the next half-edge, c
    # across this one, kept where i is the lowest of the three facets
    tris, reps = zip(*sorted(((i, b, c) if b < c else (i, c, b), (i, b, c)) for i, b, c
                             in zip(face, _heads(across, p.facets), across) if b > i < c))
    return SimplicialSphere2.from_triangles(p.num_facets, tris, oriented=reps)


def dual_polytope(sphere: SimplicialSphere2, name: str) -> SimplePolytope3:
    """The simple 3-polytope dual to a simplicial 2-sphere.

    Facet i of the result corresponds to sphere vertex i; polytope vertex t
    corresponds to sphere triangle number t (position in sphere.triangles).
    The walk around a vertex reads each wall's far apex from the sphere's
    kept wall index and finds its triangle by bisection; it may start
    anywhere, as :meth:`SimplePolytope3.from_facets` rotates each cycle.
    """
    nxt, around = sphere._index
    m, tris = sphere.m, sphere.triangles
    facets = []
    for v, nbrs in around.items():
        # start at the triangle beyond the wall to the first neighbour
        cycle = [bisect_left(tris, tuple(sorted((v, nbrs[0], nxt[v * m + nbrs[0]]))))]
        while True:
            a, b, c = sphere.oriented[cycle[-1]]
            # cross the wall from v to its successor; ``own`` is this apex
            succ, own = (b, c) if a == v else (c, a) if b == v else (a, b)
            apex = nxt[v * m + succ] + nxt[succ * m + v] - own  # the far one
            nxt_t = bisect_left(tris, tuple(sorted((v, succ, apex))))
            if nxt_t == cycle[0]:
                break
            cycle.append(nxt_t)
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


def betti_numbers(sphere: SimplicialSphere2) -> tuple[int, int, int, int]:
    """Even-degree Betti numbers (b0, b2, b4, b6) via the h-vector of the
    sphere; for an m-vertex 2-sphere this works out to (1, m-3, m-3, 1)."""
    fvec = (1, sphere.m, len(sphere.walls), len(sphere.triangles))
    n = 3
    h = []
    for k in range(n + 1):
        h.append(sum((-1) ** (k - i) * math.comb(n - i, k - i) * fvec[i]
                     for i in range(k + 1)))
    return tuple(h)


def _natural(token: str) -> int | None:
    """The value of a ``<digits>`` token, else None."""
    try:
        return int(token) if token.isdecimal() else None
    except ValueError:  # past int()'s digit limit
        return None


class _Lines:
    """The line grammar shared by the poly3, fan3 and lambda documents.

    A document is read as its content lines: '#' starts a comment, lines
    are stripped and blank ones dropped.  It is a sequence of sections,
    read in order through one cursor:

        <kind> <name>           the header (poly3 and fan3 only)
        <word> <n>              a count: two tokens, n a non-negative decimal
        <tag> <k>: <ints>       n records, ids k = 0..n-1 in order; cones
                                are written ``C: <ints>``, with no id

    Integers are ``-?<digits>``, or ``<digits>`` where they may not be
    signed; ids and counts are ``<digits>``.  A document ends after its
    last section.  Refusals are ParseErrors naming the line.
    """

    def __init__(self, text: str):
        self.lines = [ln for raw in text.splitlines() if (ln := raw.split("#", 1)[0].strip())]
        self.at = 0

    def header(self, kind: str) -> str:
        """The name on the ``<kind> <name>`` line."""
        if not self.lines:
            raise ParseError(f"empty {kind.upper()} document")
        parts = self.lines[0].split(None, 1)
        if len(parts) != 2 or parts[0] != kind:
            raise ParseError(f"expected '{kind} <name>', got {self.lines[0]!r}")
        self.at = 1
        return parts[1]

    def count(self, word: str) -> int:
        """The n of the ``<word> <n>`` line."""
        at = self.at
        tokens = self.lines[at].split() if at < len(self.lines) else []
        if tokens[:1] != [word]:
            raise ParseError(f"expected '{word} <n>' on line {at + 1}")
        n = _natural(tokens[1]) if len(tokens) == 2 else None
        if n is None:
            raise ParseError(f"malformed count line {self.lines[at]!r}")
        self.at = at + 1
        return n

    def records(self, tag: str, noun: str, n: int, width: int | None = None,
                numbered: bool = True, signed: bool = True) -> list[tuple[int, ...]]:
        """The integers of n records ``<tag> <k>:`` (``<tag>:`` unless
        ``numbered``), ``width`` of them if given, none negative unless
        ``signed``."""
        at, self.at = self.at, self.at + n
        lines = self.lines[at:self.at]
        if len(lines) < n:
            lines.append("")  # the first missing line, refused below
        out = []
        for k, line in enumerate(lines):
            head, colon, body = line.partition(":")
            label = head.split()
            try:
                ints = tuple(map(int, body.split()))
            except ValueError:
                ints = None
            got = _natural(label[1]) if numbered and len(label) == 2 else k
            if (not colon or ints is None or len(label) != 1 + numbered or label[0] != tag
                    or got is None or (width is not None and len(ints) != width)
                    # int() also reads '+1' and '1_0': refused, it reads -?\d+
                    or "+" in body or "_" in body or (not signed and "-" in body)):
                raise ParseError(f"malformed {noun} line {line!r}")
            if got != k:
                raise ParseError(f"{noun} ids must appear in order; got {label[1]} "
                                 f"where {k} was expected")
            out.append(ints)
        return out

    def end(self, optional: str | None = None) -> str | None:
        """Refuse any line left, but for one starting with ``optional``,
        which is returned (None when absent)."""
        rest = self.lines[self.at:]
        last = rest.pop(0) if optional and rest and rest[0].startswith(optional) else None
        if rest:
            raise ParseError(f"unexpected trailing line {rest[0]!r}")
        return last


def parse_polytope(text: str) -> SimplePolytope3:
    """Parse a POLY3 document (line grammar: :class:`_Lines`):
        poly3 <name>
        facets <m>
        F <id>: <v1> <v2> ... <vk>     (m lines, ids 0..m-1 in order)
    """
    doc = _Lines(text)
    name = doc.header("poly3")
    facets = doc.records("F", "facet", doc.count("facets"))
    doc.end()
    return SimplePolytope3.from_facets(name, facets)


def serialize_polytope(p: SimplePolytope3) -> str:
    """Canonical POLY3 text; parse(serialize(p)) == p, bit-exact."""
    out = [f"poly3 {p.name}", f"facets {p.num_facets}"]
    for i, cyc in enumerate(p.facets):
        out.append(f"F {i}: " + " ".join(str(v) for v in cyc))
    return "\n".join(out) + "\n"
