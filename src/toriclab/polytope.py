"""Combinatorial simple 3-polytopes, and duality with simplicial 2-spheres.

A polytope is stored purely combinatorially, as one vertex cycle per facet.
Parsing normalizes all cycles to a single consistent rotational direction
(facet 0 keeps its given direction and is declared counterclockwise), so the
dual sphere inherits one global orientation.  That orientation is the sign
convention used by the signed intersection calculus downstream.

A polytope keeps the half-edge index of :mod:`toriclab.combinatorics`, its
faces the facet cycles, with three facets checked at every vertex.
:meth:`SimplePolytope3.from_facets` keeps the index of the cycles as given
(turned where needed), while each stored cycle starts at its least vertex,
and a polytope made by the constructor gets the index of its stored
cycles.  Its facets' neighbour lists and sorted facet-pair codes are kept
too, and are the dual sphere's neighbour lists and walls.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, repeat
from functools import cached_property
from operator import add, eq, lt, mul

from .combinatorics import Index, SimplicialSphere2, Wall, _half_edges, _heads, _orient, _rings
from .errors import InternalError, ValidationError
from .read import _int_ids, _Lines, _name, _sequences
from .value import _Value


class SimplePolytope3(_Value):
    """A combinatorial simple 3-polytope given by facet vertex cycles.

    Cycles are stored in the normalized orientation (facet 0's direction as
    given, all others made consistent with it) and rotated so each cycle
    starts at its smallest vertex.

    The half-edge index (:attr:`_index`, see :func:`_half_edges`) is kept:
    :meth:`from_facets` stores the one its validation built; a polytope
    made by the constructor builds it the same way on first use, leaving
    the stored cycles as given; so are the lists read off it, :attr:`_neighbours`
    and :attr:`_pairs`, each kept from that validation where it made them.
    None is a field, so equality and hashing see only fields.
    """

    name: str
    facets: tuple[tuple[int, ...], ...]

    @classmethod
    def from_facets(cls, name: str, facets) -> "SimplePolytope3":
        """Validate facet cycles as a simple 3-polytope and normalize them.

        The name must be one a ``poly3`` header reads back.  Cycles must have
        length >= 3 and no repeated vertex, the vertex ids must be 0..n-1,
        each in three facets, and every edge must lie in two facets, no
        two facets sharing two edges (the kept facet-pair codes rise
        strictly), with Euler characteristic 2.  When some edge runs the
        same way in both its facets, :func:`_orient` turns facets to agree
        with facet 0, or refuses; when none does, nothing turns and only
        the connection is checked, by :func:`_connected` on the kept
        neighbour lists.  Each stored cycle starts at its least vertex.
        """
        _name(name, "poly3")
        cycles = list(_sequences(facets, "facets", "facet {}"))
        if not cycles:
            raise ValidationError("polytope has no facets")
        flat = _int_ids(cycles, "facet {i} = {c} has a non-integer vertex id")
        lengths = list(map(len, cycles))
        if min(lengths) < 3 or list(map(len, map(set, cycles))) != lengths:
            for i, cyc in enumerate(cycles):
                if len(cyc) < 3:
                    raise ValidationError(f"facet {i} has cycle length {len(cyc)} < 3")
                if len(set(cyc)) != len(cyc):
                    raise ValidationError(f"facet {i} repeats a vertex in its cycle")
        incidence = Counter(flat)
        n = len(incidence)
        # n distinct integers are 0..n-1 iff all lie in that range
        if min(incidence) < 0 or max(incidence) >= n:
            raise ValidationError("vertex ids are not 0-based contiguous integers")
        if set(incidence.values()) != {3}:
            for v, k in sorted(incidence.items()):
                if k != 3:
                    raise ValidationError(f"vertex {v} lies in {k} facets")

        index = _half_edges(cycles, flat, n, "edge {} lies in {} facets")
        pairs, f, e = _facet_pairs(index, len(cycles)), len(cycles), len(index[4])
        if not all(map(lt, pairs, pairs[1:])):  # ascending, so the least repeat is met first
            code = next(a for a, b in zip(pairs, pairs[1:]) if a == b)
            raise ValidationError("facets {} and {} share {} edges".format(
                *divmod(code, f), pairs.count(code)))
        if n - e + f != 2:
            raise ValidationError(f"Euler characteristic {n - e + f} != 2 (v={n}, e={e}, f={f})")
        parts = 0  # every edge already runs once each way: no facet turns
        if any(map(eq, flat, map(flat.__getitem__, index[2]))):
            flipped, _, parts = _orient(index, cycles,
                                        "facet cycles are not consistently orientable")
            cycles = [c[::-1] if turn else c for c, turn in zip(cycles, flipped)]
        # each cycle rotated to start at its least vertex, direction kept
        p = cls(name=name, facets=tuple([c[k:] + c[:k] for c, k in zip(
            cycles, map(tuple.index, cycles, map(min, cycles)))]))
        p.__dict__.update(_index=index, _pairs=pairs)  # cached_property slots
        if parts > 1 or not parts and not _connected(p._neighbours):
            raise ValidationError("facet adjacency graph is disconnected")
        return p

    @cached_property
    def _index(self) -> Index:
        """The index :meth:`from_facets` builds of the stored facet cycles.
        A polytope :meth:`from_facets` made keeps the index of its cycles
        as given (turned where needed), so a face's half-edges need not
        start where its stored cycle starts.  The lists the validation read
        off that index (:attr:`_pairs`, and :attr:`_neighbours` once made)
        are kept too, not read again."""
        valid = SimplePolytope3.from_facets(self.name, self.facets).__dict__
        self.__dict__.update({k: valid[k] for k in ("_pairs", "_neighbours") if k in valid})
        return valid["_index"]

    @cached_property
    def _neighbours(self) -> list[list[int]]:
        """Each facet's neighbours, across its half-edges in index order."""
        _, face, twin, _, _ = self._index
        across, ends = list(map(face.__getitem__, twin)), list(accumulate(map(len, self.facets)))
        return list(map(across.__getitem__, map(slice, [0, *ends], ends)))

    @cached_property
    def _pairs(self) -> list[int]:
        """:func:`_facet_pairs`: the walls of the dual."""
        return _facet_pairs(self._index, self.num_facets)

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    @property
    def num_vertices(self) -> int:
        return len(self._index[0]) // 3

    @property
    def edges(self) -> tuple[Wall, ...]:
        return tuple(map(divmod, self._index[3], repeat(self.num_vertices)))

    @property
    def num_edges(self) -> int:
        return len(self._index[3])


def _facet_pairs(index: Index, f: int) -> list[int]:
    """Each edge's two faces a < b as a * f + b, ascending: ``edge`` holds
    its first half-edge, which lies in a."""
    _, face, twin, _, edge = index
    return sorted(map(add, map(mul, map(face.__getitem__, edge), repeat(f)),
                      map(face.__getitem__, map(twin.__getitem__, edge))))


def _connected(around: list[list[int]]) -> bool:
    """Whether faces with these neighbour lists form one component: a walk
    from face 0 through each face's neighbours reaches every face."""
    seen = [False] * len(around)
    seen[0], reached = True, [0]
    for i in reached:  # grows as it is read
        for j in around[i]:
            if not seen[j]:
                seen[j] = True
                reached.append(j)
    return len(reached) == len(around)


def dual_sphere(p: SimplePolytope3) -> SimplicialSphere2:
    """The dual simplicial 2-sphere: sphere vertex i <-> facet i of p.

    It is read off the polytope's kept lists: its neighbour lists are the
    facets' own (``across = face[twin[h]]`` along each facet's cycle in the
    index), and its walls the sorted facet-pair codes.  Each polytope
    vertex becomes the triangle (i, b, c) read at its lowest facet i, b and
    c being the neighbours across the edges the cycle leaves and enters it
    by; that order is its oriented representative.

    No sphere check is repeated, here or when the sphere's own index is
    first built, because validating the polytope's index already proved
    what it needs: three distinct facets at every vertex and two
    at every edge, no two facets sharing two edges, and Euler
    characteristic 2; the facets are one connected, consistently oriented
    surface (turned by :func:`_orient` where needed).  So the triangles
    are distinct, every wall lies in two of them, the link of i is facet
    i's neighbour cycle, and the sphere is connected and consistently
    oriented.  The triangles are sorted by one integer each, the sorted
    triangle's code ``(i * m + lo) * m + hi``.  The counts
    ``m - W + T = 2`` and ``2W = 3T`` and the strict order of triangles
    and walls are checked; a failure is an InternalError.
    """
    face, m = p._index[1], p.num_facets
    across = list(chain.from_iterable(p._neighbours))
    # at the vertex each half-edge runs into: b across the next half-edge, c
    # across this one, kept where i is the lowest of the three facets
    reps = [(i, b, c) for i, b, c in zip(face, _heads(across, p.facets), across) if b > i < c]
    # sorted by the sorted triangle's code (i * m + lo) * m + hi
    keys = [(i * m + b) * m + c if b < c else (i * m + c) * m + b for i, b, c in reps]
    reps = tuple(map(reps.__getitem__, sorted(range(len(reps)), key=keys.__getitem__)))
    tris = tuple([(i, b, c) if b < c else (i, c, b) for i, b, c in reps])
    walls = tuple(map(divmod, p._pairs, repeat(m)))
    if (m - len(walls) + len(tris) != 2 or 2 * len(walls) != 3 * len(tris)
            or not all(map(lt, tris, tris[1:])) or not all(map(lt, walls, walls[1:]))):
        raise InternalError(f"dual of polytope {p.name!r} is not a 2-sphere")
    sphere = SimplicialSphere2(m, tris, reps, walls)
    sphere.__dict__.update(_proved=True, _neighbours=p._neighbours)  # its index is not validated
    return sphere


def dual_polytope(sphere: SimplicialSphere2, name: str) -> SimplePolytope3:
    """The simple 3-polytope dual to a simplicial 2-sphere.

    Facet i of the result corresponds to sphere vertex i; polytope vertex t
    corresponds to sphere triangle number t (position in sphere.triangles).
    Facet i's cycle is the triangles of vertex i's ring in the sphere's
    index (:func:`_rings`), which may start anywhere, as
    :meth:`SimplePolytope3.from_facets` rotates each cycle.
    """
    flat, face, twin, _, _ = sphere._index
    return SimplePolytope3.from_facets(name, _rings(flat, twin, sphere.m, face))


def face_histogram(p: SimplePolytope3) -> dict[int, int]:
    """Counts of facets by cycle length k (k >= 3)."""
    return dict(sorted(Counter(map(len, p.facets)).items()))


def is_fullerene(p: SimplePolytope3) -> bool:
    """True iff every facet is a pentagon or a hexagon."""
    return set(map(len, p.facets)) <= {5, 6}


def parse_polytope(text: str) -> SimplePolytope3:
    """Parse a POLY3 document (line grammar: :class:`~toriclab.read._Lines`):
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
