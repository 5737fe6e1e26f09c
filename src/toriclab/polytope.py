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
cycles.  :func:`dual_sphere` and :func:`dual_polytope` read one shape off
the other's index.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, compress, repeat
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
    the stored cycles as given.  It is not a field, so equality and hashing
    see only the fields.
    """

    name: str
    facets: tuple[tuple[int, ...], ...]

    @classmethod
    def from_facets(cls, name: str, facets) -> "SimplePolytope3":
        """Validate facet cycles as a simple 3-polytope and normalize them.

        The name must be one a ``poly3`` header reads back.  Cycles must have
        length >= 3 and no repeated vertex, the vertex ids must be 0..n-1,
        each in three facets, and every edge must lie in two facets, no
        two facets sharing two edges, with Euler characteristic 2.  When
        some edge runs the same way in both its facets, :func:`_orient`
        turns facets to agree with facet 0, or refuses; when none does, as
        in a document written consistently, nothing turns and only the
        connection is checked, by :func:`_connected`.  Each stored cycle
        starts at its least vertex.
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
        _, face, twin, _, edge = index
        # each edge's facets a < b as a * f + b: edge holds the first half-edge
        f = len(cycles)
        shared = list(map(add, map(mul, map(face.__getitem__, edge), repeat(f)),
                          map(face.__getitem__, map(twin.__getitem__, edge))))
        if len(set(shared)) != len(shared):
            for code, k in sorted(Counter(shared).items()):
                if k > 1:
                    raise ValidationError("facets {} and {} share {} edges".format(
                        *divmod(code, f), k))
        e = len(edge)
        if n - e + f != 2:
            raise ValidationError(f"Euler characteristic {n - e + f} != 2 (v={n}, e={e}, f={f})")
        if any(map(eq, flat, map(flat.__getitem__, twin))):
            flipped, _, parts = _orient(index, cycles,
                                        "facet cycles are not consistently orientable")
            cycles = [c[::-1] if turn else c for c, turn in zip(cycles, flipped)]
            connected = parts == 1
        else:  # every edge already runs once each way: no facet turns
            connected = _connected(face, twin, lengths)
        if not connected:
            raise ValidationError("facet adjacency graph is disconnected")
        # each cycle rotated to start at its least vertex, direction kept
        p = cls(name=name, facets=tuple([c[k:] + c[:k] for c, k in zip(
            cycles, map(tuple.index, cycles, map(min, cycles)))]))
        p.__dict__["_index"] = index  # cached_property slot
        return p

    @cached_property
    def _index(self) -> Index:
        """The index :meth:`from_facets` builds of the stored facet cycles.
        A polytope :meth:`from_facets` made keeps the index of its cycles
        as given (turned where needed), so a face's half-edges need not
        start where its stored cycle starts."""
        return SimplePolytope3.from_facets(self.name, self.facets)._index

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


def _connected(face: list[int], twin: list[int], lengths) -> bool:
    """Whether the faces of an index, of the given lengths, form one
    component: a walk from face 0 through each face's neighbours, the
    faces across its own slice of half-edges, reaches every face."""
    ends = list(accumulate(lengths))
    across = list(map(face.__getitem__, twin))
    around = list(map(across.__getitem__, map(slice, [0, *ends], ends)))
    seen = [False] * len(ends)
    seen[0], reached = True, [0]
    for i in reached:  # grows as it is read
        for j in around[i]:
            if not seen[j]:
                seen[j] = True
                reached.append(j)
    return len(reached) == len(ends)


def dual_sphere(p: SimplePolytope3) -> SimplicialSphere2:
    """The dual simplicial 2-sphere: sphere vertex i <-> facet i of p.

    It is read straight off the half-edge index ``(flat, face, twin, ...)``.
    With ``across = face[twin[h]]``, the neighbours of vertex i are
    ``across`` along facet i's cycle, and the walls are the pairs
    ``(face[h], across[h])`` with ``face[h] < across[h]``.  Each polytope
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
    _, face, twin, _, _ = p._index
    m = p.num_facets
    across = list(map(face.__getitem__, twin))
    # at the vertex each half-edge runs into: b across the next half-edge, c
    # across this one, kept where i is the lowest of the three facets
    reps = [(i, b, c) for i, b, c in zip(face, _heads(across, p.facets), across) if b > i < c]
    # sorted by the sorted triangle's code (i * m + lo) * m + hi
    keys = [(i * m + b) * m + c if b < c else (i * m + c) * m + b for i, b, c in reps]
    reps = tuple(map(reps.__getitem__, sorted(range(len(reps)), key=keys.__getitem__)))
    tris = tuple([(i, b, c) if b < c else (i, c, b) for i, b, c in reps])
    walls = tuple(sorted(compress(zip(face, across), map(lt, face, across))))
    if (m - len(walls) + len(tris) != 2 or 2 * len(walls) != 3 * len(tris)
            or not all(map(lt, tris, tris[1:])) or not all(map(lt, walls, walls[1:]))):
        raise InternalError(f"dual of polytope {p.name!r} is not a 2-sphere")
    ends = list(accumulate(map(len, p.facets)))
    sphere = SimplicialSphere2(m, tris, reps, walls)
    sphere.__dict__.update(_proved=True,  # its index needs no validation
                           _neighbours=list(map(across.__getitem__, map(slice, [0, *ends], ends))))
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
    return dict(sorted(Counter(len(f) for f in p.facets).items()))


def is_fullerene(p: SimplePolytope3) -> bool:
    """True iff every facet is a pentagon or a hexagon."""
    return set(face_histogram(p)) <= {5, 6}


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
