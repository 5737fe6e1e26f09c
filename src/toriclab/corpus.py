"""Built-in corpus of polytopes and fans, embedded as canonical documents.

Every entry is constructed programmatically at import time, serialized, and
exposed read-only.  Fans carry support parameters that realize them as
normal fans of concrete polytopes, so the projective workflows run on them
out of the box.
"""

from __future__ import annotations

from fractions import Fraction

from .combinatorics import (
    SimplePolytope3,
    SimplicialSphere2,
    dual_polytope,
    parse_polytope,
    serialize_polytope,
)
from .errors import NotFound
from .fan import Fan3, parse_fan, serialize_fan
from .value import _Value


class CorpusEntry(_Value):
    name: str
    kind: str  # "polytope" | "fan"
    text: str
    note: str

    def __init__(self, name: str, kind: str, text: str, note: str):
        self.__dict__.update(name=name, kind=kind, text=text, note=note)


def _tetrahedron() -> SimplePolytope3:
    return SimplePolytope3.from_facets(
        "tetrahedron", [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)])


def _cube() -> SimplePolytope3:
    return SimplePolytope3.from_facets("cube", [
        (0, 1, 2, 3),
        (4, 7, 6, 5),
        (0, 4, 5, 1),
        (1, 5, 6, 2),
        (2, 6, 7, 3),
        (3, 7, 4, 0),
    ])


def _pentagonal_prism() -> SimplePolytope3:
    return SimplePolytope3.from_facets("pentagonal-prism", [
        (0, 1, 2, 3, 4),
        (5, 9, 8, 7, 6),
        (0, 5, 6, 1),
        (1, 6, 7, 2),
        (2, 7, 8, 3),
        (3, 8, 9, 4),
        (4, 9, 5, 0),
    ])


def _truncated_tetrahedron() -> SimplePolytope3:
    # a tetrahedron with one vertex cut off: 2 triangles + 3 quadrilaterals
    return SimplePolytope3.from_facets("truncated-tetrahedron", [
        (3, 0, 2, 5),
        (4, 1, 0, 3),
        (5, 2, 1, 4),
        (0, 2, 1),
        (3, 4, 5),
    ])


def _dodecahedron() -> SimplePolytope3:
    # dual of the icosahedron: caps around vertices 0 and 11, antiprism band
    icosa = SimplicialSphere2.from_triangles(12, (
        [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1)]
        + [(1, 2, 6), (2, 3, 7), (3, 4, 8), (4, 5, 9), (5, 1, 10)]
        + [(6, 7, 2), (7, 8, 3), (8, 9, 4), (9, 10, 5), (10, 6, 1)]
        + [(11, 7, 6), (11, 8, 7), (11, 9, 8), (11, 10, 9), (11, 6, 10)]
    ))
    return dual_polytope(icosa, "dodecahedron")


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _cp3_fan() -> Fan3:
    rays = [E1, E2, E3, (-1, -1, -1)]
    cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return Fan3.from_data("cp3", rays, cones, support=[1, 1, 1, 1])


def _cube_fan() -> Fan3:
    rays = [E1, (-1, 0, 0), E2, (0, -1, 0), E3, (0, 0, -1)]
    cones = [(i, j, k) for i in (0, 1) for j in (2, 3) for k in (4, 5)]
    return Fan3.from_data("cube-fan", rays, cones, support=[1] * 6)


def _blowup_cp3_fan() -> Fan3:
    rays = [E1, E2, E3, (-1, -1, -1), (1, 1, 1)]
    cones = [(0, 1, 4), (0, 2, 4), (1, 2, 4),
             (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return Fan3.from_data("blowup-cp3", rays, cones, support=[1, 1, 1, 1, 2])


def _cp1xcp2_fan() -> Fan3:
    rays = [E1, (-1, 0, 0), E2, E3, (0, -1, -1)]
    cones = [(i, j, k) for i in (0, 1) for (j, k) in ((2, 3), (2, 4), (3, 4))]
    return Fan3.from_data("cp1xcp2", rays, cones, support=[1] * 5)


def _flatwall_fan() -> Fan3:
    # cube fan with the (+,+,+) octant star-subdivided at (1,1,1); the three
    # inner walls {e_i, e_j} of the subdivided octant are flat (curvature 0)
    rays = [E1, (-1, 0, 0), E2, (0, -1, 0), E3, (0, 0, -1), (1, 1, 1)]
    cones = [(i, j, k) for i in (0, 1) for j in (2, 3) for k in (4, 5)
             if (i, j, k) != (0, 2, 4)]
    cones += [(6, 2, 4), (0, 6, 4), (0, 2, 6)]
    return Fan3.from_data("flatwall", rays, cones,
                          support=[1, 1, 1, 1, 1, 1, Fraction(5, 2)])


_POLYTOPE_BUILDERS = {
    "tetrahedron": (_tetrahedron,
                    "boundary complex of the 3-simplex"),
    "cube": (_cube, "the combinatorial 3-cube"),
    "pentagonal-prism": (_pentagonal_prism,
                         "prism over a pentagon; smallest 5-gon-bearing prism"),
    "dodecahedron": (_dodecahedron,
                     "C20 fullerene: twelve pentagons, no other faces"),
    "truncated-tetrahedron": (_truncated_tetrahedron,
                              "tetrahedron with one vertex truncated"),
}

_FAN_BUILDERS = {
    "cp3": (_cp3_fan, "normal fan of a lattice 3-simplex (projective 3-space)"),
    "cube-fan": (_cube_fan, "coordinate octants: normal fan of [-1,1]^3, "
                            "a product of three lines"),
    "blowup-cp3": (_blowup_cp3_fan,
                   "cp3 with one cone star-subdivided (blow-up at a fixed point)"),
    "cp1xcp2": (_cp1xcp2_fan, "product of a line fan and a plane fan"),
    "flatwall": (_flatwall_fan, "cube fan with one octant subdivided; "
                                "contains three flat walls"),
}


def _build() -> dict[str, CorpusEntry]:
    entries: dict[str, CorpusEntry] = {}
    for name, (builder, note) in _POLYTOPE_BUILDERS.items():
        entries[name] = CorpusEntry(name=name, kind="polytope",
                                    text=serialize_polytope(builder()), note=note)
    for name, (builder, note) in _FAN_BUILDERS.items():
        entries[name] = CorpusEntry(name=name, kind="fan",
                                    text=serialize_fan(builder()), note=note)
    return entries


ENTRIES: dict[str, CorpusEntry] = _build()

POLYTOPE_NAMES = tuple(n for n, e in ENTRIES.items() if e.kind == "polytope")
FAN_NAMES = tuple(n for n, e in ENTRIES.items() if e.kind == "fan")


def corpus_names() -> tuple[str, ...]:
    return tuple(ENTRIES)


def corpus_get(name: str) -> CorpusEntry:
    try:
        return ENTRIES[name]
    except KeyError:
        raise NotFound(f"no corpus entry named {name!r}; "
                       f"available: {', '.join(ENTRIES)}") from None


def load_polytope(name: str) -> SimplePolytope3:
    entry = corpus_get(name)
    if entry.kind != "polytope":
        raise NotFound(f"corpus entry {name!r} is a {entry.kind}, not a polytope")
    return parse_polytope(entry.text)


def load_fan(name: str) -> Fan3:
    entry = corpus_get(name)
    if entry.kind != "fan":
        raise NotFound(f"corpus entry {name!r} is a {entry.kind}, not a fan")
    return parse_fan(entry.text)
