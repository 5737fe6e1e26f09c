"""Built-in corpus of polytopes and fans, shipped as canonical documents.

Every entry is stored as a literal: the canonical text that
``serialize_polytope`` or ``serialize_fan`` prints for it.  Loading the
corpus therefore builds nothing and imports no layer; :func:`load_polytope`
and :func:`load_fan` import their parser when called.  The tests rebuild
each entry from its construction and compare the texts byte for byte.
Fans carry support parameters that realize them as normal fans of concrete
polytopes, so the projective workflows run on them out of the box.
"""

from __future__ import annotations

from .errors import NotFound
from .value import _Value


class CorpusEntry(_Value):
    name: str
    kind: str  # "polytope" | "fan"
    text: str
    note: str


ENTRIES: dict[str, CorpusEntry] = {e.name: e for e in (
    CorpusEntry("tetrahedron", "polytope", note="boundary complex of the 3-simplex", text="""\
poly3 tetrahedron
facets 4
F 0: 0 1 2
F 1: 0 3 1
F 2: 0 2 3
F 3: 1 3 2
"""),
    CorpusEntry("cube", "polytope", note="the combinatorial 3-cube", text="""\
poly3 cube
facets 6
F 0: 0 1 2 3
F 1: 4 7 6 5
F 2: 0 4 5 1
F 3: 1 5 6 2
F 4: 2 6 7 3
F 5: 0 3 7 4
"""),
    CorpusEntry("pentagonal-prism", "polytope",
                note="prism over a pentagon; smallest 5-gon-bearing prism", text="""\
poly3 pentagonal-prism
facets 7
F 0: 0 1 2 3 4
F 1: 5 9 8 7 6
F 2: 0 5 6 1
F 3: 1 6 7 2
F 4: 2 7 8 3
F 5: 3 8 9 4
F 6: 0 4 9 5
"""),
    CorpusEntry("dodecahedron", "polytope",
                note="C20 fullerene: twelve pentagons, no other faces", text="""\
poly3 dodecahedron
facets 12
F 0: 0 1 4 3 2
F 1: 0 5 7 6 1
F 2: 0 2 8 9 5
F 3: 2 3 10 11 8
F 4: 3 4 12 13 10
F 5: 1 6 14 12 4
F 6: 5 9 15 16 7
F 7: 8 11 17 15 9
F 8: 10 13 18 17 11
F 9: 12 14 19 18 13
F 10: 6 7 16 19 14
F 11: 15 17 18 19 16
"""),
    CorpusEntry("truncated-tetrahedron", "polytope",
                note="tetrahedron with one vertex truncated", text="""\
poly3 truncated-tetrahedron
facets 5
F 0: 0 2 5 3
F 1: 0 3 4 1
F 2: 1 4 5 2
F 3: 0 1 2
F 4: 3 5 4
"""),
    CorpusEntry("cp3", "fan",
                note="normal fan of a lattice 3-simplex (projective 3-space)", text="""\
fan3 cp3
rays 4
R 0: 1 0 0
R 1: 0 1 0
R 2: 0 0 1
R 3: -1 -1 -1
cones 4
C: 0 1 2
C: 0 1 3
C: 0 2 3
C: 1 2 3
support: 1 1 1 1
"""),
    CorpusEntry("cube-fan", "fan", note="coordinate octants: normal fan of [-1,1]^3, "
                                        "a product of three lines", text="""\
fan3 cube-fan
rays 6
R 0: 1 0 0
R 1: -1 0 0
R 2: 0 1 0
R 3: 0 -1 0
R 4: 0 0 1
R 5: 0 0 -1
cones 8
C: 0 2 4
C: 0 2 5
C: 0 3 4
C: 0 3 5
C: 1 2 4
C: 1 2 5
C: 1 3 4
C: 1 3 5
support: 1 1 1 1 1 1
"""),
    CorpusEntry("blowup-cp3", "fan",
                note="cp3 with one cone star-subdivided (blow-up at a fixed point)", text="""\
fan3 blowup-cp3
rays 5
R 0: 1 0 0
R 1: 0 1 0
R 2: 0 0 1
R 3: -1 -1 -1
R 4: 1 1 1
cones 6
C: 0 1 3
C: 0 1 4
C: 0 2 3
C: 0 2 4
C: 1 2 3
C: 1 2 4
support: 1 1 1 1 2
"""),
    CorpusEntry("cp1xcp2", "fan", note="product of a line fan and a plane fan", text="""\
fan3 cp1xcp2
rays 5
R 0: 1 0 0
R 1: -1 0 0
R 2: 0 1 0
R 3: 0 0 1
R 4: 0 -1 -1
cones 6
C: 0 2 3
C: 0 2 4
C: 0 3 4
C: 1 2 3
C: 1 2 4
C: 1 3 4
support: 1 1 1 1 1
"""),
    CorpusEntry("flatwall", "fan", note="cube fan with one octant subdivided; "
                                        "contains three flat walls", text="""\
fan3 flatwall
rays 7
R 0: 1 0 0
R 1: -1 0 0
R 2: 0 1 0
R 3: 0 -1 0
R 4: 0 0 1
R 5: 0 0 -1
R 6: 1 1 1
cones 10
C: 0 2 5
C: 0 2 6
C: 0 3 4
C: 0 3 5
C: 0 4 6
C: 1 2 4
C: 1 2 5
C: 1 3 4
C: 1 3 5
C: 2 4 6
support: 1 1 1 1 1 1 5/2
"""),
)}

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
    from .combinatorics import parse_polytope

    entry = corpus_get(name)
    if entry.kind != "polytope":
        raise NotFound(f"corpus entry {name!r} is a {entry.kind}, not a polytope")
    return parse_polytope(entry.text)


def load_fan(name: str) -> Fan3:
    from .fan import parse_fan

    entry = corpus_get(name)
    if entry.kind != "fan":
        raise NotFound(f"corpus entry {name!r} is a {entry.kind}, not a fan")
    return parse_fan(entry.text)
