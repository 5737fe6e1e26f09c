"""Oriented simplicial 2-spheres, their half-edge index and the line readers.

A sphere keeps one kind of half-edge index, built by :func:`_half_edges`
and, when a face must turn, oriented by :func:`_orient`: the faces are its
oriented triangles as 3-cycles, or, for :mod:`toriclab.polytope`, a
polytope's facet cycles.  A sphere's maker adds its own checks: proper
distinct triangles and one ring round every vertex.  An index runs each
face in its stored direction.  Facts are decided by bulk tests over whole
lists; a sort or an ordered scan runs only once one fails, to name the
fault.  The line grammar (:class:`_Lines`) and the number readers serve
the poly3, fan3 and lambda parsers.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain, groupby, repeat
from functools import cached_property
from operator import eq, lt

from .errors import ParseError, ValidationError
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
        if type(m) is not int:
            raise ValidationError(f"vertex count m = {m!r} is not an int")
        given = list(_sequences(triangles, "triangles", "triangle {}"))
        reps = (None if oriented is None
                else _sequences(oriented, "oriented", "oriented triangle {}"))
        _int_ids(given + list(reps or ()), "triangle {c}")
        tris = sorted(tuple(sorted(t)) for t in given)
        for t in tris:  # each sorted, so its ends are its least and greatest
            if len(t) != 3 or t[0] == t[1] or t[1] == t[2]:
                raise ValidationError(f"degenerate triangle {t}")
            if t[0] < 0 or t[2] >= m:
                raise ValidationError(f"triangle {t} uses a vertex outside 0..{m - 1}")
        return cls._from_sorted(m, tuple(tris), reps)

    @classmethod
    def _from_sorted(cls, m: int, tris: tuple[Triangle, ...], reps=None,
                     reverse_first=False) -> "SimplicialSphere2":
        """:meth:`from_triangles` after its checks of single triangles:
        ``tris`` is sorted, and each triangle is sorted, with three
        distinct vertices in 0..m-1.  ``Fan3.from_data`` checks its cones
        that far itself, in its own words, and then calls this, with
        ``reverse_first`` (triangle 0 seeds the orientation reversed) set
        when its first cone has a negative determinant."""
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
        if type(v) is not int or not 0 <= v < self.m:
            raise ValidationError(f"{v!r} is not a vertex of this sphere (0..{self.m - 1})")
        return tuple(sorted(self._neighbours[v]))

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


def _int_ids(cycles, named: str) -> list:
    """The cycles' vertex ids, all ints (no float, no bool), else the first
    other cycle i is named as ``named.format(i=i, c=cycle)``."""
    flat = list(chain.from_iterable(cycles))
    if not set(map(type, flat)) <= {int}:
        i = next(i for i, c in enumerate(cycles) if not all(type(v) is int for v in c))
        raise ValidationError(f"{named.format(i=i, c=cycles[i])} has a non-integer vertex id")
    return flat


def _sequence(x, named: str) -> tuple:
    """``tuple(x)``, refused unless x is iterable, as ``{named} = {x!r}``."""
    try:
        return tuple(x)
    except TypeError:
        raise ValidationError(f"{named} = {x!r} is not a sequence") from None


def _sequences(rows, named: str, row: str) -> tuple[tuple, ...]:
    """The rows as a tuple of tuples, in one pass if each row is iterable;
    the rows (``named``) or the first row i that is not (``row.format(i)``)
    is refused as :func:`_sequence` refuses it."""
    rows = _sequence(rows, named)
    try:
        return tuple(map(tuple, rows))
    except TypeError:
        for i, r in enumerate(rows):
            _sequence(r, row.format(i))
        raise


def _int_key(ids) -> tuple[int, ...]:
    """The ids sorted, refused unless they are a sequence of ints: a float
    or a bool would pass for the int it equals (0.0 or True for 0 or 1)."""
    try:
        key = tuple(ids)
    except TypeError:
        raise ValidationError(f"indices {ids!r} are not a sequence") from None
    if not all(type(i) is int for i in key):
        raise ValidationError(f"indices {ids!r} are not all integers")
    return tuple(sorted(key))


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
    n = 3
    h = []
    for k in range(n + 1):
        h.append(sum((-1) ** (k - i) * math.comb(n - i, k - i) * fvec[i]
                     for i in range(k + 1)))
    return tuple(h)


def _natural(token: str) -> int | None:
    """The value of a ``<digits>`` token, else None.  ``isdecimal`` also
    takes other scripts' digits, so the caller first checks that the text
    the token comes from is ASCII, once for the whole line."""
    try:
        return int(token) if token.isdecimal() else None
    except ValueError:  # past int()'s digit limit
        return None


def _rationals(tokens) -> list:
    """Each token's Fraction if it is ``-?<digits>`` or ``-?<digits>/<digits>``
    with a nonzero denominator (a fan's support entry), else None."""
    from fractions import Fraction  # the polytope commands never read one

    values = []
    for token in tokens:
        num, slash, den = token.partition("/")
        sign = -1 if num[:1] == "-" else 1
        p = _natural(num[1:] if sign < 0 else num) if token.isascii() else None
        q = _natural(den) if slash else 1
        values.append(None if p is None or not q else Fraction(sign * p, q))
    return values


def _exact(values, named: str) -> list:
    """The values as exact numbers, each a Fraction or an int (not a bool),
    kept as the same object, or a string :func:`_rationals` reads; anything
    else is refused, the first named as ``named.format(i=i, x=repr(x))``."""
    values = list(values)
    if not set(map(type, values)) <= {int}:
        from fractions import Fraction  # loaded already if a value is one

        for i, x in enumerate(values):
            if type(x) is not int and type(x) is not Fraction:
                values[i] = _rationals([x])[0] if type(x) is str else None
                if values[i] is None:
                    raise ValidationError(f"{named.format(i=i, x=repr(x))} is not a "
                                          f"Fraction, an int or a 'p/q' string")
    return values


_SPACE = " \t\n\r\f\v"  # ASCII whitespace, the grammar's only separator


def _plain(line: str) -> bool:
    """Whether ``str.split`` splits the line only at ASCII whitespace: it
    also splits at other scripts' spaces and at U+001C..U+001F."""
    return line.isascii() and not ("\x1c" in line or "\x1d" in line or "\x1e" in line
                                   or "\x1f" in line)


class _Lines:
    """The line grammar shared by the poly3, fan3 and lambda documents.

    A document is read as its content lines: it is split at newlines
    only, '#' starts a comment, lines are stripped of ASCII whitespace and
    blank ones dropped.  Only ASCII whitespace separates tokens; a line
    holding other whitespace is refused, outside a header's name.  It is
    a sequence of sections, read in order through one cursor:

        <kind> <name>           the header (poly3 and fan3 only)
        <word> <n>              a count: two tokens, n a non-negative decimal
        <tag> <k>: <ints>       n records, ids k = 0..n-1 in order; cones
                                are written ``C: <ints>``, with no id

    Integers are ``-?<digits>``, or ``<digits>`` where they may not be
    signed; ids and counts are ``<digits>``; digits are ASCII 0-9.  A
    document ends after its last section.  Refusals are ParseErrors naming
    the line.

    A block of records whose labels are written exactly ``<tag> <k>``
    (``<tag>``), as the serializers write them, is accepted by a few tests
    over the whole block (:meth:`records`); any other block, valid or not,
    is read line by line, so every refusal and every other acceptance is
    the line scan's.
    """

    def __init__(self, text: str):
        if not isinstance(text, str):
            raise ParseError(f"document must be a str, not {type(text).__name__}")
        self.lines = [ln for raw in text.split("\n") if (ln := raw.split("#", 1)[0].strip(_SPACE))]
        self.at = 0

    def header(self, kind: str) -> str:
        """The name on the ``<kind> <name>`` line."""
        if not self.lines:
            raise ParseError(f"empty {kind.upper()} document")
        line = self.lines[0]
        parts = line.split(None, 1)
        if len(parts) != 2 or parts[0] != kind or line[len(kind)] not in _SPACE:
            raise ParseError(f"expected '{kind} <name>', got {line!r}")
        self.at = 1
        return line[len(kind):].lstrip(_SPACE)

    def count(self, word: str) -> int:
        """The n of the ``<word> <n>`` line."""
        at = self.at
        tokens = self.lines[at].split() if at < len(self.lines) else []
        if tokens[:1] != [word]:
            raise ParseError(f"expected '{word} <n>' on line {at + 1}")
        n = _natural(tokens[1]) if len(tokens) == 2 and _plain(self.lines[at]) else None
        if n is None:
            raise ParseError(f"malformed count line {self.lines[at]!r}")
        self.at = at + 1
        return n

    def records(self, tag: str, noun: str, n: int, width: int | None = None,
                numbered: bool = True, signed: bool = True) -> list[tuple[int, ...]]:
        """The integers of n records ``<tag> <k>:`` (``<tag>:`` unless
        ``numbered``), ``width`` of them if given, none negative unless
        ``signed``.

        The block is read at once when it is spelled as written out, each
        label exactly ``<tag> <k>`` (or ``<tag>``) before its colon: one
        test of the joined bodies' characters, one comparison of all the
        labels, and ``int`` over every body token.  Any other block, valid
        or not, is scanned line by line, which names the first fault."""
        at, self.at = self.at, self.at + n
        lines = self.lines[at:self.at]
        if lines and len(lines) == n:
            heads, colons, bodies = zip(*map(str.partition, lines, repeat(":")))
            text = " ".join(bodies)
            if (heads == (tuple(map(f"{tag} %d".__mod__, range(n))) if numbered else (tag,) * n)
                    and "" not in colons and _plain(text) and "+" not in text
                    and "_" not in text and (signed or "-" not in text)):
                try:
                    out = list(map(tuple, map(map, repeat(int), map(str.split, bodies))))
                except ValueError:  # a token that is not -?[0-9]+, or too long
                    pass
                else:
                    if width is None or set(map(len, out)) == {width}:
                        return out
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
                    # int() also reads '+1', '1_0' and other scripts' digits:
                    # refused, it reads -?[0-9]+
                    or "+" in body or "_" in body or not _plain(line)
                    or (not signed and "-" in body)):
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
