"""The one reader of outside input: each data argument and document is
checked here, once, on entry, and refused with ValidationError (a
document with ParseError) naming the first fault in the caller's words.
Bulk tests decide; an ordered scan runs only once one fails.  Exact
numbers are ints (not bools), Fractions, or ``-?<digits>[/<digits>]``
strings with a nonzero denominator; ``fractions`` is imported only where
a Fraction is made, so no polytope command loads it.

Each rule is written once, its words taken from the caller where callers
differ: counts and seeds are read by ``_int``, a sphere's vertex by
``_vertex``, cones and triangles by ``_id_triples``, integer 3-vectors by
``_int_vector``, a wall class's fields by ``_wall_class``, colors and
wall classes by ``_colors`` and ``_classes`` (handed the allowed colors
or the class, as no layer is imported here) and corpus names by ``_corpus_entry``.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import gcd, lcm

from .errors import NotFound, ParseError, ValidationError


_TEXT = (str, bytes, bytearray)  # iterable, but read as a sequence only by mistake


def _sequence(x, named: str) -> tuple:
    """``tuple(x)``, refused unless x is iterable and not text, as
    ``{named} = {x!r}``: ``tuple('1111')`` would read a str as its digits."""
    if not isinstance(x, _TEXT):
        try:
            return tuple(x)
        except TypeError:
            pass
    raise ValidationError(f"{named} = {x!r} is not a sequence")


def _sequences(rows, named: str, row: str) -> tuple[tuple, ...]:
    """The rows as a tuple of tuples, in one pass if no row is text and
    each is iterable; the rows (``named``) or the first row i that is not a
    sequence (``row.format(i)``) is refused as :func:`_sequence` refuses it."""
    rows = _sequence(rows, named)
    if not any(issubclass(t, _TEXT) for t in {*map(type, rows)}):
        try:
            return tuple(map(tuple, rows))
        except TypeError:
            pass
    return tuple(_sequence(r, row.format(i)) for i, r in enumerate(rows))


def _colors(colors, allowed) -> tuple:
    """The colors as a tuple (:func:`_sequence`), refused unless each is
    one of ``allowed``, naming the first other one."""
    colors = _sequence(colors, "colors")
    if not all(map(allowed.__contains__, colors)):
        bad = next(c for c in colors if c not in allowed)
        raise ValidationError(f"unknown color {bad!r}")
    return colors


def _classes(classes, kind: type) -> tuple:
    """The classes as a tuple (:func:`_sequence`), refused unless each is
    a ``kind`` and all are over one number of rays, their ``m``."""
    classes = _sequence(classes, "classes")
    for i, cls in enumerate(classes):
        if not isinstance(cls, kind):
            raise ValidationError(f"class {i} = {cls!r} is not a {kind.__name__}")
    ms = sorted({cls.m for cls in classes})
    if len(ms) > 1:
        raise ValidationError(f"classes are over different numbers of rays: "
                              f"{', '.join(map(str, ms))}")
    return classes


def _int(x, named: str, *args) -> int:
    """x, refused unless it is an int (no bool), as ``named.format(*args)``."""
    if type(x) is not int:
        raise ValidationError(f"{named.format(*args)} = {x!r} is not an int")
    return x


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


def _as_multiset(indices, m: int) -> tuple[int, int, int]:
    """The indices sorted, refused unless they are three ints in 0..m-1."""
    t = _int_key(indices)
    if len(t) != 3:
        raise ValidationError(f"need exactly 3 indices, got {indices!r}")
    if not all(0 <= i < m for i in t):
        raise ValidationError(f"index out of range in {t}")
    return t


def _vertex(v, m: int) -> int:
    """v, refused unless it is an int vertex of a sphere on 0..m-1."""
    if type(v) is not int or not 0 <= v < m:
        raise ValidationError(f"{v!r} is not a vertex of this sphere (0..{m - 1})")
    return v


def _int_ids(cycles, named: str) -> list:
    """The cycles' ids, one after another, all ints (no float, no bool), else
    the first other cycle i is refused as ``named.format(i=i, c=cycle)``."""
    flat = list(chain.from_iterable(cycles))
    if not set(map(type, flat)) <= {int}:
        i = next(i for i, c in enumerate(cycles) if not all(type(v) is int for v in c))
        raise ValidationError(named.format(i=i, c=cycles[i]))
    return flat


def _id_triples(rows, ids: list, m: int, degenerate: str,
                outside: str) -> tuple[tuple[int, int, int], ...]:
    """The rows sorted, each sorted, refused unless each is three distinct
    ids in 0..m-1, tested in bulk with ``ids`` (the rows' :func:`_int_ids`);
    the first other row t is refused as ``degenerate.format(t)`` or
    ``outside.format(t, m - 1)``."""
    rows = tuple(sorted(map(tuple, map(sorted, rows))))
    if ({*map(len, rows), *map(len, map(set, rows))} - {3}
            or ids and not 0 <= min(ids) <= max(ids) < m):
        for t in rows:
            if len(t) != 3 or len(set(t)) != 3:
                raise ValidationError(degenerate.format(t))
            if not all(0 <= i < m for i in t):
                raise ValidationError(outside.format(t, m - 1))
    return rows


def _int_vector(x, named: str) -> tuple:
    """x as a tuple (:func:`_sequence`), refused unless it is three ints
    (no bool, no float), as ``{named} = {v} is not an integer 3-vector``."""
    v = _sequence(x, named)
    if len(v) != 3 or not all(type(i) is int for i in v):
        raise ValidationError(f"{named} = {v} is not an integer 3-vector")
    return v


def primitive_vectors(vectors: tuple[tuple, ...], label: str) -> tuple[tuple[int, int, int], ...]:
    """The vectors, a tuple of tuples, refused unless each is a primitive
    integer 3-vector, naming the first fault's index i as
    ``label.format(i)``.  With int entries only (no bool, no 1.0, which
    would equal 1 and hide), equal vectors pass or fail alike, so shape and
    gcd are tested once per distinct vector (a coloring has at most four)."""
    if not (set(map(type, chain.from_iterable(vectors))) <= {int}
            and {(len(v), gcd(*v)) for v in dict.fromkeys(vectors)} <= {(3, 1)}):
        for i, v in enumerate(vectors):
            _int_vector(v, label.format(i))
            if gcd(*v) != 1:
                raise ValidationError(f"{label.format(i)} = {v} is not primitive")
    return vectors


def _wall_class(wall, entries, m) -> tuple:
    """A wall class's fields, refused unless m is an int, the wall a tuple
    u < v in 0..m-1 and the entries a tuple of int pairs (t, value), t
    rising in 0..m-1 and no value zero."""
    _int(m, "wall class {}: ray count m", wall)
    if not (type(wall) is tuple and len(wall) == 2 and type(wall[0]) is type(wall[1]) is int
            and 0 <= wall[0] < wall[1] < m):
        raise ValidationError(f"wall class {wall!r}: wall is not a pair u < v of rays "
                              f"0..{m - 1}")
    prev = -1
    for e in entries if type(entries) is tuple else (entries,):
        if type(e) is not tuple or len(e) != 2 or not type(e[0]) is type(e[1]) is int:
            raise ValidationError(f"wall class {wall}: entry {e!r} is not an int "
                                  f"ray id with an int value")
        t, v = e
        if not prev < t < m or not v:
            why = (f"outside rays 0..{m - 1}" if not 0 <= t < m
                   else "out of ray order" if t <= prev else "zero")
            raise ValidationError(f"wall class {wall}: entry {e} is {why}")
        prev = t
    return wall, entries, m


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


def exact_rows(rows, width: int | None = None, count: str = "{} values for {} rays",
               named: str = "rows", row: str = "support",
               entry: str = "support entry {i} = {x}") -> list[list]:
    """Rows (:func:`_sequences`) of exact numbers (:func:`_exact`); rows not all of
    one length (``width`` if given) are refused first, as ``count.format(lengths,
    width)``.  The defaults word a fan's support c, read as the row ``(c,)``."""
    rows = _sequences(rows, named, row)
    lengths = sorted({*map(len, rows)})
    if len(lengths) > 1 or width is not None and lengths != [width]:
        raise ValidationError(count.format(", ".join(map(str, lengths)), width))
    return [_exact(r, entry) for r in rows]


def integral(rows, *args, **kwargs) -> tuple[list[list[int]], int]:
    """:func:`exact_rows` as integer rows over their least common denominator D, and D."""
    rows = exact_rows(rows, *args, **kwargs)
    scale = lcm(*{x.denominator for r in rows for x in r})
    return [[x.numerator * (scale // x.denominator) for x in r] for r in rows], scale


_SPACE = " \t\n\r\f\v"  # ASCII whitespace, the grammar's only separator


def _parse_support(arg: str, m: int):
    """The m values of ``--support``, comma-separated exact numbers."""
    parts = [s.strip(_SPACE) for s in arg.split(",")]
    if len(parts) != m:
        raise ValidationError(f"support override has {len(parts)} entries, fan has {m} rays")
    values = tuple(_rationals(parts))
    if None in values:
        raise ParseError(f"bad support value: {parts[values.index(None)]!r}")
    return values


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


def _name(name, kind: str) -> str:
    """The name, refused unless it is a str that the header line
    ``<kind> <name>`` reads back unchanged, so that a document serialized
    with it parses back to the same object."""
    try:
        if type(name) is str and _Lines(f"{kind} {name}").header(kind) == name:
            return name
    except ParseError:
        pass
    raise ValidationError(f"name {name!r} does not read back from a '{kind} <name>' line")


def _corpus_entry(name, entries: dict, kind: str | None = None):
    """``entries[name]``, of that kind if one is given, else NotFound."""
    if isinstance(name, str) and name in entries:
        if kind is None or entries[name].kind == kind:
            return entries[name]
        raise NotFound(f"corpus entry {name!r} is a {entries[name].kind}, not a {kind}")
    raise NotFound(f"no corpus entry named {name!r}; available: {', '.join(entries)}")
