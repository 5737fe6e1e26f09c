"""The one reader of outside input: each data argument and document is
checked here, once, on entry, and refused with ValidationError (a
document with ParseError) naming the first fault in the caller's words.
Bulk tests decide; an ordered scan runs only once one fails.  Exact
numbers are ints (not bools), Fractions, or ``-?<digits>[/<digits>]``
strings with a nonzero denominator; ``fractions`` is imported only where
a Fraction is made, so no polytope command loads it.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import gcd, lcm

from .errors import ParseError, ValidationError


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


def _int_ids(cycles, named: str) -> list:
    """The cycles' ids, one after another, all ints (no float, no bool), else
    the first other cycle i is refused as ``named.format(i=i, c=cycle)``."""
    flat = list(chain.from_iterable(cycles))
    if not set(map(type, flat)) <= {int}:
        i = next(i for i, c in enumerate(cycles) if not all(type(v) is int for v in c))
        raise ValidationError(named.format(i=i, c=cycles[i]))
    return flat


def primitive_vectors(vectors: tuple[tuple, ...], label: str) -> tuple[tuple[int, int, int], ...]:
    """The vectors, a tuple of tuples, refused unless each is a primitive
    integer 3-vector, naming the first fault's index i as
    ``label.format(i)``.  With int entries only (no bool, no 1.0, which
    would equal 1 and hide), equal vectors pass or fail alike, so shape and
    gcd are tested once per distinct vector (a coloring has at most four)."""
    if not (set(map(type, chain.from_iterable(vectors))) <= {int}
            and {(len(v), gcd(*v)) for v in dict.fromkeys(vectors)} <= {(3, 1)}):
        for i, v in enumerate(vectors):
            if len(v) != 3 or not all(type(x) is int for x in v):
                raise ValidationError(f"{label.format(i)} = {v} is not an integer 3-vector")
            if gcd(*v) != 1:
                raise ValidationError(f"{label.format(i)} = {v} is not primitive")
    return vectors


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
