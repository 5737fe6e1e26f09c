"""Seeded fuzzing of the three document parsers.

The corpus documents and one ``lambda`` document are mutated line by line
(a line dropped, repeated or swapped with another) and token by token (a
token replaced by, or preceded by, one of ``TOKENS``).  Every refusal of
``parse_polytope``, ``parse_fan`` and ``parse_charfunc`` must be a
``ToricLabError``, and the command line must refuse each refused
document on one ``error:`` line, exiting 2 for a parse error and 1 for
any other refusal, never as an internal error.  A digit written in
another script, which ``int()`` and ``str.isdecimal`` read, must be
refused as a parse error on any line but the header, and so must a space
written as whitespace that is not ASCII, which ``str.split`` and
``str.splitlines`` read as a separator or a line break.
"""

import hashlib
import random

import pytest

from toriclab.charfunc import (coloring_to_charfunc, format_charfunc, four_color,
                               parse_charfunc)
from toriclab.cli import main
from toriclab.combinatorics import dual_sphere, parse_polytope
from toriclab.corpus import FAN_NAMES, POLYTOPE_NAMES, corpus_get, load_polytope
from toriclab.errors import ParseError, ToricLabError
from toriclab.fan import parse_fan

TOKENS = ("-1", "+1", "1_0", "x", "1/0", ":", "#", "0", "7")
PARSERS = {"poly3": parse_polytope, "fan3": parse_fan, "lambda": parse_charfunc}


def documents():
    """(kind, text) of every corpus document and one lambda document."""
    docs = [("poly3", corpus_get(n).text) for n in POLYTOPE_NAMES]
    docs += [("fan3", corpus_get(n).text) for n in FAN_NAMES]
    cube = dual_sphere(load_polytope("cube"))
    docs.append(("lambda", format_charfunc(coloring_to_charfunc(four_color(cube)))))
    return docs


def mutate(text: str, rng: random.Random) -> str:
    """The text after one to three random line or token edits."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        op = rng.randrange(5)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split(" ")
            k = rng.randrange(len(tokens))
            tokens[k:k + (op == 3)] = [rng.choice(TOKENS)]
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


# zero in scripts whose digits int() reads: Arabic-Indic, Devanagari, fullwidth
ZEROS = ("\u0660", "\u0966", "\uff10")


def other_digit(text: str, rng: random.Random) -> str:
    """The text with one ASCII digit, off the header line, written in
    another script."""
    lines = text.splitlines()
    start = 0 if lines[0].startswith("lambda") else 1  # lambda has no header
    i = rng.randrange(start, len(lines))
    k = rng.choice([k for k, ch in enumerate(lines[i]) if ch in "0123456789"])
    digit = chr(ord(rng.choice(ZEROS)) + int(lines[i][k]))
    lines[i] = lines[i][:k] + digit + lines[i][k + 1:]
    return "\n".join(lines) + "\n"


# whitespace that str.split or str.splitlines takes and the grammar does
# not: ASCII information separators, NEL, no-break, em and ideographic
# space, line separator
SPACES = ("\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u2028", "\u3000")


def other_space(text: str, rng: random.Random) -> str:
    """The text with one space, on any line, written as other whitespace."""
    lines = text.splitlines()
    i = rng.choice([i for i, line in enumerate(lines) if " " in line])
    k = rng.choice([k for k, ch in enumerate(lines[i]) if ch == " "])
    lines[i] = lines[i][:k] + rng.choice(SPACES) + lines[i][k + 1:]
    return "\n".join(lines) + "\n"


def cases(seed: int, n: int):
    """n mutated documents as (kind, text, refusal or None)."""
    rng = random.Random(seed)
    docs = documents()
    for _ in range(n):
        kind, text = rng.choice(docs)
        text = mutate(text, rng)
        try:
            PARSERS[kind](text)
            refusal = None
        except ToricLabError as exc:
            refusal = exc
        yield kind, text, refusal


def test_every_refusal_is_a_toriclab_error():
    # any other exception escapes the loop and fails the test
    refused = [r for _, _, r in cases(seed=0, n=4000)]
    parse_errors = sum(isinstance(r, ParseError) for r in refused)
    others = sum(r is not None and not isinstance(r, ParseError) for r in refused)
    assert parse_errors > 2000 and others > 30 and refused.count(None) > 30


def test_other_scripts_digits_are_parse_errors():
    rng, docs = random.Random(2), documents()
    for _ in range(600):
        kind, text = rng.choice(docs)
        text = other_digit(text, rng)
        with pytest.raises(ParseError, match="^malformed "):
            PARSERS[kind](text)


def test_other_whitespace_is_a_parse_error():
    # it does not separate a header's kind from its name, and any other
    # line holding it is malformed
    rng, docs = random.Random(3), documents()
    for _ in range(600):
        kind, text = rng.choice(docs)
        text = other_space(text, rng)
        with pytest.raises(ParseError, match="^(malformed |expected '(poly3|fan3) <name>')"):
            PARSERS[kind](text)


def test_the_cli_refuses_on_one_line(capsys, tmp_path):
    ran = 0
    for kind, text, refusal in cases(seed=1, n=400):
        if kind == "lambda" or refusal is None:
            continue
        path = tmp_path / f"doc.{kind}"
        path.write_text(text)
        code = main(["polytope" if kind == "poly3" else "fan", "report", str(path)])
        out, err = capsys.readouterr()
        assert "internal error" not in err, text
        assert (code, out, err) == (2 if isinstance(refusal, ParseError) else 1, "",
                                    f"error: {refusal}\n"), text
        ran += 1
    assert ran > 300


# sha256 of every refusal of cases(seed=0, n=4000), one line each as
# "<kind>|<error class>|<message>" (accepted documents as "<kind>|NoneType|None"),
# as read before records were read in blocks: the block reader changes no
# verdict and no message
REFUSALS_SHA256 = "50c3af872d75e8f9d898764c5feca18e6c31fbd1872de685276f3f7c670919df"


def test_every_refusal_keeps_its_message():
    lines = [f"{kind}|{type(r).__name__}|{r}" for kind, _, r in cases(seed=0, n=4000)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == REFUSALS_SHA256


def respell(text: str, rng: random.Random) -> str:
    """The document in another valid spelling: tabs and doubled spaces
    between tokens, ids with leading zeros, a space before a record's
    colon, trailing comments and CRLF line ends, each drawn per line."""
    out = []
    for line in text.splitlines():
        head, colon, body = line.partition(":")
        tokens = head.split(" ")
        record = colon and tokens[0] != "support"  # which takes no space
        if record and len(tokens) == 2 and rng.random() < 0.5:
            tokens[1] = "0" * rng.randint(1, 2) + tokens[1]  # F 03:
        head = rng.choice(("\t", "  ", " ")).join(tokens)
        if record and rng.random() < 0.5:
            head += rng.choice((" ", "\t"))  # F 3 :, C :
        body = "".join(rng.choice((" ", "\t", "  ", " \t")) + t for t in body.split())
        line = head + colon + body
        if rng.random() < 0.3:
            line += rng.choice(("  # note", "\t#", "#: 1 2"))
        out.append(rng.choice(("", " ", "\t")) + line + rng.choice(("\n", "\r\n")))
    return "".join(out)


def test_other_spellings_parse_to_the_same_object():
    # a block with any line off the written-out spelling is read by the
    # line scan, a canonical one by the block reader
    rng, docs = random.Random(4), documents()
    for _ in range(300):
        kind, text = rng.choice(docs)
        spelled = respell(text, rng)
        assert spelled != text
        assert PARSERS[kind](spelled) == PARSERS[kind](text), spelled


@pytest.mark.parametrize("parse", PARSERS.values())
def test_a_document_that_is_no_str_is_a_parse_error(parse):
    for doc, kind in ((None, "NoneType"), (5, "int"), (b"fan3 x\n", "bytes")):
        with pytest.raises(ParseError, match=f"^document must be a str, not {kind}$"):
            parse(doc)
