"""Seeded fuzzing of the three document parsers.

The corpus documents and one ``lambda`` document are mutated line by line
(a line dropped, repeated or swapped with another) and token by token (a
token replaced by, or preceded by, one of ``TOKENS``).  Every refusal of
``parse_polytope``, ``parse_fan`` and ``parse_charfunc`` must be a
``ToricLabError``, and the command line must refuse each refused
document on one ``error:`` line, exiting 2 for a parse error and 1 for
any other refusal, never as an internal error.
"""

import random

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
