"""Command-line frontend.

Subcommands mirror the library layers: ``polytope`` for combinatorial
input (validation, coloring, characteristic pair, Betti numbers),
``fan`` for lattice input (curvature, Gauss-Bonnet, volume, effective
cone, obstruction witness), and ``corpus`` for the built-in examples.
Each command imports only the layers it runs: a fan command loads
neither ``polytope`` nor ``coloring``, a call of ``polytope color`` never
loads the fan layers, and only ``corpus`` loads the corpus.  A report's
digest comes from CPython's own SHA-256 where the interpreter has it, so
no command loads OpenSSL through ``hashlib``.

Reports are plain text by default and structured JSON with ``--json``;
every number is exact (integers, or rationals rendered ``p/q``), and a
report is byte-deterministic for a fixed input except for the trailing
timing field.  Exit codes: 0 all checks pass, 1 validation or
certification failure (or an internal error, reported on one line
without a traceback), 2 parse or usage error.

One table, ``_COMMANDS``, holds each command's handler, argument, flags,
value options and help line; a small reader checks a command line and
prints help and usage errors from it, so start-up loads no ``argparse``.
"""

from __future__ import annotations

import sys
import time
from types import SimpleNamespace

from .errors import NotUnimodular, ParseError, SupportInvalid, ToricLabError, ValidationError

__all__ = ["main"]


def _digest(text: str) -> str:
    """The text's SHA-256 in 16 hex digits, from CPython's own SHA-256
    where the interpreter has it: ``hashlib`` would load OpenSSL."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:  # a build without it
        from hashlib import sha256
    return sha256(text.encode()).hexdigest()[:16]


def _fmt(value):
    """Render one value for the text report."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _jsonable(value):
    fractions = sys.modules.get("fractions")  # no Fraction exists before it loads
    if fractions is not None and isinstance(value, fractions.Fraction):
        return value.numerator if value.denominator == 1 else str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class Report:
    """Ordered key/value document with one text and one JSON rendering."""

    def __init__(self, command: str, source: str, text: str):
        self.items: list[tuple[str, object]] = []
        self.add("command", command)
        self.add("input", source)
        self.add("digest", _digest(text))
        self._start = time.perf_counter()

    def add(self, key: str, value) -> None:
        self.items.append((key, value))

    def emit(self, as_json: bool) -> None:
        self.add("timing_ms", int((time.perf_counter() - self._start) * 1000))
        if as_json:
            import json  # only --json reports need it
            data = {k: _jsonable(v) for k, v in self.items}
            print(json.dumps(data, indent=2))
        else:
            for key, value in self.items:
                if isinstance(value, dict):
                    print(f"{key}:")
                    for k, v in value.items():
                        print(f"  {k}: {_fmt(v)}")
                else:
                    print(f"{key}: {_fmt(value)}")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


# ---------------------------------------------------------------------------
# polytope commands


def _coloring_block(sphere):
    from .charfunc import CharacteristicPair, check_star_condition
    from .coloring import coloring_to_charfunc, four_color

    coloring = four_color(sphere)
    lam = coloring_to_charfunc(coloring)
    verdict = check_star_condition(CharacteristicPair(sphere, lam))
    return coloring, lam, verdict


def cmd_polytope_report(args) -> int:
    from .combinatorics import betti_numbers
    from .polytope import dual_sphere, face_histogram, is_fullerene, parse_polytope

    text = _read(args.file)
    rpt = Report("polytope report", args.file, text)
    p = parse_polytope(text)
    sphere = dual_sphere(p)
    hist = face_histogram(p)
    rpt.add("name", p.name)
    rpt.add("facets", p.num_facets)
    rpt.add("vertices", p.num_vertices)
    rpt.add("edges", p.num_edges)
    rpt.add("face_histogram", " ".join(f"{k}^{hist[k]}" for k in sorted(hist)))
    rpt.add("fullerene", is_fullerene(p))
    coloring, lam, verdict = _coloring_block(sphere)
    rpt.add("coloring", "".join(coloring.colors))
    rpt.add("charfunc", {str(i): lam[i] for i in range(lam.m)})
    rpt.add("star_condition", "ok" if verdict.ok else "violated")
    rpt.add("betti", betti_numbers(sphere))
    rpt.add("quasitoric", "YES")
    rpt.add("delzant", "NO (every face has at least 5 sides)" if min(hist) >= 5
            else "not excluded (has a face with at most 4 sides)")
    rpt.emit(args.json)
    return 0 if verdict.ok else 1


def cmd_polytope_color(args) -> int:
    from .polytope import dual_sphere, parse_polytope

    p = parse_polytope(_read(args.file))
    coloring, lam, verdict = _coloring_block(dual_sphere(p))
    for i in range(lam.m):
        x, y, z = lam[i]
        print(f"{i}: {coloring.colors[i]} ({x}, {y}, {z})")
    print(f"star_condition: {'ok' if verdict.ok else 'violated'}")
    return 0 if verdict.ok else 1


# ---------------------------------------------------------------------------
# fan commands


def _add_cone_verdicts(rpt: Report, analysis) -> None:
    """The extremal walls, then the strict convexity witness or the note
    saying why there is none."""
    rpt.add("extremal_walls", [str(w) for w in analysis.extremal])
    rpt.add("strict_convexity_witness",
            analysis.note if analysis.witness is None else analysis.witness)


def _fan(args, command: str, certified: bool = True):
    """The prologue of every fan command: read the file, open the report,
    whose timing covers what follows, parse the fan, add its name and
    certify it, but for the report, which reports a non-unimodular fan."""
    from .fan import check_complete, parse_fan

    text = _read(args.file)
    rpt = Report(command, args.file, text)
    f = parse_fan(text)
    rpt.add("name", f.name)
    if certified:
        check_complete(f)
    return f, rpt


def cmd_fan_report(args) -> int:
    from .cohomology import chern_number_c1c2
    from .combinatorics import betti_numbers
    from .cone import delzant_obstruction_witness, extremal_walls
    from .fan import COMPLETENESS_SEED, check_complete, gauss_bonnet_sum

    f, rpt = _fan(args, "fan report", certified=False)
    rpt.add("rays", f.m)
    rpt.add("cones", len(f.maximal_cones))

    try:
        check_complete(f)
    except NotUnimodular as exc:
        rpt.add("unimodular", False)
        rpt.add("unimodular_violations", {str(tri): det for tri, det in exc.violations})
        rpt.emit(args.json)
        return 1
    rpt.add("unimodular", True)
    rpt.add("complete", True)
    rpt.add("completeness_seed", COMPLETENESS_SEED)

    rpt.add("walls", {str(w.pair): f"a=({w.a[0]}, {w.a[1]}) curvature={w.curvature} "
                                   f"{w.classification}" for w in f.walls})

    gb = gauss_bonnet_sum(f)
    rpt.add("gauss_bonnet_sum", gb)
    rpt.add("gauss_bonnet_check", "PASS" if gb == 24 else "FAIL")
    rpt.add("chern_c1c2", chern_number_c1c2(f))
    rpt.add("betti", betti_numbers(f.sphere))

    analysis = extremal_walls(f)
    by_wall = {c.wall: c for c in analysis.classes}
    rpt.add("cone_groups", {f"group_{i}": "walls " + " ".join(map(str, g)) + " pairing "
                            + _fmt(by_wall[g[0]].pairing)
                            for i, g in enumerate(analysis.groups)})
    _add_cone_verdicts(rpt, analysis)
    w = delzant_obstruction_witness(f)
    rpt.add("obstruction_witness", {key: getattr(w, key) for key in w._fields})
    rpt.emit(args.json)
    return 0 if gb == 24 else 1


def cmd_fan_volume(args) -> int:
    from .cohomology import (certify_support, edge_functionals,
                             serialize_volume_polynomial, volume_polynomial)
    from .read import _parse_support

    f, rpt = _fan(args, "fan volume")
    if args.support is not None:
        support = _parse_support(args.support, f.m)
    elif f.support is not None:
        support = f.support
    else:
        raise ValidationError("no support parameters: none in the file and no --support given")
    rpt.add("support", support)

    rpt.add("edge_functionals", {str(k): v for k, v in edge_functionals(f, support).items()})
    try:
        certify_support(f, support)
    except SupportInvalid:
        rpt.emit(args.json)
        raise
    v = volume_polynomial(f)
    if args.polynomial:
        rpt.add("polynomial", serialize_volume_polynomial(v).splitlines())
    rpt.add("volume", v(support))
    rpt.emit(args.json)
    return 0


def cmd_fan_extremal(args) -> int:
    from .cone import extremal_walls

    f, rpt = _fan(args, "fan extremal")
    analysis = extremal_walls(f)
    rpt.add("wall_classes", {str(c.wall): c.pairing for c in analysis.classes})
    rpt.add("groups", {f"group_{i}": " ".join(map(str, g))
                       for i, g in enumerate(analysis.groups)})
    _add_cone_verdicts(rpt, analysis)
    rpt.emit(args.json)
    return 0


def cmd_fan_witness(args) -> int:
    from .cone import delzant_obstruction_witness, extremal_walls

    f, rpt = _fan(args, "fan witness")
    w = delzant_obstruction_witness(f)
    for key in w._fields:
        rpt.add(key, getattr(w, key))
    rpt.add("dual_face", "triangular" if w.dual_face_size == 3 else "quadrangular")
    analysis = extremal_walls(f)  # the analysis the witness search cached
    if analysis.witness is None:
        rpt.add("note", analysis.note)
    rpt.emit(args.json)
    return 0


# ---------------------------------------------------------------------------
# corpus commands


def cmd_corpus_list(args) -> int:
    from .corpus import ENTRIES

    for entry in ENTRIES.values():
        print(f"{entry.name} ({entry.kind}): {entry.note}")
    return 0


def cmd_corpus_get(args) -> int:
    from .corpus import corpus_get

    sys.stdout.write(corpus_get(args.name).text)
    return 0


# ---------------------------------------------------------------------------
# command table and argument reading

_GROUPS = {
    "polytope": "combinatorial polytope commands",
    "fan": "lattice fan commands",
    "corpus": "built-in example documents",
}
_JSON = {"json": "structured JSON report"}
# (group, command) -> handler name, positional argument, flags, value
# options and help line; flags and value options map a long name to its help
_COMMANDS = {
    ("polytope", "report"): ("cmd_polytope_report", "file", _JSON, {},
                             "full validation and invariant report"),
    ("polytope", "color"): ("cmd_polytope_color", "file", {}, {},
                            "4-coloring and characteristic function"),
    ("fan", "report"): ("cmd_fan_report", "file", _JSON, {}, "full certification report"),
    ("fan", "volume"): ("cmd_fan_volume", "file",
                        {"polynomial": "include the full volume polynomial", **_JSON},
                        {"support": "comma-separated rationals c1,...,cm"},
                        "edge functionals and volume"),
    ("fan", "extremal"): ("cmd_fan_extremal", "file", _JSON, {}, "effective-cone analysis"),
    ("fan", "witness"): ("cmd_fan_witness", "file", _JSON, {},
                         "small-face obstruction witness"),
    ("corpus", "list"): ("cmd_corpus_list", None, {}, {}, "list entries"),
    ("corpus", "get"): ("cmd_corpus_get", "name", {}, {}, "print one entry"),
}


def _help(usage: str, about: str, heading: str, rows: dict) -> int:
    width = max(map(len, rows)) + 2
    print(f"usage: {usage}\n\n{about}\n\n{heading}:",
          *(f"  {name:{width}}{line}" for name, line in rows.items()), sep="\n")
    return 0


def _fail(usage: str, prog: str, message: str) -> int:
    print(f"usage: {usage}\n{prog}: error: {message}", file=sys.stderr)
    return 2


def _read_argv(words: list):
    """The table key and the arguments of a command line, or the exit code
    after printing its help (0) or a usage error (2)."""
    prog, choices, key = "toriclab", _GROUPS, ()
    about = "exact invariants of simple 3-polytopes and unimodular fans"
    for title in ("command", "subcommand"):
        usage = f"{prog} [-h] {{{','.join(choices)}}} ..."
        word = words.pop(0) if words else ""
        if word == "-h" or len(word) > 2 and "--help".startswith(word):
            return _help(usage, about, "commands", choices)
        if word not in choices:
            return _fail(usage, prog, f"invalid {title}: {word!r}" if word
                         else f"the following arguments are required: {title}")
        prog, about, key = f"{prog} {word}", choices[word], (*key, word)
        choices = {c: spec[4] for (g, c), spec in _COMMANDS.items() if g == word}

    _, positional, flags, values, about = _COMMANDS[key]
    wanted = [positional] if positional else []
    rows = {f"--{n} {n.upper()}" if n in values else f"--{n}": line
            for n, line in {**values, **flags}.items()}
    usage = " ".join([prog, "[-h]", *map("[{}]".format, rows), *wanted])
    args, found = {**dict.fromkeys(values), **dict.fromkeys(flags, False)}, []
    while words:
        word = words.pop(0)
        if word == "--":
            found += words
            break
        if word[:1] != "-" or word == "-":
            found.append(word)
            continue
        # a long option, --name or --name=value, may be shortened to a unique prefix
        name, eq, value = word[2:].partition("=") if word[:2] == "--" else ("", "", "")
        names = [n for n in (*values, *flags, "help") if name and n.startswith(name)]
        if word == "-h" or names == ["help"]:
            return _help(usage, about, "options",
                         {"-h, --help": "show this help message and exit", **rows})
        if len(names) != 1 or names[0] in flags and eq:
            return _fail(usage, prog, f"unrecognized arguments: {word}")
        if names[0] in values and not eq:
            if not words:
                return _fail(usage, prog, f"argument --{names[0]}: expected one argument")
            value = words.pop(0)  # whatever it is, so that --support -1,3,3,3 reads
        args[names[0]] = value if names[0] in values else True
    if found[len(wanted):]:
        return _fail(usage, prog, "unrecognized arguments: " + " ".join(found[len(wanted):]))
    if len(found) < len(wanted):
        return _fail(usage, prog, f"the following arguments are required: {positional}")
    args.update(zip(wanted, found))
    return key, SimpleNamespace(**args)


def main(argv=None) -> int:
    if isinstance(read := _read_argv(list(sys.argv[1:] if argv is None else argv)), int):
        return read
    key, args = read
    try:
        # looked up when dispatched, so a handler replaced on the module runs
        return globals()[_COMMANDS[key][0]](args)
    except ToricLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    except Exception as exc:
        print(f"error: internal error in {' '.join(key)}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
