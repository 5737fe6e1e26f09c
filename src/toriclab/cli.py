"""Command-line frontend.

Subcommands mirror the library layers: ``polytope`` for combinatorial
input (validation, coloring, characteristic pair, Betti numbers),
``fan`` for lattice input (curvature, Gauss-Bonnet, volume, effective
cone, obstruction witness), and ``corpus`` for the built-in examples.
Each command imports only the layers it runs, so a call of ``polytope
color`` never loads the fan layers and only ``corpus`` loads the corpus.

Reports are plain text by default and structured JSON with ``--json``;
every number is exact (integers, or rationals rendered ``p/q``), and a
report is byte-deterministic for a fixed input except for the trailing
timing field.  Exit codes: 0 all checks pass, 1 validation or
certification failure (or an internal error, reported on one line
without a traceback), 2 parse error.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from .errors import (
    NotUnimodular,
    ParseError,
    SupportInvalid,
    ToricLabError,
    ValidationError,
)

__all__ = ["main"]


def _digest(text: str) -> str:
    import hashlib  # only reports carry a digest
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fmt(value):
    """Render one value for the text report."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _jsonable(value):
    if isinstance(value, Fraction):
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
        ms = int((time.perf_counter() - self._start) * 1000)
        self.add("timing_ms", ms)
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
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _histogram_str(hist: dict[int, int]) -> str:
    return " ".join(f"{k}^{hist[k]}" for k in sorted(hist))


# ---------------------------------------------------------------------------
# polytope commands


def _coloring_block(sphere):
    from .charfunc import (CharacteristicPair, check_star_condition,
                           coloring_to_charfunc, four_color)

    coloring = four_color(sphere)
    lam = coloring_to_charfunc(coloring)
    verdict = check_star_condition(CharacteristicPair(sphere, lam))
    return coloring, lam, verdict


def cmd_polytope_report(args) -> int:
    from .combinatorics import (betti_numbers, dual_sphere, face_histogram,
                                is_fullerene, parse_polytope)

    text = _read(args.file)
    p = parse_polytope(text)
    rpt = Report("polytope report", args.file, text)
    sphere = dual_sphere(p)
    hist = face_histogram(p)
    rpt.add("name", p.name)
    rpt.add("facets", p.num_facets)
    rpt.add("vertices", p.num_vertices)
    rpt.add("edges", p.num_edges)
    rpt.add("face_histogram", _histogram_str(hist))
    rpt.add("fullerene", is_fullerene(p))
    coloring, lam, verdict = _coloring_block(sphere)
    rpt.add("coloring", "".join(coloring.colors))
    rpt.add(
        "charfunc",
        {str(i): lam[i] for i in range(lam.m)},
    )
    rpt.add("star_condition", "ok" if verdict.ok else "violated")
    rpt.add("betti", betti_numbers(sphere))
    rpt.add("quasitoric", "YES")
    if min(hist) >= 5:
        rpt.add("delzant", "NO (every face has at least 5 sides)")
    else:
        rpt.add("delzant", "not excluded (has a face with at most 4 sides)")
    rpt.emit(args.json)
    return 0 if verdict.ok else 1


def cmd_polytope_color(args) -> int:
    from .combinatorics import dual_sphere, parse_polytope

    text = _read(args.file)
    p = parse_polytope(text)
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


def cmd_fan_report(args) -> int:
    from .cohomology import chern_number_c1c2
    from .combinatorics import betti_numbers
    from .cone import delzant_obstruction_witness, extremal_walls
    from .fan import COMPLETENESS_SEED, certify_fan, gauss_bonnet_sum, parse_fan

    text = _read(args.file)
    f = parse_fan(text)
    rpt = Report("fan report", args.file, text)
    rpt.add("name", f.name)
    rpt.add("rays", f.m)
    rpt.add("cones", len(f.maximal_cones))

    try:
        certify_fan(f)
    except NotUnimodular as exc:
        rpt.add("unimodular", False)
        rpt.add(
            "unimodular_violations",
            {str(tri): det for tri, det in exc.violations},
        )
        rpt.emit(args.json)
        return 1
    rpt.add("unimodular", True)
    rpt.add("complete", True)
    rpt.add("completeness_seed", COMPLETENESS_SEED)

    walls = {}
    for w in f.walls:
        walls[str(w.key)] = (
            f"a=({w.a[0]}, {w.a[1]}) curvature={w.curvature} {w.classification}"
        )
    rpt.add("walls", walls)

    gb = gauss_bonnet_sum(f)
    rpt.add("gauss_bonnet_sum", gb)
    rpt.add("gauss_bonnet_check", "PASS" if gb == 24 else "FAIL")
    chern = chern_number_c1c2(f)
    rpt.add("chern_c1c2", chern)
    rpt.add("chern_matches_gauss_bonnet", chern == gb)
    rpt.add("betti", betti_numbers(f.sphere))

    analysis = extremal_walls(f)
    by_wall = {c.wall: c for c in analysis.classes}
    groups = {}
    for idx, g in enumerate(analysis.groups):
        groups[f"group_{idx}"] = (
            "walls " + " ".join(str(w) for w in g)
            + " pairing " + _fmt(by_wall[g[0]].pairing)
        )
    rpt.add("cone_groups", groups)
    _add_cone_verdicts(rpt, analysis)
    w = delzant_obstruction_witness(f)
    rpt.add("obstruction_witness", {key: getattr(w, key) for key in w._fields})
    rpt.emit(args.json)
    return 0 if gb == 24 else 1


def _certified_fan(args, command: str):
    """The prologue of every fan analysis but the report: read, parse and
    certify the file, then open the report with the fan's name."""
    from .fan import certify_fan, parse_fan

    text = _read(args.file)
    f = parse_fan(text)
    certify_fan(f)
    rpt = Report(command, args.file, text)
    rpt.add("name", f.name)
    return f, rpt


def _parse_support(arg: str, m: int):
    from .combinatorics import _SPACE
    from .fan import _rational

    parts = [s.strip(_SPACE) for s in arg.split(",")]
    if len(parts) != m:
        raise ValidationError(
            f"support override has {len(parts)} entries, fan has {m} rays"
        )
    values = tuple(map(_rational, parts))
    if None in values:
        raise ParseError(f"bad support value: {parts[values.index(None)]!r}")
    return values


def cmd_fan_volume(args) -> int:
    from .cohomology import (certify_support, edge_functionals,
                             serialize_volume_polynomial, volume_polynomial)

    f, rpt = _certified_fan(args, "fan volume")
    if args.support is not None:
        support = _parse_support(args.support, f.m)
    elif f.support is not None:
        support = f.support
    else:
        raise ValidationError(
            "no support parameters: none in the file and no --support given"
        )
    rpt.add("support", support)

    functionals = {str(k): v for k, v in edge_functionals(f, support).items()}
    rpt.add("edge_functionals", functionals)
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

    f, rpt = _certified_fan(args, "fan extremal")
    analysis = extremal_walls(f)
    rpt.add("wall_classes", {str(c.wall): c.pairing for c in analysis.classes})
    rpt.add(
        "groups",
        {f"group_{i}": " ".join(str(w) for w in g)
         for i, g in enumerate(analysis.groups)},
    )
    _add_cone_verdicts(rpt, analysis)
    rpt.emit(args.json)
    return 0


def cmd_fan_witness(args) -> int:
    from .cone import delzant_obstruction_witness

    f, rpt = _certified_fan(args, "fan witness")
    w = delzant_obstruction_witness(f)
    for key in w._fields:
        rpt.add(key, getattr(w, key))
    face = "triangular" if w.dual_face_size == 3 else "quadrangular"
    rpt.add("dual_face", face)
    rpt.emit(args.json)
    return 0


# ---------------------------------------------------------------------------
# corpus commands


def cmd_corpus_list(args) -> int:
    from .corpus import corpus_get, corpus_names

    for name in corpus_names():
        entry = corpus_get(name)
        print(f"{entry.name} ({entry.kind}): {entry.note}")
    return 0


def cmd_corpus_get(args) -> int:
    from .corpus import corpus_get

    entry = corpus_get(args.name)
    sys.stdout.write(entry.text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="toriclab",
        description="exact invariants of simple 3-polytopes and unimodular fans",
    )
    sub = top.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("polytope", help="combinatorial polytope commands")
    psub = poly.add_subparsers(dest="subcommand", required=True)
    p_report = psub.add_parser("report", help="full validation and invariant report")
    p_report.add_argument("file")
    p_report.add_argument("--json", action="store_true")
    p_report.set_defaults(func=cmd_polytope_report)
    p_color = psub.add_parser("color", help="4-coloring and characteristic function")
    p_color.add_argument("file")
    p_color.set_defaults(func=cmd_polytope_color)

    fan = sub.add_parser("fan", help="lattice fan commands")
    fsub = fan.add_subparsers(dest="subcommand", required=True)
    f_report = fsub.add_parser("report", help="full certification report")
    f_report.add_argument("file")
    f_report.add_argument("--json", action="store_true")
    f_report.set_defaults(func=cmd_fan_report)
    f_volume = fsub.add_parser("volume", help="edge functionals and volume")
    f_volume.add_argument("file")
    f_volume.add_argument("--support", help="comma-separated rationals c1,...,cm")
    f_volume.add_argument("--polynomial", action="store_true",
                          help="include the full volume polynomial")
    f_volume.add_argument("--json", action="store_true")
    f_volume.set_defaults(func=cmd_fan_volume)
    f_ext = fsub.add_parser("extremal", help="effective-cone analysis")
    f_ext.add_argument("file")
    f_ext.add_argument("--json", action="store_true")
    f_ext.set_defaults(func=cmd_fan_extremal)
    f_wit = fsub.add_parser("witness", help="small-face obstruction witness")
    f_wit.add_argument("file")
    f_wit.add_argument("--json", action="store_true")
    f_wit.set_defaults(func=cmd_fan_witness)

    corpus = sub.add_parser("corpus", help="built-in example documents")
    csub = corpus.add_subparsers(dest="subcommand", required=True)
    c_list = csub.add_parser("list", help="list entries")
    c_list.set_defaults(func=cmd_corpus_list)
    c_get = csub.add_parser("get", help="print one entry")
    c_get.add_argument("name")
    c_get.set_defaults(func=cmd_corpus_get)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToricLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(
            f"error: internal error in {args.command} {args.subcommand}: "
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
