"""The benchmark workloads: seeded documents, pipelines, exact checks.

Each workload turns a seed and a round number into one round of
documents (a fixed ladder of sizes, in seeded order), runs one document
through its library pipeline, and checks the pipeline's answers against
the answers the generator derived from the construction.

A pipeline calls the library only through ``Tracer.call``, so a library
exception becomes a ``LibraryError`` (a failed operation) and, in a traced
run, every call is a span.  A check that fails raises ``WrongAnswer``,
which aborts the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import generators as gen
from spans import LibraryError, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"


class WrongAnswer(Exception):
    """The library returned an answer that contradicts the construction."""


def _expect(cond: bool, doc, what: str) -> None:
    if not cond:
        raise WrongAnswer(f"{doc.family} size {doc.size}: {what}")


def _pairing(y, vec) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(y, vec)), Fraction(0))


# ---------------------------------------------------------------------------
# support fans: certification, intersection calculus and volumes, no LP


def support_fan_run(tl, doc, tr: Tracer) -> dict:
    f = tr.call("fan.parse", tl.parse_fan, doc.text)
    out = {"unimodular": tr.call("fan.check_unimodular", tl.check_unimodular, f).ok}
    cert = tr.call("fan.check_complete", tl.check_complete, f)
    tr.count("fan.piercing_attempts", cert.attempts)
    out["walls"] = len(tr.call("fan.wall_table", _walls, f))
    out["gauss_bonnet"] = tr.call("fan.gauss_bonnet_sum", tl.gauss_bonnet_sum, f)
    out["chern"] = tr.call("cohomology.chern", tl.chern_number_c1c2, f)
    out["betti"] = tr.call("cohomology.betti_numbers", tl.betti_numbers, f.sphere)
    tr.call("cohomology.certify_support", tl.certify_support, f, f.support)
    V = tr.call("cohomology.volume_polynomial", tl.volume_polynomial, f)
    tr.count("cohomology.volume_terms", len(V.coeffs))
    out["volumes"] = [
        tr.call("cohomology.volume_eval", V, [t * x for x in f.support])
        for t in (1, 2, 3)
    ]
    tr.count("cohomology.volume_eval_calls", 3)
    out["classes"] = tr.call("cone.wall_classes", tl.wall_classes, f)
    pair = tr.call("fan.characteristic_pair", tl.characteristic_pair, f)
    out["signed"] = tr.call("cone.signed_wall_classes", tl.signed_wall_classes, pair)
    return out


def _walls(f):
    return f.walls


def support_fan_check(doc, out) -> None:
    m = doc.size
    _expect(out["unimodular"], doc, "not unimodular")
    _expect(out["walls"] == 3 * m - 6, doc, f"{out['walls']} walls")
    _expect(out["gauss_bonnet"] == 24, doc, f"Gauss-Bonnet sum {out['gauss_bonnet']}")
    _expect(out["chern"] == 24, doc, f"Chern number {out['chern']}")
    _expect(tuple(out["betti"]) == (1, m - 3, m - 3, 1), doc, f"betti {out['betti']}")
    vol = doc.expect["volume"]
    for t, got in zip((1, 2, 3), out["volumes"]):
        _expect(got == t ** 3 * vol, doc, f"volume at {t}c is {got}, not {t ** 3 * vol}")
    _expect(out["signed"] == out["classes"], doc, "signed wall classes differ")


# ---------------------------------------------------------------------------
# support-free fans: the exact-LP route


def lp_fan_run(tl, doc, tr: Tracer) -> dict:
    f = tr.call("fan.parse", tl.parse_fan, doc.text)
    out = {"unimodular": tr.call("fan.check_unimodular", tl.check_unimodular, f).ok}
    cert = tr.call("fan.check_complete", tl.check_complete, f)
    tr.count("fan.piercing_attempts", cert.attempts)
    analysis = tr.call("cone.extremal_walls", tl.extremal_walls, f)
    tr.count("cone.groups", len(analysis.groups))
    out["analysis"] = analysis
    out["witness"] = tr.call("cone.obstruction_witness",
                             tl.delzant_obstruction_witness, f)
    classes = tr.call("cone.wall_classes", tl.wall_classes, f)
    out["classes"] = classes
    out["functional"] = tr.call("cone.strict_convexity",
                                tl.strict_convexity_witness, classes)
    return out


def lp_fan_check(doc, out) -> None:
    m = doc.size
    _expect(out["unimodular"], doc, "not unimodular")
    analysis = out["analysis"]
    _expect(len(analysis.classes) == 3 * m - 6, doc, "wall class count")
    _expect(len(analysis.extremal) > 0, doc, "no extremal wall")
    w = out["witness"]
    degree = doc.expect["degrees"][w.vertex]
    _expect(w.dual_face_size in (3, 4), doc, f"dual face size {w.dual_face_size}")
    _expect(w.dual_face_size == degree, doc,
            f"witness claims degree {w.dual_face_size}, vertex has {degree}")
    y = out["functional"]
    _expect(isinstance(y, tuple), doc, "no positive functional on a projective fan")
    _expect(all(_pairing(y, c.pairing) >= 1 for c in out["classes"]), doc,
            "positive functional fails on a wall class")


# ---------------------------------------------------------------------------
# polytopes: the `polytope report` path


def polytope_run(tl, doc, tr: Tracer) -> dict:
    p = tr.call("combinatorics.parse_polytope", tl.parse_polytope, doc.text)
    sphere = tr.call("combinatorics.dual_sphere", tl.dual_sphere, p)
    out = {
        "histogram": tr.call("combinatorics.face_histogram", tl.face_histogram, p),
        "fullerene": tr.call("combinatorics.is_fullerene", tl.is_fullerene, p),
    }
    try:
        coloring = tr.call("charfunc.four_color", tl.four_color, sphere)
    except LibraryError:
        tr.count("charfunc.four_color_errors")
        raise
    lam = tr.call("charfunc.coloring_to_charfunc", tl.coloring_to_charfunc, coloring)
    pair = tl.CharacteristicPair(sphere, lam)
    out["star_ok"] = tr.call("charfunc.star_condition",
                             tl.check_star_condition, pair).ok
    out["betti"] = tr.call("cohomology.betti_numbers", tl.betti_numbers, sphere)
    out["colors"] = coloring.colors
    return out


def polytope_check(doc, out) -> None:
    F = doc.size
    _expect(out["histogram"] == doc.expect["histogram"], doc,
            f"face histogram {out['histogram']}")
    _expect(out["fullerene"] == doc.expect["fullerene"], doc, "fullerene flag")
    colors = out["colors"]
    _expect(len(colors) == F and set(colors) <= set("abcd"), doc, "coloring shape")
    _expect(all(colors[u] != colors[v] for u, v in doc.expect["adjacent"]), doc,
            "adjacent facets share a color")
    _expect(out["star_ok"], doc, "star condition violated")
    _expect(tuple(out["betti"]) == (1, F - 3, F - 3, 1), doc, f"betti {out['betti']}")


# ---------------------------------------------------------------------------
# cli-corpus: one `python -m toriclab.cli` process per command


FAN_COMMANDS = ("report", "volume", "extremal", "witness")
POLYTOPE_COMMANDS = ("report", "color")   # `polytope color` has no --json
CORPUS_DIR = OUT_DIR / "corpus"


def cli_env() -> dict:
    """The caller's environment with the checkout's sources importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cli_round(tl, seed: int, round_no: int) -> list:
    """Write the corpus documents to files; one call per command each."""
    CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    docs = []
    for name, entry in tl.corpus.ENTRIES.items():
        path = CORPUS_DIR / f"{name}.{entry.kind}"
        path.write_text(entry.text, encoding="utf-8")
        commands = FAN_COMMANDS if entry.kind == "fan" else POLYTOPE_COMMANDS
        for cmd in commands:
            argv = [entry.kind, cmd, str(path)]
            if (entry.kind, cmd) != ("polytope", "color"):
                argv.append("--json")
            family = f"{entry.kind} {cmd}"
            docs.append((family, gen.Doc(family, 0, entry.text,
                                         {"argv": argv, "name": name})))
    random.Random(f"cli-corpus/{seed}/{round_no}").shuffle(docs)
    return docs


def cli_run(tl, doc, tr: Tracer) -> dict:
    def call():
        proc = subprocess.run(
            [sys.executable, "-m", "toriclab.cli", *doc.expect["argv"]],
            capture_output=True, text=True, env=CLI_ENV, cwd=ROOT, timeout=120)
        if proc.returncode != 0 and "Traceback" in proc.stderr:
            raise RuntimeError(proc.stderr.strip().splitlines()[-1])
        return proc

    return {"proc": tr.call("cli." + doc.family.replace(" ", "_"), call)}


def cli_check(doc, out) -> None:
    proc = out["proc"]
    name = doc.expect["name"]
    _expect(proc.returncode == 0, doc, f"{name}: exit {proc.returncode}: {proc.stderr.strip()}")
    if doc.family == "polytope color":
        lines = proc.stdout.splitlines()
        _expect(lines[-1:] == ["star_condition: ok"], doc, f"{name}: star condition")
        _expect(len(lines) == 1 + doc.text.count("\nF "), doc, f"{name}: color lines")
        return
    try:
        data = json.loads(proc.stdout)
    except json.JSONDecodeError:
        raise WrongAnswer(f"{doc.family} {name}: output is not JSON") from None
    digest = hashlib.sha256(doc.text.encode()).hexdigest()[:16]
    _expect(data.get("digest") == digest, doc, f"{name}: digest")
    if doc.family == "fan report":
        _expect(data.get("gauss_bonnet_check") == "PASS", doc, f"{name}: gauss_bonnet_check")
    elif doc.family == "polytope report":
        _expect(data.get("quasitoric") == "YES", doc, f"{name}: quasitoric")
    elif doc.family == "fan witness":
        _expect(data.get("dual_face_size") in (3, 4), doc, f"{name}: dual face size")


CLI_ENV = cli_env()


# ---------------------------------------------------------------------------
# the registry


# One pipeline per family: support fans take the intersection-calculus
# route (no LP), support-free fans the exact-LP route, polytopes the
# `polytope report` path.
PIPELINES = {
    "cp3-support": (support_fan_run, support_fan_check),
    "cp3": (lp_fan_run, lp_fan_check),
    "nanotube": (polytope_run, polytope_check),
    "stacked": (polytope_run, polytope_check),
}

# (family, size) rungs of the library census, one document each per
# round, except the top rung, which has two: they only give
# ``top_rung_ms`` six samples in a three-round run, since one m = 104
# document varies by about 10 % from run to run even after the speed
# scaling.  Each family keeps its own ladder: support fans m = 14..104,
# support-free fans m = 8..14 (the LP route is quartic, so it stops
# early), nanotubes at 102..1102 facets and stacked-sphere duals at
# 154..1154, each in steps of 100 (both sides of the ~1000-facet
# `four_color` limit).  The two polytope ladders interleave, so together
# they step by about 50 facets and put many documents near the median
# time of a run: the median is not decided by a gap between two rungs.
LIBRARY_RUNGS = (
    ("cp3-support", 14), ("cp3-support", 24), ("cp3-support", 44),
    ("cp3-support", 74), ("cp3-support", 104), ("cp3-support", 104),
    ("cp3", 8), ("cp3", 10), ("cp3", 14),
    *(("nanotube", facets) for facets in range(102, 1103, 100)),
    *(("stacked", facets) for facets in range(154, 1155, 100)),
)


def rung_document(name: str, seed: int, draw: int, family: str, size: int) -> gen.Doc:
    """The ``draw``-th document of one rung in a run.

    The shape (which cones get subdivided) depends on the rung alone, so
    every round of every seed does the same combinatorial work.  The seed
    and the draw pick the presentation.  A fan takes the draw-th distinct
    basis of its seed's stream, so no two fans of a run are equal and none
    can hit the global ``lru_cache`` tables of an earlier document.
    """
    shape = random.Random(f"{name}/shape/{family}/{size}")
    if family in ("cp3-support", "cp3"):
        look = random.Random(f"{name}/{seed}/{family}/{size}")
        return gen.subdivided_cp3(size, shape, look, support=family == "cp3-support",
                                  nth=draw)
    look = random.Random(f"{name}/{seed}/{draw}/{family}/{size}")
    if family == "nanotube":
        return gen.nanotube((size - 12) // 5, shape, look)
    return gen.stacked_dual(size, shape, look)


def ladder(name: str, rungs):
    """A round maker: one document per listed rung, in seeded order."""
    copies = Counter(rungs)

    def make(tl, seed: int, round_no: int) -> list:
        seen = Counter()
        docs = []
        for rung in rungs:
            draw = round_no * copies[rung] + seen[rung]
            seen[rung] += 1
            family, size = rung
            docs.append((f"{family}/{size}", rung_document(name, seed, draw, family, size)))
        random.Random(f"{name}/{seed}/{round_no}").shuffle(docs)
        return docs
    return make


def library_run(tl, doc, tr: Tracer) -> dict:
    return PIPELINES[doc.family][0](tl, doc, tr)


def library_check(doc, out) -> None:
    PIPELINES[doc.family][1](doc, out)


@dataclass(frozen=True)
class Workload:
    """One workload: how to make a round, run a document, check it.

    ``make(tl, seed, round_no)`` returns (rung, doc) pairs; ``top_rung_ms``
    is taken over the documents of rung ``top``.  ``tail_pct`` is the
    percentile reported as ``doc_tail_ms``.  It leaves at least ten
    documents beyond it in a run of the minimum three rounds, and it is
    fixed so that it estimates the same quantile at any throughput.  On
    the library census it sits below the thinly spread slow fans, among
    many polytopes of similar time, so the seed does not move it.
    ``children`` says that the documents run in child processes.
    """

    name: str
    make: Callable
    run: Callable
    check: Callable
    top: str
    tail_pct: int
    children: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("library-census", ladder("library-census", LIBRARY_RUNGS),
             library_run, library_check, top="cp3-support/104", tail_pct=82),
    # `fan report` runs the whole certified pipeline: the top rung
    Workload("cli-corpus", cli_round, cli_run, cli_check, top="fan report", tail_pct=89,
             children=True),
)}
