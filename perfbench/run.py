"""Certified-pipeline benchmark for toriclab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its
``src/``.  One process runs one workload as a closed loop with a single
client: one document at a time, each round one seeded copy of the
workload's ladder.  New rounds start until ``--seconds`` have passed and
at least three rounds have run.
Every answer is checked exactly; a wrong answer aborts the run (exit 1), a
library exception counts the document as failed.

Times are reported at a fixed reference speed of the host: a short probe
of pure-Python work that uses no toriclab code runs before every document
and every set-up, and each time is scaled by how much slower or faster
than ``PROBE_REF_MS`` the probes around it ran.  A shared host drifts in
speed by tens of percent over minutes; the scaling takes that drift out
and leaves the program's own cost.  The unscaled wall times are in the
setting line.

The last line of standard output is the result: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  The line before it
records the setting (Python, CPUs, bytecode, seeds, source digest) and
the details behind the metrics.  Both also go to ``perfbench/out/``,
together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads as wl
from spans import LibraryError, Tracer

SETUP_REPS = 15         # set-up is repeated and its median reported
MIN_ROUNDS = 3          # so the tail percentile has ten documents beyond it
PROBE_REPS = 5          # interpreter / import probes in a traced cli-corpus run
PROBE_REF_MS = 20.0     # speed probe time that defines the reference speed
SPEED_WINDOW = 3        # speed probes on each side of a timed interval

LAYER_MS = (
    "fan.parse", "fan.check_unimodular", "fan.check_complete", "fan.wall_table",
    "cohomology.chern", "cohomology.certify_support", "cohomology.volume_polynomial",
    "cone.wall_classes", "cone.signed_wall_classes", "cone.extremal_walls",
    "cone.obstruction_witness", "cone.strict_convexity",
    "exactlp.cone_membership", "exactlp.positive_functional",
    "combinatorics.parse_polytope", "combinatorics.dual_sphere",
    "charfunc.four_color", "charfunc.star_condition",
)
LAYER_COUNTS = (
    "fan.piercing_attempts", "cohomology.volume_terms", "cone.groups",
    "exactlp.cone_membership_calls", "exactlp.positive_functional_calls",
    "charfunc.four_color_errors",
)
LAYERS = ("fan", "cohomology", "cone", "exactlp", "combinatorics", "charfunc", "cli")


def import_toriclab():
    """A fresh import of the package and its CLI module."""
    for name in [n for n in sys.modules if n == "toriclab" or n.startswith("toriclab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    tl = importlib.import_module("toriclab")
    importlib.import_module("toriclab.cli")
    return tl


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    It calls no toriclab code, so a change to the library cannot move it;
    only the speed of the host can.  Its mix resembles the library's: exact
    rationals with power-of-two denominators, tuple-keyed dicts, sorting.
    The garbage collector is off while it runs, so the library's heap
    does not enter the figure.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 2200):
        acc += Fraction(i, 2 ** (i % 61)) * Fraction(3, 7 + i % 5)
        key = (i % 89, i % 13, acc.denominator % 7)
        table[key] = table.get(key, 0) + i
    sorted(((i * 7919) % 1009, i % 17, -i) for i in range(9000))
    seconds = perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


def at_reference_speed(times, probes) -> list[float]:
    """Scale each time by the speed of the host around it.

    ``probes[k]`` ran just before ``times[k]`` and ``probes[k + 1]`` just
    after it.  Time k is scaled by ``PROBE_REF_MS`` over the median of the
    ``SPEED_WINDOW`` probes on each side of it.
    """
    assert len(probes) == len(times) + 1
    out = []
    for k, t in enumerate(times):
        near = probes[max(0, k + 1 - SPEED_WINDOW):k + 1 + SPEED_WINDOW]
        out.append(t * PROBE_REF_MS / 1000 / statistics.median(near))
    return out


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = pct / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, or of its largest child process."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def setting() -> dict:
    """What the numbers depend on besides the code."""
    pkg = wl.SRC_DIR / "toriclab"
    sources = sorted(pkg.glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    tag = sys.implementation.cache_tag
    cached = [p for p in sources if (pkg / "__pycache__" / f"{p.stem}.{tag}.pyc").exists()]
    head = wl.ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = wl.ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "bytecode_cached": f"{len(cached)}/{len(sources)} modules",
        "TORICLAB_SEED": os.environ.get("TORICLAB_SEED", "unset (default 0)"),
        "recursion_limit": sys.getrecursionlimit(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def probe_ms(code: str) -> float:
    """Median wall time of ``python -c code`` in a fresh interpreter."""
    times = []
    for _ in range(PROBE_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=wl.CLI_ENV, cwd=wl.ROOT,
                       check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1000


def _median_ms_by_rung(records) -> dict:
    rungs = sorted({r["rung"] for r in records})
    return {rung: statistics.median(r["s"] for r in records if r["rung"] == rung) * 1000
            for rung in rungs}


def end_to_end(work, records, setup_s, rss_mb) -> tuple[dict, dict]:
    times = [r["s"] for r in records]
    tail_value = percentile(times, work.tail_pct)
    metrics = {
        "docs_per_s": (len(times) / sum(times), "1/s"),
        "doc_p50_ms": (statistics.median(times) * 1000, "ms"),
        "doc_tail_ms": (tail_value * 1000, "ms"),
    }
    top_times = [r["s"] for r in records if r["rung"] == work.top]
    metrics["top_rung_ms"] = (statistics.median(top_times) * 1000, "ms")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    failed = sum(r["failed"] for r in records)
    details = {
        "failed_frac": failed / len(records),
        "doc_tail_percentile": work.tail_pct,
        "doc_tail_samples": len(times),
        "doc_tail_beyond": sum(t > tail_value for t in times),
        "failures": sorted({r["error"] for r in records if r["failed"]}),
        "median_ms_by_rung": _median_ms_by_rung(records),
    }
    return metrics, details


def per_layer(tr: Tracer, records, probes: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a run whose even rounds were traced.

    Every round holds the same rungs with the same shapes, so the traced
    and the untraced rounds do the same work.
    """
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    n = len(traced)
    # a document's spans are scaled as its end-to-end time was
    scale = {k: r["s"] / r["wall_s"] if r["wall_s"] else 1.0 for k, r in enumerate(records)}
    seconds = tr.per_name_seconds(scale)
    metrics = {}
    for name in LAYER_MS:
        metrics[f"{name}_ms"] = (seconds.get(name, 0.0) * 1000 / n, "ms")
    evals = tr.counts.get("cohomology.volume_eval_calls", 0)
    metrics["cohomology.volume_eval_ms"] = (
        seconds.get("cohomology.volume_eval", 0.0) * 1000 / evals if evals else 0.0, "ms")
    for name in LAYER_COUNTS:
        metrics[name] = (tr.counts.get(name, 0) / n, "count")
    self_s = tr.self_seconds_by_layer(scale=scale)
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (self_s.get(layer, 0.0) * 1000 / n, "ms")
    metrics["cli.interpreter_ms"] = (probes.get("interpreter_ms", 0.0), "ms")
    metrics["cli.import_ms"] = (probes.get("import_ms", 0.0), "ms")
    # traced minus untraced rounds, per document
    overhead = statistics.fmean(r["s"] for r in traced) - statistics.fmean(r["s"] for r in plain)
    metrics["trace.overhead_ms"] = (overhead * 1000, "ms")
    metrics["trace.spans_per_doc"] = (len(tr.spans) / n, "count")
    # which layers each document family reaches, e.g. no LP on support fans
    families = sorted({r["rung"].split("/")[0] for r in traced})
    by_family = {}
    for family in families:
        ids = {k for k, r in enumerate(records)
               if r["traced"] and r["rung"].split("/")[0] == family}
        layer_s = tr.self_seconds_by_layer(ids, scale)
        by_family[family] = {layer: layer_s[layer] * 1000 / len(ids) for layer in sorted(layer_s)}
    details = {"traced_docs": n, "untraced_docs": len(plain),
               "self_ms_by_family": by_family,
               "median_ms_by_rung_traced": _median_ms_by_rung(traced),
               "median_ms_by_rung_untraced": _median_ms_by_rung(plain)}
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    work = wl.WORKLOADS[args.workload]

    if not (wl.SRC_DIR / "toriclab" / "__init__.py").is_file():
        print(f"perfbench: no toriclab sources under {wl.SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC_DIR))

    # set-up: import plus generation and serialization of the first round
    setup_wall, setup_probes = [], []
    for _ in range(SETUP_REPS):
        setup_probes.append(speed_probe())
        t0 = perf_counter()
        tl = import_toriclab()
        docs = work.make(tl, args.seed, 0)
        setup_wall.append(perf_counter() - t0)
    setup_probes.append(speed_probe())
    setup_times = at_reference_speed(setup_wall, setup_probes)
    if wl.SRC_DIR not in Path(tl.__file__).resolve().parents:
        print(f"perfbench: imported toriclab from {tl.__file__}", file=sys.stderr)
        return 2

    tr = Tracer()
    records, probes = [], []
    rss_mb = None
    rounds = 1
    start = perf_counter()
    try:
        while True:
            # whole rounds only, so every run sorts the same mix of rungs
            if not docs:
                if rss_mb is None:
                    rss_mb = peak_rss_mb(work.children)   # after one round, at any speed
                if rounds >= MIN_ROUNDS and perf_counter() - start >= args.seconds:
                    break
                docs = work.make(tl, args.seed, rounds)
                rounds += 1
            rung, doc = docs.pop(0)
            # a traced run traces its even rounds and leaves the odd ones untraced
            tr.enabled = bool(args.trace) and (rounds - 1) % 2 == 0
            tr.doc = len(records)
            probes.append(speed_probe())
            with (tr.wrapping(tl.cone, ("cone_membership", "positive_functional"), "exactlp")
                  if tr.enabled else contextlib.nullcontext()):
                t0 = perf_counter()
                try:
                    out, error = work.run(tl, doc, tr), None
                except LibraryError as exc:
                    error = f"{exc.stage}: {type(exc.exc).__name__}"
                seconds = perf_counter() - t0
            if error is None:
                work.check(doc, out)
            records.append({"rung": rung, "wall_s": seconds, "failed": error is not None,
                            "error": error, "traced": tr.enabled})
    except wl.WrongAnswer as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(records) + 1,
                          "failed": sum(r["failed"] for r in records), "metrics": {}}))
        return 1

    probes.append(speed_probe())
    for r, scaled in zip(records, at_reference_speed([r["wall_s"] for r in records], probes)):
        r["s"] = scaled
    if args.trace:
        cli_probes = {}
        if work.children:
            # scaled by the run's median speed
            scale = PROBE_REF_MS / 1000 / statistics.median(probes)
            cli_probes["interpreter_ms"] = probe_ms("pass") * scale
            cli_probes["import_ms"] = (probe_ms("import toriclab.cli") * scale
                                       - cli_probes["interpreter_ms"])
        metrics, details = per_layer(tr, records, cli_probes)
    else:
        metrics, details = end_to_end(work, records, statistics.median(setup_times), rss_mb)
        details["unscaled"] = {
            k: v for k, (v, _) in end_to_end(
                work, [{**r, "s": r["wall_s"]} for r in records],
                statistics.median(setup_wall), rss_mb)[0].items()}
    details.update(workload=work.name, seed=args.seed, rounds=rounds,
                   wall_s=perf_counter() - start, setup_samples_s=setup_times,
                   speed_probe_ms={"median": statistics.median(probes) * 1000,
                                   "min": min(probes) * 1000, "max": max(probes) * 1000})
    result = {
        "correct": True,
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {"setting": setting(), "details": details}

    wl.OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"BENCH_{work.name}_seed{args.seed}_trace{args.trace}"
    # the file also keeps every document's times and every speed probe
    (wl.OUT_DIR / f"{stem}.json").write_text(
        json.dumps({**info, "result": result, "records": records,
                    "speed_probes_s": probes, "setup_wall_s": setup_wall,
                    "setup_probes_s": setup_probes}, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tr.write(wl.OUT_DIR / f"spans_{work.name}_seed{args.seed}.jsonl")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
