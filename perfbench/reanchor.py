"""Regenerate the layer x m table for support-free cp3+n fans.

    python3 perfbench/reanchor.py [--out FILE]

For each size m it generates one support-free subdivided cp3 fan from
seed 0 and runs the layers in pipeline order through the benchmark's
tracer, so each cell is the span of one library call (caches filled by
earlier rows of the same column stay filled, as in the pipeline).  A call
that runs past 30 s is stopped and shown as "—"; so is every larger
size of that layer.  ``four_color`` runs on the fan's own sphere.
"""

from __future__ import annotations

import argparse
import os
import platform
import random
import signal
import sys
from pathlib import Path

import generators as gen
import workloads as wl
from spans import LibraryError, Tracer

SEED = 0
BUDGET_S = 30           # seconds per call before it is stopped
SIZES = (14, 44, 104, 1004)
ROWS = (
    ("`wall_table`", "fan.wall_table", lambda tl, f: f.walls),
    ("`chern_number_c1c2`", "cohomology.chern", lambda tl, f: tl.chern_number_c1c2(f)),
    ("`volume_polynomial`", "cohomology.volume_polynomial",
     lambda tl, f: tl.volume_polynomial(f)),
    ("`wall_classes`", "cone.wall_classes", lambda tl, f: tl.wall_classes(f)),
    ("`four_color`", "charfunc.four_color", lambda tl, f: tl.four_color(f.sphere)),
    ("`extremal_walls` (LP)", "cone.extremal_walls", lambda tl, f: tl.extremal_walls(f)),
)


class OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise OverBudget


def fmt(seconds: float) -> str:
    if seconds < 1:
        return f"{seconds * 1000:.2g} ms" if seconds < 0.01 else f"{seconds * 1000:.0f} ms"
    return f"{seconds:.2g} s" if seconds < 10 else f"{seconds:.0f} s"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=None, help="also write the table here")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(wl.SRC_DIR))
    import toriclab as tl

    signal.signal(signal.SIGALRM, _alarm)
    cells = {row[0]: [] for row in ROWS}
    stopped = set()
    for m in SIZES:
        doc = gen.subdivided_cp3(m, random.Random(f"reanchor/{SEED}/{m}"),
                                 random.Random(SEED), support=False)
        tr = Tracer()
        tr.enabled = True
        f = tl.parse_fan(doc.text)
        for label, span, fn in ROWS:
            if label in stopped:
                cells[label].append("—")
                continue
            signal.alarm(BUDGET_S)
            try:
                tr.call(span, fn, tl, f)
                cell = fmt(tr.per_name_seconds()[span])
            except LibraryError as exc:
                if isinstance(exc.exc, OverBudget):
                    stopped.add(label)
                    cell = "—"
                else:
                    cell = type(exc.exc).__name__
            finally:
                signal.alarm(0)
            cells[label].append(cell)
            print(f"m={m} {label}: {cell}", file=sys.stderr, flush=True)

    head = "| layer | " + " | ".join(f"m={m}" for m in SIZES) + " |"
    lines = [head, "|" + "---|" * (len(SIZES) + 1)]
    lines += [f"| {label} | " + " | ".join(cells[label]) + " |" for label, _, _ in ROWS]
    lines += ["", f"Support-free cp3+n fans, generator seed {SEED}; one call per cell, "
                  f"in row order; — means the call ran past {BUDGET_S} s (or a smaller "
                  f"size already did).  Python {platform.python_version()}, "
                  f"{os.cpu_count()} CPUs."]
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.out:
        args.out.write_text(table, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
