"""In-memory spans around calls into the library.

A :class:`Tracer` runs every library call of a pipeline.  Untraced, it
only tags exceptions as library failures; traced, it also records one span
per call: name, start, end, parent span and document id.  Span names are
``<layer>.<call>``, where the layer is the toriclab module the call goes
into.  Spans stay in memory until the run writes them out at the end.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter


class LibraryError(Exception):
    """A library call raised; the document counts as a failed operation."""

    def __init__(self, stage: str, exc: BaseException):
        super().__init__(f"{stage}: {type(exc).__name__}: {exc}")
        self.stage = stage
        self.exc = exc


class Tracer:
    def __init__(self):
        self.enabled = False
        self.doc = None
        self.spans: list[list] = []      # [name, start, end, parent, doc]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)``; any exception becomes a LibraryError."""
        if not self.enabled:
            try:
                return fn(*args)
            except LibraryError:
                raise
            except Exception as exc:
                raise LibraryError(name, exc) from exc
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.doc])
        self._open.append(idx)
        try:
            return fn(*args)
        except LibraryError:
            raise
        except Exception as exc:
            raise LibraryError(name, exc) from exc
        finally:
            self.spans[idx][2] = perf_counter()
            self._open.pop()

    def count(self, name: str, value=1) -> None:
        if self.enabled:
            self.counts[name] += value

    @contextlib.contextmanager
    def wrapping(self, module, names, layer: str):
        """Route ``module.<name>`` through this tracer while the block runs.

        Used to count the LPs that ``toriclab.cone`` solves: it calls the
        exact-LP entry points through the names it imported.
        """
        saved = {n: getattr(module, n) for n in names}

        def wrapper(n, fn):
            def traced(*args):
                self.count(f"{layer}.{n}_calls")
                return self.call(f"{layer}.{n}", fn, *args)
            return traced

        for n, fn in saved.items():
            setattr(module, n, wrapper(n, fn))
        try:
            yield
        finally:
            for n, fn in saved.items():
                setattr(module, n, fn)

    def per_name_seconds(self, scale=None) -> dict[str, float]:
        """Total duration per span name; ``scale`` maps a document id to a
        factor for the durations of its spans (default 1)."""
        scale = scale or {}
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, doc in self.spans:
            out[name] += (end - start) * scale.get(doc, 1.0)
        return out

    def self_seconds_by_layer(self, docs=None, scale=None) -> dict[str, float]:
        """Span durations minus the part their child spans cover, summed
        per layer, over the given document ids (default: all), with
        durations scaled as in ``per_name_seconds``."""
        scale = scale or {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, doc) in enumerate(self.spans):
            if docs is None or doc in docs:
                out[name.split(".", 1)[0]] += ((end - start) - child[k]) * scale.get(doc, 1.0)
        return out

    def write(self, path) -> None:
        """Dump the spans as JSON lines, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, doc in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "doc": doc}) + "\n")
