"""The metrics run.py prints are the ones BENCHMARK.json declares."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

import run
import workloads as wl
from spans import Tracer

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _records(traced_even_rounds=False):
    """Four rounds of three rungs; the traced rounds take 1 ms longer."""
    rungs = ("cp3-support/104", "cp3/8", "nanotube/102")
    records = [{"rung": rungs[k % 3], "s": 0.01 * (k % 3 + 1) + 0.001 * (k // 3 % 2 == 0),
                "failed": k == 4, "error": "x" if k == 4 else None,
                "traced": traced_even_rounds and k // 3 % 2 == 0}
               for k in range(12)]
    for r in records:
        r["wall_s"] = r["s"]
    return records


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_end_to_end_metrics_match_spec():
    metrics, details = run.end_to_end(wl.WORKLOADS["library-census"], _records(), 0.5, 30.0)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert details["failed_frac"] == 1 / 12
    assert metrics["top_rung_ms"][0] == pytest.approx(10.5)


def test_per_layer_metrics_match_spec():
    tr = Tracer()
    tr.enabled = True
    tr.call("cone.extremal_walls", lambda: tr.call("exactlp.cone_membership", lambda: None))
    tr.count("exactlp.cone_membership_calls")
    metrics, _ = run.per_layer(tr, _records(traced_even_rounds=True), {})
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["exactlp.cone_membership_calls"][0] == 1 / 6
    assert metrics["trace.overhead_ms"][0] == pytest.approx(1.0)


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.enabled = True
    tr.call("cone.outer", lambda: tr.call("exactlp.inner", sum, range(10 ** 5)))
    self_s = tr.self_seconds_by_layer()
    total = tr.per_name_seconds()
    assert self_s["exactlp"] == pytest.approx(total["exactlp.inner"])
    assert self_s["cone"] == pytest.approx(total["cone.outer"] - total["exactlp.inner"])


@pytest.mark.parametrize("pct", [25, 50, 70, 77, 90])
def test_percentile_is_the_inclusive_quantile(pct):
    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7]
    assert run.percentile(xs, pct) == pytest.approx(
        statistics.quantiles(xs, n=100, method="inclusive")[pct - 1])


def test_reference_speed_scales_by_the_probes_around_each_time():
    ref = run.PROBE_REF_MS / 1000
    # the host runs at half speed for the last two times
    probes = [ref] * 5 + [2 * ref] * 6
    times = [1.0] * 4 + [2.0] * 6
    scaled = run.at_reference_speed(times, probes)
    assert scaled[:4] == pytest.approx([1.0] * 4)
    assert scaled[-3:] == pytest.approx([1.0] * 3)


def test_spans_scale_with_their_document():
    tr = Tracer()
    tr.enabled = True
    for doc in (0, 1):
        tr.doc = doc
        tr.call("cone.outer", lambda: tr.call("exactlp.inner", sum, range(10 ** 5)))
    plain = tr.self_seconds_by_layer()
    scaled = tr.self_seconds_by_layer(scale={0: 2.0, 1: 2.0})
    assert scaled["cone"] == pytest.approx(2 * plain["cone"])
    assert tr.per_name_seconds({0: 0.0, 1: 1.0})["exactlp.inner"] == pytest.approx(
        tr.spans[3][2] - tr.spans[3][1])
