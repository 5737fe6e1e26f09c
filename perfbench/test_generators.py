"""Tests of the benchmark's seeded generators.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench

At small sizes the generated fans are cross-checked against the
independent oracles in ``tests/oracles.py``: the exact volume by vertex
enumeration, and the degree-3 integrals by dense Gaussian elimination.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

import generators as gen  # noqa: E402
import workloads as wl  # noqa: E402
from oracles import integral_table_oracle, polytope_volume_oracle  # noqa: E402
from toriclab import (  # noqa: E402
    check_complete,
    check_unimodular,
    face_histogram,
    gauss_bonnet_sum,
    is_fullerene,
    parse_fan,
    parse_polytope,
)


@pytest.mark.parametrize("m", [4, 5, 6, 8, 10])
def test_subdivided_cp3_volume_matches_vertex_enumeration(m):
    doc = gen.subdivided_cp3(m, random.Random(m), random.Random(-m))
    e = doc.expect
    assert polytope_volume_oracle(e["rays"], e["support"]) == e["volume"]


@pytest.mark.parametrize("m", [5, 7])
def test_subdivided_cp3_volume_matches_integral_oracle(m):
    doc = gen.subdivided_cp3(m, random.Random(100 + m), random.Random(m))
    e = doc.expect
    table = integral_table_oracle(list(e["rays"]), e["cones"])
    c = e["support"]
    # (sum_i c_i v_i)^3 / 3! expanded over sorted multisets
    total = Fraction(0)
    for (i, j, k), value in table.items():
        weight = Fraction(1, 6) if i == j == k else (
            Fraction(1, 2) if i == j or j == k else Fraction(1))
        total += weight * value * c[i] * c[j] * c[k]
    assert total == e["volume"]


def test_volume_formula_holds_with_large_denominators():
    doc = gen.subdivided_cp3(104, random.Random(0), random.Random(1))
    deltas = [Fraction(1, 2 ** (s + 1)) for s in range(100)]
    assert doc.expect["volume"] == Fraction(32, 3) - sum(d ** 3 for d in deltas) / 6
    assert max(x.denominator for x in doc.expect["support"]) == 2 ** 100


@pytest.mark.parametrize("support", [True, False])
def test_subdivided_cp3_is_complete_unimodular_fan(support):
    doc = gen.subdivided_cp3(24, random.Random(7), random.Random(8), support=support)
    f = parse_fan(doc.text)
    assert f.m == 24 and len(f.maximal_cones) == 2 * 24 - 4
    assert check_unimodular(f).ok
    check_complete(f)
    assert gauss_bonnet_sum(f) == 24
    assert (f.support is not None) == support
    assert ("volume" in doc.expect) == support
    degrees = Counter(v for c in f.maximal_cones for v in c)
    assert doc.expect["degrees"] == tuple(degrees[v] for v in range(f.m))


@pytest.mark.parametrize("k", [0, 1, 5, 18])
def test_nanotube_is_the_capped_fullerene(k):
    doc = gen.nanotube(k, random.Random(0), random.Random(k))
    p = parse_polytope(doc.text)
    F = 12 + 5 * k
    assert p.num_facets == doc.size == F
    assert p.num_vertices == 20 + 10 * k
    assert face_histogram(p) == doc.expect["histogram"] == (
        {5: 12, 6: F - 12} if k else {5: 12})
    assert is_fullerene(p) and doc.expect["fullerene"]
    assert len(doc.expect["adjacent"]) == p.num_edges


@pytest.mark.parametrize("m", [4, 9, 60])
def test_stacked_dual_has_triangles(m):
    doc = gen.stacked_dual(m, random.Random(m), random.Random(-m))
    p = parse_polytope(doc.text)
    assert p.num_facets == m and p.num_vertices == 2 * m - 4
    assert face_histogram(p) == doc.expect["histogram"]
    assert 3 in doc.expect["histogram"]
    assert not is_fullerene(p) and not doc.expect["fullerene"]


@pytest.mark.parametrize("make", [
    lambda shape, look: gen.subdivided_cp3(30, shape, look),
    lambda shape, look: gen.nanotube(3, shape, look),
    lambda shape, look: gen.stacked_dual(30, shape, look),
])
def test_generators_are_deterministic_per_seed(make):
    def text(a, b):
        return make(random.Random(a), random.Random(b)).text
    assert text(1, 5) == text(1, 5)
    assert text(1, 5) != text(1, 6)


def test_presentation_keeps_the_combinatorics():
    a = parse_fan(gen.subdivided_cp3(20, random.Random(3), random.Random(1)).text)
    b = parse_fan(gen.subdivided_cp3(20, random.Random(3), random.Random(2)).text)
    assert a.rays != b.rays
    assert a.maximal_cones == b.maximal_cones
    assert [w.a for w in a.walls] == [w.a for w in b.walls]
    assert a.support == b.support


def test_rounds_repeat_shapes_but_no_fan_of_a_run_repeats():
    make = wl.ladder("lp", [r for r in wl.LIBRARY_RUNGS if r[0] == "cp3"])
    fans = [parse_fan(d.text) for seed in (1, 2) for r in range(6) for _, d in make(None, seed, r)]
    assert len({f.maximal_cones for f in fans}) == 3
    assert len({f.rays for f in fans[:18]}) == 18
    texts = [d.text for r in (0, 1) for _, d in wl.WORKLOADS["library-census"].make(None, 1, r)]
    assert len(set(texts)) == len(texts)


def test_nth_unimodular_draws_distinct_bases():
    bases = [gen.nth_unimodular(random.Random(7), n) for n in range(50)]
    assert len({tuple(map(tuple, b)) for b in bases}) == 50
    assert bases[0] == gen.random_unimodular(random.Random(7))
