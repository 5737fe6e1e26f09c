"""Acceptance gate: ten exact criteria, one test (one pass/fail line) each.

Run with ``pytest -v tests/test_acceptance.py`` — the verbose listing shows
one PASSED/FAILED line per criterion.  Every comparison is exact integer or
rational equality (tolerance zero); expected values are frozen literals or
recomputed by the independent oracles in ``oracles.py``, never read back
from the code under test.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from oracles import (
    apply_matrix,
    cone_member_bruteforce,
    polytope_volume_oracle,
    random_unimodular,
    wall_records_bruteforce,
    zero_in_convex_hull,
)
from toriclab.charfunc import CharacteristicFunction, CharacteristicPair, check_star_condition
from toriclab.cohomology import (
    chern_number_c1c2,
    linear_relation,
    signed_triple_intersection,
    volume_polynomial,
)
from toriclab.coloring import coloring_to_charfunc, four_color
from toriclab.cone import (
    delzant_obstruction_witness,
    extremal_walls,
    signed_wall_classes,
    strict_convexity_witness,
    wall_classes,
)
from toriclab.corpus import FAN_NAMES, load_fan, load_polytope
from toriclab.errors import NoWitness
from toriclab.fan import Fan3, characteristic_pair, gauss_bonnet_sum
from toriclab.polytope import dual_polytope, dual_sphere, face_histogram

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def all_fans():
    return [load_fan(name) for name in FAN_NAMES]


def test_criterion_01_gauss_bonnet_sum_is_24_on_every_fan():
    start = time.perf_counter()
    sums = {name: gauss_bonnet_sum(load_fan(name)) for name in FAN_NAMES}
    elapsed = time.perf_counter() - start
    assert sums == {name: 24 for name in FAN_NAMES}
    assert elapsed < 1.0
    print(f"criterion 01 PASS: curvature sum 24 on {len(sums)} fans "
          f"in {elapsed:.3f}s")


def test_criterion_02_chern_number_equals_curvature_sum():
    # the library reads each wall's curvature off its class, so its own
    # curvature sum equals the Chern number by construction; the oracle
    # reads the curvatures off the rays' determinants alone
    for f in all_fans():
        records = wall_records_bruteforce(f.rays, f.sphere.triangles)
        assert chern_number_c1c2(f) == sum(r[3] for r in records.values())
    print("criterion 02 PASS: the Chern number equals the oracle's curvature "
          "sum on every fan")


def test_criterion_03_distinct_triples_are_simplex_indicators():
    checked = 0
    for f in all_fans():
        faces = {tuple(sorted(t)) for t in f.sphere.triangles}
        pair = characteristic_pair(f)
        for triple in combinations(range(f.m), 3):
            value = signed_triple_intersection(pair, triple)
            assert value in (0, 1)
            assert value == (1 if triple in faces else 0)
            checked += 1
    print(f"criterion 03 PASS: {checked} distinct triples are 0/1 "
          "face indicators")


def test_criterion_04_linear_relations_annihilate_wall_classes():
    checked = 0
    for f in all_fans():
        for mu in (E1, E2, E3):
            coeffs = linear_relation(f, mu).coeffs
            for w in f.walls:
                total = sum(
                    coeffs[t] * signed_triple_intersection(characteristic_pair(f),
                                                           w.pair + (t,))
                    for t in range(f.m)
                )
                assert total == 0
                checked += 1
    print(f"criterion 04 PASS: {checked} relation pairings vanish exactly")


def test_criterion_05_coloring_to_characteristic_pair_pipeline():
    for name in ("tetrahedron", "cube", "pentagonal-prism", "dodecahedron"):
        sphere = dual_sphere(load_polytope(name))
        coloring = four_color(sphere)
        # a proper coloring: adjacent sphere vertices get distinct colors
        for i, j in sphere.walls:
            assert coloring.colors[i] != coloring.colors[j]
        assert len(set(coloring.colors)) <= 4
        lam = coloring_to_charfunc(coloring)
        verdict = check_star_condition(CharacteristicPair(sphere, lam))
        assert verdict.ok
        assert verdict.violations == ()
    print("criterion 05 PASS: four polytopes color and satisfy the basis "
          "condition with zero violations")


def test_criterion_06_obstruction_witness_on_every_fan():
    for f in all_fans():
        w = delzant_obstruction_witness(f)
        degree = len(f.sphere.neighbors(w.vertex))
        assert degree == w.dual_face_size
        a1, a2 = w.a
        assert a1 <= a2
        if a1 < 0:
            assert degree == 3
        else:
            assert a1 == 0
            assert degree == 4
        # the dual polytope really has a face with that many sides, and the
        # facet dual to the witness vertex is that face
        p = dual_polytope(f.sphere, f.name)
        assert len(p.facets[w.vertex]) == degree
        assert face_histogram(p).get(degree, 0) >= 1

    # fullerene verdict: quasitoric yes, projective-smooth-toric no
    p = load_polytope("dodecahedron")
    sphere = dual_sphere(p)
    lam = coloring_to_charfunc(four_color(sphere))
    assert check_star_condition(CharacteristicPair(sphere, lam)).ok  # YES
    assert min(face_histogram(p)) >= 5  # no 3- or 4-sided face exists: NO
    print("criterion 06 PASS: every fan yields a degree-3/4 witness matching "
          "the coefficient dichotomy; dodecahedron quasitoric YES, "
          "small-face obstruction says NO")


def test_criterion_07_volumes_match_convex_geometry_oracle():
    cube = load_fan("cube-fan")
    ones6 = (Fraction(1),) * 6
    lib_cube = volume_polynomial(cube)(ones6)
    assert lib_cube == Fraction(8)
    assert polytope_volume_oracle(cube.rays, ones6) == Fraction(8)

    cp3 = load_fan("cp3")
    ones4 = (Fraction(1),) * 4
    lib_cp3 = volume_polynomial(cp3)(ones4)
    assert lib_cp3 == Fraction(32, 3)
    assert polytope_volume_oracle(cp3.rays, ones4) == Fraction(32, 3)
    print("criterion 07 PASS: volumes 8 and 32/3 agree with the vertex-"
          "enumeration oracle exactly")


def test_criterion_08_effective_cone_matches_brute_force_oracle():
    cube = load_fan("cube-fan")
    analysis = extremal_walls(cube)
    assert len(analysis.classes) == 12
    assert len(analysis.groups) == 3
    assert len(analysis.extremal) == 3  # one representative per group
    reps = {g[0] for g in analysis.groups}
    assert set(analysis.extremal) == reps  # every group is extremal

    compared = 0
    for f in all_fans():
        a = extremal_walls(f)
        if len(a.groups) > 6:
            continue  # brute-force oracle budget: <= 6 group representatives
        by_wall = {c.wall: c for c in a.classes}
        for g in a.groups:
            rep = by_wall[g[0]]
            outside = [c.pairing for c in a.classes if c.wall not in g]
            bf_member = cone_member_bruteforce(rep.pairing, outside)
            lp_extremal = rep.wall in a.extremal
            assert lp_extremal == (not bf_member)
            compared += 1
    print(f"criterion 08 PASS: 12 classes / 3 groups / all extremal on the "
          f"box fan; {compared} group decisions match brute force")


def test_criterion_09_both_convexity_paths_and_signed_farkas():
    for f in all_fans():
        classes = wall_classes(f)
        by_support = strict_convexity_witness(classes, f.support)
        assert not isinstance(by_support, NoWitness)
        for c in classes:
            assert dot(by_support, c.pairing) > 0
        by_lp = strict_convexity_witness(classes)
        assert not isinstance(by_lp, NoWitness)
        for c in classes:
            assert dot(by_lp, c.pairing) > 0

    # signed pair on the box sphere whose classes may positively span
    # everything: the expected outcome is whatever the hull oracle says
    sphere = load_fan("cube-fan").sphere
    lam = CharacteristicFunction((E1, E1, E2, E2, E3, E3))
    classes = signed_wall_classes(CharacteristicPair(sphere, lam))
    pairings = [c.pairing for c in classes]
    oracle_says_infeasible = zero_in_convex_hull(pairings)
    outcome = strict_convexity_witness(classes)
    assert isinstance(outcome, NoWitness) == oracle_says_infeasible
    if isinstance(outcome, NoWitness):
        farkas = outcome.farkas
        assert all(q >= 0 for q in farkas)
        assert sum(farkas) == 1
        m = len(pairings[0])
        combo = tuple(
            sum(q * p[i] for q, p in zip(farkas, pairings)) for i in range(m)
        )
        assert combo == (0,) * m
    print("criterion 09 PASS: both witness paths positive on every fan; "
          f"signed-pair outcome matches the hull oracle "
          f"(zero in hull: {oracle_says_infeasible})")


def test_criterion_10_unimodular_transform_invariance():
    start = time.perf_counter()
    rng = random.Random(20260816)
    transforms = 0
    for name in FAN_NAMES:
        f = load_fan(name)
        base_curv = {w.pair: w.curvature for w in f.walls}
        base_extremal = extremal_walls(f).extremal
        keys = list(combinations_with_replacement(range(f.m), 3))
        base_table = {k: signed_triple_intersection(characteristic_pair(f), k)
                      for k in keys}
        for _ in range(20):
            u = random_unimodular(rng, bound=5,
                                  det_sign=rng.choice((1, -1)))
            g = Fan3.from_data(f.name, [apply_matrix(u, r) for r in f.rays],
                               f.maximal_cones, support=f.support)
            assert {w.pair: w.curvature for w in g.walls} == base_curv
            assert gauss_bonnet_sum(g) == 24
            assert {k: signed_triple_intersection(characteristic_pair(g), k)
                    for k in keys} == base_table
            assert extremal_walls(g).extremal == base_extremal
            transforms += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 10 PASS: {transforms} lattice transforms preserved "
          f"curvature, total 24, tables, extremal walls in {elapsed:.2f}s")
