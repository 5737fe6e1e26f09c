"""The intersection calculus on seeded star subdivisions of cp3.

Large fans are held to identities that must hold exactly: Gauss-Bonnet and
the Chern number, each wall class read off its wall relation, annihilation
of the wall classes by the linear relations, the Betti numbers, and the
closed-form volume of the cut simplex.  Small
fans are compared entry by entry with the oracles in ``oracles.py``, which
share no code with the library.  The exact-LP route of the cone analysis
runs on a support-free fan with m = 24 and its certificates are checked,
and the positive-functional LP at m = 74 is held to a pivot budget.
Polytopes of about 1100 facets are held to the f-vector, the Betti numbers,
a proper coloring with the star condition, and the double dual; the dual
spheres of about 1000 facets to the validated sphere of their triangles,
with faulty documents of that size refused as small ones are.
"""

from fractions import Fraction

import pytest

from toriclab.charfunc import CharacteristicPair, check_star_condition
from toriclab.cohomology import (
    WallClass,
    certify_support,
    chern_number_c1c2,
    volume_polynomial,
)
from toriclab.coloring import coloring_to_charfunc, four_color
from toriclab.combinatorics import SimplicialSphere2, betti_numbers
from toriclab.cone import (
    delzant_obstruction_witness,
    extremal_walls,
    signed_wall_classes,
    strict_convexity_witness,
    wall_classes,
)
from toriclab.errors import ValidationError
from toriclab.fan import Fan3, characteristic_pair, check_complete, gauss_bonnet_sum
from toriclab.polytope import SimplePolytope3, dual_polytope, dual_sphere

from oracles import (integral_table_oracle, polytope_volume_oracle,
                     volume_value_reference)
from subdivision import subdivided_cp3
from test_charfunc import nanotube_sphere


@pytest.fixture(scope="module", params=[20, 60, 200, 1004])
def subdivided(request):
    m = request.param
    f, volume = subdivided_cp3(m, seed=m)
    check_complete(f)
    return f, volume


def test_gauss_bonnet_and_chern_number_are_24(subdivided):
    f, _ = subdivided
    assert gauss_bonnet_sum(f) == 24
    assert chern_number_c1c2(f) == 24


def test_relations_annihilate_every_wall_class(subdivided):
    f, _ = subdivided
    for mu in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        coeffs = [sum(a * b for a, b in zip(mu, r)) for r in f.rays]
        for cls in wall_classes(f):
            assert sum(c * p for c, p in zip(coeffs, cls.pairing)) == 0, (mu, cls.wall)


def test_wall_classes_read_off_the_wall_relation(subdivided):
    # ray(i) + ray(i') = a1 ray(i1) + a2 ray(i2) is the wall class: 1 at
    # both apexes, -a1 at i1, -a2 at i2, and its entries sum to the
    # wall's curvature 2 - a1 - a2.
    f, _ = subdivided
    classes = wall_classes(f)
    assert [cls.wall for cls in classes] == [w.pair for w in f.walls]
    for w, cls in zip(f.walls, classes):
        (i1, i2), (i, ip), (a1, a2) = w.pair, w.apexes, w.a
        expected = [0] * f.m
        expected[i] = expected[ip] = 1
        expected[i1], expected[i2] = -a1, -a2
        assert list(cls.pairing) == expected, w.pair
        assert sum(cls.pairing) == w.curvature, w.pair


def test_the_calculus_makes_classes_its_reader_reads_back(subdivided):
    f, _ = subdivided
    for cls in wall_classes(f):
        assert WallClass(cls.wall, cls.entries, cls.m) == cls, cls


def test_signed_classes_equal_unsigned(subdivided):
    f, _ = subdivided
    assert signed_wall_classes(characteristic_pair(f)) == wall_classes(f)


def test_betti_numbers(subdivided):
    f, _ = subdivided
    assert betti_numbers(f.sphere) == (1, f.m - 3, f.m - 3, 1)


def test_volume_is_the_cut_simplex_and_cubic(subdivided):
    f, volume = subdivided
    v = volume_polynomial(f)
    certify_support(f, f.support)
    assert v(f.support) == volume
    for t in (2, 3):
        assert v([t * c for c in f.support]) == t ** 3 * volume


@pytest.mark.parametrize("m", [20, 60, 104])
def test_volume_values_match_the_fraction_sum(m):
    f, volume = subdivided_cp3(m, seed=m + 1)
    v = volume_polynomial(f)
    third = [x / 3 - Fraction(t % 5, 7) for t, x in enumerate(f.support)]
    for c in (f.support, [2 * x for x in f.support], third,
              [-x for x in f.support], [str(x) for x in third]):
        assert v(c) == volume_value_reference(v.coeffs, c)
    certify_support(f, f.support)
    assert v(f.support) == volume


def test_support_pipeline_builds_classes_and_sixths_once(monkeypatch):
    # work counters: the 3m - 6 wall classes are built once, on the pair,
    # by one run of the calculus, and V.coeffs makes one Fraction per
    # distinct coefficient at most
    import toriclab.cohomology as cohomology_module

    f, volume = subdivided_cp3(104, seed=104)
    built = []
    table = cohomology_module.integral_table
    monkeypatch.setattr(cohomology_module, "integral_table",
                        lambda pair: built.append(table(pair)) or built[-1])
    assert gauss_bonnet_sum(f) == chern_number_c1c2(f) == 24
    v = volume_polynomial(f)
    certify_support(f, f.support)
    assert v(f.support) == volume
    classes = wall_classes(f)
    assert signed_wall_classes(characteristic_pair(f)) is classes
    assert [made for _, made in built] == [classes]
    assert len({cls.wall for cls in classes}) == len(classes) == 3 * f.m - 6

    made = []

    def counting_fraction(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(cohomology_module, "Fraction", counting_fraction)
    coeffs = v.coeffs
    assert len(coeffs) == len(v.terms)
    assert len(made) <= len({c for _, c in coeffs}) < len(coeffs)


@pytest.mark.parametrize("m", [6, 9])
def test_small_fans_match_the_oracles(m):
    f, volume = subdivided_cp3(m, seed=m)
    oracle = integral_table_oracle(f.rays, f.maximal_cones)
    assert characteristic_pair(f).integrals == {ms: v for ms, v in oracle.items() if v}
    assert polytope_volume_oracle(f.rays, f.support) == volume


def test_cone_lps_at_m24_without_support(monkeypatch):
    import toriclab.cone as cone_module

    g = subdivided_cp3(24, seed=24)[0]
    f = Fan3.from_data(g.name, g.rays, g.maximal_cones)
    solve = cone_module._checked_sweep
    sweeps = []

    def recording(cols, rows=None):
        sweeps.append((cols, rows, list(solve(cols, rows=rows))))
        return sweeps[-1][2]

    monkeypatch.setattr(cone_module, "_checked_sweep", recording)
    an = extremal_walls(f)
    [(vectors, rows, answers)] = sweeps
    assert len(vectors) == len(answers) == len(an.groups)
    assert an.extremal
    # the cone hands over each group's representative whole, to be solved
    # on the rays outside the first cone (H2 coordinates), which determine
    # the whole vector
    kept = [t for t in range(f.m) if t not in f.maximal_cones[0]]
    assert rows == kept
    assert len({tuple(cls.pairing[t] for t in kept) for cls in an.classes}) == len(
        {cls.pairing for cls in an.classes})  # one whole vector each
    reps = [g[0] for g in an.groups]
    pairing = {cls.wall: cls.pairing for cls in an.classes}
    assert list(vectors) == [pairing[w] for w in reps]
    assert tuple(w for w, (x, _, _) in zip(reps, answers) if x is None) == an.extremal
    for i, (x, y, d) in enumerate(answers):
        # integer coefficients x or a separator y over d > 0, on every ray
        assert d > 0
        if x is not None:
            assert x[i] == 0
            assert all(c >= 0 for c in x)
            for k in range(f.m):
                assert sum(c * g[k] for c, g in zip(x, vectors)) == d * vectors[i][k]
        else:
            pairs = [sum(a * b for a, b in zip(y, g)) for g in vectors]
            assert pairs[i] > 0 and all(p <= 0 for j, p in enumerate(pairs) if j != i)

    w = delzant_obstruction_witness(f)
    assert w.dual_face_size in (3, 4)
    assert w.dual_face_size == f.sphere.vertex_degree(w.vertex)

    y = strict_convexity_witness(an.classes)
    assert all(sum(a * b for a, b in zip(y, cls.pairing)) >= 1 for cls in an.classes)


def test_positive_functional_pivots_at_m74_without_support(monkeypatch):
    # Gordan's form, e_{n+1} in the cone of the vectors (row, 1), has a
    # right-hand side that is zero but in one entry; a primal simplex under
    # Bland's rule stalls on it (896 pivots here), the dual sweep takes 128
    import toriclab.exactlp as exactlp

    g = subdivided_cp3(74, seed=74)[0]
    classes = wall_classes(Fan3.from_data(g.name, g.rays, g.maximal_cones))
    pivot, pivots = exactlp._pivot, []

    def counting(*args):
        pivots.append(args[2])
        return pivot(*args)

    monkeypatch.setattr(exactlp, "_pivot", counting)
    y = strict_convexity_witness(classes)
    assert all(sum(a * b for a, b in zip(y, cls.pairing)) >= 1 for cls in classes)
    assert len(pivots) <= 200


@pytest.mark.parametrize("family", ["nanotube", "stacked"])
def test_polytope_invariants_at_scale(family):
    # the (5,0) nanotube C_2200 (1102 facets), or the dual of a stacked
    # sphere on 1100 vertices
    t = nanotube_sphere(218) if family == "nanotube" else subdivided_cp3(1100, seed=4)[0].sphere
    p = dual_polytope(t, family)
    s = dual_sphere(p)
    F = p.num_facets
    assert F == t.m and (len(s.walls), len(s.triangles)) == (3 * F - 6, 2 * F - 4)
    assert betti_numbers(s) == (1, F - 3, F - 3, 1)
    coloring = four_color(s)
    assert all(coloring.colors[u] != coloring.colors[v] for u, v in s.walls)
    assert check_star_condition(CharacteristicPair(s, coloring_to_charfunc(coloring))).ok
    # the double dual is p with vertex x renamed to the triangle of its
    # three facets; facets keep their numbers and their direction
    triangle = {tri: k for k, tri in enumerate(s.triangles)}
    facets_of = {}
    for i, f in enumerate(p.facets):
        for x in f:
            facets_of.setdefault(x, []).append(i)
    name = {x: triangle[tuple(fs)] for x, fs in facets_of.items()}
    back = dual_polytope(s, family)
    assert back.facets == tuple(_canon(tuple(name[x] for x in f)) for f in p.facets)


def _canon(cycle):
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def _two_shared_edges(p):
    """p's facet cycles with facets 0 and b, sharing the edge x -> y that
    opens facet 0, made to share two: that edge becomes x - p1 and p4 - y,
    with new vertices p1..p4 between them and two new triangular facets."""
    x, y = p.facets[0][:2]
    b = next(i for i, f in enumerate(p.facets) if i and x in f and y in f)
    p1, p2, p3, p4 = range(p.num_vertices, p.num_vertices + 4)
    cycles = [list(f) for f in p.facets]
    cycles[0][1:1] = [p1, p2, p4]  # x, p1, p2, p4, y
    f = cycles[b]
    k = f.index(y)  # f runs y -> x
    f[k + 1:k + 1] = [p4, p3, p1]
    return [tuple(f) for f in cycles] + [(p1, p3, p2), (p2, p3, p4)], b


@pytest.mark.parametrize("family", ["nanotube", "stacked"])
@pytest.mark.parametrize("turned", [False, True])
def test_dual_sphere_reads_the_kept_lists_at_scale(family, turned):
    # the (5,0) nanotube C_2000 (1002 facets), or the dual of a stacked
    # sphere on 1000 vertices; turned, every other facet is reversed and
    # each rotated, so from_facets orients them
    from test_combinatorics import TestOrientationShortcut, flipped_and_rotated

    t = nanotube_sphere(198) if family == "nanotube" else subdivided_cp3(1000, seed=4)[0].sphere
    p = dual_polytope(t, family)
    cycles = flipped_and_rotated(p) if turned else list(p.facets)
    q = SimplePolytope3.from_facets(family, cycles)
    assert q == p
    s = dual_sphere(q)
    u = SimplicialSphere2.from_triangles(s.m, s.triangles, oriented=s.oriented)
    assert (s.triangles, s.walls) == (u.triangles, u.walls)
    assert [_canon(tuple(r)) for r in s._neighbours] == [_canon(tuple(r)) for r in u._neighbours]
    # the same cycles refused, with the messages of small documents
    shared, b = _two_shared_edges(p)
    torus = TestOrientationShortcut.oriented_dual_cycles(TestOrientationShortcut.TORUS)
    apart = list(p.facets) + [tuple(v + p.num_vertices for v in f) for f in torus]
    if turned:
        shared, apart = (flipped_and_rotated(SimplePolytope3(family, tuple(c)))
                         for c in (shared, apart))
    with pytest.raises(ValidationError, match=f"^facets 0 and {b} share 2 edges$"):
        SimplePolytope3.from_facets(family, shared)
    with pytest.raises(ValidationError, match="^facet adjacency graph is disconnected$"):
        SimplePolytope3.from_facets(family, apart)
