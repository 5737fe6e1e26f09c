"""Tests for the polytope/sphere combinatorics layer.

Oracle notes: counts for the classical solids (tetrahedron 4/6/4, cube
8/12/6, dodecahedron 20/30/12, pentagonal prism 10/15/7) are textbook
values.  Structural identities (Euler relation, sum over facets of
(6-k)*p_k = 12, double-dual isomorphism) are asserted as exact invariants.
"""

import random
import re
from collections import defaultdict

import pytest

import toriclab.combinatorics as combinatorics_module
import toriclab.polytope as polytope_module
from toriclab.charfunc import CharacteristicFunction, CharacteristicPair, check_star_condition
from toriclab.coloring import coloring_to_charfunc, four_color
from toriclab.combinatorics import SimplicialSphere2, betti_numbers, _half_edges, _orient
from toriclab.polytope import (
    SimplePolytope3,
    _connected,
    dual_polytope,
    dual_sphere,
    face_histogram,
    is_fullerene,
    parse_polytope,
    serialize_polytope,
)
from toriclab.cone import delzant_obstruction_witness
from toriclab.corpus import POLYTOPE_NAMES, corpus_get, load_polytope
from toriclab.errors import ParseError, ValidationError
from toriclab.fan import characteristic_pair, parse_fan

from fullerenes import ICOSAHEDRON, check_fullerene_dual, goldberg_coxeter, leapfrog
from oracles import is_oriented_2_sphere
from subdivision import subdivided_cp3

TET_FACETS = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]
CUBE_FACETS = [
    (0, 1, 2, 3),
    (4, 7, 6, 5),
    (0, 4, 5, 1),
    (1, 5, 6, 2),
    (2, 6, 7, 3),
    (3, 7, 4, 0),
]
PRISM5_FACETS = [
    (0, 1, 2, 3, 4),
    (5, 9, 8, 7, 6),
    (0, 5, 6, 1),
    (1, 6, 7, 2),
    (2, 7, 8, 3),
    (3, 8, 9, 4),
    (4, 9, 5, 0),
]
# one vertex of the tetrahedron cut off: 2 triangles, 3 quadrilaterals
TRUNC_TET_FACETS = [
    (3, 0, 2, 5),
    (4, 1, 0, 3),
    (5, 2, 1, 4),
    (0, 2, 1),
    (3, 4, 5),
]

# icosahedron: top cap around 0, bottom cap around 11, antiprism band
ICOSA_TRIANGLES = (
    [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1)]
    + [(1, 2, 6), (2, 3, 7), (3, 4, 8), (4, 5, 9), (5, 1, 10)]
    + [(6, 7, 2), (7, 8, 3), (8, 9, 4), (9, 10, 5), (10, 6, 1)]
    + [(11, 7, 6), (11, 8, 7), (11, 9, 8), (11, 10, 9), (11, 6, 10)]
)


def tet():
    return SimplePolytope3.from_facets("tetrahedron", TET_FACETS)


def cube():
    return SimplePolytope3.from_facets("cube", CUBE_FACETS)


def dodecahedron():
    icosa = SimplicialSphere2.from_triangles(12, ICOSA_TRIANGLES)
    return dual_polytope(icosa, "dodecahedron")


class TestCounts:
    def test_tetrahedron(self):
        p = tet()
        assert (p.num_vertices, p.num_edges, p.num_facets) == (4, 6, 4)

    def test_cube(self):
        p = cube()
        assert (p.num_vertices, p.num_edges, p.num_facets) == (8, 12, 6)

    def test_pentagonal_prism(self):
        p = SimplePolytope3.from_facets("pentagonal-prism", PRISM5_FACETS)
        assert (p.num_vertices, p.num_edges, p.num_facets) == (10, 15, 7)

    def test_dodecahedron(self):
        p = dodecahedron()
        assert (p.num_vertices, p.num_edges, p.num_facets) == (20, 30, 12)

    def test_truncated_tetrahedron_vertex(self):
        p = SimplePolytope3.from_facets("trunc", TRUNC_TET_FACETS)
        assert (p.num_vertices, p.num_edges, p.num_facets) == (6, 9, 5)


class TestHistogram:
    def test_cube_histogram(self):
        assert face_histogram(cube()) == {4: 6}

    def test_dodecahedron_histogram(self):
        assert face_histogram(dodecahedron()) == {5: 12}

    def test_truncated_histogram(self):
        p = SimplePolytope3.from_facets("trunc", TRUNC_TET_FACETS)
        assert face_histogram(p) == {3: 2, 4: 3}

    @pytest.mark.parametrize("facets", [TET_FACETS, CUBE_FACETS, PRISM5_FACETS,
                                        TRUNC_TET_FACETS])
    def test_twelve_identity(self, facets):
        # simple 3-polytopes satisfy sum_k (6 - k) p_k = 12 exactly
        p = SimplePolytope3.from_facets("x", facets)
        assert sum((6 - k) * n for k, n in face_histogram(p).items()) == 12

    def test_fullerene_verdicts(self):
        assert is_fullerene(dodecahedron())
        assert not is_fullerene(cube())
        assert not is_fullerene(tet())


class TestFullereneFamilies:
    """The library-free constructions of ``tests/fullerenes.py``, checked by
    counting there and by the library here."""

    @pytest.mark.parametrize("k, l", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 1), (3, 3),
                                      (4, 1), (5, 2)])
    def test_goldberg_coxeter_of_the_icosahedron(self, k, l):
        m, tris = goldberg_coxeter(k, l)
        assert m == 10 * (k * k + k * l + l * l) + 2
        check_fullerene_dual(m, tris)
        p = dual_polytope(SimplicialSphere2.from_triangles(m, tris), f"GC({k},{l})")
        assert p.num_vertices == 20 * (k * k + k * l + l * l)
        assert is_fullerene(p)
        assert face_histogram(p) == {k: n for k, n in ((5, 12), (6, m - 12)) if n}

    def test_leapfrogs_from_the_dodecahedron(self):
        # dual sizes of C20, C60, C180, C540, C1620: each leapfrog triples
        sizes, (m, tris) = [], (12, ICOSAHEDRON)
        for _ in range(4):
            m, tris = leapfrog(m, tris)
            check_fullerene_dual(m, tris)
            sizes.append(m)
        assert sizes == [32, 92, 272, 812]
        assert is_fullerene(dual_polytope(SimplicialSphere2.from_triangles(m, tris), "C1620"))


class TestDualSphere:
    def test_tetrahedron_is_self_dual(self):
        s = dual_sphere(tet())
        assert s.m == 4
        assert s.triangles == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

    def test_cube_dual_is_octahedron(self):
        s = dual_sphere(cube())
        assert s.m == 6
        assert len(s.triangles) == 8
        assert all(s.vertex_degree(v) == 4 for v in range(6))
        for v in (-1, 6, 99, True, 1.0):
            for lookup in (s.vertex_degree, s.neighbors):
                with pytest.raises(ValidationError,
                                   match=rf"^{v!r} is not a vertex of this sphere \(0..5\)$"):
                    lookup(v)

    def test_dodecahedron_dual_is_icosahedron(self):
        s = dual_sphere(dodecahedron())
        assert s.m == 12
        assert len(s.triangles) == 20
        assert all(s.vertex_degree(v) == 5 for v in range(12))

    def test_orientation_covers_each_wall_twice(self):
        s = dual_sphere(dodecahedron())
        directed = set()
        for a, b, c in s.oriented:
            for e in ((a, b), (b, c), (c, a)):
                assert e not in directed
                directed.add(e)
        for u, v in directed:
            assert (v, u) in directed

    def test_orientation_sign(self):
        s = dual_sphere(tet())
        rep = s.oriented[0]
        assert s.orientation_sign(*rep) == 1
        assert s.orientation_sign(rep[1], rep[0], rep[2]) == -1
        assert s.orientation_sign(rep[1], rep[2], rep[0]) == 1

    def test_orientation_sign_on_every_triangle(self):
        s = dual_sphere(dodecahedron())
        for t, rep in zip(s.triangles, s.oriented):
            a, b, c = rep
            assert s.orientation_sign(a, b, c) == s.orientation_sign(b, c, a) == 1
            assert s.orientation_sign(b, a, c) == s.orientation_sign(a, c, b) == -1
        with pytest.raises(ValidationError, match="not a triangle"):
            s.orientation_sign(0, 1, 11)

    def test_orientation_sign_rejects_keys_beyond_the_triangles(self):
        # the two ends of the bisection: below the first triangle and
        # above the last one
        s = dual_sphere(dodecahedron())
        for key in ((-1, 0, 1), (1, 0, -1), (11, 12, 13), (13, 11, 12)):
            assert not s.triangles[0] <= tuple(sorted(key)) <= s.triangles[-1]
            with pytest.raises(ValidationError, match="not a triangle"):
                s.orientation_sign(*key)

    def test_wall_apexes(self):
        s = dual_sphere(tet())
        assert sorted(s.wall_apexes((0, 1))) == [2, 3]
        # the cube's facets 0 and 1 are opposite
        with pytest.raises(ValidationError, match=r"^\(0, 1\) is not a wall of this sphere$"):
            dual_sphere(cube()).wall_apexes((1, 0))
        for wall in ((-1, 0), (3, 99), (0, 1, 2), (0,)):
            with pytest.raises(ValidationError,
                               match=rf"^{re.escape(str(wall))} is not a wall of this sphere$"):
                s.wall_apexes(wall)
        for wall in ((0.0, 1), (True, 2), (0, 1.0)):
            with pytest.raises(ValidationError,
                               match=rf"^indices {re.escape(repr(wall))} are not all integers$"):
                s.wall_apexes(wall)

    def test_double_dual_recovers_polytope(self):
        polytopes = [SimplePolytope3.from_facets("x", facets) for facets in
                     (TET_FACETS, CUBE_FACETS, PRISM5_FACETS, TRUNC_TET_FACETS)]
        # a stacked sphere on 1000 vertices, dualised once to get a polytope
        stacked = subdivided_cp3(1000, seed=3)[0].sphere
        polytopes.append(dual_polytope(stacked, "x"))
        for p in polytopes:
            s = dual_sphere(p)
            # each vertex's facets, ascending, in one pass over the facets
            facets_of = defaultdict(list)
            for i, f in enumerate(p.facets):
                for v in f:
                    facets_of[v].append(i)
            position = {t: k for k, t in enumerate(s.triangles)}
            tri_of_vertex = {v: position[tuple(fs)] for v, fs in facets_of.items()}
            assert len(tri_of_vertex) == p.num_vertices
            back = dual_polytope(s, "x")

            def canon(c):
                best = None
                for d in (tuple(c), tuple(reversed(c))):
                    for r in range(len(d)):
                        cand = d[r:] + d[:r]
                        if best is None or cand < best:
                            best = cand
                return best

            orig = {canon(tuple(tri_of_vertex[v] for v in f)) for f in p.facets}
            assert orig == {canon(f) for f in back.facets}


def test_incidence_is_built_once_per_polytope(monkeypatch):
    text = serialize_polytope(dodecahedron())
    calls = []
    half_edges = combinatorics_module._half_edges

    def counting(cycles, *args):
        calls.append(len(cycles))
        return half_edges(cycles, *args)

    monkeypatch.setattr(polytope_module, "_half_edges", counting)
    p = parse_polytope(text)
    dual_sphere(p)
    assert (p.num_edges, len(p.edges)) == (30, 30)
    assert calls == [12]


def counting_half_edges(monkeypatch):
    """The vertex count n of every ``_half_edges`` call, as it is made."""
    calls = []
    half_edges = combinatorics_module._half_edges

    def counting(cycles, flat, n, fault):
        calls.append(n)
        return half_edges(cycles, flat, n, fault)

    for module in (combinatorics_module, polytope_module):
        monkeypatch.setattr(module, "_half_edges", counting)
    return calls


def test_wall_index_is_built_once_per_sphere(monkeypatch):
    # a fan's sphere keeps the index of its validation, and its oriented
    # pair shares it; a dual sphere keeps the neighbour lists read off the
    # polytope's index and builds its own index once, when a query first
    # needs it
    calls = counting_half_edges(monkeypatch)
    p = dodecahedron()
    calls.clear()
    f = parse_fan(corpus_get("flatwall").text)
    f.wall_table
    characteristic_pair(f).integrals
    delzant_obstruction_witness(f)
    assert calls == [7]

    calls.clear()
    s = dual_sphere(p)
    [(s.neighbors(v), s.vertex_degree(v)) for v in range(s.m)]
    four_color(s)
    assert calls == []
    [s.wall_apexes(w) for w in s.walls]
    assert calls == [12]
    dual_polytope(s, "x")
    assert calls == [12, 20]  # the second is the dual polytope's own index


def test_dual_sphere_index_is_built_without_validation(monkeypatch):
    # dual_sphere proved its sphere, so the first query only builds the
    # index; a constructor-made copy of it is validated by from_triangles
    s = dual_sphere(dodecahedron())
    copy = SimplicialSphere2(s.m, s.triangles, s.oriented, s.walls)
    apexes = dual_sphere(dodecahedron()).wall_apexes(s.walls[0])

    def validating(*args):
        raise AssertionError("validated")

    monkeypatch.setattr(SimplicialSphere2, "from_triangles", validating)
    assert s.wall_apexes(s.walls[0]) == apexes
    with pytest.raises(AssertionError, match="^validated$"):
        copy.wall_apexes(s.walls[0])


def test_polytope_path_builds_no_apex_map(monkeypatch):
    # parse -> dual -> 4-coloring -> star check -> Betti numbers reads the
    # neighbour lists alone; the first wall_apexes builds the sphere's
    # index once
    calls = counting_half_edges(monkeypatch)
    for name in POLYTOPE_NAMES:
        p = parse_polytope(serialize_polytope(load_polytope(name)))
        calls.clear()
        s = dual_sphere(p)
        lam = coloring_to_charfunc(four_color(s))
        assert check_star_condition(CharacteristicPair(s, lam)).ok
        assert betti_numbers(s) == (1, s.m - 3, s.m - 3, 1)
        assert calls == []
        for w in s.walls:
            s.wall_apexes(w)
        assert calls == [s.m]
        calls.clear()


def test_the_polytope_path_builds_one_index(monkeypatch):
    # parse -> dual -> 4-coloring -> characteristic function -> star check
    # builds the polytope's index alone: the dual holds the polytope's own
    # neighbour lists, and its walls are the kept facet-pair codes
    calls = counting_half_edges(monkeypatch)
    for name in POLYTOPE_NAMES:
        calls.clear()
        p = parse_polytope(corpus_get(name).text)
        s = dual_sphere(p)
        lam = coloring_to_charfunc(four_color(s))
        assert check_star_condition(CharacteristicPair(s, lam)).ok
        assert calls == [p.num_vertices]
        assert s._neighbours is p._neighbours
        assert s.walls == tuple(divmod(code, s.m) for code in p._pairs)


def test_a_constructed_polytope_dualises_to_the_same_lists():
    # a constructor-made polytope builds its index, neighbour lists and
    # facet-pair codes on first use.  Written consistently, each cycle at
    # its least vertex, the parsed polytope's index runs as its stored
    # cycles, so the neighbour lists are equal; with facets turned and
    # rotated, they are equal up to where each ring starts
    def rings(s):
        return [r[r.index(min(r)):] + r[:r.index(min(r))] for r in s._neighbours]

    stacked = dual_polytope(subdivided_cp3(60, seed=1)[0].sphere, "stacked")
    for p in [load_polytope(name) for name in POLYTOPE_NAMES] + [stacked]:
        for text, exact in ((serialize_polytope(p), True),
                            (serialize_polytope(SimplePolytope3(p.name, tuple(
                                flipped_and_rotated(p)))), False)):
            parsed = parse_polytope(text)
            q = SimplePolytope3(parsed.name, parsed.facets)
            assert not {"_index", "_neighbours", "_pairs"} & set(vars(q))
            s, t = dual_sphere(parsed), dual_sphere(q)
            assert (t.m, t.triangles, t.oriented, t.walls) == (s.m, s.triangles, s.oriented,
                                                               s.walls)
            assert q._pairs == parsed._pairs
            assert (t._neighbours == s._neighbours) if exact else rings(t) == rings(s)


def test_a_constructed_polytope_keeps_its_validated_lists(monkeypatch):
    # the constructor-made polytope is validated when its index is first
    # built; the facet-pair codes and neighbour lists read then are kept,
    # so its dual reads the codes once, as a parsed polytope's does
    parsed = parse_polytope(corpus_get("dodecahedron").text)
    calls = []
    facet_pairs = polytope_module._facet_pairs
    monkeypatch.setattr(polytope_module, "_facet_pairs",
                        lambda *args: calls.append(args[1]) or facet_pairs(*args))
    p = SimplePolytope3(parsed.name, parsed.facets)
    assert dual_sphere(p) == dual_sphere(parsed)
    assert calls == [12]
    assert p._neighbours == parsed._neighbours and p._pairs == parsed._pairs


def sphere_answers(s):
    return (s.walls,
            [s.wall_apexes(w) for w in s.walls],
            [s.wall_apexes(w[::-1]) for w in s.walls],
            [(s.neighbors(v), s.vertex_degree(v)) for v in range(s.m)],
            [(s.orientation_sign(a, b, c), s.orientation_sign(b, a, c))
             for a, b, c in s.oriented],
            four_color(s),
            dual_polytope(s, "x").facets)


def test_constructed_spheres_answer_the_same():
    stacked = subdivided_cp3(60, seed=1)[0].sphere
    icosa = SimplicialSphere2.from_triangles(12, ICOSA_TRIANGLES)
    for s, kept in ((icosa, {"_neighbours", "_index"}), (dual_sphere(cube()), {"_neighbours"}),
                    (stacked, {"_neighbours", "_index"})):
        assert kept == {"_neighbours", "_index"} & set(vars(s))
        for t in (SimplicialSphere2(s.m, s.triangles, s.oriented, s.walls),
                  SimplicialSphere2(m=s.m, triangles=s.triangles, oriented=s.oriented,
                                    walls=s.walls)):
            assert not {"_neighbours", "_index"} & set(vars(t))
            assert t == s and hash(t) == hash(s)
            assert sphere_answers(t) == sphere_answers(s)
            assert t == s and hash(t) == hash(s)


def test_constructed_spheres_are_validated_on_first_use():
    # the octahedron with one representative reversed: its wall classes
    # summed to 18, where the sphere's sum to 24; both readers of its index
    # now refuse it as from_triangles does
    s = SimplicialSphere2.from_triangles(6, TestValidation.OCTA)
    lam = CharacteristicFunction(((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0),
                                  (0, 0, -1)))
    classes = CharacteristicPair(s, lam).wall_classes
    assert sum(x for cls in classes for _, x in cls.entries) == 24
    reps = (s.oriented[0][::-1],) + s.oriented[1:]
    message = r"^orientation traverses edge \(2, 0\) twice$"
    with pytest.raises(ValidationError, match=message):
        SimplicialSphere2.from_triangles(6, s.triangles, reps)
    bad = SimplicialSphere2(s.m, s.triangles, reps, s.walls)
    with pytest.raises(ValidationError, match=message):
        CharacteristicPair(bad, lam).wall_classes
    with pytest.raises(ValidationError, match=message):
        dual_polytope(bad, "x")
    # walls that are not the triangles' own
    with pytest.raises(ValidationError, match="^sphere fields do not match its triangles$"):
        SimplicialSphere2(s.m, s.triangles, s.oriented, s.walls[1:]).wall_apexes(s.walls[-1])


# The cube without its last facet (3, 7, 4, 0), completed three ways and
# built with the constructor, which checks nothing; reversed, the facet is
# no fault, and the dual is the one from_facets gives
@pytest.mark.parametrize("last, message", [
    ([(0, 4, 7, 3)], None),
    ([(0, 4, 3, 7)], r"edge \(0, 3\) lies in 1 facets"),
    ([], "vertex 0 lies in 2 facets"),
])
def test_constructed_faults_are_named(last, message):
    cycles = tuple(CUBE_FACETS[:5]) + tuple(last)
    p = SimplePolytope3("x", cycles)
    if message is None:
        assert dual_sphere(p) == dual_sphere(SimplePolytope3.from_facets("x", cycles))
    else:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            dual_sphere(p)


def test_non_simple_vertices_are_named_smallest_first():
    # facet 0 starts at vertex 3 and facet 5 is reversed: every vertex is
    # simple, and the constructor-made polytope dualises as from_facets does
    cycles = ((3, 0, 1, 2),) + tuple(CUBE_FACETS[1:5]) + ((0, 4, 7, 3),)
    p = SimplePolytope3("x", cycles)
    assert dual_sphere(p) == dual_sphere(SimplePolytope3.from_facets("x", cycles))


def counted_from_scratch(facets):
    """(edges, number of edges, number of vertices) of facet cycles, read
    off the cycles alone."""
    edges = {tuple(sorted(e)) for f in facets for e in zip(f, f[1:] + f[:1])}
    return tuple(sorted(edges)), len(edges), len({v for f in facets for v in f})


def flipped_and_rotated(p):
    """The facet cycles of p with every other facet reversed, starting at
    facet 1, and facet i rotated by i places."""
    out = []
    for i, f in enumerate(p.facets):
        f = f[::-1] if i % 2 else f
        k = i % len(f)
        out.append(f[k:] + f[:k])
    return out


def relabelled_polytope(p, seed):
    """p with its facets shuffled, its vertices renumbered and each facet
    reversed with probability 1/2."""
    rng = random.Random(seed)
    perm = list(range(p.num_vertices))
    rng.shuffle(perm)
    facets = [tuple(perm[v] for v in (f[::-1] if rng.random() < 0.5 else f)) for f in p.facets]
    rng.shuffle(facets)
    return SimplePolytope3.from_facets(p.name, facets)


@pytest.mark.parametrize("family", ["corpus", "stacked-60", "stacked-300",
                                    "stacked-1000", "nanotubes", "flipped", "relabelled"])
def test_dual_path_agrees_with_propagation(family):
    from test_charfunc import nanotube_sphere, relabelled  # it imports this module

    if family == "relabelled":
        # corpus, nanotube and stacked duals with facets and vertices
        # renumbered and facets flipped (the new facet 0 too, in some copies)
        originals = [load_polytope(name) for name in POLYTOPE_NAMES]
        originals += [dual_polytope(t, "x") for t in (nanotube_sphere(3),
                                                      subdivided_cp3(100, seed=4)[0].sphere)]
        polytopes = [relabelled_polytope(p, seed) for p in originals for seed in range(4)]
    elif family == "corpus":
        polytopes = [load_polytope(name) for name in POLYTOPE_NAMES]
    elif family == "nanotubes":
        spheres = [nanotube_sphere(k) for k in (0, 4, 25)]
        spheres += [relabelled(nanotube_sphere(10), seed) for seed in range(3)]
        polytopes = [dual_polytope(t, "x") for t in spheres]
    elif family == "flipped":
        # a 137-facet nanotube and a 1000-facet stacked dual, with half of
        # their facets reversed: from_facets flips them back
        polytopes = []
        for t in (nanotube_sphere(25), subdivided_cp3(1000, seed=2)[0].sphere):
            p = dual_polytope(t, "x")
            q = SimplePolytope3.from_facets("x", flipped_and_rotated(p))
            assert q == p and dual_sphere(q) == dual_sphere(p)
            polytopes.append(q)
    else:
        m = int(family.split("-")[1])
        polytopes = [dual_polytope(subdivided_cp3(m, seed=0)[0].sphere, "x")]
    for p in polytopes:
        assert (p.edges, p.num_edges, p.num_vertices) == counted_from_scratch(p.facets)
        s = dual_sphere(p)
        t = SimplicialSphere2.from_triangles(s.m, s.triangles)  # oriented by propagation
        assert (s.triangles, s.walls) == (t.triangles, t.walls)
        # one orientation up to a global sign, and the same answers read
        # from either path's index
        assert len({t.orientation_sign(*o) for o in s.oriented}) == 1
        assert sphere_answers(s) == sphere_answers(
            SimplicialSphere2.from_triangles(t.m, t.triangles, s.oriented))
        # the ordered scan, given the dual's triangles in any order and its
        # orientation, makes the same sphere, answering the same
        u = SimplicialSphere2.from_triangles(p.num_facets, s.triangles, oriented=s.oriented)
        assert u == s and sphere_answers(u) == sphere_answers(s)
        assert u._index == s._index  # the dual's was built unvalidated
        assert SimplicialSphere2.from_triangles(s.m, s.triangles[::-1], s.oriented) == s


def mutations(s, rng):
    """Faults put into the oriented triangles of s, each as (kind, m,
    reps, unoriented): one representative reversed, one triangle dropped,
    one vertex of one triangle relabelled, one vertex more that no
    triangle uses, the 7-vertex torus summed in at one triangle with two
    unused vertices (Euler characteristic 2, every used vertex's link a
    cycle), and a relabelled copy glued on at one vertex or at two.
    ``unoriented`` is the same triangles with every other orientation left
    alone: what the propagation path judges."""
    reps = list(s.oriented)
    k = rng.randrange(len(reps))
    a, b, c = reps[k]
    relabelled = (rng.choice([v for v in range(s.m) if v != a]), b, c)
    out = [("reverse", s.m, reps[:k] + [(a, c, b)] + reps[k + 1:], reps),
           ("drop", s.m, reps[:k] + reps[k + 1:], None),
           ("relabel", s.m, reps[:k] + [relabelled] + reps[k + 1:], None),
           ("unused", s.m + 1, reps, None)]
    # torus triangle (0, 1, 3) meets triangle k, 0 -> a, 3 -> b, 1 -> c, so
    # the torus runs the three walls left open the other way
    label = {0: a, 3: b, 1: c, 2: s.m, 4: s.m + 1, 5: s.m + 2, 6: s.m + 3}
    torus = [tuple(map(label.get, t)) for t in TestValidation.TORUS[1:]]
    out.append(("torus, 2 unused", s.m + 6, reps[:k] + reps[k + 1:] + torus, None))
    for glued in (1, 2):
        label = dict(zip(rng.sample(range(s.m), glued), rng.sample(range(s.m), glued)))
        fresh = iter(range(s.m, 2 * s.m - glued))
        for v in range(s.m):
            if v not in label:
                label[v] = next(fresh)
        copy = [tuple(label[v] for v in t) for t in reps]
        out.append((f"glued at {glued}", 2 * s.m - glued, reps + copy, None))
    return [(kind, m, bad, bad if same is None else same) for kind, m, bad, same in out]


def accepts(m, tris, oriented=None) -> bool:
    """from_triangles's verdict; an accepted sphere must satisfy the oracle."""
    try:
        s = SimplicialSphere2.from_triangles(m, tris, oriented)
    except ValidationError:
        return False
    assert is_oriented_2_sphere(s.m, s.oriented)
    return True


@pytest.mark.parametrize("family", ["corpus", "stacked", "nanotubes"])
def test_verdicts_agree_with_the_oracle(family):
    from test_charfunc import nanotube_sphere  # it imports this module

    if family == "corpus":
        spheres = [dual_sphere(load_polytope(name)) for name in POLYTOPE_NAMES]
    elif family == "stacked":
        spheres = [subdivided_cp3(m, seed=m)[0].sphere for m in (8, 30, 100, 300)]
    else:
        spheres = [nanotube_sphere(k) for k in (0, 3, 10)]
    rng = random.Random(family)
    for s in spheres:
        faults = mutations(s, rng)
        for kind, m, reps, unoriented in [("none", s.m, s.oriented, s.oriented)] + faults:
            verdict = is_oriented_2_sphere(m, reps)
            assert verdict == (kind == "none")
            assert accepts(m, reps, reps) == verdict, kind
            assert accepts(m, reps) == is_oriented_2_sphere(m, unoriented), kind


def test_constructed_polytopes_dualise_the_same():
    # a flipped facet, so the kept successor maps of from_facets differ
    # from the given cycles
    flipped = [f[::-1] if i == 3 else f for i, f in enumerate(CUBE_FACETS)]
    stacked = subdivided_cp3(60, seed=1)[0].sphere
    for p in (SimplePolytope3.from_facets("cube", flipped),
              dual_polytope(stacked, "stacked")):
        for q in (SimplePolytope3(p.name, p.facets), SimplePolytope3(name="q", facets=p.facets)):
            assert "_index" not in vars(q)
            assert dual_sphere(q) == dual_sphere(p)
            assert (q.edges, q.num_edges) == (p.edges, p.num_edges)


class TestValidation:
    def test_no_facets(self):
        with pytest.raises(ValidationError, match="^polytope has no facets$"):
            SimplePolytope3.from_facets("x", [])

    def test_vertex_in_wrong_number_of_facets(self):
        bad = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2), (0, 1, 3)]
        with pytest.raises(ValidationError, match="vertex 0 lies in 4 facets"):
            SimplePolytope3.from_facets("bad", bad)

    def test_short_cycle(self):
        with pytest.raises(ValidationError, match="cycle length 2"):
            SimplePolytope3.from_facets("bad", [(0, 1), (0, 1, 2), (0, 2, 1)])

    def test_repeated_vertex_in_cycle(self):
        with pytest.raises(ValidationError, match="repeats a vertex"):
            SimplePolytope3.from_facets("bad", [(0, 1, 2, 1), (0, 2, 1), (0, 1, 2)])

    @pytest.mark.parametrize("last, message", [
        ((1, 3, 2.9), r"facet 3 = \(1, 3, 2.9\)"),  # int() would read (1, 3, 2)
        ((1, 3, "2"), r"facet 3 = \(1, 3, '2'\)"),
        ((1, 3, 2.0), r"facet 3 = \(1, 3, 2.0\)"),
        ((True, 3, 2), r"facet 3 = \(True, 3, 2\)"),  # True == 1, serialized as "True"
        ((1, 3, [2]), r"facet 3 = \(1, 3, \[2\]\)"),  # no set() takes it
    ])
    def test_non_integer_vertex_id(self, last, message):
        with pytest.raises(ValidationError, match=f"^{message} has a non-integer vertex id$"):
            SimplePolytope3.from_facets("bad", TET_FACETS[:3] + [last])
        with pytest.raises(ValidationError, match=f"^{message} has a non-integer vertex id$"):
            dual_sphere(SimplePolytope3("bad", tuple(TET_FACETS[:3]) + (last,)))
        # the same ids in a sphere's last triangle, which is named as given
        # (sorting would read 2.9 as a vertex, and fail on '2')
        tris = TET_FACETS[:3] + [last]
        named = message.replace("facet 3 = ", "triangle ")
        for reps in (None, tris):
            with pytest.raises(ValidationError, match=f"^{named} has a non-integer vertex id$"):
                SimplicialSphere2.from_triangles(4, tris, reps)
        # and in the representatives alone, which 2.0 and True would match
        with pytest.raises(ValidationError, match=f"^{named} has a non-integer vertex id$"):
            SimplicialSphere2.from_triangles(4, TET_FACETS, tris)

    def test_noncontiguous_ids(self):
        bad = [(0, 1, 2), (0, 7, 1), (0, 2, 7), (1, 7, 2)]
        with pytest.raises(ValidationError, match="contiguous"):
            SimplePolytope3.from_facets("bad", bad)

    def test_open_edge(self):
        # every vertex lies in 3 facets, but edge (0, 2) lies in only one
        bad = [(0, 1, 2, 3, 4, 5), (0, 2, 1), (2, 4, 3), (4, 0, 5), (1, 3, 5)]
        with pytest.raises(ValidationError, match=r"edge \(0, 2\) lies in 1"):
            SimplePolytope3.from_facets("bad", bad)

    # Several faults of one validation scan.  In each document the fault met
    # first in facet order is not the smallest one, and the message names
    # the smallest.
    @pytest.mark.parametrize("bad, message", [
        # vertex 3 is met first; vertices 0, 2 and 3 lie in 4 facets
        ([(3, 1, 2), (3, 0, 1), (3, 2, 0), (1, 0, 2), (3, 0, 2)],
         "vertex 0 lies in 4 facets"),
        # test_open_edge with 0 and 5 swapped: edge (2, 5) is met first
        ([(5, 1, 2, 3, 4, 0), (5, 2, 1), (2, 4, 3), (4, 5, 0), (1, 3, 0)],
         r"edge \(0, 1\) lies in 1 facets"),
        # three blocks joined in a chain by double edges: the outer facet 0
        # shares both edges of each double edge with the facet between the
        # blocks (3, then 1), and both sides of the middle square (2)
        ([(2, 0, 4, 6, 8, 10, 9, 7, 5, 1), (6, 8, 11, 9, 7), (4, 6, 7, 5),
          (0, 4, 5, 1, 3), (0, 2, 3), (2, 1, 3), (8, 10, 11), (11, 10, 9)],
         "facets 0 and 1 share 2 edges"),
    ])
    def test_scans_name_the_smallest_fault(self, bad, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SimplePolytope3.from_facets("bad", bad)

    def test_sphere_wall_in_three_triangles(self):
        tris = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
        with pytest.raises(ValidationError, match="wall"):
            SimplicialSphere2.from_triangles(5, tris)

    def test_sphere_torus_rejected(self):
        # 7-vertex triangulation of the torus (Moebius-Kantor complex);
        # all links are cycles but the Euler characteristic is 0
        tris = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0),
                (5, 6, 1), (6, 0, 2), (0, 3, 2), (1, 4, 3), (2, 5, 4),
                (3, 6, 5), (4, 0, 6), (5, 1, 0), (6, 2, 1)]
        with pytest.raises(ValidationError, match="Euler"):
            SimplicialSphere2.from_triangles(7, tris)
        # with two vertices more, Euler characteristic 2; and no triangles
        for m, tris in ((9, tris), (2, [])):
            with pytest.raises(ValidationError, match=f"^vertex {m - 2} lies in no triangle$"):
                SimplicialSphere2.from_triangles(m, tris)

    def test_sphere_disjoint_union_rejected(self):
        tris = TET_FACETS + [tuple(v + 4 for v in t) for t in TET_FACETS]
        with pytest.raises(ValidationError, match="Euler|disconnect"):
            SimplicialSphere2.from_triangles(8, tris)

    # Complexes with Euler characteristic 2 that are not spheres, so the
    # link, orientability and connectivity checks must catch them.
    TORUS = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1),
             (6, 0, 2), (0, 3, 2), (1, 4, 3), (2, 5, 4), (3, 6, 5), (4, 0, 6),
             (5, 1, 0), (6, 2, 1)]
    RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1), (1, 2, 4),
           (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]

    @staticmethod
    def dual_cycles(tris):
        """Facet cycles dual to a closed triangulated surface: facet v walks
        the triangles (as vertex ids) around vertex v."""
        cycles = []
        for v in range(max(map(max, tris)) + 1):
            around = [k for k, t in enumerate(tris) if v in t]
            cyc = [around.pop(0)]
            while around:
                nxt = next(k for k in around if len(set(tris[cyc[-1]]) & set(tris[k])) == 2)
                around.remove(nxt)
                cyc.append(nxt)
            cycles.append(tuple(cyc))
        return cycles

    # Facet cycles that pass every local check and have Euler characteristic
    # 2 but are not a sphere, so the orientation pass must catch them.
    def test_two_hemi_dodecahedra_are_not_orientable(self):
        cycles = self.dual_cycles(self.RP2 + self.shifted(self.RP2, 6))
        with pytest.raises(ValidationError,
                           match="^facet cycles are not consistently orientable$"):
            SimplePolytope3.from_facets("bad", cycles)

    def test_tetrahedron_beside_a_heawood_torus_is_disconnected(self):
        cycles = self.dual_cycles(TET_FACETS + self.shifted(self.TORUS, 4))
        with pytest.raises(ValidationError,
                           match="^facet adjacency graph is disconnected$"):
            SimplePolytope3.from_facets("bad", cycles)

    def test_heawood_map_is_a_torus(self):
        # the dual of the 7-vertex torus: 7 hexagons, each pair adjacent once
        with pytest.raises(ValidationError,
                           match=r"^Euler characteristic 0 != 2 \(v=14, e=21, f=7\)$"):
            SimplePolytope3.from_facets("heawood", self.dual_cycles(self.TORUS))

    @staticmethod
    def shifted(tris, k, glue=None):
        """Triangles with every vertex moved by k, except one vertex glued
        to the given target."""
        return [tuple(glue[1] if v == glue[0] else v + k for v in t) if glue
                else tuple(v + k for v in t) for t in tris]

    # Every message of the oriented path, each named as by an ordered
    # scan.  A missing reverse edge is always also an edge traversed
    # twice, because every wall already lies in two triangles.
    OCTA = [(0, 2, 3), (0, 2, 5), (0, 3, 4), (0, 4, 5),
            (1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 4, 5)]
    OCTA_REPS = [(0, 3, 2), (0, 2, 5), (0, 4, 3), (0, 5, 4),
                 (1, 2, 3), (1, 5, 2), (1, 3, 4), (1, 4, 5)]
    TWO_TETS = TORUS + shifted(TET_FACETS, 6, (0, 0)) + shifted(TET_FACETS, 9, (0, 3))
    # a torus and a stacked sphere glued along the 3-cycle 1-5-7, both
    # consistently oriented: every directed edge of the cycle is
    # traversed twice, and the Euler characteristic is 2
    GLUED = [(0, 1, 5), (0, 1, 7), (0, 2, 3), (0, 2, 5), (0, 3, 4), (0, 4, 7), (1, 2, 3),
             (1, 2, 4), (1, 3, 7), (1, 4, 5), (1, 5, 6), (1, 5, 8), (1, 6, 7), (1, 7, 8),
             (2, 4, 7), (2, 5, 7), (3, 4, 5), (3, 5, 7), (5, 6, 7), (5, 7, 8)]
    GLUED_REPS = [(0, 1, 5), (7, 1, 0), (3, 0, 2), (2, 0, 5), (4, 0, 3), (7, 0, 4),
                  (1, 3, 2), (2, 4, 1), (7, 3, 1), (1, 4, 5), (6, 1, 5), (8, 5, 1),
                  (7, 1, 6), (7, 8, 1), (7, 4, 2), (5, 7, 2), (3, 5, 4), (7, 5, 3),
                  (5, 7, 6), (7, 5, 8)]

    # two octahedra glued at their poles 0 and 1: consistently oriented,
    # with Euler characteristic 2, but the link of each pole is two cycles
    PINCHED = OCTA + [(0, 6, 7), (0, 6, 9), (0, 7, 8), (0, 8, 9),
                      (1, 6, 7), (1, 6, 9), (1, 7, 8), (1, 8, 9)]
    PINCHED_REPS = sorted(OCTA_REPS + [(0, 7, 6), (0, 6, 9), (0, 8, 7), (0, 9, 8),
                                       (1, 6, 7), (1, 9, 6), (1, 7, 8), (1, 8, 9)], key=sorted)

    @pytest.mark.parametrize("m, tris, reps, message", [
        (6, OCTA + OCTA[:1], OCTA_REPS + OCTA_REPS[:1], "duplicate triangle in sphere"),
        (6, OCTA[:7] + [(0, 0, 1)], OCTA_REPS[:7] + [(0, 0, 1)],
         r"degenerate triangle \(0, 0, 1\)"),
        (6, OCTA[:7] + [(0, 1)], OCTA_REPS[:7] + [(0, 1)], r"degenerate triangle \(0, 1\)"),
        (6, OCTA[:7] + [(3, 4, 6)], OCTA_REPS[:7] + [(3, 4, 6)],
         r"triangle \(3, 4, 6\) uses a vertex outside 0..5"),
        (5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)], [(0, 1, 2), (1, 0, 3), (0, 1, 4)],
         r"wall \(0, 1\) lies in 3 triangles \(expected 2\)"),
        (9, GLUED, GLUED_REPS, r"wall \(1, 5\) lies in 4 triangles \(expected 2\)"),
        (7, TORUS, TORUS, "Euler characteristic 0 != 2"),
        (13, TWO_TETS, TWO_TETS, "link of vertex 0 is not a single cycle"),
        (6, OCTA, [(0, 2, 3)] + OCTA_REPS[1:], r"orientation traverses edge \(0, 2\) twice"),
        (6, OCTA, OCTA_REPS[1:] + OCTA_REPS[:1],
         "oriented representatives do not match triangles"),
        (6, OCTA, OCTA_REPS[:7] + [(1, 4)], "oriented representatives do not match triangles"),
        (6, OCTA, OCTA_REPS[1:], "oriented representatives do not match triangles"),
        # representatives belong to the sorted triangles, not the given order
        (6, OCTA[::-1], OCTA_REPS[::-1], "oriented representatives do not match triangles"),
        (11, TORUS + shifted(TET_FACETS, 7),
         sorted(TORUS + shifted(TET_FACETS, 7), key=lambda t: tuple(sorted(t))),
         "sphere complex is disconnected"),
        (10, PINCHED, PINCHED_REPS, "link of vertex 0 is not a single cycle"),
        # Euler characteristic 2 with two unused vertices, or with no triangles
        (9, TORUS, TORUS, "vertex 7 lies in no triangle"),
        (2, [], [], "vertex 0 lies in no triangle"),
        # three distinct vertices in four places: a ValueError escaped here
        (6, OCTA[:7] + [(1, 4, 5, 5)], OCTA_REPS[:7] + [(1, 4, 5, 5)],
         r"degenerate triangle \(1, 4, 5, 5\)"),
    ])
    def test_oriented_faults_are_named(self, m, tris, reps, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SimplicialSphere2.from_triangles(m, tris, oriented=reps)

    def test_torus_beside_a_tetrahedron_is_disconnected(self):
        tris = self.TORUS + self.shifted(TET_FACETS, 7)
        with pytest.raises(ValidationError, match="^sphere complex is disconnected$"):
            SimplicialSphere2.from_triangles(11, tris)
        # the same failure when a consistent orientation is supplied (both
        # lists traverse every wall once in each direction)
        reps = sorted(self.TORUS + self.shifted(TET_FACETS, 7),
                      key=lambda t: tuple(sorted(t)))
        with pytest.raises(ValidationError, match="^sphere complex is disconnected$"):
            SimplicialSphere2.from_triangles(11, tris, oriented=reps)

    def test_two_projective_planes_are_not_orientable(self):
        tris = self.RP2 + self.shifted(self.RP2, 6)
        with pytest.raises(ValidationError, match="^sphere complex is not orientable$"):
            SimplicialSphere2.from_triangles(12, tris)

    def test_pinched_vertex_link_is_two_cycles(self):
        # a torus with two tetrahedra glued on at single vertices
        tris = (self.TORUS + self.shifted(TET_FACETS, 6, (0, 0))
                + self.shifted(TET_FACETS, 9, (0, 3)))
        with pytest.raises(ValidationError,
                           match="^link of vertex 0 is not a single cycle$"):
            SimplicialSphere2.from_triangles(13, tris)
        # two octahedra at two poles: oriented by propagation, each one a
        # component of its own
        with pytest.raises(ValidationError,
                           match="^link of vertex 0 is not a single cycle$"):
            SimplicialSphere2.from_triangles(10, self.PINCHED)


class TestOrientationShortcut:
    """Facets or triangles that already run every edge once each way turn
    nothing, and only their connection is checked; the others are turned
    by the depth-first pass.  Both reach the same verdicts."""

    TORUS, RP2 = TestValidation.TORUS, TestValidation.RP2
    shifted = staticmethod(TestValidation.shifted)

    @staticmethod
    def oriented_dual_cycles(tris):
        """The facet cycles dual to a consistently oriented closed surface,
        facet v walking round vertex v from the triangle (v, a, b) to the
        one holding (v, b, c), so that every facet runs the same way."""
        cycles = []
        for v in range(max(map(max, tris)) + 1):
            step = {}
            for k, t in enumerate(tris):
                if v in t:
                    i = t.index(v)
                    step[t[i - 2]] = (t[i - 1], k)
            a, cyc = next(iter(step)), []
            while len(cyc) < len(step):
                a, k = step[a]
                cyc.append(k)
            cycles.append(tuple(cyc))
        return cycles

    @staticmethod
    def runs_each_edge_once_each_way(cycles):
        darts = [(c[i - 1], c[i]) for c in cycles for i in range(len(c))]
        return len(set(darts)) == len(darts) and {(v, u) for u, v in darts} == set(darts)

    @staticmethod
    def every_other_reversed(cycles):
        return [c[::-1] if i % 2 else c for i, c in enumerate(cycles)]

    def polytopes(self):
        yield from (load_polytope(name) for name in POLYTOPE_NAMES)
        # the 1154-facet stacked dual
        yield dual_polytope(subdivided_cp3(1154, seed=1)[0].sphere, "stacked")

    def test_turned_facets_give_the_same_polytope_and_index(self):
        for p in self.polytopes():
            assert self.runs_each_edge_once_each_way(p.facets)
            # an index runs as the cycles it was made of, here the stored ones
            p = SimplePolytope3.from_facets(p.name, p.facets)
            q = SimplePolytope3.from_facets(p.name, self.every_other_reversed(p.facets))
            assert q == p and q._index == p._index

    def test_connection_agrees_with_the_orientation_pass(self):
        tet2 = TET_FACETS + self.shifted(TET_FACETS, 4)
        for cycles, connected in ((TET_FACETS, True), (CUBE_FACETS, True), (tet2, False),
                                  (self.oriented_dual_cycles(TET_FACETS + self.shifted(
                                      self.TORUS, 4)), False)):
            n = max(map(max, cycles)) + 1
            index = _half_edges(cycles, [v for c in cycles for v in c], n, "{} {}")
            # each face's neighbours, the faces across its half-edges
            across = iter([index[1][g] for g in index[2]])
            assert _connected([[next(across) for _ in c] for c in cycles]) == connected
            assert (_orient(index, cycles, "")[2] == 1) == connected

    def test_disconnected_facets_are_refused_either_way(self):
        cycles = self.oriented_dual_cycles(TET_FACETS + self.shifted(self.TORUS, 4))
        assert self.runs_each_edge_once_each_way(cycles)
        for facets in (cycles, self.every_other_reversed(cycles)):
            with pytest.raises(ValidationError,
                               match="^facet adjacency graph is disconnected$"):
                SimplePolytope3.from_facets("bad", facets)
        # two tetrahedra have Euler characteristic 4, refused before that
        with pytest.raises(ValidationError, match=r"^Euler characteristic 4 != 2 "):
            SimplePolytope3.from_facets("bad", TET_FACETS + self.shifted(TET_FACETS, 4))

    def test_orientability_messages(self):
        cycles = TestValidation.dual_cycles(self.RP2 + self.shifted(self.RP2, 6))
        for facets in (cycles, self.every_other_reversed(cycles)):
            with pytest.raises(ValidationError,
                               match="^facet cycles are not consistently orientable$"):
                SimplePolytope3.from_facets("bad", facets)
        with pytest.raises(ValidationError, match="^sphere complex is not orientable$"):
            SimplicialSphere2.from_triangles(12, self.RP2 + self.shifted(self.RP2, 6))

    def test_a_given_orientation_is_kept(self):
        for p in self.polytopes():
            s = dual_sphere(p)
            t = SimplicialSphere2.from_triangles(s.m, s.triangles, oriented=s.oriented)
            assert t == s and t.oriented == s.oriented
            # without it, each triangle runs as the first one, as sorted
            u = SimplicialSphere2.from_triangles(s.m, s.triangles)
            assert u.oriented[0] == s.triangles[0]
            assert len({u.orientation_sign(*r) for r in s.oriented}) == 1


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        for p in (tet(), cube(), dodecahedron()):
            text = serialize_polytope(p)
            q = parse_polytope(text)
            assert q == p
            assert serialize_polytope(q) == text

    def test_kept_index_leaves_equality_and_hash_alone(self):
        for p in (tet(), cube(), dodecahedron()):
            assert "_index" in vars(p)
            q = parse_polytope(serialize_polytope(p))
            assert q == p and hash(q) == hash(p)
            bare = SimplePolytope3(p.name, p.facets)
            assert bare == p and hash(bare) == hash(p)
            assert bare.num_edges == p.num_edges  # builds the bare index
            assert bare == p and hash(bare) == hash(p)

    def test_comments_and_blank_lines_ignored(self):
        text = serialize_polytope(tet())
        noisy = "# leading comment\n\n" + text.replace(
            "facets 4", "facets 4   # facet count")
        assert parse_polytope(noisy) == tet()

    def test_lines_end_at_newline_alone(self):
        # '\r\n' ends a line; the name keeps characters that are not ASCII
        # whitespace, U+2028 (a line break to str.splitlines) among them
        text = serialize_polytope(tet()).replace("\n", "\r\n")
        assert parse_polytope(text) == tet()
        text = serialize_polytope(tet()).replace("poly3 tet", "poly3 \ttet\u2028ra\u2003")
        assert parse_polytope(text).name == "tet\u2028ra\u2003rahedron"

    def test_orientation_normalized_on_parse(self):
        # flip one facet of the cube; parsing must restore consistency
        facets = [list(f) for f in CUBE_FACETS]
        facets[3] = list(reversed(facets[3]))
        p = SimplePolytope3.from_facets("cube", facets)
        assert p == cube()

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_polytope("")
        with pytest.raises(ParseError):
            parse_polytope("poly4 x\nfacets 0\n")
        with pytest.raises(ParseError):
            parse_polytope("poly3 x\nfacets 2\nF 0: 0 1 2\n")
        with pytest.raises(ParseError):
            parse_polytope("poly3 x\nfacets 1\nF 1: 0 1 2\n")
        with pytest.raises(ParseError):
            parse_polytope("poly3 x\nfacets 1\nF 0: 0 one 2\n")
        # the count keyword is the whole first token, not a prefix of it
        with pytest.raises(ParseError, match="^expected 'facets <n>' on line 2$"):
            parse_polytope(serialize_polytope(tet()).replace(
                "facets 4", "facetsZ 4"))

    @pytest.mark.parametrize("line, bad, message", [
        ("facets 12", "facets 12 99", "malformed count line 'facets 12 99'"),
        ("facets 12", "facets +12", "malformed count line 'facets +12'"),
        ("facets 12", "facets 10000000000000", "malformed facet line ''"),
        # int() reads these as 3 and 10; the grammar's integers are -?<digits>
        ("F 3: 2 3 10 11 8", "F 3: 2 +3 10 11 8", "malformed facet line 'F 3: 2 +3 10 11 8'"),
        ("F 3: 2 3 10 11 8", "F 3: 2 3 1_0 11 8", "malformed facet line 'F 3: 2 3 1_0 11 8'"),
        ("F 11: 15 17 18 19 16", "F 11: 15 17 18 19 16\nF 12: 0 1 2",
         "unexpected trailing line 'F 12: 0 1 2'"),
        # isdecimal() and int() read every script's digits; the grammar's are 0-9
        ("F 3: 2 3 10 11 8", "F \u0663: 2 3 10 11 \u0668",
         "malformed facet line 'F \u0663: 2 3 10 11 \u0668'"),
        ("facets 12", "facets \uff11\uff12", "malformed count line 'facets \uff11\uff12'"),
        # str.split and str.splitlines read these as a space and a line
        # break; the grammar's separators are ASCII whitespace and '\n'
        ("poly3 dodecahedron", "poly3\u2003dodecahedron",
         "expected 'poly3 <name>', got 'poly3\\u2003dodecahedron'"),
        ("F 3: 2 3 10 11 8", "F 3: 2 3\x8510 11 8", "malformed facet line 'F 3: 2 3\\x8510 11 8'"),
        ("facets 12", "facets\x1c12", "malformed count line 'facets\\x1c12'"),
    ], ids=["extra-count-token", "signed-count", "huge-count", "signed-id",
            "underscored-id", "extra-facet", "arabic-indic-digits", "fullwidth-count",
            "em-space-header", "next-line-facet", "separator-count"])
    def test_the_grammar_is_strict(self, line, bad, message):
        text = corpus_get("dodecahedron").text
        assert line in text
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_polytope(text.replace(line, bad))
