"""Tests for the polytope/sphere combinatorics layer.

Oracle notes: counts for the classical solids (tetrahedron 4/6/4, cube
8/12/6, dodecahedron 20/30/12, pentagonal prism 10/15/7) are textbook
values.  Structural identities (Euler relation, sum over facets of
(6-k)*p_k = 12, double-dual isomorphism) are asserted as exact invariants.
"""

import pytest

from toriclab.combinatorics import (
    SimplePolytope3,
    SimplicialSphere2,
    dual_polytope,
    dual_sphere,
    face_histogram,
    is_fullerene,
    parse_polytope,
    serialize_polytope,
)
from toriclab.errors import ParseError, ValidationError

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

    def test_reoriented_checks_only_the_orientation(self):
        s = dual_sphere(dodecahedron())
        flipped = [(a, c, b) for a, b, c in s.oriented]
        r = s.reoriented(flipped)
        assert r == SimplicialSphere2.from_triangles(s.m, s.triangles, oriented=flipped)
        assert r._apexes is s._apexes
        with pytest.raises(ValidationError, match="^orientation traverses edge"):
            s.reoriented(flipped[:1] + list(s.oriented[1:]))
        with pytest.raises(ValidationError, match="do not match triangles"):
            s.reoriented(s.oriented[1:])

    def test_wall_apexes(self):
        s = dual_sphere(tet())
        assert sorted(s.wall_apexes((0, 1))) == [2, 3]

    def test_double_dual_recovers_polytope(self):
        polytopes = [SimplePolytope3.from_facets("x", facets) for facets in
                     (TET_FACETS, CUBE_FACETS, PRISM5_FACETS, TRUNC_TET_FACETS)]
        # a stacked sphere on 1000 vertices, dualised once to get a polytope
        stacked = subdivided_cp3(1000, seed=3)[0].sphere
        polytopes.append(dual_polytope(stacked, "x"))
        for p in polytopes:
            s = dual_sphere(p)
            tri_of_vertex = {
                v: s.triangles.index(tuple(sorted(p.vertex_facets(v))))
                for v in range(p.num_vertices)
            }
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


class TestValidation:
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

    def test_noncontiguous_ids(self):
        bad = [(0, 1, 2), (0, 7, 1), (0, 2, 7), (1, 7, 2)]
        with pytest.raises(ValidationError, match="contiguous"):
            SimplePolytope3.from_facets("bad", bad)

    def test_open_edge(self):
        # every vertex lies in 3 facets, but edge (0, 2) lies in only one
        bad = [(0, 1, 2, 3, 4, 5), (0, 2, 1), (2, 4, 3), (4, 0, 5), (1, 3, 5)]
        with pytest.raises(ValidationError, match=r"edge \(0, 2\) lies in 1"):
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
    def shifted(tris, k, glue=None):
        """Triangles with every vertex moved by k, except one vertex glued
        to the given target."""
        return [tuple(glue[1] if v == glue[0] else v + k for v in t) if glue
                else tuple(v + k for v in t) for t in tris]

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


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        for p in (tet(), cube(), dodecahedron()):
            text = serialize_polytope(p)
            q = parse_polytope(text)
            assert q == p
            assert serialize_polytope(q) == text

    def test_comments_and_blank_lines_ignored(self):
        text = serialize_polytope(tet())
        noisy = "# leading comment\n\n" + text.replace(
            "facets 4", "facets 4   # facet count")
        assert parse_polytope(noisy) == tet()

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
