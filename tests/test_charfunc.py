"""Tests for 4-colorings and characteristic functions.

Expected values: coloring properness is re-verified by direct edge scans;
the icosahedron's chromatic number 4 is confirmed by the exhaustive search
oracle; star-condition expectations are hand-computed 3x3 determinants.
"""

import itertools
import random

import pytest

from oracles import (
    apply_matrix,
    dsatur_coloring,
    has_proper_coloring,
    random_unimodular,
)
from subdivision import subdivided_cp3
from test_combinatorics import ICOSA_TRIANGLES, cube, dodecahedron, tet
from toriclab.charfunc import (
    COLOR_VECTORS,
    CharacteristicFunction,
    CharacteristicPair,
    FacetColoring,
    check_star_condition,
    coloring_to_charfunc,
    format_charfunc,
    four_color,
    parse_charfunc,
)
from toriclab.combinatorics import SimplicialSphere2, dual_sphere
from toriclab.corpus import POLYTOPE_NAMES, load_polytope
from toriclab.errors import ParseError, ValidationError
from toriclab.lattice import det3

E1, E2, E3, D = (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)


def icosahedron():
    return SimplicialSphere2.from_triangles(12, ICOSA_TRIANGLES)


class TestFourColor:
    def test_tetrahedron_uses_all_four_colors(self):
        s = dual_sphere(tet())
        c = four_color(s)
        # K4 skeleton: one color per vertex
        assert sorted(c.colors) == ["a", "b", "c", "d"]
        assert c.is_proper(s)

    def test_octahedron_proper(self):
        s = dual_sphere(cube())
        c = four_color(s)
        assert c.is_proper(s)
        for u, v in s.walls:
            assert c.colors[u] != c.colors[v]

    def test_icosahedron_proper_and_needs_four(self):
        s = icosahedron()
        c = four_color(s)
        assert c.is_proper(s)
        assert len(set(c.colors)) == 4
        # chromatic number really is 4: no proper 3-coloring exists
        assert not has_proper_coloring(s.m, s.walls, 3)
        assert has_proper_coloring(s.m, s.walls, 4)

    def test_deterministic(self):
        s = dual_sphere(dodecahedron())
        assert four_color(s) == four_color(s)

    def test_symmetry_breaking(self):
        for s in (dual_sphere(tet()), dual_sphere(cube()), icosahedron()):
            c = four_color(s)
            assert c.colors[0] == "a"
            # the first differently-colored vertex (by id) is colored b
            first_other = next(x for x in c.colors if x != "a")
            assert first_other == "b"

    def test_stacked_sphere_past_the_recursion_limit(self):
        # about 1100 vertices: a recursive search would need a frame each
        s = subdivided_cp3(1100, seed=1)[0].sphere
        c = four_color(s)
        assert all(c.colors[u] != c.colors[v] for u, v in s.walls)


def nanotube_sphere(k):
    """The sphere dual to the (5,0) capped nanotube fullerene C_{20+10k}:
    two poles of degree 5 and k + 2 rings of five vertices."""
    top, bottom = 0, 1 + 5 * (k + 2)

    def ring(r, i):
        return 1 + 5 * r + i % 5

    tris = []
    for i in range(5):
        tris.append((top, ring(0, i), ring(0, i + 1)))
        for r in range(k + 1):
            tris.append((ring(r, i), ring(r + 1, i), ring(r, i + 1)))
            tris.append((ring(r, i + 1), ring(r + 1, i), ring(r + 1, i + 1)))
        tris.append((bottom, ring(k + 1, i + 1), ring(k + 1, i)))
    return SimplicialSphere2.from_triangles(bottom + 1, tris)


def relabelled(s, seed):
    perm = list(range(s.m))
    random.Random(seed).shuffle(perm)
    return SimplicialSphere2.from_triangles(
        s.m, [tuple(perm[v] for v in t) for t in s.triangles])


class TestColoringMatchesReference:
    """``four_color`` must make exactly the choices of the plain
    rescanning search in ``oracles.dsatur_coloring``."""

    @staticmethod
    def check(s):
        expected, undone = dsatur_coloring(s.m, s.walls)
        assert "".join(four_color(s).colors) == expected
        return undone

    def test_corpus_polytopes(self):
        for name in POLYTOPE_NAMES:
            self.check(dual_sphere(load_polytope(name)))

    @pytest.mark.parametrize("m", [8, 30, 100, 300])
    def test_stacked_spheres(self, m):
        for seed in range(3):
            self.check(subdivided_cp3(m, seed)[0].sphere)

    def test_bipyramid_ties_at_high_degree(self):
        # two apexes of degree 200 over a 200-gon, m = 202: the first pick,
        # an apex, is made by degree alone, at a degree past m / 2
        n = 200
        tris = [(i, (i + 1) % n, apex) for i in range(n) for apex in (n, n + 1)]
        s = SimplicialSphere2.from_triangles(n + 2, tris)
        for t in (s, *(relabelled(s, seed) for seed in range(5))):
            self.check(t)

    def test_relabelled_fullerenes_backtrack(self):
        # Ids set the tie-breaks, so relabelling changes the search; on
        # these fullerene duals most labellings force some backtracking.
        spheres = [dual_sphere(load_polytope("dodecahedron")),
                   nanotube_sphere(4), nanotube_sphere(10)]
        undone = [self.check(relabelled(s, seed))
                  for s in spheres for seed in range(10)]
        assert sum(n > 0 for n in undone) >= 20


class TestColoringToCharfunc:
    def test_color_vector_triples_are_bases(self):
        vs = list(COLOR_VECTORS.values())
        for trio in itertools.combinations(vs, 3):
            assert det3(*trio) in (1, -1)

    def test_tetrahedron_assignment(self):
        lam = coloring_to_charfunc(FacetColoring(("a", "b", "c", "d")))
        assert lam.vectors == (E1, E2, E3, D)
        pair = CharacteristicPair(dual_sphere(tet()), lam)
        verdict = check_star_condition(pair)
        assert verdict.ok and verdict.violations == ()

    def test_cube_antipodal_coloring(self):
        # facets 0/1, 2/4, 3/5 are the opposite pairs of the cube
        lam = coloring_to_charfunc(FacetColoring(("a", "a", "b", "c", "b", "c")))
        pair = CharacteristicPair(dual_sphere(cube()), lam)
        assert check_star_condition(pair).ok

    def test_icosahedron_constructed_function_passes(self):
        s = icosahedron()
        lam = coloring_to_charfunc(four_color(s))
        assert check_star_condition(CharacteristicPair(s, lam)).ok


class TestStarCondition:
    def test_violation_reported_with_determinant(self):
        lam = CharacteristicFunction((E1, E2, E3, (1, 1, 2)))
        verdict = check_star_condition(CharacteristicPair(dual_sphere(tet()), lam))
        assert not verdict.ok
        assert verdict.violations == (((0, 1, 3), 2),)

    def test_cube_fan_vectors(self):
        # antipodal facet pairs carry opposite unit vectors
        lam = CharacteristicFunction(
            (E1, (-1, 0, 0), E2, E3, (0, -1, 0), (0, 0, -1)))
        assert check_star_condition(CharacteristicPair(dual_sphere(cube()), lam)).ok

    def test_invariant_under_lattice_basis_change(self):
        rng = random.Random(20260816)
        s = dual_sphere(cube())
        good = coloring_to_charfunc(four_color(s))
        bad = CharacteristicFunction((E1, E2, E3, (1, 1, 2)))
        s_bad = dual_sphere(tet())
        for _ in range(10):
            u = random_unimodular(rng, det_sign=rng.choice((1, -1)))
            lam_t = CharacteristicFunction(
                tuple(apply_matrix(u, v) for v in good.vectors))
            assert check_star_condition(CharacteristicPair(s, lam_t)).ok
            bad_t = CharacteristicFunction(
                tuple(apply_matrix(u, v) for v in bad.vectors))
            assert not check_star_condition(CharacteristicPair(s_bad, bad_t)).ok

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="4 vertices.*3 values"):
            CharacteristicPair(dual_sphere(tet()),
                               CharacteristicFunction((E1, E2, E3)))

    def test_nonprimitive_vector_rejected(self):
        with pytest.raises(ValidationError, match="not primitive"):
            CharacteristicFunction((E1, E2, (0, 0, 2)))

    def test_repeated_bad_vector_named_at_its_first_index(self):
        # each distinct vector is checked once, at its first index
        bad = (0, 0, 2)
        with pytest.raises(ValidationError,
                           match=r"^lambda\(2\) = \(0, 0, 2\) is not primitive$"):
            CharacteristicFunction((E1, E2, bad, E3, bad, E1, bad))
        with pytest.raises(ValidationError,
                           match=r"^lambda\(3\) = \(1, 2\) is not an integer"):
            CharacteristicFunction((E1, E2, E3, (1, 2), E1, (1, 2)))

    def test_non_int_entry_equal_to_an_int_vector_rejected(self):
        # (1.0, 0, 0) == E1, so it must not pass as a repeat of E1
        with pytest.raises(ValidationError,
                           match=r"^lambda\(3\) = \(1\.0, 0, 0\) is not an integer"):
            CharacteristicFunction((E1, E2, E3, (1.0, 0, 0), E1))

    def test_bool_entry_rejected(self):
        # (True, 1, 1) == (1, 1, 1) passed, and was written "L 3: True 1 1"
        with pytest.raises(ValidationError,
                           match=r"^lambda\(3\) = \(True, 1, 1\) is not an integer"):
            CharacteristicFunction((E1, E2, E3, (True, 1, 1)))


class TestTheorem:
    """Every simple 3-polytope admits a characteristic function: the
    coloring construction must succeed and verify on all stock polytopes."""

    def test_construction_succeeds_everywhere(self):
        from test_combinatorics import PRISM5_FACETS, TRUNC_TET_FACETS
        from toriclab.combinatorics import SimplePolytope3

        polys = [
            tet(), cube(), dodecahedron(),
            SimplePolytope3.from_facets("pentagonal-prism", PRISM5_FACETS),
            SimplePolytope3.from_facets("trunc", TRUNC_TET_FACETS),
        ]
        for p in polys:
            s = dual_sphere(p)
            lam = coloring_to_charfunc(four_color(s))
            verdict = check_star_condition(CharacteristicPair(s, lam))
            assert verdict.ok, p.name


class TestSerialization:
    def test_round_trip(self):
        lam = coloring_to_charfunc(four_color(icosahedron()))
        text = format_charfunc(lam)
        assert parse_charfunc(text) == lam
        assert format_charfunc(parse_charfunc(text)) == text

    def test_parse_checks_shape(self):
        with pytest.raises(ParseError):
            parse_charfunc("lambda 2\nL 0: 1 0 0\n")
        with pytest.raises(ParseError):
            parse_charfunc("lambda 1\nL 0: 1 0\n")
        with pytest.raises(ParseError):
            parse_charfunc("rays 1\nR 0: 1 0 0\n")
        with pytest.raises(ParseError, match="^expected 'lambda <n>' on line 1$"):
            parse_charfunc("lambdax 1\nL 0: 1 0 0\n")
        text = format_charfunc(coloring_to_charfunc(four_color(dual_sphere(cube()))))
        with pytest.raises(ParseError, match="^malformed count line 'lambda 6 rays'$"):
            parse_charfunc(text.replace("lambda 6", "lambda 6 rays"))
