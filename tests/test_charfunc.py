"""Tests for 4-colorings and characteristic functions.

Expected values: coloring properness is re-verified by direct edge scans;
the icosahedron's chromatic number 4 is confirmed by the exhaustive search
oracle; star-condition expectations are hand-computed 3x3 determinants.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fullerenes import ICOSAHEDRON, goldberg_coxeter, leapfrog
from oracles import (
    apply_matrix,
    det3x3,
    dsatur_coloring,
    has_proper_coloring,
    random_unimodular,
)
from subdivision import subdivided_cp3
from test_combinatorics import ICOSA_TRIANGLES, cube, dodecahedron, tet
from toriclab._kempe import kempe_color
from toriclab.charfunc import (
    CharacteristicFunction,
    CharacteristicPair,
    check_star_condition,
    format_charfunc,
    parse_charfunc,
)
from toriclab.coloring import (COLOR_VECTORS, FacetColoring, _search, coloring_to_charfunc,
                               four_color)
from toriclab.combinatorics import SimplicialSphere2
from toriclab.polytope import dual_polytope, dual_sphere, serialize_polytope
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


def nanotube_sphere(k, n=5):
    """The sphere dual to the (5,0) capped nanotube fullerene C_{20+10k}:
    two poles of degree 5 and k + 2 rings of five vertices; or, given n,
    the same tube with poles of degree n and rings of n vertices."""
    top, bottom = 0, 1 + n * (k + 2)

    def ring(r, i):
        return 1 + n * r + i % n

    tris = []
    for i in range(n):
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

    def test_far_apart_poles_of_high_degree(self):
        # the poles 0 and 241 have degree 120 and no common neighbour.  The
        # search colours pole 241 late, when a neighbour already holds 'a'.
        # With a heap-key stride D below 115 (120 less a ring vertex's
        # degree 5) its degree would outweigh a unit of saturation, so it
        # would be picked second and coloured 'a'
        s = nanotube_sphere(0, n=120)
        self.check(s)
        assert four_color(s).colors[::241] == ("a", "b")

    def test_relabelled_fullerenes_backtrack(self):
        # Ids set the tie-breaks, so relabelling changes the search; on
        # these fullerene duals most labellings force some backtracking.
        spheres = [dual_sphere(load_polytope("dodecahedron")),
                   nanotube_sphere(4), nanotube_sphere(10)]
        undone = [self.check(relabelled(s, seed))
                  for s in spheres for seed in range(10)]
        assert sum(n > 0 for n in undone) >= 20


def bipyramid(n):
    """The double cone over an n-gon: apexes n and n + 1 of degree n."""
    return SimplicialSphere2.from_triangles(
        n + 2, [(i, (i + 1) % n, apex) for i in range(n) for apex in (n, n + 1)])


def reference_spheres():
    """Every corpus polytope's sphere and every input of
    TestColoringMatchesReference."""
    for name in POLYTOPE_NAMES:
        yield dual_sphere(load_polytope(name))
    for m in (8, 30, 100, 300):
        for seed in range(3):
            yield subdivided_cp3(m, seed)[0].sphere
    s = bipyramid(200)
    yield s
    yield from (relabelled(s, seed) for seed in range(5))
    yield nanotube_sphere(0, n=120)
    for s in (dual_sphere(load_polytope("dodecahedron")), nanotube_sphere(4),
              nanotube_sphere(10)):
        yield from (relabelled(s, seed) for seed in range(10))


def leapfrog_sphere(m):
    """The dual of the icosahedral fullerene C_{2m - 4} made by leapfrogs
    from the dodecahedron: m = 32, 92, 272, 812, 2432, ..."""
    n, tris = 12, ICOSAHEDRON
    while n < m:
        n, tris = leapfrog(n, tris)
    assert n == m
    return SimplicialSphere2.from_triangles(n, tris)


def proper(colors, sphere):
    return all(colors[u] != colors[v] for u, v in sphere.walls)


class TestSearchBudget:
    """Stage 1 of ``four_color`` assigns at most 10m + 1000 colors; past
    them, stage 2 (``toriclab._kempe``) colors the sphere."""

    def test_reference_spheres_use_a_tenth_of_the_budget(self):
        for s in reference_spheres():
            coloring, counters = _search(s)
            assert counters["budget"] == 10 * s.m + 1000
            assert counters["stage"] == 1
            assert max(counters[k] for k in ("nodes", "undone", "swaps", "restarts")) \
                <= counters["budget"] // 10, (s.m, counters)
            assert coloring == four_color(s)

    def test_counters_count_the_reference_search(self):
        # every color assigned either stays or is undone once
        for seed in range(10):
            s = relabelled(nanotube_sphere(4), seed)
            _, counters = _search(s)
            _, undone = dsatur_coloring(s.m, s.walls)
            assert counters["undone"] == undone
            assert counters["nodes"] == s.m + undone

    def test_kempe_stage_colors_every_reference_sphere(self):
        spheres = [*reference_spheres(), subdivided_cp3(1100, seed=1)[0].sphere,
                   *(relabelled(leapfrog_sphere(272), seed) for seed in range(3))]
        for s in spheres:
            color, swaps, restarts = kempe_color(s._neighbours)
            assert set(color) <= {0, 1, 2, 3} and proper(color, s)
            assert restarts <= 2

    def test_kempe_stage_is_deterministic(self):
        s = relabelled(nanotube_sphere(178), 3)
        assert kempe_color(s._neighbours) == kempe_color(s._neighbours)


# Color each sphere read from stdin as (m, triangles) and print the
# counters of each search, with its time and its verdicts, as JSON.
COLOR_CHILD = """
import json, sys, time
from toriclab.charfunc import CharacteristicPair, check_star_condition
from toriclab.coloring import _search, coloring_to_charfunc
from toriclab.combinatorics import SimplicialSphere2
out = []
for m, tris in json.load(sys.stdin):
    s = SimplicialSphere2.from_triangles(m, tris)
    start = time.perf_counter()
    coloring, counters = _search(s)
    counters["seconds"] = time.perf_counter() - start
    counters["proper"] = coloring.is_proper(s)
    counters["star_ok"] = check_star_condition(
        CharacteristicPair(s, coloring_to_charfunc(coloring))).ok
    out.append(counters)
print(json.dumps(out))
"""

SRC = Path(__file__).resolve().parents[1] / "src"


def _child(argv, timeout, stdin=None):
    """Run a fresh interpreter on the package; a stall fails the test by
    ``subprocess.TimeoutExpired`` instead of hanging the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *argv], input=stdin, env=env,
                          capture_output=True, text=True, timeout=timeout)


def color_in_child(spheres, timeout):
    proc = _child(["-c", COLOR_CHILD], timeout,
                  stdin=json.dumps([(s.m, s.triangles) for s in spheres]))
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    for run in runs:
        assert run["proper"] and run["star_ok"], run
        # stage 2 runs exactly when stage 1 has used its whole budget
        assert (run["stage"] == 2) == (run["nodes"] == run["budget"]), run
    return runs


class TestStalls:
    """Labellings on which the backtracking search alone ran for minutes."""

    def test_relabelled_c1800_nanotube(self):
        # seed 3 was still backtracking after 60 s with no budget
        (run,) = color_in_child([relabelled(nanotube_sphere(178), 3)], timeout=30)
        assert run["stage"] == 2 and run["swaps"] + run["restarts"] > 0

    def test_relabelled_leapfrog_fullerenes(self):
        # C1620 and C4860: most labellings exhaust the budget
        spheres = [relabelled(leapfrog_sphere(m), seed)
                   for m in (812, 2432) for seed in range(10)]
        runs = color_in_child(spheres, timeout=120)
        assert sum(run["stage"] == 2 for run in runs) >= 10
        assert sum(run["swaps"] for run in runs) > 0

    def test_relabelled_chiral_goldberg_coxeter_fullerenes(self):
        # GC(k, l) with l > 0: the chiral icosahedral fullerenes up to
        # C3020, ten labellings each
        families = [SimplicialSphere2.from_triangles(*goldberg_coxeter(k, l)) for k, l in (
            (1, 1), (2, 1), (3, 1), (3, 2), (4, 1), (5, 2), (6, 3), (7, 4), (9, 5))]
        spheres = [relabelled(s, seed) for s in families for seed in range(10)]
        runs = color_in_child(spheres, timeout=120)
        assert len(runs) == 90  # each colours properly with the star condition ok

    def test_both_stages_giving_up_leaves_the_unbudgeted_search(self, monkeypatch):
        # C1620 with labelling 7 exhausts the budget (9120 colors); with no
        # Kempe pass allowed, stage 1 runs again without a budget and ends
        # after 14211 colors
        import toriclab._kempe as kempe

        monkeypatch.setattr(kempe, "_RESTARTS", 0)
        s = relabelled(leapfrog_sphere(812), 7)
        coloring, counters = _search(s)
        assert counters["stage"] == 3 and counters["nodes"] > counters["budget"]
        assert coloring.is_proper(s) and coloring == four_color(s)
        assert check_star_condition(CharacteristicPair(s, coloring_to_charfunc(coloring))).ok

    def test_polytope_report_on_c4860(self, tmp_path):
        sphere = relabelled(leapfrog_sphere(2432), 0)
        path = tmp_path / "c4860.poly"
        path.write_text(serialize_polytope(dual_polytope(sphere, "C4860")))
        run = ("import json, runpy, sys\n"
               "sys.argv = ['toriclab', 'polytope', 'report', sys.argv[1]]\n"
               "code = 0\n"
               "try:\n"
               "    runpy.run_module('toriclab.cli', run_name='__main__')\n"
               "except SystemExit as exc:\n"
               "    code = exc.code\n"
               "print(json.dumps([code, 'toriclab._kempe' in sys.modules]), file=sys.stderr)\n")
        proc = _child(["-c", run, str(path)], timeout=60)
        code, repaired = json.loads(proc.stderr.splitlines()[-1])
        assert code == 0, proc.stderr
        assert repaired  # stage 2 colored it
        assert "fullerene: yes" in proc.stdout.splitlines()
        assert "star_condition: ok" in proc.stdout.splitlines()


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

    def test_matches_the_per_triangle_scan(self):
        # random lambdas, most of them failing, and colorings moved by a
        # random lattice basis change, which pass
        rng = random.Random(20261019)
        spheres = [dual_sphere(cube()), icosahedron(), dual_sphere(dodecahedron()),
                   subdivided_cp3(30, seed=2)[0].sphere]
        verdicts = []
        for s in spheres:
            coloring = coloring_to_charfunc(four_color(s)).vectors
            for trial in range(20):
                if trial % 2:
                    pool = [v for v in (tuple(rng.randint(-2, 2) for _ in range(3))
                                        for _ in range(rng.randint(3, 7)))
                            if math.gcd(*v) == 1]
                    lam = tuple(rng.choice(pool or [E1]) for _ in range(s.m))
                else:
                    u = random_unimodular(rng, det_sign=rng.choice((1, -1)))
                    lam = tuple(apply_matrix(u, v) for v in coloring)
                expected = tuple((t, d) for t in s.triangles
                                 if (d := det3x3([lam[i] for i in t])) not in (1, -1))
                verdict = check_star_condition(
                    CharacteristicPair(s, CharacteristicFunction(lam)))
                assert verdict.violations == expected
                assert verdict.ok == (not expected)
                verdicts.append(verdict.ok)
        assert 20 <= verdicts.count(False) < len(verdicts)

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

    def test_list_vectors_are_read_as_tuples(self):
        # a list of lists escaped as "unhashable type: 'list'", and a list
        # of tuples was kept as a list, unequal to the tuple and unhashable
        lam = CharacteristicFunction((E1, E2, E3, (1, 1, 1)))
        for given in ([list(E1), list(E2), list(E3), [1, 1, 1]], [E1, E2, E3, (1, 1, 1)]):
            read = CharacteristicFunction(given)
            assert read == lam and hash(read) == hash(lam)
            assert type(read.vectors) is tuple and all(type(v) is tuple for v in read.vectors)
        with pytest.raises(ValidationError,
                           match=r"^lambda\(1\) = \(0, 2, 0\) is not primitive$"):
            CharacteristicFunction([[1, 0, 0], [0, 2, 0]])

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
        from toriclab.polytope import SimplePolytope3

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
        # int() reads '\u0967' (Devanagari one) as 1; the grammar's digits are 0-9
        line = text.splitlines()[1]
        bad = line[:-1] + "\u0967"
        with pytest.raises(ParseError, match=f"^malformed vector line '{bad}'$"):
            parse_charfunc(text.replace(line, bad))
