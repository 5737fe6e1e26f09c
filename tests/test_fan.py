"""Tests for fan validation, wall coefficients, curvature, Gauss-Bonnet.

Expected wall coefficients were computed by hand from the defining
determinants and re-checked through the exact wall relation
ray(i) + ray(i') = a1*ray(i1) + a2*ray(i2).  The total curvature 24 is
asserted for every stock fan.
"""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from branched import branched_cover_text
from oracles import (apply_matrix, det3x3, random_unimodular,
                     same_side_wall_bruteforce, wall_records_bruteforce)
from subdivision import subdivided_cp3
from toriclab.corpus import FAN_NAMES, load_fan
from toriclab.combinatorics import SimplicialSphere2
from toriclab.errors import (
    IncompleteFan,
    InternalError,
    ParseError,
    ToricLabError,
    ValidationError,
)
import toriclab.fan as fan_module
from toriclab.fan import (
    Fan3,
    Wall,
    _pierce,
    _read_wall,
    characteristic_pair,
    check_complete,
    check_unimodular,
    gauss_bonnet_sum,
    parse_fan,
    serialize_fan,
    wall_data,
)
from toriclab.charfunc import (CharacteristicFunction, CharacteristicPair,
                               check_star_condition)
from toriclab.lattice import det3

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)

SIMPLEX_CONES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def all_corpus_fans():
    return [load_fan(n) for n in FAN_NAMES]


class TestStructure:
    @pytest.mark.parametrize("name,cones,walls", [
        ("cp3", 4, 6),
        ("cube-fan", 8, 12),
        ("blowup-cp3", 6, 9),
        ("cp1xcp2", 6, 9),
        ("flatwall", 10, 15),
    ])
    def test_counts(self, name, cones, walls):
        f = load_fan(name)
        assert len(f.maximal_cones) == cones
        assert len(f.walls) == walls

    def test_nonprimitive_ray_rejected(self):
        with pytest.raises(ValidationError, match="ray 0 .* not primitive"):
            Fan3.from_data("bad", [(0, 0, 2), E2, E3, (-1, -1, -1)], SIMPLEX_CONES)

    def test_ray_that_is_not_a_3_vector_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"^ray 3 = \(1, 0\) is not an integer 3-vector$"):
            Fan3.from_data("bad", [E1, E2, E3, (1, 0)], SIMPLEX_CONES)

    @pytest.mark.parametrize("ray", [(1.7, 0, 0), ("a", 0, 0), "100", (Fraction(1), 0, 0)])
    def test_ray_with_non_integer_entries_rejected(self, ray):
        # read with int(), (1.7, 0, 0) and "100" were the ray (1, 0, 0) and
        # ("a", 0, 0) escaped as a bare ValueError; a str is text, refused
        # before its characters could be read as entries
        why = (f"{ray!r} is not a sequence" if isinstance(ray, str)
               else f"{tuple(ray)} is not an integer 3-vector")
        with pytest.raises(ValidationError, match=f"^ray 0 = {re.escape(why)}$"):
            Fan3.from_data("bad", [ray, E2, E3, (-1, -1, -1)], SIMPLEX_CONES)

    @pytest.mark.parametrize("cone", [(0, 2, "x"), (0, 2, 3.5), (0, 2, 3.0)])
    def test_cone_with_a_non_integer_id_rejected(self, cone):
        cones = SIMPLEX_CONES[:2] + [cone] + SIMPLEX_CONES[3:]
        with pytest.raises(ValidationError,
                           match=f"^cone {re.escape(str(cone))} has a non-integer ray id$"):
            Fan3.from_data("bad", [E1, E2, E3, (-1, -1, -1)], cones)

    def test_support_is_read_once(self):
        support = [Fraction(1), Fraction(3, 2), 2, "5/2"]
        f = Fan3.from_data("s", [E1, E2, E3, (-1, -1, -1)], SIMPLEX_CONES, support=support)
        assert f.support == (1, Fraction(3, 2), 2, Fraction(5, 2))
        assert all(type(c) is Fraction for c in f.support)
        assert f.support[0] is support[0] and f.support[1] is support[1]
        g = parse_fan(serialize_fan(f))
        assert g == f and all(type(c) is Fraction for c in g.support)

    def test_bools_and_floats_are_refused(self):
        # True == 1 passed as a ray entry, a cone's ray id or a support
        # entry, and serialized as "True"; 0.1 became 3602879701896397/2**55
        rays = [E1, E2, E3, (-1, -1, -1)]
        with pytest.raises(ValidationError,
                           match=r"^ray 0 = \(True, 0, 0\) is not an integer 3-vector$"):
            Fan3.from_data("bad", [(True, 0, 0)] + rays[1:], SIMPLEX_CONES)
        with pytest.raises(ValidationError,
                           match=r"^cone \(0, True, 2\) has a non-integer ray id$"):
            Fan3.from_data("bad", rays, [(0, True, 2)] + SIMPLEX_CONES[1:])
        for bad in (0.1, True, "1.5", "1/0", None):
            with pytest.raises(ValidationError,
                               match=f"^support entry 2 = {re.escape(repr(bad))} is not"):
                Fan3.from_data("bad", rays, SIMPLEX_CONES, support=[1, 1, bad, 1])

    def test_support_strings_follow_the_document_grammar(self):
        rays = [E1, E2, E3, (-1, -1, -1)]
        f = Fan3.from_data("s", rays, SIMPLEX_CONES, support=["-3/4", "0", "12/8", "007"])
        assert f.support == (Fraction(-3, 4), 0, Fraction(3, 2), 7)

    def test_degenerate_cone_rejected(self):
        with pytest.raises(ValidationError, match="degenerate"):
            Fan3.from_data("bad", [E1, E2, (1, 1, 0), (-1, -1, -1)], SIMPLEX_CONES)

    def test_cone_beyond_the_rays_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"^cone \(0, 1, 4\) references a ray outside 0..3$"):
            Fan3.from_data("bad", [E1, E2, E3, (-1, -1, -1)],
                           SIMPLEX_CONES[:3] + [(0, 1, 4)])

    def test_repeated_cone_index_rejected(self):
        with pytest.raises(ValidationError, match="3 distinct rays"):
            Fan3.from_data("bad", [E1, E2, E3], [(0, 1, 1)])

    def test_non_sphere_complex_rejected(self):
        with pytest.raises(ValidationError, match="not a 2-sphere"):
            Fan3.from_data("bad", [E1, E2, E3, (-1, -1, -1)], SIMPLEX_CONES[:3])

    def test_repeated_cone_rejected(self):
        with pytest.raises(ValidationError, match="^cone complex is not a 2-sphere: "
                                                  "duplicate triangle in sphere$"):
            Fan3.from_data("bad", [E1, E2, E3, (-1, -1, -1)],
                           SIMPLEX_CONES + [SIMPLEX_CONES[1][::-1]])

    @pytest.mark.parametrize("rays, message", [
        # the bulk tests meet ray 2's float before ray 1's factor 2, but the
        # first ray at fault is named
        ([E1, (0, 2, 0), (0, 0, 1.5), (-1, -1, -1)], r"ray 1 = \(0, 2, 0\) is not primitive"),
        ([E1, (0, 1.5, 0), (0, 0, 2), (-1, -1, -1)],
         r"ray 1 = \(0, 1\.5, 0\) is not an integer 3-vector"),
    ])
    def test_first_of_two_bad_rays_is_named(self, rays, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Fan3.from_data("bad", rays, SIMPLEX_CONES)

    def test_non_integer_id_is_named_in_the_given_cone_order(self):
        # sorted, (0, 2, 2.5) would come first
        cones = [(0, 1, 2), (1, 3, 2.0), (0, 2, 2.5), (1, 2, 3)]
        with pytest.raises(ValidationError,
                           match=r"^cone \(1, 3, 2\.0\) has a non-integer ray id$"):
            Fan3.from_data("bad", [E1, E2, E3, (-1, -1, -1)], cones)

    @pytest.mark.parametrize("cones, message", [
        ([(0, 1, 2), (3, 2, 2), (4, 1, 0), (1, 2, 3)],
         r"cone \(0, 1, 4\) references a ray outside 0..3"),
        ([(0, 1, 2), (1, 3, 5), (3, 0, 0), (1, 2, 3)],
         r"cone \(0, 0, 3\) does not have 3 distinct rays"),
        # three distinct ids, but four of them
        ([(0, 1, 2), (3, 2, 1, 3), (0, 1, 3), (0, 2, 3)],
         r"cone \(1, 2, 3, 3\) does not have 3 distinct rays"),
    ])
    def test_first_faulty_cone_in_sorted_order_is_named(self, cones, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Fan3.from_data("bad", [E1, E2, E3, (-1, -1, -1)], cones)

    def test_cones_are_checked_once(self, monkeypatch):
        # from_data checks each cone in its own words, and its sphere is
        # built past from_triangles' checks of single triangles
        f = load_fan("flatwall")

        def checking(*args, **kwargs):
            raise AssertionError("cones checked again")

        monkeypatch.setattr(SimplicialSphere2, "from_triangles", checking)
        assert Fan3.from_data(f.name, f.rays, f.maximal_cones, f.support) == f


class TestWallData:
    def test_cp3_wall(self):
        w = wall_data(load_fan("cp3"), (0, 1))
        assert w.a == (-1, -1)
        assert w.curvature == 4
        assert w.classification == "convex"

    def test_cube_wall(self):
        w = wall_data(load_fan("cube-fan"), (0, 2))
        assert w.a == (0, 0)
        assert w.curvature == 2
        assert sorted(w.apexes) == [4, 5]

    def test_blowup_walls(self):
        f = load_fan("blowup-cp3")
        assert wall_data(f, (0, 3)).a == (-1, -1)
        assert wall_data(f, (0, 3)).curvature == 4
        assert wall_data(f, (0, 4)).curvature == 2
        assert wall_data(f, (0, 1)).curvature == 2

    def test_flat_walls(self):
        f = load_fan("flatwall")
        for pair in ((0, 2), (0, 4), (2, 4)):
            w = wall_data(f, pair)
            assert w.a == (1, 1)
            assert w.curvature == 0
            assert w.classification == "flat"
        assert wall_data(f, (0, 3)).classification == "convex"

    def test_not_a_wall(self):
        # rays 0 and 1 of the cube fan are antipodal, never adjacent
        with pytest.raises(ValidationError, match="not a wall"):
            wall_data(load_fan("cube-fan"), (0, 1))
        for pair in ((-1, 0), (0, 99)):
            with pytest.raises(ValidationError,
                               match=rf"^{re.escape(str(pair))} is not a wall of this fan$"):
                wall_data(load_fan("cube-fan"), pair)

    def test_wall_relation_exact_everywhere(self):
        for f in all_corpus_fans():
            for w in f.walls:
                i1, i2 = w.pair
                i, ip = w.apexes
                a1, a2 = w.a
                lhs = add(f.rays[i], f.rays[ip])
                rhs = add(tuple(a1 * x for x in f.rays[i1]),
                          tuple(a2 * x for x in f.rays[i2]))
                assert lhs == rhs, (f.name, w)

    def test_normalization_signs(self):
        for f in all_corpus_fans():
            for w in f.walls:
                i1, i2 = w.pair
                i, ip = w.apexes
                assert det3(f.rays[i1], f.rays[i2], f.rays[i]) == 1
                assert det3(f.rays[i1], f.rays[i2], f.rays[ip]) == -1

    def test_classification_determinant_equals_curvature(self):
        for f in all_corpus_fans():
            for w in f.walls:
                i1, i2 = w.pair
                i, ip = w.apexes
                side = det3(sub(f.rays[i1], f.rays[ip]),
                            sub(f.rays[i2], f.rays[ip]),
                            sub(f.rays[i], f.rays[ip]))
                assert side == w.curvature

    def test_orientation_error_on_same_side_pair(self):
        # boundary-of-simplex complex whose fourth ray points into the
        # first octant: apexes of wall (0,1) are on the same side
        f = Fan3.from_data("notfan", [E1, E2, E3, (1, 1, 1)], SIMPLEX_CONES)
        with pytest.raises(IncompleteFan, match="opposite sides"):
            wall_data(f, (0, 1))


class TestGaussBonnet:
    def test_sum_is_24_on_all_corpus_fans(self):
        for f in all_corpus_fans():
            assert gauss_bonnet_sum(f) == 24, f.name

    def test_per_wall_breakdown(self):
        curvs = sorted(w.curvature for w in load_fan("blowup-cp3").walls)
        assert curvs == [2, 2, 2, 2, 2, 2, 4, 4, 4]
        curvs = sorted(w.curvature for w in load_fan("flatwall").walls)
        assert curvs == [0, 0, 0] + [2] * 12


class TestCheckUnimodular:
    def test_ok_on_corpus(self):
        for f in all_corpus_fans():
            assert check_unimodular(f).ok, f.name

    def test_violation_reported_with_determinant(self):
        f = Fan3.from_data("bad", [E1, E2, E3, (1, 1, 2)], SIMPLEX_CONES)
        verdict = check_unimodular(f)
        assert not verdict.ok
        # det(e1, e2, (1,1,2)) = 2; the other cones through ray 3 stay +-1
        assert verdict.violations == (((0, 1, 3), 2),)

    def test_is_the_star_condition_of_the_rays(self):
        cp3 = load_fan("cp3")
        f = Fan3.from_data("nonuni", cp3.rays[:3] + ((-1, -1, -2),), cp3.maximal_cones)
        pair = CharacteristicPair(f.sphere, CharacteristicFunction(f.rays))
        verdict = check_unimodular(f)
        assert verdict == check_star_condition(pair)
        assert verdict.violations == (((0, 1, 3), -2),)

    def test_cone_determinants_are_built_once(self, monkeypatch):
        # parsing computes them; certification, walls and the orientation
        # read the kept ones
        text = serialize_fan(load_fan("flatwall"))
        calls = []
        build = fan_module._cone_determinants

        def counting(rays, cones):
            calls.append(len(cones))
            return build(rays, cones)

        monkeypatch.setattr(fan_module, "_cone_determinants", counting)
        f = parse_fan(text)
        check_complete(f)
        f.wall_table
        characteristic_pair(f)
        assert calls == [10]

    def test_the_scan_runs_once_per_fan(self, monkeypatch, tmp_path, capsys):
        # the kept certificate holds the verdict: certification, walls, the
        # pair and the cone analysis scan the determinants once, and so does
        # each fan command
        from toriclab.cli import main
        from toriclab.cone import extremal_walls

        calls = []
        scan = fan_module.check_unimodular
        monkeypatch.setattr(fan_module, "check_unimodular",
                            lambda f: calls.append(f.name) or scan(f))
        text = serialize_fan(load_fan("cube-fan"))
        f = parse_fan(text)
        for entry in (check_complete, lambda g: g.wall_table, characteristic_pair,
                      extremal_walls, check_complete):
            entry(f)
        assert calls == ["cube-fan"]
        path = tmp_path / "cube-fan.fan"
        path.write_text(text)
        for command in ("report", "volume", "extremal", "witness"):
            calls.clear()
            assert main(["fan", command, str(path)]) == 0, capsys.readouterr().err
            assert calls == ["cube-fan"], command

    def test_constructor_fan_builds_them_on_first_read(self):
        f = load_fan("cube-fan")
        g = Fan3(f.name, f.rays, f.maximal_cones, f.sphere, f.support)
        assert "_cone_dets" not in g.__dict__
        assert check_unimodular(g) == check_unimodular(f)
        assert g._cone_dets == f._cone_dets
        cp3 = load_fan("cp3")
        flat = Fan3("flat", (E1, E2, E3, (1, 1, 0)), cp3.maximal_cones, cp3.sphere, None)
        with pytest.raises(ValidationError, match=r"^cone \(0, 1, 3\) is degenerate"):
            check_unimodular(flat)


class TestCheckComplete:
    def test_corpus_fans_complete(self):
        for f in all_corpus_fans():
            cert = check_complete(f)
            assert cert.cone in f.maximal_cones
            assert cert.attempts >= 1

    # A cone complex that is not a 2-sphere never becomes a Fan3, so
    # check_complete only ever sees spheres.
    def test_missing_cone(self):
        with pytest.raises(ValidationError,
                           match=r"wall \(1, 2\) lies in 1 triangles \(expected 2\)"):
            Fan3.from_data("broken", [E1, E2, E3, (-1, -1, -1)], SIMPLEX_CONES[:3])

    def test_overlapping_cones(self):
        # a subdivision of cone {0,1,2} glued on top of the intact cone
        rays = [E1, E2, E3, (-1, -1, -1), (1, 1, 1)]
        cones = SIMPLEX_CONES + [(0, 1, 4), (0, 2, 4), (1, 2, 4)]
        with pytest.raises(ValidationError, match=r"wall \(0, 1\) lies in 3 triangles"):
            Fan3.from_data("overlap", rays, cones)

    def test_apexes_on_same_side(self):
        f = Fan3.from_data("halfspace", [E1, E2, E3, (1, 1, 1)], SIMPLEX_CONES)
        with pytest.raises(IncompleteFan, match="opposite sides"):
            check_complete(f)

    def test_seed_reproducibility(self):
        f = load_fan("cube-fan")
        a = check_complete(f, seed=7)
        b = check_complete(f, seed=7)
        assert a == b
        assert check_complete(f) == check_complete(f, seed=0)

    # a seed that is no int escaped from random.Random as a bare TypeError,
    # or was taken as a seed (a float, a str, bytes, a bool); the bare
    # object's id is spelled out, as its repr holds an address that
    # changes from run to run
    @pytest.mark.parametrize("seed", [(1,), [1], {}, {1}, Fraction(1), object(), 1.5, "x",
                                      b"ab", True],
                             ids=lambda s: "object()" if type(s) is object else repr(s))
    def test_seeds_that_are_no_int_are_refused(self, seed):
        with pytest.raises(ValidationError, match=rf"^seed = {re.escape(repr(seed))} "
                                                  rf"is not an int$"):
            check_complete(load_fan("cube-fan"), seed)


def _pierce_reference(f, x):
    """Cones with x in their interior, and whether x hit a cone boundary,
    from the barycentric coordinates as Fractions (Cramer's rule)."""
    hits, boundary = [], False
    for c in f.maximal_cones:
        rows = [f.rays[i] for i in c]
        d = det3x3(rows)
        coords = [Fraction(det3x3(rows[:k] + [x] + rows[k + 1:]), d) for k in range(3)]
        if all(t > 0 for t in coords):
            hits.append(c)
        elif all(t >= 0 for t in coords):
            boundary = True
    return hits, boundary


def _certificate_reference(f, seed):
    """Part (b) of check_complete restated: the first sampled direction off
    every cone boundary, its cone and the number of draws, or, when that
    direction lies in no cone or in several, the refusal as (class, text)."""
    rng = random.Random(seed)
    for attempt in range(1, 65):
        direction = tuple(rng.randint(-997, 997) for _ in range(3))
        if direction == (0, 0, 0):
            continue
        hits, boundary = _pierce_reference(f, direction)
        if not boundary:
            if len(hits) == 1:
                return direction, hits[0], attempt
            return IncompleteFan, (
                f"generic direction {direction} lies in no maximal cone" if not hits else
                f"generic direction {direction} lies in {len(hits)} maximal cones: {hits}")


def _completeness_reference(f, seed):
    """check_complete restated: the wall sign condition one wall at a time
    (the oracle), then :func:`_certificate_reference`."""
    wall = same_side_wall_bruteforce(f.rays, f.maximal_cones)
    if wall is None:
        return _certificate_reference(f, seed)
    u, v, p, q, dp, dq = wall
    return IncompleteFan, (f"apexes {p}, {q} of wall ({u}, {v}) do not lie strictly on "
                           f"opposite sides (determinants {dp}, {dq})")


def _completeness_outcome(f, seed):
    """check_complete(f, seed) as (direction, cone, attempts), or its
    refusal as (class, text)."""
    try:
        cert = check_complete(f, seed)
    except ToricLabError as e:
        return type(e), str(e)
    return cert.direction, cert.cone, cert.attempts


def _sweep_fan(name):
    """A corpus fan, a subdivided cp3 on that many rays, or a named sphere
    of cones that is no fan."""
    if name == "pair":
        return _antipodal_cube_fan()
    if name == "notfan":
        return Fan3.from_data("notfan", [E1, E2, E3, (1, 1, 1)], SIMPLEX_CONES)
    if name == "branched":
        return parse_fan(branched_cover_text())
    return TestPiercing.fan(name)


def _negated_ray_fans():
    """Each small fan with one ray negated: spheres of cones that break
    the wall sign condition at many different walls."""
    for f in [*all_corpus_fans(), subdivided_cp3(8, seed=8)[0]]:
        for i in range(f.m):
            rays = [tuple(-x for x in r) if j == i else r for j, r in enumerate(f.rays)]
            yield Fan3.from_data(f"{f.name}-{i}", rays, f.maximal_cones)


def _antipodal_cube_fan():
    """Opposite cube facets with equal rays: a sphere of cones that is not
    a fan, since every cone lies in the positive octant."""
    return Fan3.from_data("pair", (E1, E1, E2, E2, E3, E3),
                          load_fan("cube-fan").maximal_cones)


class TestPiercing:
    FANS = [*FAN_NAMES, 20, 60, 104]

    @staticmethod
    def fan(name):
        return subdivided_cp3(name, seed=name)[0] if isinstance(name, int) else load_fan(name)

    def test_signs_match_the_fraction_solve(self):
        rng = random.Random(3)
        fans = [self.fan(name) for name in self.FANS] + [_antipodal_cube_fan()]
        boundary = 0
        for f in fans:
            for _ in range(60):
                x = tuple(rng.randint(-3, 3) for _ in range(3))
                got = _pierce(f, x)
                assert got == _pierce_reference(f, x), (f.name, x)
                boundary += got[1]
        # small directions often lie on a cone boundary
        assert boundary >= 50

    def test_antipodal_cube_fan_is_pierced_eight_times(self):
        f = _antipodal_cube_fan()
        hits, boundary = _pierce(f, (1, 2, 3))
        assert (hits, boundary) == _pierce_reference(f, (1, 2, 3))
        assert len(hits) == 8 and not boundary

    @pytest.mark.parametrize("name", FANS)
    def test_certificates_match_the_restatement(self, name):
        f = self.fan(name)
        for seed in range(4):
            cert = check_complete(f, seed=seed)
            assert (cert.direction, cert.cone, cert.attempts) == \
                _certificate_reference(f, seed)

    def test_a_draw_on_a_ray_is_drawn_again(self):
        # ray 0 is the first draw of seed 0, so the kept certificate hits a
        # cone boundary once and takes the second draw
        rays = [(732, -209, 555), (-2, -2, -1), (47, 164, 0), (-777, 47, -554)]
        f = Fan3.from_data("cp3", rays, SIMPLEX_CONES)
        assert _pierce(f, rays[0])[1]
        cert = check_complete(f)
        assert (cert.direction, cert.cone, cert.attempts) == ((826, -136, -915), (0, 1, 2), 2)
        assert (cert.direction, cert.cone, cert.attempts) == _certificate_reference(f, 0)


class TestWallNormalization:
    @pytest.mark.parametrize("name", [*FAN_NAMES, 20, 104, 1004])
    def test_sign_pair_equals_the_four_ordering_search(self, name):
        f = TestPiercing.fan(name)
        records = wall_records_bruteforce(f.rays, f.maximal_cones)
        assert records == {key: (w.pair, w.apexes, w.a, w.curvature, w.classification)
                           for key, w in f.wall_table.items()}

    @pytest.mark.parametrize("make", [
        _antipodal_cube_fan,
        lambda: Fan3.from_data("notfan", [E1, E2, E3, (1, 1, 1)], SIMPLEX_CONES),
    ])
    def test_refuses_exactly_where_the_search_fails(self, make):
        f = make()
        records = wall_records_bruteforce(f.rays, f.maximal_cones)
        assert None in records.values()
        # certification names the first wall the search cannot order
        u, v = min(key for key, record in records.items() if record is None)
        with pytest.raises(IncompleteFan, match=rf"of wall \({u}, {v}\) do not lie"):
            f.wall_table

    def test_the_read_checks_the_relation_and_the_side(self):
        # the read takes the apex integrals of a certified fan as 1; a class
        # or an apex order its calculus cannot make is refused by the checks
        from toriclab.cohomology import WallClass

        f = load_fan("cp3")
        cls, sides = characteristic_pair(f).wall_classes[0], f.sphere._apex_pairs[1]
        assert (cls.wall, sides) == ((0, 1), (2, 3))
        assert _read_wall(f.rays, sides, cls) == f.walls[0] == Wall(
            (0, 1), (2, 3), (-1, -1), 4, "convex")
        wrong = WallClass((0, 1), ((0, 2),) + cls.entries[1:], 4)
        with pytest.raises(InternalError, match=r"^wall relation failed at \(0,1\): "
                                                r"ray\(2\)\+ray\(3\) != -2\*ray\(0\)"
                                                r"\+-1\*ray\(1\)$"):
            _read_wall(f.rays, sides, wrong)
        with pytest.raises(InternalError, match=r"^wall \(0,1\): side determinant -4 != "
                                                r"curvature 4$"):
            _read_wall(f.rays, sides[::-1], cls)

    @pytest.mark.parametrize("name", [*FAN_NAMES, 20, 104, 1004, "pair", "notfan",
                                      "branched"])
    def test_completeness_matches_the_per_wall_rule(self, name):
        # the sign scan certifies, or names the wall, as the rule does
        f = _sweep_fan(name)
        for seed in (0, 1):
            assert _completeness_outcome(f, seed) == _completeness_reference(f, seed)

    def test_negated_rays_are_named_at_the_walls_of_the_rule(self):
        named = set()
        for f in _negated_ray_fans():
            want = _completeness_reference(f, 0)
            assert want[0] is IncompleteFan and "opposite sides" in want[1], f.name
            assert _completeness_outcome(f, 0) == want, f.name
            named.add(re.search(r"wall \(\d+, \d+\)", want[1])[0])
        assert len(named) >= 8


class TestCertification:
    """Every analysis certifies the fan first, through one kept
    certificate, so a sphere of cones that is no fan has one refusal."""

    @staticmethod
    def analyses():
        from toriclab.cohomology import (chern_number_c1c2, edge_functionals,
                                         volume_polynomial)
        from toriclab.cone import (delzant_obstruction_witness, extremal_walls,
                                   wall_classes)

        return [lambda f: f.walls, gauss_bonnet_sum, chern_number_c1c2,
                volume_polynomial, lambda f: edge_functionals(f, [1] * f.m),
                wall_classes, extremal_walls, delzant_obstruction_witness]

    def test_branched_cover_is_refused_by_every_analysis(self):
        text = branched_cover_text()
        f = parse_fan(text)
        # unimodular, and every wall has its apexes on opposite sides
        assert check_unimodular(f).ok
        assert same_side_wall_bruteforce(f.rays, f.maximal_cones) is None
        with pytest.raises(IncompleteFan, match="lies in 2 maximal cones") as e:
            check_complete(f)
        for analysis in self.analyses():
            with pytest.raises(IncompleteFan) as got:
                analysis(parse_fan(text))
            assert str(got.value) == str(e.value), analysis

    def test_one_piercing_pass_per_fan(self, monkeypatch):
        directions = []
        pierce = fan_module._pierce

        def counting(f, x):
            directions.append(x)
            return pierce(f, x)

        monkeypatch.setattr(fan_module, "_pierce", counting)
        f = load_fan("blowup-cp3")
        cert = check_complete(f)
        assert check_complete(f) is cert
        for analysis in self.analyses():
            analysis(f)
        # one piercing pass: one draw per attempt, ending at the certificate
        assert len(directions) == cert.attempts
        assert directions[-1] == cert.direction
        fresh = check_complete(f, seed=7)
        assert len(directions) == cert.attempts + fresh.attempts
        assert (fresh.direction, fresh.cone, fresh.attempts) == \
            _certificate_reference(f, 7)
        assert check_complete(f) is cert


class TestInvariance:
    def test_unimodular_transform_preserves_wall_data(self):
        rng = random.Random(11)
        for f in all_corpus_fans():
            for _ in range(4):
                u = random_unimodular(rng)
                assert det3x3(u) == 1
                g = Fan3.from_data(f.name, [apply_matrix(u, r) for r in f.rays],
                                   f.maximal_cones)
                assert [w.pair for w in g.walls] == [w.pair for w in f.walls]
                assert [w.a for w in g.walls] == [w.a for w in f.walls]
                assert [w.curvature for w in g.walls] == \
                    [w.curvature for w in f.walls]
                assert gauss_bonnet_sum(g) == 24


class TestCharacteristicPair:
    def test_geometric_orientation(self):
        for f in all_corpus_fans():
            pair = characteristic_pair(f)
            for (i, j, k) in pair.sphere.oriented:
                assert det3(f.rays[i], f.rays[j], f.rays[k]) == 1
            assert check_star_condition(pair).ok

    def test_sphere_equals_a_full_revalidation(self):
        # The pair holds the fan's own sphere, which must be the sphere
        # that a full validation of its orientation gives.
        fans = all_corpus_fans() + [subdivided_cp3(m, seed=m)[0] for m in (20, 104)]
        for f in fans:
            sphere = characteristic_pair(f).sphere
            assert sphere is f.sphere
            assert sphere == SimplicialSphere2.from_triangles(
                f.m, f.sphere.triangles, oriented=sphere.oriented)

    def test_the_pair_is_the_fans_own_sphere(self):
        # from_data seeds the orientation with the first cone, run in its
        # determinant's direction; on a fan every cone then runs positively
        fans = all_corpus_fans() + [subdivided_cp3(m, seed=s)[0]
                                    for m in (8, 14, 44, 104, 1004) for s in range(3)]
        first = set()
        for f in fans:
            assert characteristic_pair(f).sphere is f.sphere
            assert {det3(*(f.rays[i] for i in t)) for t in f.sphere.oriented} == {1}
            first.add(f._cone_dets[f.maximal_cones[0]])
        assert first == {-1, 1}  # both seed directions are taken

    def test_a_sphere_running_against_its_cones_is_refused(self):
        # a constructor-made fan whose sphere is oriented from the sorted
        # first cone, which has determinant -1
        f = load_fan("blowup-cp3")
        assert f._cone_dets[f.maximal_cones[0]] == -1
        sphere = SimplicialSphere2.from_triangles(f.m, f.maximal_cones)
        # one representative reversed, or a wall missing: the sphere itself
        # is refused first
        reps = (sphere.oriented[0][::-1], *sphere.oriented[1:])
        reversed_one = SimplicialSphere2(f.m, sphere.triangles, reps, sphere.walls)
        own = f.sphere
        no_wall = SimplicialSphere2(f.m, own.triangles, own.oriented, own.walls[1:])
        for s, message in ((sphere, "^sphere orientation runs against its cones$"),
                           (reversed_one, r"^orientation traverses edge \(1, 0\) twice$"),
                           (no_wall, "^sphere fields do not match its triangles$")):
            for entry in (check_complete, characteristic_pair, lambda g: check_complete(g, 1)):
                g = Fan3(f.name, f.rays, f.maximal_cones, s, f.support)
                with pytest.raises(ValidationError, match=message):
                    entry(g)

    @pytest.mark.parametrize("sphere", ["cp3", "one vertex too many"])
    def test_a_sphere_that_is_not_the_cones_is_refused(self, sphere):
        from toriclab.cohomology import chern_number_c1c2

        cube = load_fan("cube-fan")
        own = cube.sphere  # its own triangles, but on 7 vertices
        s = (load_fan("cp3").sphere if sphere == "cp3"
             else SimplicialSphere2(cube.m + 1, own.triangles, own.oriented, own.walls))
        for entry in (check_complete, characteristic_pair, gauss_bonnet_sum,
                      chern_number_c1c2, lambda f: check_complete(f, seed=1)):
            f = Fan3("x", cube.rays, cube.maximal_cones, s, None)
            with pytest.raises(ValidationError,
                               match="^the fan's sphere is not its cone complex$"):
                entry(f)

    def test_non_fans_fail_before_the_orientation(self):
        with pytest.raises(IncompleteFan, match="opposite sides"):
            characteristic_pair(_antipodal_cube_fan())


class TestSerialization:
    def test_round_trip_bit_exact(self):
        for f in all_corpus_fans():
            text = serialize_fan(f)
            g = parse_fan(text)
            assert g == f
            assert serialize_fan(g) == text

    def test_support_rationals(self):
        f = load_fan("flatwall")
        assert "support: 1 1 1 1 1 1 5/2" in serialize_fan(f)

    def test_comments_ignored(self):
        text = serialize_fan(load_fan("cp3"))
        noisy = "# header comment\n" + text.replace("cones 4", "cones 4 # four")
        assert parse_fan(noisy) == load_fan("cp3")

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_fan("")
        with pytest.raises(ParseError):
            parse_fan("fan3 x\nrays 1\nR 0: 1 0 0\n")  # missing cones header
        with pytest.raises(ParseError):
            parse_fan("fan3 x\nrays 1\nR 1: 1 0 0\ncones 0\n")  # id out of order
        with pytest.raises(ParseError):
            parse_fan(serialize_fan(load_fan("cp3")) + "support: 1 1\nextra")
        with pytest.raises(ParseError, match="support"):
            parse_fan(serialize_fan(load_fan("cp3")).rstrip()
                      + "\nsupport: 1 1 x 1\n")
        # a count keyword is the whole first token, not a prefix of it
        text = serialize_fan(load_fan("cp3"))
        with pytest.raises(ParseError, match="^expected 'rays <n>' on line 2$"):
            parse_fan(text.replace("rays 4", "raysfoo 4"))
        with pytest.raises(ParseError, match="^expected 'cones <n>' on line 7$"):
            parse_fan(text.replace("cones 4", "conesXY 4"))

    @pytest.mark.parametrize("entry", ["1.5", "1e1", "+1", "1_0", "1/0", "1/-2", "--1",
                                       "-/2", "1/", "/2", "1/2/3", "0x1", "inf",
                                       "\u0661", "1/\u0662", "-\u0969"])
    def test_support_entries_are_integers_or_p_over_q(self, entry):
        # Fraction() read 1.5, 1e1, +1 and 1_0 as 3/2, 10, 1 and 10
        text = serialize_fan(load_fan("cp3")).replace("support: 1 1 1 1",
                                                      f"support: 1 {entry} 1 1")
        with pytest.raises(ParseError, match="^malformed support parameters 'support: 1 "):
            parse_fan(text)

    def test_ray_entries_are_ascii_digits(self):
        # int() reads '\u0661' (Arabic-Indic one) as 1
        text = serialize_fan(load_fan("cp3")).replace("R 3: -1 -1 -1", "R 3: -1 -\u0661 -1")
        with pytest.raises(ParseError, match="^malformed ray line 'R 3: -1 -\u0661 -1'$"):
            parse_fan(text)

    def test_support_line_reads_signed_rationals(self):
        text = serialize_fan(load_fan("cp3")).replace("support: 1 1 1 1",
                                                      "support: 1 -0 5/2 -12/8")
        assert parse_fan(text).support == (1, 0, Fraction(5, 2), Fraction(-3, 2))

    def test_counts_are_non_negative_decimals_alone(self):
        # a negative count once read line -2 as the cones line
        with pytest.raises(ParseError, match="^malformed count line 'rays -4'$"):
            parse_fan("fan3 x\nrays -4\ncones 0\nsupport:\n")
        text = serialize_fan(load_fan("cube-fan"))
        for bad in ("rays 6 x", "rays +6"):
            with pytest.raises(ParseError, match=f"^malformed count line '{re.escape(bad)}'$"):
                parse_fan(text.replace("rays 6", bad))

    @pytest.mark.parametrize("line, bad, message", [
        ("rays 4", "rays 4\u2003", "malformed count line 'rays 4\\u2003'"),
        ("support: 1 1 1 1", "support: 1\u20031 1 1",
         "malformed support parameters 'support: 1\\u20031 1 1'"),
        ("support: 1 1 1 1", "support: 1 1 1\x1f1",
         "malformed support parameters 'support: 1 1 1\\x1f1'"),
    ], ids=["em-space-count", "em-space-support", "separator-support"])
    def test_only_ascii_whitespace_separates(self, line, bad, message):
        # str.split reads these as spaces, and str.strip strips them
        text = serialize_fan(load_fan("cp3"))
        assert line in text
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_fan(text.replace(line, bad))

    def test_overlong_integers_are_refused(self):
        # past the interpreter's digit limit (4300 by default) int() raises
        # a bare ValueError; without a limit the ray is not primitive
        line = "R 0: 1" + "0" * 5000 + " 0 0"
        with pytest.raises(ToricLabError):
            parse_fan(serialize_fan(load_fan("cp3")).replace("R 0: 1 0 0", line))

    def test_readme_example_parses(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = re.findall(r"^```\n(fan3 .*?)^```", readme.read_text(), re.M | re.S)
        assert len(blocks) == 1
        f = parse_fan(blocks[0])
        assert f == load_fan("cp3")
        check_complete(f)

    def test_wrong_support_count(self):
        with pytest.raises(ValidationError, match="support"):
            parse_fan("fan3 x\nrays 4\nR 0: 1 0 0\nR 1: 0 1 0\nR 2: 0 0 1\n"
                      "R 3: -1 -1 -1\ncones 4\nC: 0 1 2\nC: 0 1 3\nC: 0 2 3\n"
                      "C: 1 2 3\nsupport: 1 1\n")
