"""Tests for the exact LP engine and the effective-cone analysis.

The simplex is validated three independent ways: every certificate is
re-verified by exact substitution inside the library, the decisions are
compared against subset-enumeration oracles (`cone_member_bruteforce`,
`zero_in_convex_hull`) that share no code with the simplex, and its whole
answer is compared with `phase1_reference`, a rational tableau that makes
the same Bland pivots.
"""

import itertools
import math
import random
import re
from fractions import Fraction
from operator import mul

import pytest

from toriclab.charfunc import CharacteristicFunction, CharacteristicPair
from toriclab.cone import (
    UNCERTIFIED_NOTE,
    ObstructionWitness,
    WallClass,
    _group_classes,
    delzant_obstruction_witness,
    extremal_walls,
    signed_wall_classes,
    strict_convexity_witness,
    wall_classes,
)
from toriclab.cohomology import certify_support
from toriclab.corpus import FAN_NAMES, load_fan
from toriclab.errors import InternalError, NoWitness, SupportInvalid, ValidationError
from toriclab.exactlp import (
    ConeMembership,
    Phase1Result,
    cone_membership,
    phase1_simplex,
    positive_functional,
)
from toriclab.fan import Fan3

from oracles import cone_member_bruteforce, phase1_reference, zero_in_convex_hull
from subdivision import subdivided_cp3


def support_free(f):
    """The fan f without its support parameters."""
    return Fan3.from_data(f.name, f.rays, f.maximal_cones)


# ---------------------------------------------------------------------------
# phase-1 simplex


def test_phase1_solves_a_square_system():
    res = phase1_simplex([[1, 0], [0, 1]], [3, 5])
    assert res.feasible
    assert res.solution == (3, 5)


def test_phase1_detects_infeasibility_with_certificate():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold.
    res = phase1_simplex([[1, 1], [1, 1]], [1, 2])
    assert not res.feasible
    y = res.farkas
    assert y[0] + y[1] == 0  # y^T A = 0
    assert y[0] * 1 + y[1] * 2 > 0


def test_phase1_requires_nonnegativity():
    # x = -1 has no nonnegative solution even though the system is square.
    res = phase1_simplex([[1]], [-1])
    assert not res.feasible


def _random_systems(count, seed):
    """Small seeded systems: mixed denominators, zero rows, negative
    right-hand sides, and entries in -2..2, so ratio ties are frequent.
    Half take b = A x0 for a random x0 >= 0 and are feasible."""
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randrange(0, 5), rng.randrange(0, 6)
        dens = rng.choice([(1,), (1, 2), (1, 2, 3), (1, 4, 6)])

        def entry():
            if rng.random() < 0.4:
                return 0
            return Fraction(rng.randrange(-2, 3), rng.choice(dens))

        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if nrows and rng.random() < 0.2:
            rows[rng.randrange(nrows)] = [0] * ncols
        if ncols and rng.random() < 0.5:
            x0 = [Fraction(rng.randrange(0, 3), rng.choice(dens)) for _ in range(ncols)]
            rhs = [sum(a * x for a, x in zip(r, x0)) for r in rows]
        else:
            rhs = [entry() for _ in range(nrows)]
        yield rows, rhs


def test_phase1_matches_the_rational_tableau_on_random_systems():
    feasible = 0
    for rows, rhs in _random_systems(400, seed=4):
        got = phase1_simplex(rows, rhs)
        assert got == Phase1Result(*phase1_reference(rows, rhs))
        feasible += got.feasible
    assert 100 <= feasible <= 300


@pytest.fixture(scope="module")
def library_lps():
    """Every system the cone analysis hands to the simplex: extremality
    and positive-functional LPs on the corpus fans, on support-free star
    subdivisions of cp3 with m = 8..14 and on the antipodal cube pair.
    Those LPs are built from integers and enter the simplex through its
    integer entry point, which is recorded here."""
    import toriclab.exactlp as exactlp

    solve = exactlp._phase1_integral
    systems = []

    def recording(rows, rhs):
        systems.append((rows, rhs))
        return solve(rows, rhs)

    fans = [load_fan(name) for name in FAN_NAMES] + [
        support_free(subdivided_cp3(m, seed=m)[0]) for m in range(8, 15)
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlp, "_phase1_integral", recording)
        for f in fans:
            strict_convexity_witness(extremal_walls(f).classes)
        strict_convexity_witness(signed_wall_classes(_antipodal_cube_pair()))
    return systems


def test_phase1_matches_the_rational_tableau_on_library_lps(library_lps):
    feasible = 0
    for rows, rhs in library_lps:
        got = phase1_simplex(rows, rhs)
        assert got == Phase1Result(*phase1_reference(rows, rhs))
        feasible += got.feasible
    # 148 systems, 54 of them feasible
    assert len(library_lps) >= 140
    assert 50 <= feasible <= len(library_lps) - 50


def test_every_entry_point_verifies_the_certificate_it_gets(monkeypatch):
    # The integer simplex hands back a wrong answer of either kind: a zero
    # solution, or a negated Farkas vector.  Each public entry point must
    # refuse it rather than return it.
    import toriclab.exactlp as exactlp

    solve = exactlp._phase1_integral

    def tampered(a, b):
        x, y, d = solve(a, b)
        if x is not None:
            return [0] * len(x), None, d
        return None, [-v for v in y], d

    monkeypatch.setattr(exactlp, "_phase1_integral", tampered)
    for call, message in (
        (lambda: phase1_simplex([[1, 0], [0, 1]], [3, 5]), "non-solution"),
        (lambda: phase1_simplex([[1, 1], [1, 1]], [1, 2]), "infeasibility certificate"),
        (lambda: cone_membership([1, 1], [[1, 0], [0, 1]]), "membership coefficients"),
        (lambda: cone_membership([-1, 0], [[1, 0], [0, 1]]), "separator fails"),
        (lambda: positive_functional([[1, 0], [0, 1]]), "functional failed"),
        (lambda: positive_functional([[1], [-1]]), "convex certificate"),
    ):
        with pytest.raises(InternalError, match=message):
            call()


def test_phase1_reads_floats_decimals_and_strings_as_fractions():
    from decimal import Decimal

    exact = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), 1]], [1, Fraction(-1, 2)]
    loose = [[0.5, "1/3"], [Decimal("0.25"), True]], ["1", -0.5]
    assert phase1_simplex(*loose) == phase1_simplex(*exact)
    assert phase1_simplex(*exact) == Phase1Result(*phase1_reference(*exact))


def test_positive_functional_on_fractional_rows():
    # Rows over mixed denominators, so the common scale that the
    # functional is read back through is not 1, in dimensions 4 to 6.
    # Half the lists get a row that puts zero in the hull of two others.
    rng = random.Random(15)
    found = 0
    for _ in range(60):
        dim = rng.choice([4, 5, 6])
        rows = [
            tuple(Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3, 5)))
                  for _ in range(dim))
            for _ in range(rng.randrange(1, 7))
        ]
        if rng.random() < 0.5:
            a, b = rng.choice(rows), rng.choice(rows)
            c = Fraction(rng.randrange(1, 4), rng.choice((2, 3)))
            rows.insert(rng.randrange(len(rows) + 1),
                        tuple(-c * (x + y) for x, y in zip(a, b)))
        res = positive_functional(rows)
        assert res.found == (not zero_in_convex_hull(rows))
        if res.found:
            found += 1
            assert all(sum(a * b for a, b in zip(r, res.y)) >= 1 for r in rows)
        else:
            assert sum(res.farkas) == 1
            assert all(c >= 0 for c in res.farkas)
            for k in range(dim):
                assert sum(c * r[k] for c, r in zip(res.farkas, rows)) == 0
    assert 15 <= found <= 45


# ---------------------------------------------------------------------------
# cone membership


def test_membership_quadrant_inside():
    res = cone_membership((1, 1), [(1, 0), (0, 1)])
    assert res.member
    assert res.coefficients == (1, 1)
    assert res.separator is None


def test_membership_quadrant_outside():
    res = cone_membership((-1, 0), [(1, 0), (0, 1)])
    assert not res.member
    assert res.coefficients is None
    sep = res.separator
    assert sep[0] * (-1) + sep[1] * 0 > 0
    assert sep[0] <= 0 and sep[1] <= 0


def test_membership_empty_generator_list():
    assert cone_membership((0, 0, 0), []).member
    assert not cone_membership((1, 0, 0), []).member


def test_membership_exactly_one_certificate():
    rng = random.Random(20260816)
    for _ in range(60):
        dim = rng.choice([2, 3, 4])
        gens = [
            tuple(rng.randrange(-4, 5) for _ in range(dim))
            for _ in range(rng.randrange(1, 7))
        ]
        x = tuple(rng.randrange(-4, 5) for _ in range(dim))
        res = cone_membership(x, gens)
        assert (res.coefficients is None) != (res.separator is None)
        if res.member:
            rebuilt = [
                sum(c * g[k] for c, g in zip(res.coefficients, gens))
                for k in range(dim)
            ]
            assert tuple(rebuilt) == tuple(map(Fraction, x))
            assert all(c >= 0 for c in res.coefficients)
        else:
            assert all(
                sum(a * b for a, b in zip(res.separator, g)) <= 0 for g in gens
            )
            assert sum(a * b for a, b in zip(res.separator, x)) > 0


def test_membership_agrees_with_bruteforce():
    rng = random.Random(7)
    for _ in range(150):
        dim = rng.choice([2, 3, 4])
        gens = [
            tuple(rng.randrange(-3, 4) for _ in range(dim))
            for _ in range(rng.randrange(1, 7))
        ]
        x = tuple(rng.randrange(-3, 4) for _ in range(dim))
        assert cone_membership(x, gens).member == cone_member_bruteforce(x, gens)


def test_positive_functional_agrees_with_hull_oracle():
    rng = random.Random(8)
    for _ in range(100):
        dim = rng.choice([2, 3])
        rows = [
            tuple(rng.randrange(-3, 4) for _ in range(dim))
            for _ in range(rng.randrange(1, 7))
        ]
        res = positive_functional(rows)
        assert res.found == (not zero_in_convex_hull(rows))
        if res.found:
            assert all(sum(a * b for a, b in zip(r, res.y)) >= 1 for r in rows)
        else:
            assert sum(res.farkas) == 1
            assert all(c >= 0 for c in res.farkas)
            for k in range(dim):
                assert sum(c * r[k] for c, r in zip(res.farkas, rows)) == 0


# ---------------------------------------------------------------------------
# wall classes


def test_wall_class_examples():
    cube = {c.wall: c.pairing for c in wall_classes(load_fan("cube-fan"))}
    assert cube[(0, 2)] == (0, 0, 0, 0, 1, 1)
    cp3 = wall_classes(load_fan("cp3"))
    assert all(c.pairing == (1, 1, 1, 1) for c in cp3)
    blow = {c.wall: c.pairing for c in wall_classes(load_fan("blowup-cp3"))}
    assert blow[(0, 4)] == (1, 1, 1, 0, -1)
    assert blow[(0, 1)] == (0, 0, 0, 1, 1)


def test_wall_classes_nonzero_and_supported_on_the_star():
    # Entry t can only be nonzero when t belongs to the wall or completes
    # it to a triangle.
    for name in FAN_NAMES:
        f = load_fan(name)
        for cls in wall_classes(f):
            assert any(v != 0 for v in cls.pairing)
            star = set(cls.wall) | set(f.sphere.wall_apexes(cls.wall))
            for t, v in enumerate(cls.pairing):
                if t not in star:
                    assert v == 0, (name, cls.wall, t)


def test_wall_class_apex_entries_are_one():
    for name in FAN_NAMES:
        f = load_fan(name)
        for cls in wall_classes(f):
            for t in f.sphere.wall_apexes(cls.wall):
                assert cls.pairing[t] == 1


# ---------------------------------------------------------------------------
# grouping and extremality


def test_cube_fan_three_groups_all_extremal():
    an = extremal_walls(load_fan("cube-fan"))
    assert len(an.classes) == 12
    assert len(an.groups) == 3
    assert all(len(g) == 4 for g in an.groups)
    assert an.extremal == ((0, 2), (0, 4), (2, 4))


def test_cp3_single_group_extremal():
    an = extremal_walls(load_fan("cp3"))
    assert len(an.groups) == 1
    assert len(an.groups[0]) == 6
    assert an.extremal == ((0, 1),)


def test_blowup_middle_group_not_extremal():
    an = extremal_walls(load_fan("blowup-cp3"))
    assert len(an.groups) == 3
    assert an.extremal == ((0, 1), (0, 4))
    # The non-extremal class is literally the sum of the two extremal ones.
    by_rep = {g[0]: an.classes[[c.wall for c in an.classes].index(g[0])].pairing
              for g in an.groups}
    left, middle, right = by_rep[(0, 1)], by_rep[(0, 3)], by_rep[(0, 4)]
    assert middle == tuple(a + b for a, b in zip(left, right))


def _dense_extremal(an):
    """The extremal representatives by LPs over the full dense pairing
    vectors, each group's first class against every class outside it."""
    pairing = {cls.wall: cls.pairing for cls in an.classes}
    return tuple(g[0] for gi, g in enumerate(an.groups) if not cone_membership(
        pairing[g[0]], [pairing[w] for gj, h in enumerate(an.groups) if gj != gi for w in h]
    ).member)


def test_h2_coordinates_keep_every_extremal_verdict():
    # the LPs drop the rows of the first cone's rays; on the full rows
    # they reach the same verdicts
    fans = [load_fan(name) for name in FAN_NAMES] + [
        support_free(subdivided_cp3(m, seed)[0]) for m in range(8, 25, 4) for seed in range(3)
    ]
    for f in fans:
        an = extremal_walls(f)
        assert an.extremal == _dense_extremal(an), f.name


def test_a_membership_must_reassemble_the_full_vector(monkeypatch):
    # an answer on the kept rows is checked again on every row
    import toriclab.cone as cone_module

    def zero(x, generators):
        return ConeMembership(True, (Fraction(0),) * len(generators), None)

    monkeypatch.setattr(cone_module, "cone_membership", zero)
    with pytest.raises(InternalError, match=r"^membership of wall class \(0, 1\) does not "
                                            r"reassemble its full vector$"):
        extremal_walls(support_free(load_fan("blowup-cp3")))


def test_grouping_collects_positive_multiples_only():
    a = WallClass((0, 1), ((0, 1), (1, 2)), 3)
    b = WallClass((0, 2), ((0, 2), (1, 4)), 3)     # 2a: same group
    c = WallClass((1, 2), ((0, -1), (1, -2)), 3)   # -a: different group
    groups = _group_classes((a, b, c))
    assert [[cls.wall for cls in g] for g in groups] == [
        [(0, 1), (0, 2)],
        [(1, 2)],
    ]


@pytest.mark.parametrize("entries, why", [
    # the same vector as ((0, 1), (1, 2)), stored out of order
    (((1, 2), (0, 1)), r"entry \(0, 1\) is out of ray order"),
    # an explicit zero would split the class from its positive multiples
    (((0, 1), (1, 2), (2, 0)), r"entry \(2, 0\) is zero"),
    (((0, 1), (3, 2)), r"entry \(3, 2\) is outside rays 0..2"),
    (((-1, 1), (0, 2)), r"entry \(-1, 1\) is outside rays 0..2"),
])
def test_wall_class_refuses_entries_outside_its_sparse_form(entries, why):
    with pytest.raises(ValidationError, match=rf"^wall class \(0, 1\): {why}$"):
        WallClass((0, 1), entries, 3)


def _fraction_quotient_groups(classes):
    """Greedy grouping in first-appearance order, with v ~ u when the
    quotient q = v[k] / u[k] at the first nonzero entry of u is positive
    and v = q u entry by entry, all in Fractions."""
    def proportional(u, v):
        k = next((i for i, a in enumerate(u) if a != 0), None)
        if k is None or v[k] == 0:
            return False
        q = Fraction(v[k], u[k])
        return q > 0 and all(Fraction(b) == q * a for a, b in zip(u, v))

    groups = []
    for cls in classes:
        for g in groups:
            if proportional(g[0].pairing, cls.pairing):
                g.append(cls)
                break
        else:
            groups.append([cls])
    return [[cls.wall for cls in g] for g in groups]


def test_grouping_matches_fraction_quotients():
    fans = [load_fan(name) for name in FAN_NAMES] + [
        support_free(subdivided_cp3(m, seed=m)[0]) for m in range(8, 25)
    ] + [subdivided_cp3(m, seed=m)[0] for m in (60, 104)]
    for f in fans:
        classes = wall_classes(f)
        expected = _fraction_quotient_groups(classes)
        got = [[cls.wall for cls in g] for g in _group_classes(classes)]
        assert got == expected, f.name
    signed = signed_wall_classes(_antipodal_cube_pair())
    assert [[cls.wall for cls in g] for g in _group_classes(signed)] == (
        _fraction_quotient_groups(signed)
    )


@pytest.fixture(scope="module")
def cp3_1004():
    """The support fan cp3+1000 (seed 0): 1004 rays, 3006 walls."""
    return subdivided_cp3(1004, seed=0)[0]


def test_sparse_classes_at_scale(cp3_1004):
    f = cp3_1004
    classes = wall_classes(f)
    assert [cls.wall for cls in classes] == [w.key for w in f.walls]
    for cls, w in zip(classes, f.walls):
        rays = [t for t, _ in cls.entries]
        assert 1 <= len(rays) <= 4 and rays == sorted(set(rays)), w.key
        assert all(v != 0 for _, v in cls.entries), w.key
        assert sum(v for _, v in cls.entries) == w.curvature, w.key
    # reference: group the dense vectors by their primitive vector
    dense: dict[tuple[int, ...], list] = {}
    for cls in classes:
        vec = cls.pairing
        g = math.gcd(*vec)
        dense.setdefault(tuple(x // g for x in vec), []).append(cls.wall)
    got = [[cls.wall for cls in g] for g in _group_classes(classes)]
    assert got == list(dense.values())


def test_extremality_matches_bruteforce_on_small_corpus_fans():
    # Definition check without any LP: a representative is extremal iff it
    # is not a nonnegative combination of the classes outside its group.
    for name in FAN_NAMES:
        f = load_fan(name)
        an = extremal_walls(f)
        if len(an.groups) > 6:
            continue
        for g in an.groups:
            rep = next(c for c in an.classes if c.wall == g[0])
            outside = [c.pairing for c in an.classes if c.wall not in g]
            expected = not cone_member_bruteforce(rep.pairing, outside)
            assert (g[0] in an.extremal) == expected, (name, g[0])


def test_extremality_invariant_under_rescaling_and_permutation():
    f = load_fan("blowup-cp3")
    base = extremal_walls(f)
    rng = random.Random(3)
    scaled = []
    for c in base.classes:
        q = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        scaled.append(WallClass(c.wall, tuple((t, v * q) for t, v in c.entries), c.m))
    rng.shuffle(scaled)
    groups = _group_classes(scaled)
    extremal = set()
    for gi, g in enumerate(groups):
        outside = [c.pairing for gj, og in enumerate(groups) if gj != gi
                   for c in og]
        if not cone_membership(g[0].pairing, outside).member:
            extremal.update(c.wall for c in g)
    base_extremal_walls = {
        w for g in base.groups if g[0] in base.extremal for w in g
    }
    assert extremal == base_extremal_walls


# ---------------------------------------------------------------------------
# strict convexity witnesses


def test_candidate_witness_accepted_on_cube():
    classes = wall_classes(load_fan("cube-fan"))
    res = strict_convexity_witness(classes, (1,) * 6)
    assert res == tuple(Fraction(1) for _ in range(6))


def test_candidate_witness_rejected_with_failing_walls():
    classes = wall_classes(load_fan("cube-fan"))
    res = strict_convexity_witness(classes, (1, -1, 1, 1, 1, 1))
    assert isinstance(res, NoWitness)
    assert set(res.failing) == {(2, 4), (2, 5), (3, 4), (3, 5)}


def test_candidate_of_the_wrong_length_is_refused():
    classes = wall_classes(load_fan("cube-fan"))
    for cand, n in (((1,) * 9, 9), ((1, 1), 2)):
        with pytest.raises(ValidationError,
                           match=f"^candidate has {n} entries for 6 rays$"):
            strict_convexity_witness(classes, cand)


def test_candidate_check_reads_fraction_classes():
    classes = wall_classes(load_fan("cube-fan"))
    rng = random.Random(5)
    scaled = []
    for c in classes:
        q = Fraction(rng.randrange(1, 9), rng.randrange(1, 7))
        scaled.append(WallClass(c.wall, tuple((t, v * q) for t, v in c.entries), c.m))
    for cand in ((1,) * 6, (1, -1, 1, 1, 1, 1), ("1/2", 2, 0.5, 1, 3, Fraction(1, 3))):
        want = strict_convexity_witness(classes, cand)
        got = strict_convexity_witness(scaled, cand)
        if isinstance(want, NoWitness):
            assert got.failing == want.failing and str(got) == str(want)
        else:
            assert got == want


def _certify_support_failing(f, c):
    """The walls certify_support names as failing, in its order."""
    try:
        certify_support(f, c)
    except SupportInvalid as exc:
        return tuple((int(u), int(v))
                     for u, v in re.findall(r"wall \((\d+), (\d+)\)", str(exc)))
    return ()


def _cut_pushed(classes, c, t, factor):
    """The support c with cut t moved inward until the first edge whose
    length depends on it reaches 0 (factor 1), or further (factor > 1).

    An edge's length is c . pairing, so moving c_t by delta changes it by
    delta * pairing[t]; edges with pairing[t] > 0 reach 0 at
    delta = -length / pairing[t]."""
    deltas = [-sum(map(mul, c, cls.pairing)) / cls.pairing[t]
              for cls in classes if cls.pairing[t] > 0]
    c = list(c)
    c[t] += factor * max(deltas)
    return c


def test_candidate_check_and_certify_support_name_the_same_walls(cp3_1004):
    fans = [load_fan(name) for name in FAN_NAMES] + [
        subdivided_cp3(m, seed=0)[0] for m in (20, 104)] + [cp3_1004]
    for f in fans:
        classes = wall_classes(f)
        cuts = range(f.m) if f.m <= 104 else (f.m - 1,)
        pushed = [_cut_pushed(classes, f.support, t, k) for t in cuts for k in (1, 2)]
        assert strict_convexity_witness(classes, f.support) == f.support
        assert _certify_support_failing(f, f.support) == ()
        for c in pushed:
            res = strict_convexity_witness(classes, c)
            assert isinstance(res, NoWitness), f.name
            assert res.failing == _certify_support_failing(f, c), f.name


def test_lp_witness_found_without_candidate():
    for name in FAN_NAMES:
        classes = wall_classes(load_fan(name))
        res = strict_convexity_witness(classes)
        assert not isinstance(res, NoWitness), name
        for cls in classes:
            assert sum(a * b for a, b in zip(res, cls.pairing)) >= 1


def test_both_witness_routes_accept_the_same_classes():
    # The support-parameter candidate and the LP-found functional must be
    # positive on exactly the same classes: all of them.
    for name in FAN_NAMES:
        f = load_fan(name)
        classes = wall_classes(f)
        from_support = strict_convexity_witness(classes, f.support)
        from_lp = strict_convexity_witness(classes)
        for cls in classes:
            s = sum(a * b for a, b in zip(from_support, cls.pairing))
            l = sum(a * b for a, b in zip(from_lp, cls.pairing))
            assert s > 0 and l > 0, (name, cls.wall)


def test_witness_existence_matches_hull_oracle_on_corpus():
    for name in FAN_NAMES:
        classes = wall_classes(load_fan(name))
        assert not zero_in_convex_hull([c.pairing for c in classes]), name


def _antipodal_cube_pair():
    sphere = load_fan("cube-fan").sphere
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    lam = CharacteristicFunction((e1, e1, e2, e2, e3, e3))
    return CharacteristicPair(sphere, lam)


def test_signed_pair_classes_span_everything():
    # Classes of the antipodal pair come in opposite-sign pairs, so zero is
    # a convex combination and no positive functional can exist.  The
    # verdict must be fixed by the hull oracle, not assumed.
    classes = signed_wall_classes(_antipodal_cube_pair())
    vectors = [c.pairing for c in classes]
    assert zero_in_convex_hull(vectors)
    res = strict_convexity_witness(classes)
    assert isinstance(res, NoWitness)
    coeffs = res.farkas
    assert sum(coeffs) == 1
    assert all(c >= 0 for c in coeffs)
    for k in range(6):
        assert sum(c * v[k] for c, v in zip(coeffs, vectors)) == 0


def test_signed_pair_grouping_pairs_opposites_apart():
    classes = signed_wall_classes(_antipodal_cube_pair())
    groups = _group_classes(classes)
    # 12 walls, classes come in 6 coincident positive pairs (two walls per
    # vector) and sign-opposite partners always land in different groups.
    assert len(groups) == 6
    assert all(len(g) == 2 for g in groups)


# ---------------------------------------------------------------------------
# uncertified analysis without support parameters


def test_no_support_marks_analysis_uncertified():
    f = load_fan("cube-fan")
    bare = support_free(f)
    an = extremal_walls(bare)
    assert an.witness is None
    assert an.note == UNCERTIFIED_NOTE
    certified = extremal_walls(f)
    assert an.extremal == certified.extremal
    assert an.groups == certified.groups
    assert certified.note == ""


# ---------------------------------------------------------------------------
# the obstruction witness


EXPECTED_WITNESSES = {
    "cp3": ObstructionWitness(
        wall=(0, 1), a=(-1, -1), curvature=4, case="a1 < 0",
        vertex=1, neighbors=(0, 2, 3), dual_face_size=3,
    ),
    "cube-fan": ObstructionWitness(
        wall=(0, 2), a=(0, 0), curvature=2, case="a1 = 0",
        vertex=2, neighbors=(0, 1, 4, 5), dual_face_size=4,
    ),
    "blowup-cp3": ObstructionWitness(
        wall=(0, 1), a=(0, 0), curvature=2, case="a1 = 0",
        vertex=1, neighbors=(0, 2, 3, 4), dual_face_size=4,
    ),
    "cp1xcp2": ObstructionWitness(
        wall=(2, 0), a=(-1, 0), curvature=3, case="a1 < 0",
        vertex=0, neighbors=(2, 3, 4), dual_face_size=3,
    ),
    "flatwall": ObstructionWitness(
        wall=(0, 6), a=(-1, 1), curvature=2, case="a1 < 0",
        vertex=6, neighbors=(0, 2, 4), dual_face_size=3,
    ),
}


def test_obstruction_witness_exact_values():
    for name, expected in EXPECTED_WITNESSES.items():
        assert delzant_obstruction_witness(load_fan(name)) == expected, name


def test_obstruction_witness_invariants():
    # Executable form of the small-face theorem: on every corpus fan the
    # witness vertex has degree 3 or 4, matching the claimed dual face.
    for name in FAN_NAMES:
        f = load_fan(name)
        w = delzant_obstruction_witness(f)
        a1, a2 = w.a
        assert a1 <= a2
        assert a1 <= 0
        assert w.curvature == 2 - a1 - a2 > 0
        assert w.case == ("a1 < 0" if a1 < 0 else "a1 = 0")
        assert w.dual_face_size == (3 if a1 < 0 else 4)
        assert f.sphere.vertex_degree(w.vertex) == w.dual_face_size
        assert w.neighbors == f.sphere.neighbors(w.vertex)
        assert set(w.wall) <= set(f.sphere.neighbors(w.vertex)) | set(w.wall)
        # the wall itself must be extremal and live where it claims
        key = tuple(sorted(w.wall))
        assert f.wall_table[key].curvature == w.curvature


def test_obstruction_wall_is_extremal():
    for name in FAN_NAMES:
        f = load_fan(name)
        w = delzant_obstruction_witness(f)
        an = extremal_walls(f)
        key = tuple(sorted(w.wall))
        group = next(g for g in an.groups if key in g)
        assert group[0] in an.extremal, name


def test_cone_lps_are_solved_once_per_fan(monkeypatch):
    import toriclab.cone as cone_module

    calls = []

    def counting(x, generators):
        calls.append(x)
        return cone_membership(x, generators)

    monkeypatch.setattr(cone_module, "cone_membership", counting)
    for name in FAN_NAMES:
        calls.clear()
        f = load_fan(name)
        an = extremal_walls(f)
        delzant_obstruction_witness(f)
        assert len(calls) == len(an.groups), name
        # an uncertified copy is a new fan with its own analysis
        assert extremal_walls(support_free(f)) is not an


def test_support_is_checked_before_any_lp(monkeypatch):
    import toriclab.cone as cone_module
    from toriclab.fan import Fan3

    calls = []

    def counting(x, generators):
        calls.append(x)
        return cone_membership(x, generators)

    monkeypatch.setattr(cone_module, "cone_membership", counting)
    f = subdivided_cp3(24, seed=0)[0]
    g = Fan3.from_data(f.name, f.rays, f.maximal_cones,
                       support=(-f.support[0],) + f.support[1:])
    with pytest.raises(SupportInvalid) as want:
        certify_support(g, g.support)
    with pytest.raises(SupportInvalid) as err:
        extremal_walls(g)
    assert str(err.value) == str(want.value)
    assert calls == []


def test_wall_pairings_are_built_once_per_pair(monkeypatch):
    import toriclab.cohomology as cohomology_module
    from toriclab.cohomology import (certify_support, chern_number_c1c2,
                                     edge_functionals, evaluate_volume,
                                     volume_polynomial)
    from toriclab.fan import characteristic_pair

    built = []
    integral_table = cohomology_module.integral_table

    def counting(pair):
        built.append(pair)
        return integral_table(pair)

    monkeypatch.setattr(cohomology_module, "integral_table", counting)
    for name in FAN_NAMES:
        built.clear()
        f = load_fan(name)
        chern_number_c1c2(f)
        certify_support(f, f.support)
        edge_functionals(f, f.support)
        evaluate_volume(volume_polynomial(f), f.support)
        classes = wall_classes(f)
        assert signed_wall_classes(characteristic_pair(f)) == classes
        extremal_walls(f)
        assert built == [characteristic_pair(f)], name
