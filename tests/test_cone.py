"""Tests for the exact LP engine and the effective-cone analysis.

The engine is validated three independent ways: every certificate is
re-verified by exact substitution inside the library, the decisions are
compared against subset-enumeration oracles (`cone_member_bruteforce`,
`zero_in_convex_hull`) that share no code with the engine, and the
verdict on every phase-1 system ``A x = b, x >= 0``, posed as the
membership of b in the cone of A's columns, is compared with
`phase1_reference`, a rational primal tableau with Bland's rule, and its
certificate checked here by substitution.
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
    _checked_sweep,
    cone_membership,
    cone_sweep,
    positive_functional,
)
from toriclab.fan import Fan3, certify_fan

from oracles import (apply_matrix, cone_member_bruteforce, phase1_reference,
                     random_unimodular, zero_in_convex_hull)
from subdivision import subdivided_cp3


def support_free(f):
    """The fan f without its support parameters."""
    return Fan3.from_data(f.name, f.rays, f.maximal_cones)


# ---------------------------------------------------------------------------
# phase-1 systems: A x = b, x >= 0 is the membership of b in the cone of
# the columns of A


def _columns(rows):
    return [list(col) for col in zip(*rows)]


def _check_certificate(vectors, target, member, coefficients, separator):
    """The answer for ``target in cone(vectors)``, by substitution: the
    coefficients are nonnegative and reassemble the target, or the
    separator pairs nonpositively with every vector and positively with
    the target."""
    if member:
        assert min(coefficients, default=0) >= 0
        assert all(sum(c * v[t] for c, v in zip(coefficients, vectors)) == target[t]
                   for t in range(len(target)))
    else:
        assert all(sum(map(mul, separator, v)) <= 0 for v in vectors)
        assert sum(map(mul, separator, target)) > 0


def test_phase1_solves_a_square_system():
    res = cone_membership([3, 5], _columns([[1, 0], [0, 1]]))
    assert res.member
    assert res.coefficients == (3, 5)


def test_phase1_detects_infeasibility_with_certificate():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold.
    res = cone_membership([1, 2], _columns([[1, 1], [1, 1]]))
    assert not res.member
    y = res.separator
    assert y[0] + y[1] <= 0  # y pairs nonpositively with both columns (1, 1)
    assert y[0] * 1 + y[1] * 2 > 0


def test_phase1_requires_nonnegativity():
    # x = -1 has no nonnegative solution even though the system is square.
    res = cone_membership([-1], _columns([[1]]))
    assert not res.member


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
        cols = _columns(rows)
        got = cone_membership(rhs, cols)
        assert got.member == (phase1_reference(rows, rhs)[0] is not None)
        _check_certificate(cols, rhs, got.member, got.coefficients, got.separator)
        feasible += got.member
    assert 100 <= feasible <= 300


def _membership_systems(f):
    """The extremality question of every group of f as one membership
    system: its representative against every class outside it, in the H2
    coordinates the analysis reads (the rays off the first cone)."""
    an = extremal_walls(f)
    kept = [t for t in range(f.m) if t not in f.maximal_cones[0]]
    row = {cls.wall: [cls.pairing[t] for t in kept] for cls in an.classes}
    return [(row[g[0]], [row[w] for h in an.groups if h is not g for w in h])
            for g in an.groups]


@pytest.fixture(scope="module")
def library_lps():
    """Every system the engine gets from the library's questions, with its
    unverified integer answer: the extremality sweep of every fan, the
    extremality of every group posed as one membership LP, and the
    positive-functional LPs, on the corpus fans, on support-free star
    subdivisions of cp3 with m = 8..14 and on the antipodal cube pair.
    They are recorded where they enter the engine, one
    ``(vectors, i, answer)`` per vector decided: is vector i a
    nonnegative combination of the others?  The extremality sweep hands
    the verifier whole vectors but the engine only their H2 rows, the rays
    off the first cone, so these are the systems the digests below pin."""
    import toriclab.exactlp as exactlp

    sweep = exactlp._sweep_integral
    systems = []

    def recording(cols, start):
        for i, answer in enumerate(sweep(cols, start), start):
            systems.append((cols, i, answer))
            yield answer

    fans = [load_fan(name) for name in FAN_NAMES] + [
        support_free(subdivided_cp3(m, seed=m)[0]) for m in range(8, 15)
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlp, "_sweep_integral", recording)
        for f in fans:
            for x, generators in _membership_systems(f):
                cone_membership(x, generators)
            strict_convexity_witness(extremal_walls(f).classes)
        strict_convexity_witness(signed_wall_classes(_antipodal_cube_pair()))
    return systems


def test_phase1_matches_the_rational_tableau_on_library_lps(library_lps):
    feasible = 0
    for cols, i, (x, y, d) in library_lps:
        others = cols[:i] + cols[i + 1:]
        rows = [[v[t] for v in others] for t in range(len(cols[i]))]
        assert (x is not None) == (phase1_reference(rows, cols[i])[0] is not None)
        if x is not None:
            assert x[i] == 0
            x = x[:i] + x[i + 1:]
        _check_certificate(others, [d * v for v in cols[i]], x is not None, x, y)
        feasible += x is not None
    # 285 systems, 107 of them feasible
    assert len(library_lps) >= 140
    assert 50 <= feasible <= len(library_lps) - 50


def test_every_pivot_rewrites_only_its_column_and_keeps_rows_primitive(library_lps, monkeypatch):
    # Each pivot of the library's systems leaves a row with a zero entry in
    # the pivot column as the same list, and after it every row with a basic
    # column is primitive, with a positive basic entry, the only nonzero
    # entry of that column.  Elimination drops rows only past the basic
    # ones, so a basic row keeps its index.
    import toriclab.exactlp as exactlp

    pivot = exactlp._pivot
    basis, pivots = {}, []

    def checking(tab, r, e):
        before = list(tab)
        pivot(tab, r, e)
        basis[r] = e
        pivots.append((r, e))
        for i, (old, new) in enumerate(zip(before, tab)):
            assert i == r or (new is old) == (old[e] == 0)
        for i, j in basis.items():
            assert tab[i][j] > 0 and math.gcd(*tab[i]) == 1
            assert not any(row[j] for row in tab[:i] + tab[i + 1:])

    monkeypatch.setattr(exactlp, "_pivot", checking)
    systems = {}
    for cols, i, _ in library_lps:
        systems.setdefault(id(cols), (cols, i))  # a sweep starts at its first vector
    for cols, start in systems.values():
        basis.clear()
        list(exactlp._sweep_integral(cols, start))
    assert len(pivots) >= 1000


def test_every_entry_point_verifies_the_certificate_it_gets(monkeypatch):
    # The integer sweep hands back a wrong answer of either kind: zero
    # coefficients, or a negated separator.  Each public entry point must
    # refuse it rather than return it.
    import toriclab.exactlp as exactlp

    sweep = exactlp._sweep_integral

    def tampered(cols, start):
        for x, y, d in sweep(cols, start):
            yield ([0] * len(x), None, d) if x is not None else (None, [-v for v in y], d)

    monkeypatch.setattr(exactlp, "_sweep_integral", tampered)
    coefficients = "membership coefficients of vector 2 failed verification"
    separator = "separator of vector 2 fails on a vector or on vector 2"
    for call, message in (
        (lambda: cone_membership([1, 1], [[1, 0], [0, 1]]), coefficients),
        (lambda: cone_membership([-1, 0], [[1, 0], [0, 1]]), separator),
        (lambda: positive_functional([[1, 0], [0, 1]]), separator),
        (lambda: positive_functional([[1], [-1]]), coefficients),
    ):
        with pytest.raises(InternalError, match=f"^{re.escape(message)}$"):
            call()


def test_phase1_reads_strings_as_fractions():
    exact = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), 1]], [1, Fraction(-1, 2)]
    written = [["1/2", "1/3"], ["1/4", "1"]], ["1", "-1/2"]
    got = cone_membership(exact[1], _columns(exact[0]))
    assert cone_membership(written[1], _columns(written[0])) == got
    assert got.member == (phase1_reference(*exact)[0] is not None)


@pytest.mark.parametrize("call, entry", [
    (lambda: positive_functional([(0.1, True), (1, 1)]), "0.1"),
    (lambda: cone_membership((0.5, 0.5), [(1, 0), (0, 1)]), "0.5"),
    (lambda: cone_membership([1], [[Fraction(1, 2)], [True]]), "True"),
    (lambda: cone_membership([__import__("decimal").Decimal("0.25")], [[1]]),
     "Decimal('0.25')"),
    (lambda: cone_sweep([(1, 0), (0, 1.0)]), "1.0"),
    (lambda: cone_membership((1, 0), [(1, "1.5")]), "'1.5'"),
])
def test_lp_entries_are_read_as_support_entries(call, entry):
    # floats and bools are refused, as in a fan's support, however exact
    # their value
    with pytest.raises(ValidationError, match=rf"^LP entry {re.escape(entry)} is not "
                                              r"a Fraction, an int or a 'p/q' string$"):
        call()


@pytest.mark.parametrize("call, lengths", [
    (lambda: cone_membership((1, 0), [(1, 0), (0, 1, 0)]), "2, 3"),
    (lambda: cone_membership((1, 0, 0), [(1, 0), (0, 1)]), "2, 3"),
    (lambda: positive_functional([(1, 0), (1,)]), "1, 2"),
    (lambda: cone_sweep([(1, 0), (0, 1), ()]), "0, 2"),
])
def test_ragged_lp_input_is_refused(call, lengths):
    # vectors of different lengths are the caller's fault, named as such
    with pytest.raises(ValidationError,
                       match=rf"^LP vectors have different lengths: {lengths}$"):
        call()


def test_cone_module_exposes_the_lp_entry_points(monkeypatch):
    # `perfbench/run.py --trace` wraps these two names on toriclab.cone,
    # so the analysis must call them through that module
    import toriclab.cone as cone_module
    import toriclab.exactlp as exactlp

    assert cone_module.cone_membership is exactlp.cone_membership
    assert cone_module.positive_functional is exactlp.positive_functional
    calls = []
    monkeypatch.setattr(cone_module, "positive_functional",
                        lambda rows: calls.append(rows) or exactlp.positive_functional(rows))
    strict_convexity_witness(wall_classes(load_fan("cp3")))
    assert len(calls) == 1


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
# the membership sweep


def _random_vector_lists(count, seed):
    """Small seeded lists of 1 to 5 vectors in dimension 1 to 4, entries
    in -2..2 with some halves and thirds.  Some lists are rank-deficient
    (the last coordinate repeats the first), some repeat a vector or hold
    a zero vector, and some give one vector a coordinate no other vector
    reaches."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randrange(1, 5)
        dens = rng.choice([(1,), (1,), (1, 2, 3)])
        vecs = [[Fraction(rng.randrange(-2, 3), rng.choice(dens)) for _ in range(dim)]
                for _ in range(rng.randrange(1, 6))]
        if dim > 1 and rng.random() < 0.25:
            for v in vecs:
                v[-1] = v[0]
        if rng.random() < 0.2:
            vecs.insert(rng.randrange(len(vecs) + 1), list(rng.choice(vecs)))
        if rng.random() < 0.15:
            vecs.insert(rng.randrange(len(vecs) + 1), [0] * dim)
        if rng.random() < 0.2:
            lone, t = rng.randrange(len(vecs)), rng.randrange(dim)
            for j, v in enumerate(vecs):
                v[t] = rng.choice((-1, 1)) if j == lone else 0
        yield [tuple(v) for v in vecs]


def test_sweep_agrees_with_membership_and_bruteforce():
    members = separated = 0
    for vecs in _random_vector_lists(400, seed=28):
        answers = cone_sweep(vecs)
        assert len(answers) == len(vecs)
        for i, (x, res) in enumerate(zip(vecs, answers)):
            others = vecs[:i] + vecs[i + 1:]
            assert res.member == cone_membership(x, others).member
            assert res.member == cone_member_bruteforce(x, others)
            assert (res.coefficients is None) != (res.separator is None)
            if res.member:
                members += 1
                c = res.coefficients
                assert len(c) == len(vecs) and c[i] == 0 and min(c) >= 0
                assert all(sum(a * v[k] for a, v in zip(c, vecs)) == x[k]
                           for k in range(len(x)))
            else:
                separated += 1
                pair = [sum(map(mul, res.separator, v)) for v in vecs]
                assert pair[i] > 0
                assert all(p <= 0 for j, p in enumerate(pair) if j != i)
    assert members >= 400 and separated >= 400


def test_sweep_decides_a_vector_alone_on_its_coordinate():
    # vector 0 is the only one with a third coordinate: the sweep starts
    # with it basic, no other column reaches its row, and that row of the
    # inverse basis separates it
    vecs = [(1, 1, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    answers = cone_sweep(vecs)
    assert [res.member for res in answers] == [False, False, False, True]
    assert answers[0].separator == (0, 0, 1)
    assert answers[3].coefficients == (0, 1, 1, 0)
    assert cone_sweep([]) == ()
    assert cone_sweep([(0, 0)]) == (ConeMembership(True, (0,), None),)


def test_the_sweep_verifies_every_certificate(monkeypatch):
    import toriclab.exactlp as exactlp

    sweep = exactlp._sweep_integral

    def tampered(cols, start):
        for x, y, d in sweep(cols, start):
            yield ([0] * len(x), None, d) if x is not None else (None, [-v for v in y], d)

    monkeypatch.setattr(exactlp, "_sweep_integral", tampered)
    for vecs, message in (
        ([(1, 1), (1, 0), (0, 1)], "membership coefficients of vector 0 failed verification"),
        ([(1, 0), (0, 1)], "separator of vector 0 fails on a vector or on vector 0"),
    ):
        with pytest.raises(InternalError, match=f"^{re.escape(message)}$"):
            cone_sweep(vecs)


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
    ] + [support_free(subdivided_cp3(30, seed=0)[0])]
    for f in fans:
        an = extremal_walls(f)
        assert an.extremal == _dense_extremal(an), f.name


def test_a_membership_must_reassemble_the_full_vector(monkeypatch):
    # the cone's sweep solves on the kept rows; the sweep's one verifier
    # checks each answer on the whole vectors the cone hands over
    import toriclab.exactlp as exactlp

    def zero(cols, start):
        return (([0] * len(cols), None, 1) for _ in cols[start:])

    monkeypatch.setattr(exactlp, "_sweep_integral", zero)
    with pytest.raises(InternalError, match=r"^membership coefficients of vector 0 "
                                            r"failed verification$"):
        extremal_walls(support_free(load_fan("blowup-cp3")))


def test_a_separator_must_hold_on_every_class_outside_its_group(monkeypatch):
    import toriclab.exactlp as exactlp

    sweep = exactlp._sweep_integral

    def negated(cols, start):
        for x, y, d in sweep(cols, start):
            yield (x, y, d) if x is not None else (x, [-v for v in y], d)

    monkeypatch.setattr(exactlp, "_sweep_integral", negated)
    with pytest.raises(InternalError, match=r"^separator of vector 0 fails on a "
                                            r"vector or on vector 0$"):
        extremal_walls(support_free(load_fan("blowup-cp3")))


def test_an_answer_on_some_rows_is_checked_on_the_whole_vectors():
    # on row 0 alone each of (1, 1) and (1, -1) is the other, but not on
    # both rows: the membership the sweep finds there is refused
    with pytest.raises(InternalError, match=r"^membership coefficients of vector 0 "
                                            r"failed verification$"):
        list(_checked_sweep([[1, 1], [1, -1]], rows=[0]))
    # a separator found on row 0 comes back padded with zeros
    assert next(_checked_sweep([[1, 5], [0, 7]], rows=[0])) == (None, [1, 0], 1)


def test_every_separator_of_the_cone_sweep_holds_on_every_class(monkeypatch):
    # the verifier checks a separator against the other representatives;
    # every class outside the group is one of them times a positive factor
    import toriclab.cone as cone_module

    recorded = []

    def recording(cols, rows=None):
        recorded.append(list(_checked_sweep(cols, rows=rows)))
        return recorded[-1]

    monkeypatch.setattr(cone_module, "_checked_sweep", recording)
    fans = [load_fan(name) for name in FAN_NAMES] + [
        support_free(subdivided_cp3(m, seed=m)[0]) for m in range(8, 25)
    ]
    separators = 0
    for f in fans:
        recorded.clear()
        an = extremal_walls(f)
        [answers] = recorded
        entries = {cls.wall: cls.entries for cls in an.classes}
        for g, (x, y, _) in zip(an.groups, answers):
            if x is not None:
                continue
            assert len(y) == f.m
            for h in an.groups:
                for w in h:
                    pair = sum(y[t] * v for t, v in entries[w])
                    assert pair > 0 if h is g else pair <= 0, (f.name, g[0], w)
            separators += 1
    assert separators >= 300  # 313 on these 22 fans


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
    # floats and bools were grouped by their binary value
    (((0, 0.1), (1, True)), r"entry \(0, 0\.1\) is not an int ray id with an int value"),
    (((0, 1), (1, True)), r"entry \(1, True\) is not an int ray id with an int value"),
    (((True, 1),), r"entry \(True, 1\) is not an int ray id with an int value"),
    # every entry is an intersection number of integral classes
    (((0, Fraction(1, 2)),), r"entry \(0, Fraction\(1, 2\)\) is not an int ray id with an "
                             r"int value"),
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
        q = rng.randrange(1, 9)
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


@pytest.mark.parametrize("args, message", [
    # classes that are no sequence escaped as a bare TypeError, and an item
    # that is no WallClass as a bare AttributeError (on .m or .pairing)
    ((5,), "classes = 5 is not a sequence"),
    ((5, (1, 1)), "classes = 5 is not a sequence"),
    (([5], (1,)), "class 0 = 5 is not a WallClass"),
    (([5],), "class 0 = 5 is not a WallClass"),
])
def test_classes_that_are_no_wall_classes_are_refused(args, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        strict_convexity_witness(*args)


@pytest.mark.parametrize("c_tilde", [None, (1,) * 4])
def test_classes_over_different_numbers_of_rays_are_refused(c_tilde):
    classes = wall_classes(load_fan("cp3")) + wall_classes(load_fan("cube-fan"))
    with pytest.raises(ValidationError,
                       match="^classes are over different numbers of rays: 4, 6$"):
        strict_convexity_witness(classes, c_tilde)


def test_candidate_check_reads_rescaled_classes():
    classes = wall_classes(load_fan("cube-fan"))
    rng = random.Random(5)
    scaled = []
    for c in classes:
        q = rng.randrange(1, 9)
        scaled.append(WallClass(c.wall, tuple((t, v * q) for t, v in c.entries), c.m))
    half, third = Fraction(1, 2), Fraction(1, 3)
    for cand in ((1,) * 6, (1, -1, 1, 1, 1, 1), ("1/2", 2, half, 1, 3, third)):
        want = strict_convexity_witness(classes, cand)
        got = strict_convexity_witness(scaled, cand)
        if isinstance(want, NoWitness):
            assert got.failing == want.failing and str(got) == str(want)
        else:
            assert got == want


@pytest.mark.parametrize("entry", [0.5, True])
def test_candidate_entries_are_read_as_support_entries(entry):
    f = load_fan("cube-fan")
    cand = (entry, 1, 1, 1, 1, 1)
    message = rf"^support entry 0 = {entry!r} is not a Fraction, an int or a 'p/q' string$"
    with pytest.raises(ValidationError, match=message):
        certify_support(f, cand)
    with pytest.raises(ValidationError, match=message):
        strict_convexity_witness(wall_classes(f), cand)
    # the entry count is checked before any entry is read
    with pytest.raises(ValidationError, match="^candidate has 7 entries for 6 rays$"):
        strict_convexity_witness(wall_classes(f), cand + (1,))


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


# A complete unimodular fan that is not projective: the one fan with m = 7
# rays and wall coefficients |a_i| <= 2 whose wall classes admit no
# positive functional (Oda's example has Picard number 4 too).
NON_PROJECTIVE_RAYS = ((1, 0, 0), (-1, 1, -2), (0, 0, 1), (0, 1, 0), (1, -1, 1),
                       (0, 1, -1), (-1, 0, -1))
NON_PROJECTIVE_CONES = ((0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
                        (1, 3, 5), (1, 3, 6), (1, 4, 6), (2, 3, 6), (2, 4, 6))


def _non_projective_images(count, seed):
    """The fan, then count images of it, each under a random GL(3, Z) map
    and a random relabelling of its rays."""
    yield Fan3.from_data("non-projective", NON_PROJECTIVE_RAYS, NON_PROJECTIVE_CONES)
    rng = random.Random(seed)
    for _ in range(count):
        u = random_unimodular(rng, det_sign=rng.choice((1, -1)))
        perm = list(range(7))
        rng.shuffle(perm)
        rays = [None] * 7
        for i, ray in enumerate(NON_PROJECTIVE_RAYS):
            rays[perm[i]] = apply_matrix(u, ray)
        cones = [tuple(sorted(perm[i] for i in cone)) for cone in NON_PROJECTIVE_CONES]
        yield Fan3.from_data("non-projective", rays, cones)


def test_a_non_projective_fan_is_refused_with_a_farkas_certificate():
    for f in _non_projective_images(20, seed=1607):
        certify_fan(f)
        classes = wall_classes(f)
        assert len(classes) == 15
        res = strict_convexity_witness(classes)
        assert isinstance(res, NoWitness)
        assert sorted(res.farkas)[-4:] == [0] + [Fraction(1, 3)] * 3
        # convex coefficients combining the pairing vectors to zero
        assert all(c >= 0 for c in res.farkas) and sum(res.farkas) == 1
        assert all(sum(c * cls.pairing[t] for c, cls in zip(res.farkas, classes)) == 0
                   for t in range(f.m))
        assert extremal_walls(f).witness is None
        assert extremal_walls(f).note == UNCERTIFIED_NOTE


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

    sweeps = []

    def counting(cols, rows=None):
        sweeps.append((cols, rows))
        return _checked_sweep(cols, rows=rows)

    monkeypatch.setattr(cone_module, "_checked_sweep", counting)
    for name in FAN_NAMES:
        sweeps.clear()
        f = load_fan(name)
        an = extremal_walls(f)
        delzant_obstruction_witness(f)
        # the representatives' whole vectors, solved on the rays off the
        # first cone
        pairing = {cls.wall: cls.pairing for cls in an.classes}
        kept = [t for t in range(f.m) if t not in f.maximal_cones[0]]
        assert sweeps == [([pairing[g[0]] for g in an.groups], kept)], name
        # an uncertified copy is a new fan with its own analysis
        assert extremal_walls(support_free(f)) is not an


def test_support_is_checked_before_any_lp(monkeypatch):
    import toriclab.cone as cone_module
    from toriclab.fan import Fan3

    sweeps = []

    def counting(cols, rows=None):
        sweeps.append(cols)
        return _checked_sweep(cols, rows=rows)

    monkeypatch.setattr(cone_module, "_checked_sweep", counting)
    f = subdivided_cp3(24, seed=0)[0]
    g = Fan3.from_data(f.name, f.rays, f.maximal_cones,
                       support=(-f.support[0],) + f.support[1:])
    with pytest.raises(SupportInvalid) as want:
        certify_support(g, g.support)
    with pytest.raises(SupportInvalid) as err:
        extremal_walls(g)
    assert str(err.value) == str(want.value)
    assert sweeps == []


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


# the digest of the analysis and obstruction reprs of the fans below; a
# change in the groups, the verdicts, the witnesses or their reprs shows here
ANALYSIS_DIGEST = "74c56d6320685e58133123cb1f5566faf25e7afa7a66a56f4549ef142b1623c7"


def test_analysis_reprs_match_the_recorded_digest():
    import hashlib

    fans = [load_fan(name) for name in FAN_NAMES] + [
        support_free(subdivided_cp3(m, seed)[0]) for m in (8, 14, 24, 44) for seed in range(3)
    ]
    digest = hashlib.sha256()
    for f in fans:
        digest.update(repr(extremal_walls(f)).encode())
        digest.update(repr(delzant_obstruction_witness(f)).encode())
    assert digest.hexdigest() == ANALYSIS_DIGEST


# the digest of the rational answers of the LP entry points on the systems
# the library poses, on random systems with mixed denominators, and of the
# strict convexity witnesses of the corpus fans; a change in any
# coefficient, separator, functional or refutation shows here
LP_ANSWERS_DIGEST = "d77b6973af36f3995174ebe0e649770f83296979d494db6914409992308d9e72"


def _answer_text(res) -> str:
    """The repr of an answer, with a NoWitness's certificates shown."""
    if isinstance(res, NoWitness):
        return f"NoWitness({str(res)!r}, farkas={res.farkas!r}, failing={res.failing!r})"
    return repr(res)


def test_lp_answers_match_the_recorded_digest(library_lps):
    import hashlib

    answers = []
    for cols in {id(cols): cols for cols, _, _ in library_lps}.values():
        answers += [cone_sweep(cols), positive_functional(cols)]
    answers += [cone_membership(cols[i], cols[:i] + cols[i + 1:]) for cols, i, _ in library_lps]
    for rows, rhs in _random_systems(200, seed=5):
        cols = _columns(rows)
        answers += [cone_membership(rhs, cols), cone_sweep([*cols, rhs])]
        if rows and rows[0]:
            answers.append(positive_functional(rows))
    for f in map(load_fan, FAN_NAMES):
        classes = wall_classes(f)
        answers += [strict_convexity_witness(classes),
                    strict_convexity_witness(classes, f.support)]
    answers.append(strict_convexity_witness(signed_wall_classes(_antipodal_cube_pair())))
    digest = hashlib.sha256()
    for res in answers:
        digest.update(_answer_text(res).encode())
    assert len(answers) >= 1000
    assert digest.hexdigest() == LP_ANSWERS_DIGEST
