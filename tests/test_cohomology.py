"""Tests for the intersection calculus, volume polynomials, and the signed
extension.

Every intersection table is cross-checked against ``integral_table_oracle``,
which solves the defining linear system by exact Gaussian elimination and
never touches the production reduction code.  Volumes are cross-checked
against ``polytope_volume_oracle``, which enumerates vertices and sums
tetrahedra — pure convex geometry, no cohomology.
"""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from toriclab.charfunc import CharacteristicFunction, CharacteristicPair, check_star_condition
from toriclab.coloring import coloring_to_charfunc, four_color
from toriclab.cohomology import (
    certify_support,
    chern_number_c1c2,
    edge_functional,
    edge_functionals,
    evaluate_volume,
    integral_table,
    linear_relation,
    serialize_volume_polynomial,
    signed_triple_intersection,
    triple_intersection,
    volume_polynomial,
)
from toriclab.combinatorics import SimplicialSphere2, betti_numbers
from toriclab.corpus import FAN_NAMES, load_fan, load_polytope
from toriclab.errors import IncompleteFan, SupportInvalid, ValidationError
from toriclab.fan import (Fan3, characteristic_pair, check_complete, classify_wall,
                         parse_fan, wall_data)
from toriclab.polytope import dual_sphere

from branched import branched_cover_text
from oracles import (integral_table_oracle, polytope_volume_oracle,
                     volume_value_reference)
from subdivision import subdivided_cp3
from test_combinatorics import ICOSA_TRIANGLES


def all_multisets(m):
    return list(itertools.combinations_with_replacement(range(m), 3))


# ---------------------------------------------------------------------------
# triple intersections


def test_distinct_triples_cp3():
    f = load_fan("cp3")
    # the number for three distinct classes is 1 exactly when the
    # corresponding rays span a maximal cone
    assert triple_intersection(f, (0, 1, 2)) == 1
    assert triple_intersection(f, (0, 1, 3)) == 1


def test_distinct_triples_scan_matches_cone_membership():
    for name in FAN_NAMES:
        f = load_fan(name)
        cones = set(f.maximal_cones)
        for trip in itertools.combinations(range(f.m), 3):
            expected = 1 if tuple(sorted(trip)) in cones else 0
            assert triple_intersection(f, trip) == expected, (name, trip)


def test_square_times_adjacent_is_minus_wall_coefficient():
    # u_i^2 u_j = -a  where a is the coefficient of ray i in the
    # wall relation across the wall {i, j}
    for name in FAN_NAMES:
        f = load_fan(name)
        for w in f.walls:
            i, j = w.pair
            ai, aj = w.a
            assert triple_intersection(f, (i, i, j)) == -ai, (name, w.pair)
            assert triple_intersection(f, (j, j, i)) == -aj, (name, w.pair)


def test_square_examples():
    # hand reductions on the coordinate-cube fan and cp3
    cube = load_fan("cube-fan")
    assert triple_intersection(cube, (0, 0, 2)) == 0
    assert triple_intersection(cube, (0, 0, 0)) == 0
    cp3 = load_fan("cp3")
    assert triple_intersection(cp3, (0, 0, 1)) == 1
    assert triple_intersection(cp3, (0, 0, 0)) == 1


def test_non_wall_distinct_pair_inside_repeat():
    # {i, i, j} for a non-adjacent pair reduces to zero: u_i u_j is already
    # zero in the face ring.
    cube = load_fan("cube-fan")
    assert triple_intersection(cube, (0, 0, 1)) == 0  # antipodal rays


def test_bad_indices_rejected():
    f = load_fan("cp3")
    with pytest.raises(ValidationError):
        triple_intersection(f, (0, 1))
    with pytest.raises(ValidationError):
        triple_intersection(f, (0, 1, 9))


@pytest.mark.parametrize("indices", [(0.9, 1, 2), ("a", 1, 2), (Fraction(1), 1, 2),
                                     (True, 2, 3), (0.0, 1, 2)])
def test_non_integer_indices_rejected(indices):
    # an index is refused unless it is an int, as a ray entry is; int()
    # used to truncate 0.9 to the (0, 1, 2) integral, and the wall and
    # triangle lookups read 0.0 and True as 0 and 1
    f = load_fan("cp3")
    message = rf"^indices {re.escape(repr(indices))} are not all integers$"
    with pytest.raises(ValidationError, match=message):
        triple_intersection(f, indices)
    with pytest.raises(ValidationError, match=message):
        signed_triple_intersection(characteristic_pair(f), indices)
    with pytest.raises(ValidationError, match=message):
        volume_polynomial(f).coefficient(indices)
    with pytest.raises(ValidationError, match=message):
        f.sphere.orientation_sign(*indices)
    pair = indices[:2]
    message = rf"^indices {re.escape(repr(pair))} are not all integers$"
    for lookup in (wall_data, classify_wall, lambda f, pair: edge_functional(f, pair, f.support),
                   lambda f, pair: f.sphere.wall_apexes(pair)):
        with pytest.raises(ValidationError, match=message):
            lookup(f, pair)


@pytest.mark.parametrize("key", [5, None])
def test_keys_that_are_no_sequence_rejected(key):
    # each escaped as a bare TypeError ("... object is not iterable")
    f = load_fan("cp3")
    pair = characteristic_pair(f)
    for lookup in (lambda: triple_intersection(f, key),
                   lambda: signed_triple_intersection(pair, key),
                   lambda: volume_polynomial(f).coefficient(key),
                   lambda: wall_data(f, key), lambda: classify_wall(f, key),
                   lambda: edge_functional(f, key, f.support),
                   lambda: f.sphere.wall_apexes(key)):
        with pytest.raises(ValidationError, match=rf"^indices {key!r} are not a sequence$"):
            lookup()


@pytest.mark.parametrize("mu", [(1.7, 0, 0), (1, 0), (1, 0, 0, 0), ("1", 0, 0), (True, 0, 0)])
def test_linear_relation_rejects_a_non_integer_3_vector(mu):
    with pytest.raises(ValidationError,
                       match=rf"^mu = {re.escape(str(mu))} is not an integer 3-vector$"):
        linear_relation(load_fan("cp3"), mu)


# ---------------------------------------------------------------------------
# the oracle cross-check: every entry of every corpus table


def test_full_tables_match_linear_system_oracle():
    for name in FAN_NAMES:
        f = load_fan(name)
        oracle = integral_table_oracle(f.rays, f.maximal_cones)
        for ms in all_multisets(f.m):
            assert triple_intersection(f, ms) == oracle[ms], (name, ms)


# ---------------------------------------------------------------------------
# linear relations and annihilation


def test_linear_relation_examples():
    cp3 = load_fan("cp3")
    rel = linear_relation(cp3, (1, 0, 0))
    assert rel.coeffs == (1, 0, 0, -1)
    cube = load_fan("cube-fan")
    rel = linear_relation(cube, (1, 0, 0))
    assert rel.coeffs == (1, -1, 0, 0, 0, 0)
    zero = linear_relation(cube, (0, 0, 0))
    assert zero.coeffs == (0,) * 6


def test_relations_annihilate_every_table():
    # sum_t <mu, ray_t> * N(J + t) = 0 for every degree-two J and every
    # covector mu; checking the three coordinate covectors suffices
    for name in FAN_NAMES:
        f = load_fan(name)
        for mu in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            rel = linear_relation(f, mu)
            for pair in itertools.combinations_with_replacement(range(f.m), 2):
                total = sum(
                    c * triple_intersection(f, pair + (t,))
                    for t, c in enumerate(rel.coeffs)
                )
                assert total == 0, (name, mu, pair)


def test_wall_curvature_equals_column_sum():
    # summing N(i, j, t) over all t gives the curvature of the wall
    # {i, j}: the anticanonical class pairs with the wall class this way
    for name in FAN_NAMES:
        f = load_fan(name)
        for w in f.walls:
            i, j = w.pair
            total = sum(triple_intersection(f, (i, j, t)) for t in range(f.m))
            assert total == w.curvature, (name, w.pair)


def test_chern_number_is_24():
    for name in FAN_NAMES:
        f = load_fan(name)
        assert chern_number_c1c2(f) == 24, name


# ---------------------------------------------------------------------------
# Betti numbers


def test_betti_simplex_boundary():
    f = load_fan("cp3")
    assert betti_numbers(f.sphere) == (1, 1, 1, 1)


def test_betti_octahedron():
    f = load_fan("cube-fan")
    assert betti_numbers(f.sphere) == (1, 3, 3, 1)


def test_betti_icosahedron():
    sphere = SimplicialSphere2.from_triangles(12, ICOSA_TRIANGLES)
    assert betti_numbers(sphere) == (1, 9, 9, 1)


# ---------------------------------------------------------------------------
# volume polynomials


def test_volume_values_match_geometry_oracle():
    for name in FAN_NAMES:
        f = load_fan(name)
        v = volume_polynomial(f)
        assert v(f.support) == polytope_volume_oracle(f.rays, f.support), name


def test_cube_volume_is_8():
    f = load_fan("cube-fan")
    assert evaluate_volume(volume_polynomial(f), f.support) == 8


def test_cp3_volume_is_32_over_3():
    f = load_fan("cp3")
    assert evaluate_volume(volume_polynomial(f), f.support) == Fraction(32, 3)


def test_cube_volume_factors_as_product_of_widths():
    # (c0 + c1)(c2 + c3)(c4 + c5): one monomial per choice of an opposite
    # pair from each axis, all coefficients 1.
    f = load_fan("cube-fan")
    v = volume_polynomial(f)
    expected = {
        tuple(sorted((i, j, k))): Fraction(1)
        for i in (0, 1) for j in (2, 3) for k in (4, 5)
    }
    actual = {ms: c for ms, c in v.coeffs if c != 0}
    assert actual == expected


def test_cube_volume_scales_along_one_axis():
    f = load_fan("cube-fan")
    v = volume_polynomial(f)
    for t in (1, 2, 7, Fraction(1, 2)):
        c = (1, 1, 1, 1, t, t)
        assert v(c) == 8 * t
        assert v(c) == polytope_volume_oracle(f.rays, c)


def test_cp3_volume_is_perfect_cube():
    # (c0 + c1 + c2 + c3)^3 / 6: multinomial coefficients over 6.
    f = load_fan("cp3")
    v = volume_polynomial(f)
    for ms in all_multisets(4):
        counts = [ms.count(t) for t in set(ms)]
        multinomial = Fraction(6)
        for c in counts:
            for k in range(1, c + 1):
                multinomial /= k
        assert v.coefficient(ms) == multinomial / 6, ms


def test_coefficient_and_coeffs_weigh_alike():
    fans = [load_fan(name) for name in FAN_NAMES] + [subdivided_cp3(104, seed=104)[0]]
    for f in fans:
        v = volume_polynomial(f)
        coeffs = dict(v.coeffs)
        assert len(coeffs) == len(v.coeffs) == len(characteristic_pair(f).integrals)
        for key, c in v.coeffs:
            assert v.coefficient(key) == coeffs[key], (f.name, key)


def test_random_supports_match_geometry_oracle():
    # The polynomial must agree with raw convex geometry away from the
    # corpus supports too, wherever the support stays valid.
    f = load_fan("cube-fan")
    v = volume_polynomial(f)
    for c in [(1, 2, 3, 4, 5, 6), (Fraction(1, 3), 1, 1, 1, 1, 1)]:
        assert v(c) == polytope_volume_oracle(f.rays, c)
    g = load_fan("blowup-cp3")
    w = volume_polynomial(g)
    for c in [(1, 1, 1, 1, Fraction(5, 2)), (2, 1, 1, 1, 2)]:
        assert w(c) == polytope_volume_oracle(g.rays, c)


def test_values_match_the_fraction_sum_at_mixed_denominators():
    # Evaluation runs over one common denominator; the plain Fraction sum
    # of the coefficients must give the same value for every input type.
    for name in FAN_NAMES:
        f = load_fan(name)
        v = volume_polynomial(f)
        mixed = [Fraction(-(t + 1) ** 2, 2 * t + 3) for t in range(f.m)]
        for c in (f.support, mixed, [Fraction(x, -7) for x in f.support],
                  list(range(-2, f.m - 2)), [str(x) for x in mixed],
                  [Fraction(1, 2 ** 90)] * f.m):
            assert v(c) == volume_value_reference(v.coeffs, c), (name, c)
        with pytest.raises(ValidationError, match=f"^{f.m - 1} values for "
                                                  f"{f.m} variables$"):
            v(f.support[1:])


def _third_difference(v, m, i, j, k):
    """Exact third mixed difference of a cubic polynomial = third partial."""

    def e(t):
        return tuple(1 if s == t else 0 for s in range(m))

    def add(*vecs):
        return tuple(sum(col) for col in zip(*vecs))

    total = Fraction(0)
    for bi in (0, 1):
        for bj in (0, 1):
            for bk in (0, 1):
                sign = (-1) ** (bi + bj + bk)
                point = add(
                    tuple(0 for _ in range(m)),
                    e(i) if bi == 0 else (0,) * m,
                    e(j) if bj == 0 else (0,) * m,
                    e(k) if bk == 0 else (0,) * m,
                )
                total += sign * v(point)
    return total


def test_third_differences_recover_the_table():
    # Differentiating the volume polynomial three times must give back the
    # intersection numbers — the two constructions are mutually inverse.
    for name in ("cp3", "flatwall"):
        f = load_fan(name)
        v = volume_polynomial(f)
        for ms in all_multisets(f.m):
            assert _third_difference(v, f.m, *ms) == triple_intersection(f, ms), (
                name,
                ms,
            )


def test_euler_cubic_identity():
    # For a homogeneous cubic, contracting three times with the argument
    # and dividing by 6 reproduces the value.
    f = load_fan("cp1xcp2")
    v = volume_polynomial(f)
    c = (1, 2, 1, 3, Fraction(1, 2))
    total = Fraction(0)
    for t1 in range(f.m):
        for t2 in range(f.m):
            for t3 in range(f.m):
                ms = tuple(sorted((t1, t2, t3)))
                total += c[t1] * c[t2] * c[t3] * _third_difference(v, f.m, *ms)
    assert total / 6 == v(c)


def test_volume_serialization_format():
    f = load_fan("cp3")
    lines = serialize_volume_polynomial(volume_polynomial(f)).splitlines()
    assert lines[0] == "1/6 : 0^3"
    assert "1/2 : 0^2 1^1" in lines
    assert "1 : 0^1 1^1 2^1" in lines


# ---------------------------------------------------------------------------
# support certification and edge functionals


def test_degenerate_support_rejected():
    f = load_fan("cube-fan")
    v = volume_polynomial(f)
    with pytest.raises(SupportInvalid) as err:
        evaluate_volume(v, (1, -1, 1, 1, 1, 1))
    # The slab 1 <= x1 <= 1 is flat, so the four edges parallel to the
    # first axis collapse to points.
    msg = str(err.value)
    for pair in ((2, 4), (2, 5), (3, 4), (3, 5)):
        assert str(pair) in msg
    assert "(1, 2)" not in msg


def test_edge_functional_examples():
    cube = load_fan("cube-fan")
    assert edge_functional(cube, (0, 2), cube.support) == 2
    cp3 = load_fan("cp3")
    assert edge_functional(cp3, (0, 1), cp3.support) == 4


def test_edge_functional_needs_a_wall():
    # rays 0 and 1 of the cube fan are opposite
    with pytest.raises(ValidationError, match=r"^\(0, 1\) is not a wall of this fan$"):
        edge_functional(load_fan("cube-fan"), (1, 0), [1] * 6)


def test_edge_functional_vanishes_on_collapsed_edge():
    cube = load_fan("cube-fan")
    # The flat slab collapses the edges parallel to the first axis.
    c = (1, -1, 1, 1, 1, 1)
    assert edge_functional(cube, (2, 4), c) == 0
    assert edge_functional(cube, (1, 2), c) == 2


def test_edge_functionals_positive_at_corpus_supports():
    for name in FAN_NAMES:
        f = load_fan(name)
        for w in f.walls:
            assert edge_functional(f, w.pair, f.support) > 0, (name, w.pair)


def _edge_reference(f, c):
    """Every edge functional as a Fraction sum over the intersection table,
    in wall order, and the SupportInvalid text it implies (None if valid)."""
    table = characteristic_pair(f).integrals
    c = [Fraction(x) for x in c]
    edges = {}
    for w in f.walls:
        u, v = w.key
        edges[w.key] = sum((c[t] * table.get(tuple(sorted((u, v, t))), 0)
                            for t in range(f.m)), Fraction(0))
    bad = [f"wall {k}: {e}" for k, e in edges.items() if e <= 0]
    message = "non-positive edge functionals: " + ", ".join(bad) if bad else None
    return edges, message


def _invalid_supports():
    """(fan, support) with zero edges, negative edges and 2^-90
    denominators, next to valid supports of the same fans."""
    cube = load_fan("cube-fan")
    yield cube, (1, -1, 1, 1, 1, 1)  # four edges of length zero
    yield cube, (1, -2, 1, 1, 1, 1)  # the same edges, negative
    yield cube, ("1/3", Fraction(-1, 3), 1, 1, 1, 1)
    f, _ = subdivided_cp3(20, seed=5)
    last = f.m - 1
    delta = Fraction(1, 2 ** (last - 3))  # the depth of the last cut
    tiny = Fraction(1, 2 ** 90)
    for shift in (0, delta - tiny, delta, delta + tiny, -tiny):
        c = list(f.support)
        c[last] += shift
        yield f, c
    for k in range(3):
        yield f, [x + (-1) ** (t + k) * t * tiny for t, x in enumerate(f.support)]


def test_support_checks_match_a_fraction_restatement():
    outcomes = set()
    for f, c in _invalid_supports():
        edges, message = _edge_reference(f, c)
        assert edge_functionals(f, c) == edges
        assert list(edge_functionals(f, c)) == [w.key for w in f.walls]
        for key, e in edges.items():
            assert edge_functional(f, key, c) == e
        v = volume_polynomial(f)
        if message is None:
            certify_support(f, c)
            assert evaluate_volume(v, c) == volume_value_reference(v.coeffs, c)
            outcomes.add("valid")
            continue
        for check in (lambda: certify_support(f, c), lambda: evaluate_volume(v, c)):
            with pytest.raises(SupportInvalid) as err:
                check()
            assert str(err.value) == message
        outcomes.add("zero" if min(edges.values()) == 0 else "negative")
    assert outcomes == {"valid", "zero", "negative"}


SUPPORT_READERS = {
    "volume_polynomial": lambda f, c: volume_polynomial(f)(c),
    "edge_functional": lambda f, c: edge_functional(f, (0, 1), c),
    "edge_functionals": lambda f, c: edge_functionals(f, c)[(0, 1)],
    "certify_support": certify_support,
    "evaluate_volume": lambda f, c: evaluate_volume(volume_polynomial(f), c),
}


@pytest.mark.parametrize("reader", SUPPORT_READERS)
def test_support_values_are_read_as_a_fans_support_entries(reader):
    # a Fraction, an int or a 'p/q' string, as Fan3.from_data reads them;
    # floats and bools used to pass through Fraction()
    f, read = load_fan("cp3"), SUPPORT_READERS[reader]
    assert read(f, [1, "3/2", Fraction(1), "-0/5"]) == read(f, [1, Fraction(3, 2), 1, 0])
    for at, bad in ((0, 0.1), (1, True), (3, 1.5), (2, None), (0, "0.5")):
        c = [1, 1, 1, 1]
        c[at] = bad
        message = (rf"^support entry {at} = {re.escape(repr(bad))} "
                   rf"is not a Fraction, an int or a 'p/q' string$")
        with pytest.raises(ValidationError, match=message):
            read(f, c)


def test_support_checks_reject_a_wrong_length():
    f = load_fan("cp3")
    for check in (lambda c: certify_support(f, c), lambda c: edge_functionals(f, c),
                  lambda c: edge_functional(f, (0, 1), c),
                  lambda c: evaluate_volume(volume_polynomial(f), c)):
        with pytest.raises(ValidationError, match="^3 values for 4 rays$"):
            check((1, 1, 1))


# ---------------------------------------------------------------------------
# the signed extension


def test_signed_specializes_to_unsigned_on_fans():
    for name in FAN_NAMES:
        f = load_fan(name)
        pair = characteristic_pair(f)
        for ms in all_multisets(f.m):
            assert signed_triple_intersection(pair, ms) == triple_intersection(
                f, ms
            ), (name, ms)


def _cube_pair():
    """The antipodal-identification pair on the boundary of the octahedron:
    opposite facets of the cube get equal vectors.  Not a fan."""
    sphere = load_fan("cube-fan").sphere
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    lam = CharacteristicFunction((e1, e1, e2, e2, e3, e3))
    return CharacteristicPair(sphere, lam)


def test_signed_cube_pair_not_a_fan():
    # All eight cones land on the positive octant, so no wall has its two
    # apexes on opposite sides: certification refuses it before the walls.
    pair = _cube_pair()
    f = Fan3.from_data("x", pair.lam.vectors, pair.sphere.triangles)
    with pytest.raises(IncompleteFan, match="opposite sides"):
        f.wall_table
    with pytest.raises(IncompleteFan):
        check_complete(f)


def test_signed_cube_pair_distinct_values():
    pair = _cube_pair()
    # Triangles carry orientation signs, so the eight cones around the
    # origin-image split into +1 and -1 classes.
    values = {
        ms: signed_triple_intersection(pair, ms)
        for ms in itertools.combinations(range(6), 3)
    }
    tri_values = {v for ms, v in values.items() if v != 0}
    assert tri_values == {1, -1}
    # Antipodal facets never meet, and the value is zero there.
    assert values[(0, 1, 2)] == 0
    assert signed_triple_intersection(pair, (0, 1, 5)) == 0


def test_signed_cube_pair_matches_linear_system_oracle():
    # Freeze one entry from the library, then let the oracle determine the
    # whole table from the relations alone; everything must agree.
    pair = _cube_pair()
    sphere, lam = pair.sphere, pair.lam
    base = min(sphere.triangles)
    normalize = (base, signed_triple_intersection(pair, base))
    oracle = integral_table_oracle(
        lam.vectors, sphere.triangles, normalize=normalize
    )
    for ms in all_multisets(6):
        assert signed_triple_intersection(pair, ms) == oracle[ms], ms


def test_signed_relations_annihilate():
    pair = _cube_pair()
    lam = pair.lam
    for mu in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        coeffs = [sum(m * v for m, v in zip(mu, lam[t])) for t in range(6)]
        for dd in itertools.combinations_with_replacement(range(6), 2):
            total = sum(
                coeffs[t] * signed_triple_intersection(pair, dd + (t,))
                for t in range(6)
            )
            assert total == 0, (mu, dd)


@pytest.mark.parametrize("last, message", [
    ((1, 1, 2), r"triangle \(0, 1, 3\) violates the basis condition; "
                "the signed calculus needs it to hold"),
    ((1, 1, 0), r"triangle \(0, 1, 3\) has degenerate vectors \(det 0\)"),
    # det 2 on triangle (1, 2, 4), which is no vertex's first triangle and
    # no wall's (u, v, p) with p its lower apex: checks made only there
    # missed it, and the classes then made broke 8 of the 27 relation sums
    (((2, 1, 1), (-1, -2, -1), (-1, 0, 0), (2, -1, 0), (-2, 0, -1)),
     r"triangle \(1, 2, 4\) violates the basis condition; "
     "the signed calculus needs it to hold"),
])
def test_signed_calculus_needs_the_star_condition(last, message):
    # the tetrahedron with lambda = e1, e2, e3 and a fourth vector, or
    # blowup-cp3's sphere with a whole lambda
    if len(last) == 3:
        sphere = dual_sphere(load_polytope("tetrahedron"))
        lam = ((1, 0, 0), (0, 1, 0), (0, 0, 1), last)
    else:
        sphere, lam = load_fan("blowup-cp3").sphere, last
    with pytest.raises(ValidationError, match=f"^{message}$"):
        integral_table(CharacteristicPair(sphere, CharacteristicFunction(lam)))


def test_the_calculus_refuses_exactly_the_pairs_that_fail_the_star_condition():
    # 300 lambdas with entries in -2..2 on the spheres of the corpus fans
    # with m <= 6: the rays, each negated at random (still a basis on every
    # triangle), then, in two draws of three, one vector replaced by a
    # random primitive one.  The table is made exactly when every triangle
    # is a basis, and a refusal names the first one that is not.
    rng = random.Random(40)
    fans = [f for f in map(load_fan, FAN_NAMES) if f.m <= 6]
    refused = 0
    for n in range(300):
        f = fans[n % len(fans)]
        lam = [tuple(x * rng.choice((1, -1)) for x in r) for r in f.rays]
        if rng.random() < 2 / 3:
            v = (0, 0, 0)
            while math.gcd(*v) != 1:
                v = tuple(rng.randint(-2, 2) for _ in range(3))
            lam[rng.randrange(f.m)] = v
        assert {x for r in lam for x in r} <= set(range(-2, 3))
        pair = CharacteristicPair(f.sphere, CharacteristicFunction(lam))
        verdict = check_star_condition(pair)
        if verdict.ok:
            integral_table(pair)
            continue
        refused += 1
        tri = verdict.violations[0][0]
        with pytest.raises(ValidationError, match=re.escape(f"triangle {tri} ")):
            integral_table(pair)
    assert 100 < refused < 200


def test_signed_table_caches_per_pair():
    pair = _cube_pair()
    assert pair.integrals is pair.integrals
    assert pair.wall_classes is pair.wall_classes
    f = load_fan("cp3")
    assert characteristic_pair(f).integrals is characteristic_pair(f).integrals


def _flipped_colouring_pairs(seed=24, draws=6):
    """The colouring pair of every corpus polytope with at most 8 facets,
    then ``draws`` copies with each entry of each vector negated at random:
    signed colour vectors still meet the basis condition, and the pairs
    are not fans."""
    rng = random.Random(seed)
    for name in ("tetrahedron", "truncated-tetrahedron", "cube", "pentagonal-prism"):
        sphere = dual_sphere(load_polytope(name))
        lam = coloring_to_charfunc(four_color(sphere)).vectors
        yield name, CharacteristicPair(sphere, CharacteristicFunction(lam))
        for _ in range(draws):
            flipped = tuple(tuple(-x if rng.random() < 0.5 else x for x in v) for v in lam)
            yield name, CharacteristicPair(sphere, CharacteristicFunction(flipped))


def test_sign_flipped_colouring_pairs_match_linear_system_oracle():
    # the wall kernel on non-fan pairs: each table, normalised at one
    # triangle by the library's own value, is the one the relations pin
    signs = set()
    for name, pair in _flipped_colouring_pairs():
        sphere, lam = pair.sphere, pair.lam
        assert sphere.m <= 8
        signs.update(pair.integrals[t] for t in sphere.triangles)
        base = min(sphere.triangles)
        oracle = integral_table_oracle(
            lam.vectors, sphere.triangles,
            normalize=(base, signed_triple_intersection(pair, base)))
        for ms in all_multisets(sphere.m):
            assert signed_triple_intersection(pair, ms) == oracle[ms], (name, lam, ms)
    assert signs == {-1, 1}


def test_branched_cover_pairings_sum_to_48():
    # the double cover of the sphere of directions, read as a pair: twice
    # the Chern number of a fan, with every wall relation of the cover
    f = parse_fan(branched_cover_text())
    pair = CharacteristicPair(f.sphere, CharacteristicFunction(f.rays))
    assert sum(v for cls in pair.wall_classes for _, v in cls.entries) == 48


def test_the_calculus_is_built_once_and_dualises_one_covector_per_ray(monkeypatch):
    # walls, Chern number, volume and wall classes of a fan read one wall
    # relation per wall: integral_table runs once, and dual_covector only
    # for the cube covectors, at most one per ray
    import toriclab.cohomology as cohomology_module
    from toriclab.cone import signed_wall_classes, wall_classes

    built, duals = [], []
    table, dual = cohomology_module.integral_table, cohomology_module.dual_covector
    monkeypatch.setattr(cohomology_module, "integral_table",
                        lambda pair: built.append(pair) or table(pair))
    monkeypatch.setattr(cohomology_module, "dual_covector",
                        lambda *vectors: duals.append(vectors) or dual(*vectors))
    fans = [load_fan(name) for name in FAN_NAMES]
    fans += [subdivided_cp3(m, seed=s)[0] for m in (14, 104) for s in range(3)]
    for f in fans:
        built.clear()
        duals.clear()
        f.walls
        assert chern_number_c1c2(f) == 24
        evaluate_volume(volume_polynomial(f), f.support)
        assert signed_wall_classes(characteristic_pair(f)) == wall_classes(f)
        assert built == [characteristic_pair(f)], f.name
        assert 0 < len(duals) <= f.m, f.name
