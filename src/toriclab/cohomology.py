"""Exact intersection calculus for characteristic pairs and fans.

A degree-3 product of facet classes v_i v_j v_k is nonzero at only O(m)
index multisets, and each of those has a closed form:

  * a triangle {i, j, k} of the sphere: the sign of the vector determinant
    taken in the triangle's oriented order;
  * a wall {u, v} (u < v) whose triangles run u -> v -> x and v -> u -> y,
    of determinants dx, dy = +-1: lambda(y) has Cramer coordinates a_u =
    dx det(lambda(y), lambda(v), lambda(x)), a_v = dx det(lambda(u),
    lambda(y), lambda(x)) in the basis (lambda(u), lambda(v), lambda(x)),
    and v_u^2 v_v = -a_u dy, v_v^2 v_u = -a_v dy (the relations of the
    covectors dual to that basis, times v_u v_v);
  * a vertex i: v_i^3 = -sum over neighbours t of <mu, lambda(t)> v_i^2 v_t,
    with mu the dual covector of lambda(i) in the first triangle containing i.

:func:`integral_table` computes exactly these nonzero values, keyed by
sorted multiset, in one pass over the triangles, whose determinants it
keeps in a list, and one over the walls, each read off the sphere's
half-edge index: its two triangles, apexes and determinants.  The wall
pass builds each wall's class, a :class:`WallClass`: the at most four
nonzero integrals v_u v_v v_t, at the two endpoints and the two apexes t
of the wall, sorted by t.  Both are cached once per pair, as
``CharacteristicPair.integrals`` and ``CharacteristicPair.wall_classes``;
a fan reaches them through its cached ``Fan3.characteristic_pair``, on
which every cone runs positively, so the squares are the negated wall
coefficients -a1, -a2, and ``Fan3.wall_table`` reads them there.  Triple
integrals and volume polynomials are sparse sums over the table; the
Chern number, the edge functionals and :mod:`toriclab.cone` read the
classes.

Volume polynomials collect every degree-3 integral with multinomial
weights; their values at valid support parameters are Euclidean volumes of
the corresponding simple polytopes.

Support parameters are evaluated over one common denominator: the values
c_1, ..., c_m, each read as a fan's support entry is (a Fraction, an int
or a 'p/q' string), become once, by :func:`toriclab.read.integral`,
integer numerators C_t over their least common denominator D.  Every
multinomial weight times 6 is an integer, so a volume is the integer sum S
of 6 * weight * integral * C_i C_j C_k divided by 6 D^3, and an edge
functional is the integer sum E of integral * C_t divided by D.  Signs are
decided on S and E alone; a ``Fraction`` is built only for a value handed
back to the caller or named in a ``SupportInvalid`` message, so each query
normalises once instead of at every product and sum.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property

from .charfunc import CharacteristicPair
from .errors import SupportInvalid, ValidationError
from .fan import Fan3, characteristic_pair, wall_data
from .lattice import Vec3, det3, dot, dual_covector
from .read import _as_multiset, _int_vector, _wall_class, integral
from .value import _Value

Multiset = tuple[int, int, int]

class WallClass(_Value):
    """A wall (u, v), a pair of ray ids u < v, with its pairing vector
    over m rays: entry t is the integral over the wall class times the
    class of ray t.

    Only the nonzero entries are stored, as ``(t, value)`` pairs sorted by
    t, so two classes are equal exactly when their vectors are.  There are
    at most four, and the two apexes are always among them, so the vector
    is never zero.  Each t and each value is an int (no bool, float or
    Fraction), as every value is an intersection number of integral
    classes.  The dense vector ``pairing`` is built when read.
    """

    wall: tuple[int, int]
    entries: tuple[tuple[int, int], ...]
    m: int

    def __init__(self, wall: tuple[int, int], entries: tuple[tuple[int, int], ...], m: int):
        wall, entries, m = _wall_class(wall, entries, m)
        self.__dict__.update(wall=wall, entries=entries, m=m)

    @property
    def pairing(self) -> tuple[int, ...]:
        vec = [0] * self.m
        for t, v in self.entries:
            vec[t] = v
        return tuple(vec)


class LinearRelation(_Value):
    """The degree-2 relation sum_i <mu, ray_i> v_i = 0 for a covector mu."""

    mu: Vec3
    coeffs: tuple[int, ...]


def linear_relation(f: Fan3, mu) -> LinearRelation:
    mu = _int_vector(mu, "mu")
    return LinearRelation(mu=mu, coeffs=tuple(dot(mu, r) for r in f.rays))


def integral_table(pair: CharacteristicPair) -> tuple[dict[Multiset, int],
                                                    tuple[WallClass, ...]]:
    """Every nonzero degree-3 integral of the pair, keyed by sorted
    multiset, and every wall's class, whose entries (t, integral of
    v_u v_v v_t) are sorted by ray id, in ``sphere.walls`` order.

    Use ``pair.integrals`` and ``pair.wall_classes``, which build these
    once and keep them.  Raises ValidationError naming the first triangle,
    sorted, whose vectors are not a lattice basis (degenerate ones too).
    Each triangle's determinant is computed once, into a list indexed like
    ``sphere.triangles``; each wall reads its triangles, apexes and their
    determinants off the half-edge index, and each vertex its covector.
    """
    sphere, lam = pair.sphere, pair.lam.vectors
    dets = list(map(det3, *(map(lam.__getitem__, col) for col in zip(*sphere.oriented))))
    if not {*dets} <= {1, -1}:
        key, d = next((k, d) for k, d in zip(sphere.triangles, dets) if d != 1 and d != -1)
        raise ValidationError(f"triangle {key} violates the basis condition; the signed "
                              f"calculus needs it to hold" if d
                              else f"triangle {key} has degenerate vectors (det 0)")
    table: dict[Multiset, int] = dict(zip(sphere.triangles, dets))
    # half-edge h runs flat[h] -> head[h] in triangle h // 3, opposite apex[h]
    flat, _, twin, _, edge = sphere._index
    head, apex = flat[1:] + flat[:1], flat[-1:] + flat[:-1]
    head[2::3], apex[0::3] = flat[0::3], flat[2::3]
    m, first = sphere.m, dict(zip(reversed(flat), range(len(flat) - 1, -1, -1)))
    mu = [dual_covector(dets[h // 3], lam[head[h]], lam[apex[h]])
          for h in map(first.__getitem__, range(m))]  # off each vertex's first triangle
    cubes, classes, new = [0] * m, [], object.__new__
    for wall, h in zip(sphere.walls, edge):
        (u, v), g = wall, twin[h]
        if flat[h] != u:
            h, g = g, h
        x, y, dx, dy = apex[h], apex[g], dets[h // 3], dets[g // 3]  # u -> v -> x
        lu, lv, lx, ly = lam[u], lam[v], lam[x], lam[y]
        entries = [(x, dx), (y, dy)]
        if square := dx * dy * det3(lx, lv, ly):  # -a_u dy
            table[(u, u, v)] = square
            cubes[u] -= dot(mu[u], lv) * square
            entries.append((u, square))
        if square := dx * dy * det3(lu, lx, ly):  # -a_v dy
            table[(u, v, v)] = square
            cubes[v] -= dot(mu[v], lu) * square
            entries.append((v, square))
        entries.sort()
        classes.append(cls := new(WallClass))  # made here, so not read again
        cls.__dict__.update(wall=wall, entries=tuple(entries), m=m)
    for i, cube in enumerate(cubes):
        if cube:
            table[(i, i, i)] = cube
    return table, tuple(classes)


def triple_intersection(f: Fan3, indices) -> int:
    """The integral of v_i v_j v_k over the fan's toric space."""
    key = _as_multiset(indices, f.m)
    return characteristic_pair(f).integrals.get(key, 0)


def signed_triple_intersection(pair: CharacteristicPair, indices) -> int:
    """Integral of v_i v_j v_k for an arbitrary characteristic pair."""
    key = _as_multiset(indices, pair.lam.m)
    return pair.integrals.get(key, 0)


def chern_number_c1c2(f: Fan3) -> int:
    """Sum over walls J of sum over t of the integral of v_J v_t.

    The double sum pairs the second elementary symmetric class with the
    first one.  It equals gauss_bonnet_sum(f) by construction, not by an
    independent route: a fan's wall table reads a1 and a2 off the wall
    class, so each wall's curvature 2 - a1 - a2 is the sum of its class's
    entries.
    """
    classes = characteristic_pair(f).wall_classes
    return sum(v for cls in classes for _, v in cls.entries)


# ---------------------------------------------------------------------------
# volume polynomials


class VolumePolynomial(_Value):
    """Homogeneous cubic in m variables with exact rational coefficients,
    a function of its one field, the fan.

    ``terms`` holds the nonzero coefficients as integers
    ``(i, j, k, 6 * coefficient)``, sorted by index multiset
    (i <= j <= k), weighted by :func:`_weighted`, as ``coefficient`` is; it
    is a cache, filled by :func:`volume_polynomial`.  ``coeffs`` reads the
    terms as ``(multiset, coefficient)``, with one shared ``Fraction`` per
    distinct coefficient.
    """

    fan: Fan3

    @cached_property
    def terms(self) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(_weighted(sorted(characteristic_pair(self.fan).integrals.items())))

    @property
    def m(self) -> int:
        return self.fan.m

    @property
    def coeffs(self) -> tuple[tuple[Multiset, Fraction], ...]:
        sixths = {w: Fraction(w, 6) for w in {term[3] for term in self.terms}}
        return tuple(((i, j, k), sixths[w]) for i, j, k, w in self.terms)

    def coefficient(self, indices) -> Fraction:
        key = _as_multiset(indices, self.m)
        return Fraction(_weighted([(key, triple_intersection(self.fan, key))])[0][3], 6)

    def __call__(self, c) -> Fraction:
        (C,), D = integral((c,), self.m, "{} values for {} variables")
        return self._value(C, D)

    def _value(self, C: list[int], D: int) -> Fraction:
        """The value at c_t = C[t] / D."""
        S = sum(w * C[i] * C[j] * C[k] for i, j, k, w in self.terms)
        return Fraction(S, 6 * D ** 3)


def volume_polynomial(f: Fan3) -> VolumePolynomial:
    """Assemble the full cubic from the intersection table.

    The coefficient of c_i c_j c_k (distinct) is the triple integral; of
    c_i^2 c_j it is the integral over 2; of c_i^3 over 6 — the multinomial
    weights of (c_1 v_1 + ... + c_m v_m)^3 / 3!.
    """
    V = VolumePolynomial(f)
    V.terms  # fills the cached_property slot
    return V


def _weighted(integrals) -> list[tuple[int, int, int, int]]:
    """``(i, j, k, 6 * weight * integral)`` for each ``((i, j, k), integral)``
    with i <= j <= k: the weight of c_i c_j c_k in (c_1 v_1 + ... + c_m
    v_m)^3 / 3! is 1/6, 1/2 or 1 as (i != j) + (j != k) is 0, 1 or 2."""
    return [(i, j, k, (1, 3, 6)[(i != j) + (j != k)] * v) for (i, j, k), v in integrals]


def serialize_volume_polynomial(V: VolumePolynomial) -> str:
    """One line per nonzero coefficient: `<p/q> : <i>^<e> ...`, sorted by
    multidegree — a stable, diffable dump."""
    out = [f"{coeff} : " + " ".join(f"{var}^{key.count(var)}" for var in sorted(set(key)))
           for key, coeff in sorted(V.coeffs)]
    return "\n".join(out) + "\n"


def _edge_numerator(entries, C: list[int]) -> int:
    """D times the edge functional of a wall with pairing entries
    (t, value), at c_t = C[t] / D."""
    return sum(C[t] * v for t, v in entries)


def edge_functional(f: Fan3, pair, c) -> Fraction:
    """The derivative of the volume polynomial along a wall, evaluated at c.

    By Euler's identity on the (linear) second partial d_i d_j V, the value
    is sum_t c_t * integral(v_i v_j v_t).  It is positive exactly when the
    polytope edge dual to the wall has positive length, so positivity over
    all walls certifies that c are genuine support parameters for the fan.
    """
    key = wall_data(f, pair).key
    cls = characteristic_pair(f).wall_classes[bisect_left(f.sphere.walls, key)]
    (C,), D = integral((c,), f.m)
    return Fraction(_edge_numerator(cls.entries, C), D)


def edge_functionals(f: Fan3, c) -> dict[tuple[int, int], Fraction]:
    """:func:`edge_functional` at every wall, keyed by sorted wall pair in
    the order of ``f.walls``; c is read once for all of them."""
    (C,), D = integral((c,), f.m)
    return {cls.wall: Fraction(_edge_numerator(cls.entries, C), D)
            for cls in characteristic_pair(f).wall_classes}


def _non_positive_edges(classes, C: list[int]) -> list[tuple[tuple[int, int], int]]:
    """(wall, edge numerator at C) for each class with one <= 0."""
    return [(cls.wall, e) for cls in classes if (e := _edge_numerator(cls.entries, C)) <= 0]


def _certify_scaled(f: Fan3, C: list[int], D: int) -> None:
    bad = _non_positive_edges(characteristic_pair(f).wall_classes, C)
    if bad:
        detail = ", ".join(f"wall {p}: {Fraction(e, D)}" for p, e in bad)
        raise SupportInvalid(f"non-positive edge functionals: {detail}")


def certify_support(f: Fan3, c) -> None:
    """Raise SupportInvalid listing every wall with a non-positive edge."""
    (C,), D = integral((c,), f.m)
    _certify_scaled(f, C, D)


def evaluate_volume(V: VolumePolynomial, c) -> Fraction:
    """Volume of the polytope cut out by support parameters c.

    The parameters must define a polytope whose normal fan is V's fan;
    this is certified by edge-functional positivity before evaluating,
    over the same common denominator.
    """
    (C,), D = integral((c,), V.m)
    _certify_scaled(V.fan, C, D)
    return V._value(C, D)
