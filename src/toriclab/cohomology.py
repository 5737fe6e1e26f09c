"""Exact intersection calculus for characteristic pairs and fans.

A degree-3 product of facet classes v_i v_j v_k is nonzero at only O(m)
index multisets, and each of those has a closed form:

  * a triangle {i, j, k} of the sphere: the sign of the vector determinant
    taken in the triangle's oriented order;
  * a wall {i, j} with apexes p < q: v_i^2 v_j = -<mu, lambda(q)> v_i v_j v_q,
    where mu is the covector with <mu, lambda(i)> = 1 that vanishes on
    lambda(j) and lambda(p) (the linear relation of mu times v_i v_j);
  * a vertex i: v_i^3 = -sum over neighbours t of <mu, lambda(t)> v_i^2 v_t,
    with mu the dual covector of lambda(i) in the first triangle containing i.

:func:`integral_table` computes exactly these nonzero values, keyed by
sorted multiset, in one pass over the triangles and one over the walls.
The wall pass also records each wall's pairing: the at most four nonzero
integrals v_u v_v v_t, at the two endpoints and the two apexes t of the
wall {u, v}.  Both are cached once per pair, as
``CharacteristicPair.integrals`` and ``CharacteristicPair.pairings``; a
fan reaches them through its cached ``Fan3.characteristic_pair``,
oriented so every cone has a positive determinant, where the wall rule
reduces to the negated wall coefficients -a1, -a2.  Triple integrals and
volume polynomials are sparse sums over the table; the Chern number, edge
functionals and the wall classes of :mod:`toriclab.cone` read the
pairings.

Volume polynomials collect every degree-3 integral with multinomial
weights; their values at valid support parameters are Euclidean volumes of
the corresponding simple polytopes.

Support parameters are evaluated over one common denominator: the values
c_1, ..., c_m are read once, by ``lattice.over_common_denominator``, as
integer numerators C_t over their least common denominator D.  Every
multinomial weight times 6 is an integer, so a volume is the integer sum S
of 6 * weight * integral * C_i C_j C_k divided by 6 D^3, and an edge
functional is the integer sum E of integral * C_t divided by D.  Signs are
decided on S and E alone; a ``Fraction`` is built only for a value handed
back to the caller or named in a ``SupportInvalid`` message, so each query
normalises once instead of at every product and sum.
"""

from __future__ import annotations

from fractions import Fraction

from .charfunc import CharacteristicPair
from .errors import SupportInvalid, ValidationError
from .fan import Fan3, characteristic_pair
from .lattice import Vec3, det3, dot, dual_covector, over_common_denominator
from .value import _Value

Multiset = tuple[int, int, int]
# wall (u, v) -> its nonzero entries (t, integral of v_u v_v v_t)
Pairings = dict[tuple[int, int], tuple[tuple[int, int], ...]]

# six times the multinomial weight of a monomial in
# (c_1 v_1 + ... + c_m v_m)^3 / 3!, by its number of distinct indices: the
# weights are 1, 1/2 and 1/6
_SIX_WEIGHT = {3: 6, 2: 3, 1: 1}


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _as_multiset(indices, m: int) -> Multiset:
    t = tuple(indices)
    if len(t) != 3:
        raise ValidationError(f"need exactly 3 indices, got {indices!r}")
    if not all(isinstance(i, int) for i in t):
        raise ValidationError(f"indices {indices!r} are not all integers")
    t = tuple(sorted(t))
    if not all(0 <= i < m for i in t):
        raise ValidationError(f"index out of range in {t}")
    return t


class LinearRelation(_Value):
    """The degree-2 relation sum_i <mu, ray_i> v_i = 0 for a covector mu."""

    mu: Vec3
    coeffs: tuple[int, ...]

    def __init__(self, mu: Vec3, coeffs: tuple[int, ...]):
        self.__dict__.update(mu=mu, coeffs=coeffs)


def linear_relation(f: Fan3, mu) -> LinearRelation:
    mu = tuple(mu)
    if len(mu) != 3 or not all(isinstance(x, int) for x in mu):
        raise ValidationError(f"mu = {mu} is not an integer 3-vector")
    return LinearRelation(mu=mu, coeffs=tuple(dot(mu, r) for r in f.rays))


def integral_table(pair: CharacteristicPair) -> tuple[dict[Multiset, int], Pairings]:
    """Every nonzero degree-3 integral of the pair, keyed by sorted
    multiset, and every wall's nonzero pairing entries (t, integral of
    v_u v_v v_t), keyed by wall in ``sphere.walls`` order.

    Use ``pair.integrals`` and ``pair.pairings``, which build these once
    and keep them.  Raises
    ValidationError when a triangle's vectors are degenerate or, where a
    covector is needed, fail the basis condition.
    """
    sphere, lam = pair.sphere, pair.lam

    def covector(i: int, j: int, k: int) -> Vec3:
        try:
            return dual_covector(lam[i], lam[j], lam[k])
        except ValueError:
            raise ValidationError(
                f"triangle {(i, j, k)} violates the basis condition; "
                f"the signed calculus needs it to hold") from None

    table: dict[Multiset, int] = {}
    first: dict[int, Multiset] = {}
    for key, (a, b, c) in zip(sphere.triangles, sphere.oriented):
        d = det3(lam[a], lam[b], lam[c])
        if d == 0:
            raise ValidationError(f"triangle {key} has degenerate vectors (det 0)")
        table[key] = _sign(d)
        for i in key:
            first.setdefault(i, key)
    cube_mu = {i: covector(i, *(x for x in tri if x != i))
               for i, tri in first.items()}

    cubes = [0] * sphere.m
    pairings: Pairings = {}
    for u, v in sphere.walls:
        p, q = sphere.wall_apexes((u, v))
        near, far = table[tuple(sorted((u, v, p)))], table[tuple(sorted((u, v, q)))]
        entries = []
        for i, j in ((u, v), (v, u)):
            square = -dot(covector(i, j, p), lam[q]) * far
            if square:
                table[tuple(sorted((i, i, j)))] = square
                cubes[i] -= dot(cube_mu[i], lam[j]) * square
                entries.append((i, square))
        pairings[(u, v)] = (*entries, (p, near), (q, far))
    for i, cube in enumerate(cubes):
        if cube:
            table[(i, i, i)] = cube
    return table, pairings


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

    An independent route to the total curvature: the double sum pairs the
    second elementary symmetric class with the first one.  It must equal
    gauss_bonnet_sum(f); a mismatch indicates an internal bug.
    """
    pairings = characteristic_pair(f).pairings
    return sum(v for entries in pairings.values() for _, v in entries)


# ---------------------------------------------------------------------------
# volume polynomials


class VolumePolynomial(_Value):
    """Homogeneous cubic in m variables with exact rational coefficients.

    ``terms`` holds the nonzero coefficients as integers
    ``(i, j, k, 6 * coefficient)``, sorted by index multiset
    (i <= j <= k); ``coeffs`` reads them as ``(multiset, coefficient)``.
    Its ``repr`` shows the fan alone.
    """

    fan: Fan3
    terms: tuple[tuple[int, int, int, int], ...]
    _hidden = ("terms",)

    def __init__(self, fan: Fan3, terms: tuple[tuple[int, int, int, int], ...]):
        self.__dict__.update(fan=fan, terms=terms)

    @property
    def m(self) -> int:
        return self.fan.m

    @property
    def coeffs(self) -> tuple[tuple[Multiset, Fraction], ...]:
        return tuple(((i, j, k), Fraction(w, 6)) for i, j, k, w in self.terms)

    def coefficient(self, indices) -> Fraction:
        key = _as_multiset(indices, self.m)
        six = _SIX_WEIGHT[len(set(key))] * triple_intersection(self.fan, key)
        return Fraction(six, 6)

    def __call__(self, c) -> Fraction:
        return self._value(*_scaled(c, self.m, "variables"))

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
    terms = tuple((*key, _SIX_WEIGHT[len(set(key))] * v)
                  for key, v in sorted(characteristic_pair(f).integrals.items()))
    return VolumePolynomial(fan=f, terms=terms)


def serialize_volume_polynomial(V: VolumePolynomial) -> str:
    """One line per nonzero coefficient: `<p/q> : <i>^<e> ...`, sorted by
    multidegree — a stable, diffable dump."""
    out = []
    for key, coeff in sorted(V.coeffs):
        parts = []
        for var in sorted(set(key)):
            parts.append(f"{var}^{key.count(var)}")
        out.append(f"{coeff} : " + " ".join(parts))
    return "\n".join(out) + "\n"


def _scaled(c, m: int, what: str) -> tuple[list[int], int]:
    """m values c for the named variables, as numerators over one D."""
    (C,), D = over_common_denominator([c])
    if len(C) != m:
        raise ValidationError(f"{len(C)} values for {m} {what}")
    return C, D


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
    key = tuple(sorted(pair))
    entries = characteristic_pair(f).pairings.get(key)
    if entries is None:
        raise ValidationError(f"{key} is not a wall of this fan")
    C, D = _scaled(c, f.m, "rays")
    return Fraction(_edge_numerator(entries, C), D)


def edge_functionals(f: Fan3, c) -> dict[tuple[int, int], Fraction]:
    """:func:`edge_functional` at every wall, keyed by sorted wall pair in
    the order of ``f.walls``; c is read once for all of them."""
    C, D = _scaled(c, f.m, "rays")
    return {key: Fraction(_edge_numerator(entries, C), D)
            for key, entries in characteristic_pair(f).pairings.items()}


def _non_positive_edges(walls, C: list[int]) -> list[tuple[tuple[int, int], int]]:
    """(wall, edge numerator at C) for each (wall, entries) with one <= 0."""
    return [(w, e) for w, entries in walls if (e := _edge_numerator(entries, C)) <= 0]


def _certify_scaled(f: Fan3, C: list[int], D: int) -> None:
    bad = _non_positive_edges(characteristic_pair(f).pairings.items(), C)
    if bad:
        detail = ", ".join(f"wall {p}: {Fraction(e, D)}" for p, e in bad)
        raise SupportInvalid(f"non-positive edge functionals: {detail}")


def certify_support(f: Fan3, c) -> None:
    """Raise SupportInvalid listing every wall with a non-positive edge."""
    _certify_scaled(f, *_scaled(c, f.m, "rays"))


def evaluate_volume(V: VolumePolynomial, c) -> Fraction:
    """Volume of the polytope cut out by support parameters c.

    The parameters must define a polytope whose normal fan is V's fan;
    this is certified by edge-functional positivity before evaluating,
    over the same common denominator.
    """
    C, D = _scaled(c, V.m, "rays")
    _certify_scaled(V.fan, C, D)
    return V._value(C, D)
