"""Effective-cone analysis of wall classes.

Every wall pairs against the m ray classes through the degree-3 integrals.
A :class:`WallClass` stores only the pairing's at most four nonzero
entries, read off ``CharacteristicPair.pairings``; the dense m-vector is
derived when ``WallClass.pairing`` is read, for the witness LP and the
reports.  A pair's classes are built once and kept on the pair, so
:func:`wall_classes` and :func:`signed_wall_classes` hand back one tuple.
These vectors generate a cone; this module groups them by positive
proportionality (one dict keyed by each class's sparse primitive integer
vector), decides which groups sit on extreme rays, finds or refutes a
strict-convexity witness, and extracts the positive-curvature extremal
wall whose endpoint forces a triangular or quadrangular face of
the dual polytope.

Wall classes span the Mori cone (Reid, "Decomposition of toric
morphisms", 1983), and the classes of one group are positive multiples of
its representative, so a group is extremal exactly when its
representative is not a nonnegative combination of the other groups'
representatives.  All groups are decided in one
:func:`~toriclab.exactlp.cone_sweep` over the representatives, one
column per group, each answer certified there.

The sweep reads the representatives in H2 coordinates: every pairing
vector p satisfies sum_t p[t] * ray_t = 0, and the three rays of the
first maximal cone are a basis of Z^3, so the m - 3 entries off that cone
fix the other three.  The rows of those three rays are dropped, and each
answer is checked again on the full sparse vectors: a membership must
reassemble its representative, and a separator must pair positively with
the representative and nonpositively with every class outside its group.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .charfunc import CharacteristicPair
from .cohomology import _non_positive_edges, _scaled, certify_support
from .errors import (CertificationFailure, InternalError, NotFound, NoWitness,
                     ValidationError)
from .exactlp import cone_membership, cone_sweep, positive_functional
from .fan import Fan3, characteristic_pair
from .lattice import over_common_denominator
from .value import _Value

__all__ = [
    "WallClass",
    "ConeAnalysis",
    "ObstructionWitness",
    "wall_classes",
    "signed_wall_classes",
    "cone_membership",
    "extremal_walls",
    "strict_convexity_witness",
    "delzant_obstruction_witness",
]

UNCERTIFIED_NOTE = "uncertified: no strict convexity witness supplied"


class WallClass(_Value):
    """A wall with its pairing vector over m rays: entry t is the integral
    over the wall class times the class of ray t.

    Only the nonzero entries are stored, as ``(t, value)`` pairs sorted by
    t, so two classes are equal exactly when their vectors are.  There are
    at most four, and the two apexes are always among them, so the vector
    is never zero.  Each t is an int and each value an int or a Fraction
    (no float, no bool).  The dense vector ``pairing`` is built when read.
    """

    wall: tuple[int, int]
    entries: tuple[tuple[int, int], ...]
    m: int

    def __init__(self, wall: tuple[int, int], entries: tuple[tuple[int, int], ...], m: int):
        prev = -1
        for t, v in entries:
            if type(t) is not int or type(v) is not int and type(v) is not Fraction:
                raise ValidationError(f"wall class {wall}: entry {(t, v)} is not an int "
                                      f"ray id with an int or Fraction value")
            if not prev < t < m or not v:
                why = (f"outside rays 0..{m - 1}" if not 0 <= t < m
                       else "out of ray order" if t <= prev else "zero")
                raise ValidationError(f"wall class {wall}: entry {(t, v)} is {why}")
            prev = t
        self.__dict__.update(wall=wall, entries=entries, m=m)

    @property
    def pairing(self) -> tuple[int, ...]:
        vec = [0] * self.m
        for t, v in self.entries:
            vec[t] = v
        return tuple(vec)


class ConeAnalysis(_Value):
    """Grouping and extremality data for the cone spanned by wall classes.

    ``classes`` are stored sparse, in wall order; each dense ``pairing``
    is derived when read.  ``groups`` partitions the walls into
    positive-proportionality classes (each listed in first-appearance
    order, walls sorted within); the first wall of a group is its
    representative.  ``extremal`` lists the representatives whose ray is
    extreme.  ``witness``, when present, pairs strictly positively with
    every class; ``note`` flags the uncertified no-support case.
    """

    classes: tuple[WallClass, ...]
    groups: tuple[tuple[tuple[int, int], ...], ...]
    extremal: tuple[tuple[int, int], ...]
    witness: tuple[Fraction, ...] | None
    note: str = ""


class ObstructionWitness(_Value):
    """An extremal positive-curvature wall, relabeled so a1 <= a2, together
    with the vertex it forces to have small degree.

    ``case`` records which branch applied: coefficient a1 < 0 pins the
    endpoint into exactly three maximal cones, a1 = 0 into exactly four;
    the dual polytope then has a face with that many sides.
    """

    wall: tuple[int, int]
    a: tuple[int, int]
    curvature: int
    case: str
    vertex: int
    neighbors: tuple[int, ...]
    dual_face_size: int


def wall_classes(f: Fan3) -> tuple[WallClass, ...]:
    """The wall class of every wall, in sorted wall order (the order of
    ``f.walls``)."""
    return signed_wall_classes(characteristic_pair(f))


def signed_wall_classes(pair: CharacteristicPair) -> tuple[WallClass, ...]:
    """Wall classes of a general characteristic pair, via the signed
    integrals, in ``pair.sphere.walls`` order.  No fan required.  They are
    built once per pair and kept on it; :func:`wall_classes` reads the
    same tuple off a fan's pair."""
    return pair._wall_classes


def _build_wall_classes(pair: CharacteristicPair) -> tuple[WallClass, ...]:
    """The uncached computation behind :func:`signed_wall_classes`."""
    m = pair.lam.m
    return tuple(WallClass(key, tuple(sorted(entries)), m)
                 for key, entries in pair.pairings.items())


def _group_classes(classes) -> list[list[WallClass]]:
    """The classes grouped by positive proportionality, groups in
    first-appearance order and classes in input order within each.

    Positively proportional nonzero vectors (integer or rational) share
    one primitive integer vector, so that vector's nonzero entries
    ``(t, x)`` are the group's key.
    """
    groups: dict[tuple[tuple[int, int], ...], list[WallClass]] = {}
    for cls in classes:
        (ints,), _ = over_common_denominator([[v for _, v in cls.entries]])
        g = math.gcd(*ints)
        key = tuple((t, x // g) for (t, _), x in zip(cls.entries, ints))
        groups.setdefault(key, []).append(cls)
    return list(groups.values())


def strict_convexity_witness(classes, c_tilde=None):
    """A functional pairing >= 1 (or, for a supplied candidate, > 0) with
    every wall class, or a :class:`NoWitness` value explaining why none
    was produced.

    With ``c_tilde`` the check is pure verification — the products are the
    edge functionals of the candidate support, decided on its integer
    numerators over one common denominator; each entry is read as a fan's
    support entry is: a Fraction, an int (not a bool) or a 'p/q' string.
    Without it, a feasibility LP searches for any witness; infeasibility
    comes back with convex coefficients combining the pairing vectors to
    zero, which makes a positive functional impossible.  The refusal is a return value, not an
    exception.
    """
    if c_tilde is not None:
        c_tilde, classes = tuple(c_tilde), tuple(classes)
        if classes and len(c_tilde) != classes[0].m:
            raise ValidationError(f"candidate has {len(c_tilde)} entries for "
                                  f"{classes[0].m} rays")
        C, D = _scaled(c_tilde, len(c_tilde), "rays")
        failing = tuple(wall for wall, _ in _non_positive_edges(
            ((cls.wall, cls.entries) for cls in classes), C))
        if failing:
            return NoWitness(
                "candidate pairs non-positively with walls "
                + ", ".join(str(w) for w in failing),
                failing=failing,
            )
        return tuple(Fraction(v, D) for v in C)
    res = positive_functional([cls.pairing for cls in classes])
    if res.found:
        return res.y
    return NoWitness(
        "wall classes admit no positive functional: "
        "zero is a convex combination of the pairing vectors",
        farkas=res.farkas,
    )


def extremal_walls(f: Fan3) -> ConeAnalysis:
    """Group the wall classes, decide every group's extremality in one
    exact dual-simplex sweep, and attach the support-parameter convexity
    witness when one is available.  A fan's own support is certified
    first, by :func:`toriclab.cohomology.certify_support`, which raises
    SupportInvalid before any LP is solved.

    A group is extremal when its representative vector is not a
    nonnegative combination of the classes outside the group, that is, of
    the other groups' representatives (see the module docstring).  Fans
    without support parameters still get the full grouping and
    extremality scan, but the analysis is marked uncertified.  The
    analysis is computed once per fan and cached as
    ``Fan3.cone_analysis``.
    """
    return f.cone_analysis


def _analyse_cone(f: Fan3) -> ConeAnalysis:
    """The uncached computation behind :func:`extremal_walls`."""
    classes = wall_classes(f)
    # the fan's own support is certified before any LP is solved; its edge
    # functionals are the products a witness must make positive
    if f.support is not None:
        certify_support(f, f.support)
        witness, note = f.support, ""
    else:
        witness, note = None, UNCERTIFIED_NOTE

    grouped = _group_classes(classes)
    groups = tuple(tuple(cls.wall for cls in g) for g in grouped)
    # the representatives' rows in H2 coordinates (see the module
    # docstring); the three rays dropped are a basis, as the fan is
    # certified unimodular, so a separator padded with zeros pairs with
    # each full vector as with its kept rows
    kept = [t for t in range(f.m) if t not in f.maximal_cones[0]]
    reps = [g[0] for g in grouped]
    answers = cone_sweep([[rep.pairing[t] for t in kept] for rep in reps])
    extremal = []
    full = [0] * f.m
    for gi, (rep, res) in enumerate(zip(reps, answers)):
        # each certificate read as integers over one positive scale
        if res.member:
            (coefficients,), scale = over_common_denominator([res.coefficients])
            if _combination(coefficients, reps) != {t: scale * v for t, v in rep.entries}:
                raise InternalError(f"membership of wall class {rep.wall} does not "
                                    f"reassemble its full vector")
            continue
        (sep,), _ = over_common_denominator([res.separator])
        for t, y in zip(kept, sep):
            full[t] = y
        if sum(full[t] * v for t, v in rep.entries) <= 0 or any(
                sum(full[t] * v for t, v in cls.entries) > 0
                for gj, g in enumerate(grouped) if gj != gi for cls in g):
            raise InternalError(f"separator of wall class {rep.wall} fails on "
                                f"a class outside its group or on the class")
        extremal.append(rep.wall)
    return ConeAnalysis(
        classes=classes,
        groups=groups,
        extremal=tuple(extremal),
        witness=witness,
        note=note,
    )


def _combination(coefficients, classes) -> dict[int, int]:
    """The nonzero entries of sum_j coefficients[j] * classes[j], from the
    full sparse class vectors."""
    total: dict[int, int] = {}
    for c, cls in zip(coefficients, classes):
        if c:
            for t, v in cls.entries:
                total[t] = total.get(t, 0) + c * v
    return {t: v for t, v in total.items() if v}


def _wall_labelings(w):
    """Both valid normalizations of a wall: the recorded one and its
    mirror with the roles of the two endpoints (and apexes) swapped."""
    i1, i2 = w.pair
    a1, a2 = w.a
    yield i1, i2, a1, a2
    yield i2, i1, a2, a1


def delzant_obstruction_witness(f: Fan3) -> ObstructionWitness:
    """The first extremal positive-curvature wall in lexicographic order,
    relabeled so a1 <= a2, with the degree claim on its second endpoint
    verified against the dual sphere.

    Positivity of curvature forces a1 <= 0 after the relabeling; a1 < 0
    pins the endpoint i2 into exactly 3 maximal cones and a1 = 0 into
    exactly 4, so the dual polytope has a triangular or quadrangular face.
    """
    analysis = extremal_walls(f)
    extremal_groups = [
        g for g in analysis.groups if g[0] in analysis.extremal
    ]
    qualifying = sorted(
        w for g in extremal_groups for w in g
        if f.wall_table[w].curvature > 0
    )
    if not qualifying:
        raise NotFound("no extremal wall of positive curvature")
    key = qualifying[0]
    w = f.wall_table[key]

    attempts = []
    for i1, i2, a1, a2 in _wall_labelings(w):
        if a1 > a2:
            continue
        expected = 3 if a1 < 0 else 4
        degree = f.sphere.vertex_degree(i2)
        attempts.append((i1, i2, a1, a2, expected, degree))
        if degree == expected:
            return ObstructionWitness(
                wall=(i1, i2),
                a=(a1, a2),
                curvature=w.curvature,
                case="a1 < 0" if a1 < 0 else "a1 = 0",
                vertex=i2,
                neighbors=f.sphere.neighbors(i2),
                dual_face_size=degree,
            )
    detail = "; ".join(
        f"labeling ({i1},{i2}) a=({a1},{a2}) needs degree {e}, found {d}"
        for i1, i2, a1, a2, e, d in attempts
    )
    raise CertificationFailure(
        f"extremal wall {key} violates the degree claim: {detail}"
    )
