"""Effective-cone analysis of wall classes.

Every wall pairs against the m ray classes through the degree-3 integrals.
A :class:`~toriclab.cohomology.WallClass` stores only the pairing's at
most four nonzero entries, all ints; the dense m-vector is derived when
``WallClass.pairing`` is read, for the witness LP and the reports.  The
intersection calculus builds a pair's classes once, with its integrals,
and keeps them as ``CharacteristicPair.wall_classes``, so
:func:`wall_classes` and :func:`signed_wall_classes` hand back that tuple.
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
representatives.  All groups are decided in one sweep over the
representatives' pairing vectors, one column per group, solved on their
H2 coordinates: the sweep of :func:`~toriclab.exactlp.cone_sweep`, whose
answers it verifies on the whole vectors and this module reads as it
makes them, integers over one positive denominator.  A separator checked
against every other representative holds against every class outside
the group, since each such class is a representative times a positive
factor (both share their group's primitive vector, so the factor is the
class's gcd over the representative's).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .charfunc import CharacteristicPair
from .cohomology import WallClass, _non_positive_edges, certify_support
from .errors import CertificationFailure, NotFound, NoWitness
# cone_membership is not called here: a traced perfbench run wraps both LP
# entry points by name on this module
from .exactlp import _checked_sweep, cone_membership, positive_functional
from .fan import Fan3, characteristic_pair
from .read import _classes, integral
from .value import _Value

UNCERTIFIED_NOTE = "uncertified: no strict convexity witness supplied"


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
    note: str


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
    integrals, in ``pair.sphere.walls`` order.  No fan required.  The
    intersection calculus builds them once per pair, as
    ``pair.wall_classes``; :func:`wall_classes` reads the same tuple off a
    fan's pair."""
    return pair.wall_classes


def _group_classes(classes) -> list[list[WallClass]]:
    """The classes grouped by positive proportionality, groups in
    first-appearance order and classes in input order within each.

    Positively proportional nonzero integer vectors share one primitive
    vector, the vector over the gcd of its entries, so that vector's
    nonzero entries ``(t, x)`` are the group's key.
    """
    groups: dict[tuple[tuple[int, int], ...], list[WallClass]] = {}
    for cls in classes:
        g = math.gcd(*(v for _, v in cls.entries))
        groups.setdefault(tuple((t, v // g) for t, v in cls.entries), []).append(cls)
    return list(groups.values())


def strict_convexity_witness(classes, c_tilde=None):
    """A functional pairing >= 1 (or, for a supplied candidate, > 0) with
    every wall class, or a :class:`NoWitness` value explaining why none
    was produced.

    With ``c_tilde`` the check is pure verification — the products are the
    edge functionals of the candidate support, read as a fan's support is
    and decided on its integer numerators over one common denominator.
    Without it, a feasibility LP searches for any witness; infeasibility
    comes back with convex coefficients combining the pairing vectors to
    zero, which makes a positive functional impossible.  The refusal is a
    return value, not an exception; classes that are not a sequence of
    WallClass values over one m are refused with ValidationError.
    """
    classes = _classes(classes, WallClass)
    if c_tilde is not None:
        (C,), D = integral((c_tilde,), classes[0].m if classes else None,
                           "candidate has {} entries for {} rays", row="candidate")
        failing = tuple(wall for wall, _ in _non_positive_edges(classes, C))
        if failing:
            return NoWitness("candidate pairs non-positively with walls "
                             + ", ".join(str(w) for w in failing), failing=failing)
        return tuple(Fraction(v, D) for v in C)
    res = positive_functional([cls.pairing for cls in classes])
    if res.found:
        return res.y
    return NoWitness("wall classes admit no positive functional: zero is a convex "
                     "combination of the pairing vectors", farkas=res.farkas)


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
    # solved on the H2 coordinates, the rays off the first cone, and
    # checked on the whole vectors (see toriclab.exactlp)
    kept = [t for t in range(f.m) if t not in f.maximal_cones[0]]
    answers = _checked_sweep([g[0].pairing for g in grouped], rows=kept)
    extremal = tuple(g[0].wall for g, (x, _, _) in zip(grouped, answers) if x is None)
    return ConeAnalysis(classes, groups, extremal, witness, note)


def delzant_obstruction_witness(f: Fan3) -> ObstructionWitness:
    """The first extremal positive-curvature wall in lexicographic order,
    relabeled so a1 <= a2, with the degree claim on its second endpoint
    verified against the dual sphere.

    Positivity of curvature forces a1 <= 0 after the relabeling; a1 < 0
    pins the endpoint i2 into exactly 3 maximal cones and a1 = 0 into
    exactly 4, so the dual polytope has a triangular or quadrangular face.
    """
    analysis = extremal_walls(f)
    qualifying = sorted(w for g in analysis.groups if g[0] in analysis.extremal for w in g
                        if f.wall_table[w].curvature > 0)
    if not qualifying:
        raise NotFound("no extremal wall of positive curvature")
    key = qualifying[0]
    w = f.wall_table[key]

    attempts = []
    # the recorded normalization of the wall, then its mirror, with the
    # two endpoints (and apexes) swapped
    (u, v), (au, av) = w.pair, w.a
    for i1, i2, a1, a2 in ((u, v, au, av), (v, u, av, au)):
        if a1 > a2:
            continue
        expected = 3 if a1 < 0 else 4
        degree = f.sphere.vertex_degree(i2)
        attempts.append((i1, i2, a1, a2, expected, degree))
        if degree == expected:
            return ObstructionWitness(
                wall=(i1, i2), a=(a1, a2), curvature=w.curvature,
                case="a1 < 0" if a1 < 0 else "a1 = 0", vertex=i2,
                neighbors=f.sphere.neighbors(i2), dual_face_size=degree)
    detail = "; ".join(
        f"labeling ({i1},{i2}) a=({a1},{a2}) needs degree {e}, found {d}"
        for i1, i2, a1, a2, e, d in attempts
    )
    raise CertificationFailure(f"extremal wall {key} violates the degree claim: {detail}")
