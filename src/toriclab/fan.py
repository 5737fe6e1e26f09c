"""Complete simplicial fans in Z^3: walls, curvature, Gauss-Bonnet.

All arithmetic is exact (arbitrary-precision integers and fractions).  A
fan is stored as primitive rays plus maximal cones; the cone complex is
required to triangulate a 2-sphere.  Each cone's ray determinant is
computed once and kept on the fan.  :func:`certify_fan` (unimodular cones,
the wall sign condition and a generic-ray piercing test) runs once per
fan, before any wall is read, so every analysis refuses a non-fan with
its error and no other.

Wall bookkeeping follows a fixed normalization: the wall pair (i1, i2) is
sorted and its two apexes (i, i') are ordered so that

    det(ray(i1), ray(i2), ray(i))  = +1
    det(ray(i1), ray(i2), ray(i')) = -1

The apex determinants are read off the kept cone determinants; on a
certified fan they are +-1 with opposite signs, so the first decides the
order.  Then the integers a1 = det(ray(i'), ray(i2), ray(i)),
a2 = det(ray(i1), ray(i'), ray(i)) satisfy the exact wall relation

    ray(i) + ray(i') = a1 * ray(i1) + a2 * ray(i2).

The unimodular curvature of the wall is 2 - a1 - a2; its sign equals the
sign of det(ray(i1)-ray(i'), ray(i2)-ray(i'), ray(i)-ray(i')), which
classifies the wall as convex, flat, or concave.  Summed over all walls of
a complete unimodular fan, the curvature is 24.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property

from .charfunc import CharacteristicFunction, CharacteristicPair, StarVerdict
from .combinatorics import SimplicialSphere2, Triangle, _Lines, _natural
from .errors import (IncompleteFan, InternalError, NotUnimodular, ParseError,
                     ValidationError)
from .lattice import Vec3, add, det3, is_primitive, sub
from .value import _Value

# the piercing seed of every fan's kept completeness certificate
COMPLETENESS_SEED = 0


class Wall(_Value):
    """One wall of a fan with its normalized data (see module docstring)."""

    pair: tuple[int, int]      # (i1, i2), sorted
    apexes: tuple[int, int]    # (i, i'), det +1 / det -1 sides: the order
    a: tuple[int, int]
    curvature: int
    classification: str        # convex | flat | concave

    def __init__(self, pair: tuple[int, int], apexes: tuple[int, int], a: tuple[int, int],
                 curvature: int, classification: str):
        self.__dict__.update(pair=pair, apexes=apexes, a=a, curvature=curvature,
                             classification=classification)

    @property
    def key(self) -> tuple[int, int]:
        """The wall as a sorted pair, for lookups."""
        return self.pair


class CompletenessCertificate(_Value):
    """Evidence from check_complete: the sampled direction and its cone."""

    direction: Vec3
    cone: Triangle
    attempts: int

    def __init__(self, direction: Vec3, cone: Triangle, attempts: int):
        self.__dict__.update(direction=direction, cone=cone, attempts=attempts)


class Fan3(_Value):
    """An immutable simplicial fan in Z^3.

    ``sphere`` is the cone complex, validated by :meth:`from_data` as a
    simplicial 2-sphere of non-degenerate cones.  The cone determinants
    (:attr:`_cone_dets`, keyed by cone) and the completeness certificate
    are kept once made; they are not fields.
    """

    name: str
    rays: tuple[Vec3, ...]
    maximal_cones: tuple[Triangle, ...]
    sphere: SimplicialSphere2
    support: tuple[Fraction, ...] | None

    def __init__(self, name: str, rays: tuple[Vec3, ...], maximal_cones: tuple[Triangle, ...],
                 sphere: SimplicialSphere2, support: tuple[Fraction, ...] | None):
        self.__dict__.update(name=name, rays=rays, maximal_cones=maximal_cones,
                             sphere=sphere, support=support)

    @classmethod
    def from_data(cls, name, rays, cones, support=None) -> "Fan3":
        rays = tuple(map(tuple, rays))
        m = len(rays)
        for i, r in enumerate(rays):
            if len(r) != 3 or not all(type(x) is int for x in r):
                raise ValidationError(f"ray {i} = {r} is not an integer 3-vector")
            if not is_primitive(r):
                raise ValidationError(f"ray {i} = {r} is not primitive")
        cones = tuple(map(tuple, cones))
        for c in cones:
            if not all(type(i) is int for i in c):
                raise ValidationError(f"cone {c} has a non-integer ray id")
        cones = tuple(sorted(tuple(sorted(c)) for c in cones))
        for c in cones:
            if len(set(c)) != 3:
                raise ValidationError(f"cone {c} does not have 3 distinct rays")
            if not all(0 <= i < m for i in c):
                raise ValidationError(f"cone {c} references a ray outside 0..{m - 1}")
        dets = _cone_determinants(rays, cones)
        try:  # the cones are checked: the sphere checks no cone again
            sphere = SimplicialSphere2._from_sorted(m, cones)
        except ValidationError as e:
            raise ValidationError(f"cone complex is not a 2-sphere: {e}") from None
        if support is not None:
            support = tuple(x if type(x) is Fraction else _support_entry(i, x)
                            for i, x in enumerate(support))
            if len(support) != m:
                raise ValidationError(
                    f"{len(support)} support parameters for {m} rays")
        fan = cls(name=name, rays=rays, maximal_cones=cones,
                  sphere=sphere, support=support)
        fan.__dict__["_cone_dets"] = dets  # cached_property slot
        return fan

    @property
    def m(self) -> int:
        return len(self.rays)

    @cached_property
    def _cone_dets(self) -> dict[Triangle, int]:
        return _cone_determinants(self.rays, self.maximal_cones)

    @cached_property
    def certificate(self) -> "CompletenessCertificate":
        """:func:`check_complete`'s certificate at ``COMPLETENESS_SEED``."""
        return check_complete(self, COMPLETENESS_SEED)

    @cached_property
    def wall_table(self) -> dict[tuple[int, int], Wall]:
        """All walls keyed by sorted pair, in ``sphere.walls`` order, made
        once, after :func:`certify_fan`."""
        certify_fan(self)
        return {w: _compute_wall(self, w) for w in self.sphere.walls}

    @cached_property
    def characteristic_pair(self) -> CharacteristicPair:
        """The sphere with its geometric orientation, plus the rays.

        Triangles are oriented so every ray determinant is positive; the
        fan is certified first, so this orientation is globally
        consistent.  The fan's intersection calculus is the signed
        calculus of this pair, cached on it, so every cone contributes +1.
        """
        certify_fan(self)
        oriented = [(i, j, k) if d > 0 else (i, k, j)
                    for (i, j, k), d in self._cone_dets.items()]
        sphere = self.sphere.reoriented(oriented)
        return CharacteristicPair(sphere, CharacteristicFunction(self.rays))

    @cached_property
    def cone_analysis(self):
        """The effective-cone analysis of :func:`toriclab.cone.extremal_walls`,
        with its exact LPs solved once per fan and kept here."""
        from .cone import _analyse_cone  # cone imports this module

        return _analyse_cone(self)

    @cached_property
    def walls(self) -> tuple[Wall, ...]:
        """Walls in deterministic (sorted-pair lexicographic) order."""
        return tuple(self.wall_table.values())


def _rational(token: str) -> Fraction | None:
    """The value of a ``-?<digits>`` or ``-?<digits>/<digits>`` token with
    a nonzero denominator (a fan's support entry), else None."""
    if not token.isascii():
        return None
    num, slash, den = token.partition("/")
    sign = -1 if num[:1] == "-" else 1
    p = _natural(num[1:] if sign < 0 else num)
    q = _natural(den) if slash else 1
    return None if p is None or not q else Fraction(sign * p, q)


def _support_entry(i: int, x) -> Fraction:
    """Support entry i given as an int or as a string the support grammar
    reads (:func:`_rational`); floats, bools and
    anything else are refused."""
    value = Fraction(x) if type(x) is int else _rational(x) if type(x) is str else None
    if value is None:
        raise ValidationError(
            f"support entry {i} = {x!r} is not a Fraction, an int or a 'p/q' string")
    return value


def _cone_determinants(rays, cones) -> dict[Triangle, int]:
    """det3 of each cone's rays, keyed by cone; a degenerate cone is refused."""
    dets = [det3(rays[a], rays[b], rays[c]) for a, b, c in cones]
    if 0 in dets:
        raise ValidationError(f"cone {cones[dets.index(0)]} is degenerate: det = 0")
    return dict(zip(cones, dets))


def _apex_determinants(f: Fan3, wall: tuple[int, int]) -> tuple[int, int, int, int]:
    """The apexes p < q of the sorted wall (u, v) and det(ray(u), ray(v),
    ray(x)) at x = p, q: the kept determinant of the cone {u, v, x},
    negated exactly when u < x < v (sorting is then one transposition)."""
    u, v = wall
    p, q = f.sphere.wall_apexes(wall)
    dets = f._cone_dets
    dp, dq = (dets[x, u, v] if x < u else -dets[u, x, v] if x < v else dets[u, v, x]
              for x in (p, q))
    return p, q, dp, dq


def _compute_wall(f: Fan3, wall_pair: tuple[int, int]) -> Wall:
    """The normalized wall of a certified fan (see module docstring)."""
    i1, i2 = wall_pair
    p, q, dp, _ = _apex_determinants(f, wall_pair)
    i, ip = (p, q) if dp > 0 else (q, p)
    l1, l2 = f.rays[i1], f.rays[i2]
    li, lp = f.rays[i], f.rays[ip]
    a1 = det3(lp, l2, li)
    a2 = det3(l1, lp, li)
    if add(li, lp) != add(tuple(a1 * x for x in l1), tuple(a2 * x for x in l2)):
        raise InternalError(
            f"wall relation failed at ({i1},{i2}): "
            f"ray({i})+ray({ip}) != {a1}*ray({i1})+{a2}*ray({i2})")
    curv = 2 - a1 - a2
    side = det3(sub(l1, lp), sub(l2, lp), sub(li, lp))
    if side != curv:
        raise InternalError(
            f"wall ({i1},{i2}): side determinant {side} != curvature {curv}")
    cls = "convex" if curv > 0 else ("flat" if curv == 0 else "concave")
    return Wall(pair=(i1, i2), apexes=(i, ip), a=(a1, a2),
                curvature=curv, classification=cls)


def wall_data(f: Fan3, pair) -> Wall:
    """The normalized wall record for an unordered wall pair."""
    key = tuple(sorted(pair))
    try:
        return f.wall_table[key]
    except KeyError:
        raise ValidationError(f"{key} is not a wall of this fan") from None


def curvature(w: Wall) -> int:
    return w.curvature


def classify_wall(f: Fan3, pair) -> str:
    return wall_data(f, pair).classification


def gauss_bonnet_sum(f: Fan3) -> int:
    """Total unimodular curvature over all walls (24 for complete fans)."""
    return sum(w.curvature for w in f.walls)


def check_unimodular(f: Fan3) -> StarVerdict:
    """Every maximal cone must have ray determinant +-1: the star condition
    of the rays, read off the kept cone determinants."""
    bad = tuple((c, d) for c, d in f._cone_dets.items() if d not in (1, -1))
    return StarVerdict(ok=not bad, violations=bad)


def check_complete(f: Fan3, seed: int | None = None) -> CompletenessCertificate:
    """Certify completeness, or raise IncompleteFan naming the failure.

    The cone complex is already a simplicial 2-sphere (``Fan3.from_data``
    validates it).  Two tests remain: (a) at every wall the two apex rays
    lie strictly on opposite sides of the wall's plane, (b) a pseudo-random
    generic rational direction lies in exactly one maximal cone (resampled
    while it hits a cone boundary).  The sampler is seeded by ``seed``, so
    runs are reproducible.  Without a seed this is the fan's kept
    certificate, ``Fan3.certificate``, made at ``COMPLETENESS_SEED``; a
    seed makes a fresh one.
    """
    if seed is None:
        return f.certificate
    # (a) apexes strictly on opposite sides of each wall plane
    for u, v in f.sphere.walls:
        p, q, dp, dq = _apex_determinants(f, (u, v))
        if (dp > 0) == (dq > 0):
            raise IncompleteFan(
                f"apexes {p}, {q} of wall ({u}, {v}) do not lie strictly on "
                f"opposite sides (determinants {dp}, {dq})")

    # (b) generic-ray piercing
    rng = random.Random(seed)
    for attempt in range(1, 65):
        direction = tuple(rng.randint(-997, 997) for _ in range(3))
        if direction == (0, 0, 0):
            continue
        hits, on_boundary = _pierce(f, direction)
        if on_boundary:
            continue
        if len(hits) == 1:
            return CompletenessCertificate(direction=direction, cone=hits[0],
                                           attempts=attempt)
        if not hits:
            raise IncompleteFan(
                f"generic direction {direction} lies in no maximal cone")
        raise IncompleteFan(
            f"generic direction {direction} lies in {len(hits)} maximal "
            f"cones: {hits}")
    raise InternalError("piercing test kept hitting cone boundaries; "
                        "input is degenerate beyond repair")


def certify_fan(f: Fan3) -> CompletenessCertificate:
    """The one certification of a fan, run before its walls are read:
    :func:`check_unimodular` (raising NotUnimodular), then the kept
    ``Fan3.certificate`` (raising IncompleteFan)."""
    verdict = check_unimodular(f)
    if not verdict.ok:
        raise NotUnimodular(verdict.violations)
    return f.certificate


def _pierce(f: Fan3, x: Vec3):
    """Maximal cones whose interior contains x (exact barycentric solve).

    By Cramer's rule the barycentric coordinates of x are det3(...) / d, so
    their signs are those of the integers det3(...) * sign(d).
    """
    hits = []
    boundary = False
    for c, d in f._cone_dets.items():
        la, lb, lc = (f.rays[i] for i in c)
        s = 1 if d > 0 else -1
        coeffs = (s * det3(x, lb, lc), s * det3(la, x, lc), s * det3(la, lb, x))
        if all(t > 0 for t in coeffs):
            hits.append(c)
        elif all(t >= 0 for t in coeffs):
            boundary = True
    return hits, boundary


def characteristic_pair(f: Fan3) -> CharacteristicPair:
    """The fan's sphere with its geometric orientation, plus its rays
    (built once per fan, see ``Fan3.characteristic_pair``)."""
    return f.characteristic_pair


def parse_fan(text: str) -> Fan3:
    """Parse a FAN3 document (line grammar: :class:`~toriclab.combinatorics._Lines`):
        fan3 <name>
        rays <m>
        R <id>: <x> <y> <z>          (m lines, ids in order)
        cones <f>
        C: <i> <j> <k>               (f lines)
        support: <c1> ... <cm>       (optional; each -?<digits>, or that over
                                     /<digits>, the denominator not 0)
    """
    doc = _Lines(text)
    name = doc.header("fan3")
    rays = doc.records("R", "ray", doc.count("rays"), width=3)
    cones = doc.records("C", "cone", doc.count("cones"), width=3, numbered=False,
                        signed=False)
    line = doc.end("support:")
    support = None
    if line is not None:
        support = [_rational(t) for t in line[len("support:"):].split()]
        if None in support:
            raise ParseError(f"malformed support parameters {line!r}")
    return Fan3.from_data(name, rays, cones, support=support)


def serialize_fan(f: Fan3) -> str:
    """Canonical FAN3 text; parse(serialize(f)) == f, bit-exact."""
    out = [f"fan3 {f.name}", f"rays {f.m}"]
    for i, (x, y, z) in enumerate(f.rays):
        out.append(f"R {i}: {x} {y} {z}")
    out.append(f"cones {len(f.maximal_cones)}")
    for c in f.maximal_cones:
        out.append(f"C: {c[0]} {c[1]} {c[2]}")
    if f.support is not None:
        out.append("support: " + " ".join(str(c) for c in f.support))
    return "\n".join(out) + "\n"
