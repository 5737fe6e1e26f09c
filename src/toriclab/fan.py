"""Complete simplicial fans in Z^3: walls, curvature, Gauss-Bonnet.

All arithmetic is exact (arbitrary-precision integers and fractions).  A
fan is stored as primitive rays plus maximal cones; the cone complex is
required to triangulate a 2-sphere.  Each cone's ray determinant is
computed once and kept on the fan, and the sphere is oriented by them
when it is built: its first cone runs in its determinant's direction, so
on a complete fan every cone runs positively.  The fan's one
certification, ``Fan3.certificate`` (unimodular cones, every cone
running positively and a generic-ray piercing test), is made before any
wall is read and kept, so every analysis refuses a non-fan with its
error and no other, and the kept determinants are scanned for
unimodularity once per fan.  The characteristic pair of a certified fan
is its own sphere with the rays as lambda.

Wall bookkeeping follows a fixed normalization: the wall pair (i1, i2) is
sorted and its two apexes (i, i') are ordered so that

    det(ray(i1), ray(i2), ray(i))  = +1
    det(ray(i1), ray(i2), ray(i')) = -1

and the integers a1, a2 satisfy the exact wall relation

    ray(i) + ray(i') = a1 * ray(i1) + a2 * ray(i2).

The wall table is read after certification, so every cone runs
positively: i is the apex whose triangle runs i1 -> i2 in the sphere, and
the fan pair's intersection calculus (:mod:`toriclab.cohomology`) pairs
the wall's class to 1 at both apexes and to -a1, -a2 at i1, i2.  The
table reads a1, a2 there and re-verifies the relation and the side
determinant.

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
from .combinatorics import SimplicialSphere2, Triangle
from .errors import (IncompleteFan, InternalError, NotUnimodular, ParseError,
                     ValidationError)
from .lattice import Vec3, det3
from .read import (_id_triples, _int, _int_ids, _int_key, _Lines, _name, _plain, _rationals,
                   _sequences, exact_rows, primitive_vectors)
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

    @property
    def key(self) -> tuple[int, int]:
        """The wall as a sorted pair, for lookups."""
        return self.pair


class CompletenessCertificate(_Value):
    """Evidence from check_complete: the sampled direction and its cone."""

    direction: Vec3
    cone: Triangle
    attempts: int


class Fan3(_Value):
    """An immutable simplicial fan in Z^3.

    ``sphere`` is the cone complex, validated by :meth:`from_data` as a
    simplicial 2-sphere of non-degenerate cones and oriented in the
    direction of its first cone's determinant.  The cone determinants
    (:attr:`_cone_dets`, keyed by cone) and the certification
    (:attr:`certificate`) are kept once made; they are not fields.
    """

    name: str
    rays: tuple[Vec3, ...]
    maximal_cones: tuple[Triangle, ...]
    sphere: SimplicialSphere2
    support: tuple[Fraction, ...] | None

    @classmethod
    def from_data(cls, name, rays, cones, support=None) -> "Fan3":
        """Validate the data; the sphere's orientation is seeded by the first
        cone in its determinant's direction, so on a complete fan every cone
        runs positively (any other complex is refused by certification).
        The name must be one a ``fan3`` header reads back.  Rays and cones
        are checked in bulk; a per-item scan names the first fault once a
        bulk test fails."""
        _name(name, "fan3")
        rays = primitive_vectors(_sequences(rays, "rays", "ray {}"), "ray {}")
        m = len(rays)
        cones = _sequences(cones, "cones", "cone {}")
        cones = _id_triples(cones, _int_ids(cones, "cone {c} has a non-integer ray id"), m,
                            "cone {} does not have 3 distinct rays",
                            "cone {} references a ray outside 0..{}")
        dets = _cone_determinants(rays, cones)
        try:  # the cones are checked: the sphere checks no cone again
            sphere = SimplicialSphere2._from_sorted(
                m, cones, reverse_first=bool(cones) and dets[cones[0]] < 0)
        except ValidationError as e:
            raise ValidationError(f"cone complex is not a 2-sphere: {e}") from None
        if support is not None:
            (support,) = exact_rows((support,), m, "{} support parameters for {} rays")
            support = tuple(Fraction(x) if type(x) is int else x for x in support)
        fan = cls(name, rays, cones, sphere, support)
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
        """The fan's one certification, kept once made: :func:`check_unimodular`
        (raising NotUnimodular), then :func:`check_complete` at ``COMPLETENESS_SEED``."""
        verdict = check_unimodular(self)
        if not verdict.ok:
            raise NotUnimodular(verdict.violations)
        return check_complete(self, COMPLETENESS_SEED)

    @cached_property
    def wall_table(self) -> dict[tuple[int, int], Wall]:
        """All walls keyed by sorted pair, in ``sphere.walls`` order, made
        once, off the fan pair's wall classes, so after the fan's certification."""
        return {wc.wall: _read_wall(self.rays, sides, wc) for wc, sides in
                zip(self.characteristic_pair.wall_classes, self.sphere._apex_pairs.values())}

    @cached_property
    def characteristic_pair(self) -> CharacteristicPair:
        """The fan's own sphere, plus the rays.

        The fan is certified first (``certificate``), which refuses any sphere
        that does not run every cone positively (:func:`check_complete`),
        a constructor-made one run against its cones included.  The fan's
        intersection calculus is the signed calculus of this pair, cached
        on it, so every cone contributes +1.
        """
        self.certificate
        return CharacteristicPair(self.sphere, CharacteristicFunction(self.rays))

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


def _cone_determinants(rays, cones) -> dict[Triangle, int]:
    """det3 of each cone's rays, keyed by cone; a degenerate cone is refused."""
    dets = [det3(rays[a], rays[b], rays[c]) for a, b, c in cones]
    if 0 in dets:
        raise ValidationError(f"cone {cones[dets.index(0)]} is degenerate: det = 0")
    return dict(zip(cones, dets))


def _read_wall(rays, sides: tuple[int, int], wc) -> Wall:
    """The normalized wall off its class ``wc`` in a certified fan's
    calculus, with ``sides`` the apex whose triangle runs u -> v first,
    then the other, as the module docstring reads it, checks included."""
    (u, v), (i, ip) = wc.wall, sides
    a1 = a2 = 0
    for t, value in wc.entries:  # at most four
        if t == u:
            a1 = -value
        elif t == v:
            a2 = -value
    (x1, y1, z1), (x2, y2, z2), (x, y, z), (xp, yp, zp) = rays[u], rays[v], rays[i], rays[ip]
    if (x + xp, y + yp, z + zp) != (a1 * x1 + a2 * x2, a1 * y1 + a2 * y2, a1 * z1 + a2 * z2):
        raise InternalError(
            f"wall relation failed at ({u},{v}): "
            f"ray({i})+ray({ip}) != {a1}*ray({u})+{a2}*ray({v})")
    curv = 2 - a1 - a2
    side = det3((x1 - xp, y1 - yp, z1 - zp), (x2 - xp, y2 - yp, z2 - zp),
                (x - xp, y - yp, z - zp))
    if side != curv:
        raise InternalError(
            f"wall ({u},{v}): side determinant {side} != curvature {curv}")
    kind = "convex" if curv > 0 else ("flat" if curv == 0 else "concave")
    return Wall((u, v), (i, ip), (a1, a2), curv, kind)


def wall_data(f: Fan3, pair) -> Wall:
    """The normalized wall record for an unordered wall pair."""
    key = _int_key(pair)
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
    validates it; a sphere that is not the cones is a ValidationError).
    Two tests remain.  (a) Every cone runs positively: its kept
    determinant, read in the sphere's order, is positive.  The sphere is
    connected and runs each wall once each way, so the signs agree exactly
    when every wall has its two apex rays strictly on opposite sides of
    its plane; else the first wall that does not is named (IncompleteFan),
    and if there is none every cone runs negatively (ValidationError).
    (b) A pseudo-random generic integer direction lies in exactly one
    maximal cone (resampled while it hits a cone boundary).  The sampler
    is seeded by ``seed``, an int, so runs are reproducible; a seed makes a
    fresh certificate.  Without one this is the fan's kept certification,
    ``Fan3.certificate``, which raises NotUnimodular first.
    """
    if seed is None:
        return f.certificate
    seed = _int(seed, "seed")
    if f.sphere.m != f.m or f.sphere.triangles != f.maximal_cones:
        raise ValidationError("the fan's sphere is not its cone complex")
    f.sphere._index  # a constructor-made sphere is validated here
    # (a) each cone's oriented sign: its kept determinant, negated when the
    # sphere runs it as an odd permutation of its sorted rays
    signs = {(d > 0) == ((x < y) + (y < z) + (z < x) == 2)
             for d, (x, y, z) in zip(f._cone_dets.values(), f.sphere.oriented)}
    if signs != {True}:
        for u, v in f.sphere.walls:
            p, q = f.sphere.wall_apexes((u, v))
            dp, dq = (det3(f.rays[u], f.rays[v], f.rays[x]) for x in (p, q))
            if (dp > 0) == (dq > 0):
                raise IncompleteFan(
                    f"apexes {p}, {q} of wall ({u}, {v}) do not lie strictly on "
                    f"opposite sides (determinants {dp}, {dq})")
        raise ValidationError("sphere orientation runs against its cones")

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
            return CompletenessCertificate(direction, hits[0], attempt)
        if not hits:
            raise IncompleteFan(
                f"generic direction {direction} lies in no maximal cone")
        raise IncompleteFan(
            f"generic direction {direction} lies in {len(hits)} maximal "
            f"cones: {hits}")
    raise InternalError("piercing test kept hitting cone boundaries; "
                        "input is degenerate beyond repair")


def certify_fan(f: Fan3) -> CompletenessCertificate:
    """The fan's one certification, ``Fan3.certificate``: made on the
    first call, which raises NotUnimodular or IncompleteFan, and kept."""
    return f.certificate


def _pierce(f: Fan3, x: Vec3):
    """Maximal cones whose interior contains x (exact barycentric solve).

    By Cramer's rule the barycentric coordinates of x are det3(...) / d, so
    their signs are those of the integers det3(...) * sign(d).
    """
    hits, boundary, rays = [], False, f.rays
    for c, d in f._cone_dets.items():
        la, lb, lc = rays[c[0]], rays[c[1]], rays[c[2]]
        s = 1 if d > 0 else -1
        p, q, r = s * det3(x, lb, lc), s * det3(la, x, lc), s * det3(la, lb, x)
        if p > 0 and q > 0 and r > 0:
            hits.append(c)
        elif p >= 0 and q >= 0 and r >= 0:
            boundary = True
    return hits, boundary


def characteristic_pair(f: Fan3) -> CharacteristicPair:
    """The fan's sphere with its geometric orientation, plus its rays
    (built once per fan, see ``Fan3.characteristic_pair``)."""
    return f.characteristic_pair


def parse_fan(text: str) -> Fan3:
    """Parse a FAN3 document (line grammar: :class:`~toriclab.read._Lines`):
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
        support = _rationals(line[len("support:"):].split())
        if None in support or not _plain(line):
            raise ParseError(f"malformed support parameters {line!r}")
    return Fan3.from_data(name, rays, cones, support=support)


def serialize_fan(f: Fan3) -> str:
    """Canonical FAN3 text; parse(serialize(f)) == f, bit-exact."""
    out = [f"fan3 {f.name}", f"rays {f.m}"]
    out += [f"R {i}: {x} {y} {z}" for i, (x, y, z) in enumerate(f.rays)]
    out.append(f"cones {len(f.maximal_cones)}")
    out += [f"C: {a} {b} {c}" for a, b, c in f.maximal_cones]
    if f.support is not None:
        out.append("support: " + " ".join(str(c) for c in f.support))
    return "\n".join(out) + "\n"
