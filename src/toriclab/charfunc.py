"""Characteristic functions, characteristic pairs and the star condition.

A characteristic function gives each facet (sphere vertex) a primitive
vector of Z^3, and a pair joins it to a sphere; :mod:`toriclab.coloring`
makes one from a 4-coloring.  A characteristic pair keeps its
intersection calculus, built on first use by :mod:`toriclab.cohomology`:
the integrals and one class per wall.
"""

from __future__ import annotations

from functools import cached_property

from .combinatorics import SimplicialSphere2, Triangle
from .errors import ValidationError
from .lattice import Vec3, det3
from .read import _Lines, _sequences, primitive_vectors
from .value import _Value


class CharacteristicFunction(_Value):
    """An assignment of a primitive integer vector to each of m facets."""

    vectors: tuple[Vec3, ...]

    def __init__(self, vectors: tuple[Vec3, ...]):
        self.__dict__["vectors"] = primitive_vectors(
            _sequences(vectors, "lambda", "lambda({})"), "lambda({})")

    @property
    def m(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i: int) -> Vec3:
        return self.vectors[i]


class CharacteristicPair(_Value):
    """A sphere together with a vector assignment of matching size.

    Construction only enforces the size agreement; whether every triangle
    spans a lattice basis is a separate, reportable check
    (:func:`check_star_condition`), so invalid assignments can be loaded
    and diagnosed.
    """

    sphere: SimplicialSphere2
    lam: CharacteristicFunction

    def __init__(self, sphere: SimplicialSphere2, lam: CharacteristicFunction):
        if sphere.m != lam.m:
            raise ValidationError(
                f"sphere has {sphere.m} vertices but lambda has {lam.m} values")
        self.__dict__.update(sphere=sphere, lam=lam)

    @cached_property
    def _calculus(self):
        from .cohomology import integral_table  # cohomology imports this module

        return integral_table(self)

    @property
    def integrals(self) -> dict[tuple[int, int, int], int]:
        """Every nonzero degree-3 integral of the pair, keyed by sorted
        index multiset; built on first use by
        :func:`toriclab.cohomology.integral_table` and kept here."""
        return self._calculus[0]

    @property
    def wall_classes(self) -> tuple:
        """Each wall's :class:`~toriclab.cohomology.WallClass`, in
        ``sphere.walls`` order; built with the integrals."""
        return self._calculus[1]


class StarVerdict(_Value):
    """Outcome of the basis condition scan over all triangles."""

    ok: bool
    violations: tuple[tuple[Triangle, int], ...]  # (triangle, determinant)


def check_star_condition(pair: CharacteristicPair) -> StarVerdict:
    """Check det(lambda(i), lambda(j), lambda(k)) = +-1 on every triangle.

    Both signs are accepted; orientation-sensitive sign constraints belong
    to the fan layer.  Every violating triangle is reported together with
    its determinant, in triangle order.  One determinant is computed per
    distinct triple of vectors met (a coloring has at most 24).
    """
    lam, tris = pair.lam.vectors, pair.sphere.triangles
    vectors = list(dict.fromkeys(lam))
    code = list(map(dict(zip(vectors, range(len(vectors)))).__getitem__, lam))
    det = {t: det3(vectors[t[0]], vectors[t[1]], vectors[t[2]])
           for t in {(code[i], code[j], code[k]) for i, j, k in tris}}
    if all(d in (1, -1) for d in det.values()):
        return StarVerdict(ok=True, violations=())
    bad = tuple((t, d) for t in tris
                if (d := det[code[t[0]], code[t[1]], code[t[2]]]) not in (1, -1))
    return StarVerdict(ok=False, violations=bad)


def parse_charfunc(text: str) -> CharacteristicFunction:
    """Parse a CHARFUNC block, `lambda <m>` then m lines `L <id>: <x> <y> <z>`
    (line grammar: :class:`~toriclab.read._Lines`)."""
    doc = _Lines(text)
    vectors = doc.records("L", "vector", doc.count("lambda"), width=3)
    doc.end()
    return CharacteristicFunction(tuple(vectors))


def format_charfunc(lam: CharacteristicFunction) -> str:
    out = [f"lambda {lam.m}"] + [f"L {i}: {x} {y} {z}" for i, (x, y, z) in enumerate(lam.vectors)]
    return "\n".join(out) + "\n"
