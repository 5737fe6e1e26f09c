"""Exact integer 3-vector arithmetic used throughout the package.

Everything here is plain Python int arithmetic, so values never overflow
and no floating point is involved anywhere.  Rationals become integers
only in :func:`over_common_denominator`, the package's one such reader,
and rays and lambda values are checked only by :func:`primitive_vectors`.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from .errors import ValidationError

Vec3 = tuple[int, int, int]


def det3(a: Vec3, b: Vec3, c: Vec3) -> int:
    """Determinant of the 3x3 integer matrix with rows a, b, c."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def dot(a: Vec3, b: Vec3) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def primitive_vectors(vectors, label: str) -> tuple[Vec3, ...]:
    """The vectors as a tuple of int tuples, refused unless each is a
    primitive integer 3-vector, naming the first fault's index i as
    ``label.format(i)``.  With int entries only (no bool, no 1.0, which
    would equal 1 and hide), equal vectors pass or fail alike, so shape and
    gcd are tested once per distinct vector (a coloring has at most four)."""
    vectors = tuple(map(tuple, vectors))
    distinct = dict.fromkeys(vectors)
    if not (set(map(type, chain.from_iterable(vectors))) <= {int}
            and {(len(v), gcd(*v)) for v in distinct} <= {(3, 1)}):
        for i, v in enumerate(vectors):
            if len(v) != 3 or not all(type(x) is int for x in v):
                raise ValidationError(f"{label.format(i)} = {v} is not an integer 3-vector")
            if gcd(*v) != 1:
                raise ValidationError(f"{label.format(i)} = {v} is not primitive")
    return vectors


def dual_covector(a: Vec3, b: Vec3, c: Vec3) -> Vec3:
    """Integer covector m with <m,a> = 1, <m,b> = <m,c> = 0.

    Requires det3(a, b, c) = +-1, i.e. (a, b, c) is a lattice basis.
    """
    d = det3(a, b, c)
    if d not in (1, -1):
        raise ValueError(f"({a}, {b}, {c}) is not a lattice basis: det = {d}")
    return (d * (b[1] * c[2] - b[2] * c[1]), d * (b[2] * c[0] - b[0] * c[2]),
            d * (b[0] * c[1] - b[1] * c[0]))  # d times b x c


def over_common_denominator(rows) -> tuple[list[list[int]], int]:
    """The rows times one positive integer D, the least common denominator
    of all their entries (ints and Fractions, read through ``numerator``
    and ``denominator``): the integer numerator rows and D."""
    scale = lcm(*{x.denominator for r in rows for x in r})
    return [[x.numerator * (scale // x.denominator) for x in r] for r in rows], scale
