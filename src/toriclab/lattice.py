"""Exact integer 3-vector arithmetic used throughout the package.

Everything here is plain Python int arithmetic, so values never overflow
and no floating point is involved anywhere.  Rationals become integers
only in :func:`over_common_denominator`, the package's one such reader.
"""

from __future__ import annotations

from math import gcd, lcm

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


def is_primitive(a: Vec3) -> bool:
    """True iff a is nonzero and its entries have gcd 1."""
    return gcd(gcd(abs(a[0]), abs(a[1])), abs(a[2])) == 1


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
    of all their entries: the integer numerator rows and D.

    Ints and Fractions are read through ``numerator``/``denominator``
    without building a Fraction; anything else ``Fraction`` accepts
    (floats, Decimals, strings) is converted first.
    """
    rows = [list(r) for r in rows]
    try:
        dens = {x.denominator for r in rows for x in r}
    except AttributeError:
        from fractions import Fraction  # only values other than ints and Fractions need it
        rows = [[Fraction(x) for x in r] for r in rows]
        dens = {x.denominator for r in rows for x in r}
    scale = lcm(*dens)
    return [[x.numerator * (scale // x.denominator) for x in r] for r in rows], scale
