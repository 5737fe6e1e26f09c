"""Exact integer 3-vector arithmetic used throughout the package.

Everything here is plain Python int arithmetic, so values never overflow
and no floating point is involved anywhere.  The vectors are read, and
checked, by :mod:`toriclab.read`.
"""

from __future__ import annotations

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


def dual_covector(a: Vec3, b: Vec3, c: Vec3) -> Vec3:
    """Integer covector m with <m,a> = 1, <m,b> = <m,c> = 0.

    Requires det3(a, b, c) = +-1, i.e. (a, b, c) is a lattice basis.
    """
    d = det3(a, b, c)
    if d not in (1, -1):
        raise ValueError(f"({a}, {b}, {c}) is not a lattice basis: det = {d}")
    return (d * (b[1] * c[2] - b[2] * c[1]), d * (b[2] * c[0] - b[0] * c[2]),
            d * (b[0] * c[1] - b[1] * c[0]))  # d times b x c

