"""Exact rational linear programming.

One question is answered here: is a vector a nonnegative combination of
given vectors?  It is answered by one dual-simplex sweep with Bland's
pivoting rule, which terminates without cycling.  The sweep pivots on
integers, through one kernel (:func:`_pivot`): a system is read into
integers once, by :func:`toriclab.read.integral`, each entry as a fan's
support entry is, and each tableau row is kept on its own scale, as the
primitive integer multiple of its rational row, so a pivot rewrites only
the rows it changes.  Each certificate is integers over one positive
denominator, read off the rows it comes from.  Fractions are made only
for the answers the entry points below return; :mod:`toriclab.cone`,
whose vectors are integers, reads the verified integer answers of
:func:`_checked_sweep`.  There are no tolerances anywhere: every verdict comes with a certificate
that is re-verified by exact substitution before it is returned, so a
caller can trust either answer unconditionally.

Three entry points pose the question, and one verifier checks every answer:

* :func:`cone_sweep` — for every vector of a list, is it a nonnegative
  combination of the others?  Yields the coefficients, or a separating
  functional that is nonpositive on every other vector and positive on
  the vector itself.
* :func:`cone_membership` — is a vector a nonnegative combination of given
  generators?  The sweep's answer for the last vector of
  ``[*generators, x]``.
* :func:`positive_functional` — is there a vector pairing to at least 1
  with every row?  Gordan's alternative asks whether e_{n+1} =
  (0, ..., 0, 1) is a nonnegative combination of the vectors (row_i, 1):
  coefficients that do it are convex and combine the rows to zero, which
  makes any positive pairing impossible, and a separator (z, t) gives
  y = -z/t.

The sweep holds the vectors as the columns of one tableau: one
elimination finds a basis, then each vector asked about is decided in
turn by the dual simplex from the basis the one before it ended in, with
its own column as right-hand side and barred from entering.  The costs
are zero, so every basis is dual feasible and every ratio ties at 0:
Bland's rule leaves on the basic variable of least index with a negative
value and enters on the least-index column with a negative entry in that
row.  That is the primal smallest-subscript rule run on the dual program,
so the sweep is finite (R. G. Bland, "New finite pivoting rules for the
simplex method", 1977).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import InternalError
from .read import _sequence, integral
from .value import _Value

__all__ = [
    "ConeMembership",
    "PositiveFunctional",
    "cone_membership",
    "positive_functional",
    "cone_sweep",
]

_ZERO = Fraction(0)


_LP = {"count": "LP vectors have different lengths: {}", "named": "LP vectors",
       "row": "LP vector {}", "entry": "LP entry {x}"}  # the entry points' words


class ConeMembership(_Value):
    """Decision for ``x in cone(generators)`` with its certificate.

    On membership, ``coefficients`` re-assemble x exactly; otherwise
    ``separator`` pairs nonpositively with every generator and positively
    with x.  Exactly one field is set.
    """

    member: bool
    coefficients: tuple[Fraction, ...] | None
    separator: tuple[Fraction, ...] | None


def cone_membership(x: Sequence, generators: Sequence[Sequence]) -> ConeMembership:
    """Decide whether x is a nonnegative combination of the generators.

    The sweep decides the last vector of ``[*generators, x]`` alone; the
    coefficients are read off it without the 0 on x itself.
    """
    # One common scale for x and the generators changes neither answer.
    cols = integral([*_sequence(generators, "generators"), x], **_LP)[0]
    [(coefficients, y, d)] = _checked_sweep(cols, len(cols) - 1)
    return _membership(coefficients and coefficients[:-1], y, d)


class PositiveFunctional(_Value):
    """Decision for ``exists y with <row, y> >= 1 for every row``.

    On success ``y`` is such a vector.  On failure ``farkas`` holds convex
    coefficients (nonnegative, summing to 1) combining the rows to zero,
    which rules out any y pairing positively with all of them.
    """

    found: bool
    y: tuple[Fraction, ...] | None
    farkas: tuple[Fraction, ...] | None


def positive_functional(rows: Sequence[Sequence]) -> PositiveFunctional:
    """Find y with <row, y> >= 1 for all rows, or prove none exists.

    Gordan's alternative on the integer rows r_i = scale * row_i, posed
    as the membership of e_{n+1} in the cone of the vectors (r_i, 1):
    either coefficients pi >= 0 have sum_i pi_i (r_i, 1) = e_{n+1}, the
    convex certificate, or the verified separator (z, t) has
    z·r_i + t <= 0 and t > 0, so y = -scale·z/t pairs to at least 1 with
    every row.
    """
    mat, scale = integral(rows, **_LP)
    dim = len(mat[0]) if mat else 0
    [(x, y, d)] = _checked_sweep([*([*r, 1] for r in mat), [0] * dim + [1]], len(mat))
    if x is not None:
        return PositiveFunctional(False, None, _membership(x[:-1], None, d).coefficients)
    *z, t = y
    return PositiveFunctional(True, tuple(Fraction(-scale * v, t) for v in z), None)


def cone_sweep(vectors: Sequence[Sequence]) -> tuple[ConeMembership, ...]:
    """For each vector, whether it is a nonnegative combination of the
    others, decided in one dual-simplex sweep (see the module docstring).

    Answer i has one coefficient per vector, 0 on vector i itself, or a
    separator that pairs nonpositively with every other vector and
    positively with vector i.  Each is verified by substitution and agrees
    with ``cone_membership(vectors[i], vectors without i)``.
    """
    return tuple(_membership(*answer) for answer in _checked_sweep(integral(vectors, **_LP)[0]))


def _membership(x: list[int] | None, y: list[int] | None, d: int) -> ConeMembership:
    """A checked answer of :func:`_checked_sweep` read as rationals."""
    over_d = tuple(Fraction(v, d) if v else _ZERO for v in (y if x is None else x))
    return ConeMembership(False, None, over_d) if x is None else ConeMembership(True, over_d, None)


def _checked_sweep(cols: list[list[int]], start: int = 0) -> Iterator[tuple]:
    """The answers of :func:`_sweep_integral` for the integer vectors from
    ``start`` on, as it gives them, ``(x, None, d)`` or ``(None, y, d)``,
    each checked by substitution first (a failed check raises
    InternalError).  :mod:`toriclab.cone` reads them as they are; the
    public entries read them as rationals."""
    sparse = [[(t, v) for t, v in enumerate(c) if v] for c in cols]
    for i, (x, y, d) in enumerate(_sweep_integral(cols, start), start):
        if x is not None:
            rest = [-d * v for v in cols[i]]
            for xj, col in zip(x, sparse):
                for t, v in col if xj else ():
                    rest[t] += xj * v
            if x[i] or min(x) < 0 or any(rest):
                raise InternalError(f"membership coefficients of vector {i} "
                                    f"failed verification")
        else:
            pairs = [sum(y[t] * v for t, v in col) for col in sparse]
            if pairs[i] <= 0 or any(s > 0 for j, s in enumerate(pairs) if j != i):
                raise InternalError(f"separator of vector {i} fails on a vector "
                                    f"or on vector {i}")
        yield x, y, d


def _pivot(tab: list[list[int]], r: int, e: int) -> None:
    """Pivot the tableau ``tab`` on its nonzero entry (r, e), in place.

    Each row of ``tab`` is an integer multiple of its row of the rational
    tableau, and a row with a basic column is the primitive multiple
    whose basic entry is positive.  Row r is negated if need be, so that
    its entry ``p`` in column e, its new basic entry, is positive.  One
    rule rewrites the rest: a row with a nonzero entry ``c`` in column e
    becomes ``p * row - c * tab[r]`` over the gcd of its entries, and every
    other row is left as it is, the same list.
    """
    prow = tab[r]
    p = prow[e]
    if p < 0:
        prow = tab[r] = [-x for x in prow]
        p = -p
    for i, row in enumerate(tab):
        c = row[e]
        if c and i != r:
            row = [p * x - c * y for x, y in zip(row, prow)]
            g = gcd(*row)
            tab[i] = [x // g for x in row] if g > 1 else row


def _sweep_integral(cols: list[list[int]], start: int):
    """:func:`cone_sweep` on integer vectors, unverified, for the vectors
    from ``start`` on: per vector, in order, ``(x, None, d)`` with the
    coefficients ``x / d`` or ``(None, y, d)`` with the separator
    ``y / d``, where ``d > 0``.

    The tableau has a row per coordinate and holds the k vectors as real
    columns, then the identity, which turns into ``B^-1``: row r of the
    rational tableau is ``T[r] / b``, where ``b > 0`` is the entry of row r
    in its basic column, and ``T[r]`` is primitive (see :func:`_pivot`).
    Row r pairs with vector j to the tableau entry ``T[r][j]``, so the
    right-hand side ``B^-1 * vector i`` is column i.  When row r has a
    negative value there and no negative entry on an allowed column, minus
    row r of ``B^-1`` separates, over ``b``; coefficients are read over the
    lcm of the basic entries of the rows they read.  A row the elimination
    leaves without a nonzero real entry pairs to 0 with every vector,
    hence with every right-hand side, and is dropped.
    """
    k = len(cols)
    n = len(cols[0]) if k else 0
    tab = [[c[t] for c in cols] + [int(s == t) for s in range(n)] for t in range(n)]
    # elimination to a basis of real columns, each row on its least-index
    # nonzero entry; basis[r] is row r's basic column
    basis = []
    r = 0
    while r < len(tab):
        e = next((j for j, v in enumerate(tab[r][:k]) if v), None)
        if e is None:
            del tab[r]
            continue
        _pivot(tab, r, e)
        basis.append(e)
        r += 1

    for i in range(start, k):
        if i in basis:
            # vector i is its own solution; it leaves on the least-index
            # column left in its row, or no other vector reaches that row
            # and the row itself separates (it pairs to its basic entry
            # with vector i and to 0 with every other)
            r = basis.index(i)
            e = next((j for j, v in enumerate(tab[r][:k]) if v and j != i), None)
            if e is None:
                yield None, tab[r][k:], tab[r][i]
                continue
            _pivot(tab, r, e)
            basis[r] = e
        while True:
            leave = min(((basis[r], r) for r in range(len(tab)) if tab[r][i] < 0),
                        default=None)
            if leave is None:
                d = lcm(*(row[j] for j, row in zip(basis, tab) if row[i]))
                x = [0] * k
                for j, row in zip(basis, tab):
                    x[j] = row[i] * d // row[j]
                yield x, None, d
                break
            r = leave[1]
            row = tab[r]
            e = next((j for j in range(k) if row[j] < 0 and j != i), None)
            if e is None:
                yield None, [-v for v in row[k:]], row[basis[r]]
                break
            _pivot(tab, r, e)
            basis[r] = e
