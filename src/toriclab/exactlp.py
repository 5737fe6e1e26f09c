"""Exact rational linear programming.

One question is answered here: is a vector a nonnegative combination of
given vectors?  It is answered by one dual-simplex sweep with Bland's
pivoting rule, which terminates without cycling.  The sweep pivots
fraction-free, through one kernel (:func:`_pivot`): a system is read into
integers once, by :func:`toriclab.lattice.over_common_denominator`, and
every tableau entry and certificate stays an integer over one common
denominator.  An entry is read as a fan's support entry is, by
``combinatorics._exact``: a Fraction, an int (not a bool) or a 'p/q'
string; floats, bools and anything else are refused with
ValidationError, and so are vectors of different lengths.
There are no tolerances anywhere: every verdict comes with a certificate
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

from collections.abc import Sequence
from fractions import Fraction

from .combinatorics import _exact
from .errors import InternalError, ValidationError
from .lattice import over_common_denominator
from .value import _Value

__all__ = [
    "ConeMembership",
    "PositiveFunctional",
    "cone_membership",
    "positive_functional",
    "cone_sweep",
]

_ZERO = Fraction(0)


def _integral(rows) -> tuple[list[list[int]], int]:
    """:func:`~toriclab.lattice.over_common_denominator` of the rows, each
    entry read by :func:`~toriclab.combinatorics._exact`, as a fan's
    support entries are.  Rows of different lengths are refused."""
    rows = [_exact(r, "LP entry {x}") for r in rows]
    lengths = sorted({len(r) for r in rows})
    if len(lengths) > 1:
        raise ValidationError(f"LP vectors have different lengths: "
                              f"{', '.join(map(str, lengths))}")
    return over_common_denominator(rows)


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
    cols = _integral([*generators, x])[0]
    res = _checked(cols, len(cols) - 1)[0]
    if res.member:
        return ConeMembership(True, res.coefficients[:-1], None)
    return res


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
    mat, scale = _integral(rows)
    dim = len(mat[0]) if mat else 0
    res = _checked([*([*r, 1] for r in mat), [0] * dim + [1]], len(mat))[0]
    if res.member:
        return PositiveFunctional(False, None, res.coefficients[:-1])
    *z, t = res.separator
    return PositiveFunctional(True, tuple(-scale * v / t for v in z), None)


def cone_sweep(vectors: Sequence[Sequence]) -> tuple[ConeMembership, ...]:
    """For each vector, whether it is a nonnegative combination of the
    others, decided in one dual-simplex sweep (see the module docstring).

    Answer i has one coefficient per vector, 0 on vector i itself, or a
    separator that pairs nonpositively with every other vector and
    positively with vector i.  Each is verified by substitution and agrees
    with ``cone_membership(vectors[i], vectors without i)``.
    """
    return tuple(_checked(_integral(vectors)[0]))


def _checked(cols: list[list[int]], start: int = 0) -> list[ConeMembership]:
    """The answers of :func:`_sweep_integral` for the integer vectors from
    ``start`` on, each checked by substitution (a failed check raises
    InternalError) and read as rationals."""
    sparse = [[(t, v) for t, v in enumerate(c) if v] for c in cols]
    answers = []
    for i, (x, y, d) in enumerate(_sweep_integral(cols, start), start):
        if x is not None:
            rest = [-d * v for v in cols[i]]
            for xj, col in zip(x, sparse):
                for t, v in col if xj else ():
                    rest[t] += xj * v
            if x[i] or min(x) < 0 or any(rest):
                raise InternalError(f"membership coefficients of vector {i} "
                                    f"failed verification")
            answers.append(ConeMembership(
                True, tuple(Fraction(v, d) if v else _ZERO for v in x), None))
        else:
            pairs = [sum(y[t] * v for t, v in col) for col in sparse]
            if pairs[i] <= 0 or any(s > 0 for j, s in enumerate(pairs) if j != i):
                raise InternalError(f"separator of vector {i} fails on a vector "
                                    f"or on vector {i}")
            answers.append(ConeMembership(False, None, tuple(Fraction(v, d) for v in y)))
    return answers


def _pivot(tab: list[list[int]], r: int, e: int, d: int) -> int:
    """Pivot the fraction-free tableau ``tab`` on its nonzero entry (r, e),
    in place, and return the new denominator.

    ``tab`` holds integers ``T`` over the basis determinant ``d > 0``: the
    rational tableau is ``T / d``.  With ``p = T[r][e]`` made positive by
    negating row r if need be (which leaves ``T[r] / p`` as it is), row r
    is kept, every other row maps to ``(p * T[i] - T[i][e] * T[r]) // d``,
    a division that is exact, and the new denominator is ``p``.
    """
    prow = tab[r]
    p = prow[e]
    if p < 0:
        prow = tab[r] = [-x for x in prow]
        p = -p
    for i, row in enumerate(tab):
        if i == r:
            continue
        c = row[e]
        if c:
            tab[i] = [(p * x - c * y) // d for x, y in zip(row, prow)]
        elif p != d:
            tab[i] = [p * x // d for x in row]
    return p


def _sweep_integral(cols: list[list[int]], start: int):
    """:func:`cone_sweep` on integer vectors, unverified, for the vectors
    from ``start`` on: per vector, in order, ``(x, None, d)`` with the
    coefficients ``x / d`` or ``(None, y, d)`` with the separator
    ``y / d``, where ``d > 0``.

    The tableau has a row per coordinate and holds the k vectors as real
    columns, then the identity, which turns into ``d * B^-1``: its row r
    pairs with vector j to the tableau entry ``T[r][j]``.  So the right-hand
    side ``B^-1 * vector i`` is column i, and when row r has a negative
    value there and no negative entry on an allowed column, minus row r of
    ``B^-1`` separates.  A row the elimination leaves without a nonzero
    real entry pairs to 0 with every vector, hence with every right-hand
    side, and is dropped.
    """
    k = len(cols)
    n = len(cols[0]) if k else 0
    tab = [[c[t] for c in cols] + [int(s == t) for s in range(n)] for t in range(n)]
    d = 1
    # elimination to a basis of real columns, each row on its least-index
    # nonzero entry; basis[r] is row r's basic column
    basis = []
    r = 0
    while r < len(tab):
        e = next((j for j, v in enumerate(tab[r][:k]) if v), None)
        if e is None:
            del tab[r]
            continue
        d = _pivot(tab, r, e, d)
        basis.append(e)
        r += 1

    for i in range(start, k):
        if i in basis:
            # vector i is its own solution; it leaves on the least-index
            # column left in its row, or no other vector reaches that row
            # and the row itself separates (it pairs to d with vector i
            # and to 0 with every other)
            r = basis.index(i)
            e = next((j for j, v in enumerate(tab[r][:k]) if v and j != i), None)
            if e is None:
                yield None, tab[r][k:], d
                continue
            d = _pivot(tab, r, e, d)
            basis[r] = e
        while True:
            leave = min(((basis[r], r) for r in range(len(tab)) if tab[r][i] < 0),
                        default=None)
            if leave is None:
                x = [0] * k
                for r, j in enumerate(basis):
                    x[j] = tab[r][i]
                yield x, None, d
                break
            r = leave[1]
            row = tab[r]
            e = next((j for j in range(k) if row[j] < 0 and j != i), None)
            if e is None:
                yield None, [-v for v in row[k:]], d
                break
            d = _pivot(tab, r, e, d)
            basis[r] = e
