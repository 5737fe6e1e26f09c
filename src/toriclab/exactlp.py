"""Exact rational linear programming.

A small phase-1 simplex and a dual-simplex sweep, both with Bland's
pivoting rule, which terminates without cycling.  They pivot
fraction-free, through one kernel (:func:`_pivot`): a system is read into
integers once, by :func:`toriclab.lattice.over_common_denominator`, and
every tableau entry and certificate stays an integer over one common
denominator.  An entry is read as a fan's support entry is: a Fraction, an
int (not a bool) or a 'p/q' string; floats, bools and anything else are
refused with ValidationError.  There are no tolerances anywhere: every
verdict comes with a certificate that is re-verified by exact substitution
before it is returned, so a caller can trust either answer
unconditionally.

Two feasibility questions are exposed besides :func:`phase1_simplex`,
each posed to the same verified phase-1 solve:

* :func:`cone_membership` — is a vector a nonnegative combination of given
  generators?  Yields the coefficients, or a separating functional that is
  nonpositive on every generator and positive on the target.
* :func:`positive_functional` — is there a vector pairing to at least 1
  with every row?  Posed as Gordan's alternative, it yields the vector, or
  convex-combination coefficients exhibiting 0 as a convex combination of
  the rows (which makes any positive pairing impossible).

:func:`cone_sweep` asks the membership question of every vector of a list
against the others, in one tableau whose columns are the vectors: one
elimination finds a basis, then each vector in turn is decided by the dual
simplex from the basis the one before it ended in, with its own column as
right-hand side and barred from entering.  The costs are zero, so every
basis is dual feasible and every ratio ties at 0: Bland's rule leaves on
the basic variable of least index with a negative value and enters on the
least-index column with a negative entry in that row.  That is the primal
smallest-subscript rule run on the dual program, so the sweep is finite
for the reason the phase-1 simplex is (R. G. Bland, "New finite pivoting
rules for the simplex method", 1977).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from .errors import InternalError, ValidationError
from .lattice import over_common_denominator
from .value import _Value

__all__ = [
    "Phase1Result",
    "ConeMembership",
    "PositiveFunctional",
    "phase1_simplex",
    "cone_membership",
    "positive_functional",
    "cone_sweep",
]

_ZERO = Fraction(0)


class Phase1Result(_Value):
    """Outcome of ``find x >= 0 with A x = b``.

    Exactly one of ``solution`` (the x) and ``farkas`` (a vector y with
    y·A <= 0 componentwise and y·b > 0) is set.
    """

    solution: tuple[Fraction, ...] | None
    farkas: tuple[Fraction, ...] | None

    def __init__(self, solution: tuple[Fraction, ...] | None,
                 farkas: tuple[Fraction, ...] | None):
        self.__dict__.update(solution=solution, farkas=farkas)

    @property
    def feasible(self) -> bool:
        return self.solution is not None


def _integral(rows) -> tuple[list[list[int]], int]:
    """:func:`~toriclab.lattice.over_common_denominator` of the rows, each
    entry read as ``fan._support_entry`` reads a support entry."""
    rows = [list(r) for r in rows]
    for r in rows:
        for k, x in enumerate(r):
            if type(x) is not int and type(x) is not Fraction:
                from .fan import _rational  # the support grammar, for strings only

                value = _rational(x) if type(x) is str else None
                if value is None:
                    raise ValidationError(
                        f"LP entry {x!r} is not a Fraction, an int or a 'p/q' string")
                r[k] = value
    return over_common_denominator(rows)


def phase1_simplex(rows: Sequence[Sequence], rhs: Sequence) -> Phase1Result:
    """Solve ``A x = b, x >= 0`` exactly, where ``rows`` are the rows of A.

    Minimizes the sum of artificial variables with Bland's rule.  When the
    minimum is positive the system is infeasible and the simplex
    multipliers give the alternative certificate.

    The whole system is first multiplied by its least common denominator.
    One positive scale keeps the sign of every reduced cost and multiplies
    every ratio of an entering column by the same factor, so Bland's rule
    picks the same entering column, leaving row and tie-breaks as on the
    rational system; the solution and the artificial reduced costs, hence
    the Farkas vector, are unchanged as well.  The tableau is then pivoted
    fraction-free (Edmonds/Bareiss, :func:`_pivot`), so signs and ratio
    comparisons are read off integers and the pivots are those of the
    rational tableau.
    """
    *a, b = _integral([*rows, rhs])[0]
    return Phase1Result(*_verified(a, b, "simplex produced a non-solution",
                                   "invalid infeasibility certificate"))


def _verified(a: list[list[int]], b: list[int], bad_solution: str, bad_farkas: str):
    """:func:`_phase1_integral` with its answer checked by substitution (a
    failed check raises InternalError with the caller's message for it),
    read as rationals: ``(solution, None)`` or ``(None, farkas)``."""
    x, y, d = _phase1_integral(a, b)
    if x is not None:
        if any(v < 0 for v in x) or any(
            sum(map(mul, r, x)) != v * d for r, v in zip(a, b)
        ):
            raise InternalError(bad_solution)
        return tuple(Fraction(v, d) for v in x), None
    if any(sum(map(mul, y, col)) > 0 for col in zip(*a)) or sum(map(mul, y, b)) <= 0:
        raise InternalError(bad_farkas)
    return None, tuple(Fraction(v, d) for v in y)


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


def _phase1_integral(a: list[list[int]], b: list[int]):
    """:func:`phase1_simplex` on a system already in integers, answered in
    integers: ``(x, None, d)`` with the solution ``x / d``, or
    ``(None, y, d)`` with the Farkas vector ``y / d``, where ``d > 0``.
    The caller verifies it.  ``a`` and ``b`` are left unmodified.
    """
    a, b = list(a), list(b)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(r) != ncols for r in a) or len(b) != nrows:
        raise InternalError("ragged linear system")

    # Orient every row so the right-hand side is nonnegative, remembering
    # the flips to undo on the certificate.
    signs = [1] * nrows
    for i in range(nrows):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
            signs[i] = -1

    # Tableau: real columns, artificial columns, right-hand side, and last
    # the reduced-cost row for minimizing the artificial sum: cost 1 on
    # each artificial, 0 elsewhere, minus the sum of the (basic) rows.
    tab = []
    for i in range(nrows):
        row = a[i] + [0] * nrows + [b[i]]
        row[ncols + i] = 1
        tab.append(row)
    tab.append([-sum(col) for col in zip(*a)] + [0] * nrows + [-sum(b)])
    basis = [ncols + i for i in range(nrows)]
    d = 1

    while True:
        z = tab[-1]
        enter = next((j for j in range(ncols + nrows) if z[j] < 0), None)
        if enter is None:
            break
        # Least ratio T[i][-1] / T[i][enter], ties to the least basic
        # variable, compared by cross-multiplication.
        pivot = None
        for i in range(nrows):
            row = tab[i]
            t = row[enter]
            if t <= 0:
                continue
            if pivot is not None:
                diff = row[-1] * den - num * t
                if diff > 0 or (diff == 0 and basis[i] > basis[pivot]):
                    continue
            pivot, num, den = i, row[-1], t
        if pivot is None:
            raise InternalError("phase-1 objective unbounded below")
        d = _pivot(tab, pivot, enter, d)
        basis[pivot] = enter

    z = tab[-1]
    if z[-1] == 0:
        # The solution is x / d.
        x = [0] * ncols
        for i, var in enumerate(basis):
            if var < ncols:
                x[var] = tab[i][-1]
        return x, None, d

    # Infeasible: the multipliers 1 - z_art / d, read off the artificial
    # reduced costs, certify the alternative once the row flips are undone.
    return None, [s * (d - z[ncols + i]) for i, s in enumerate(signs)], d


class ConeMembership(_Value):
    """Decision for ``x in cone(generators)`` with its certificate.

    On membership, ``coefficients`` re-assemble x exactly; otherwise
    ``separator`` pairs nonpositively with every generator and positively
    with x.  Exactly one field is set.
    """

    member: bool
    coefficients: tuple[Fraction, ...] | None
    separator: tuple[Fraction, ...] | None

    def __init__(self, member: bool, coefficients: tuple[Fraction, ...] | None,
                 separator: tuple[Fraction, ...] | None):
        self.__dict__.update(member=member, coefficients=coefficients, separator=separator)


def cone_membership(x: Sequence, generators: Sequence[Sequence]) -> ConeMembership:
    """Decide whether x is a nonnegative combination of the generators."""
    # One common scale for x and the generators changes neither answer.
    target, *gens = _integral([x, *generators])[0]
    dim = len(target)
    if any(len(g) != dim for g in gens):
        raise InternalError("generator dimension mismatch")
    if not gens:
        if not any(target):
            return ConeMembership(True, (), None)
        sep = tuple(Fraction((v > 0) - (v < 0)) for v in target)
        return ConeMembership(False, None, sep)

    columns = [list(col) for col in zip(*gens)]
    coef, sep = _verified(columns, target,
                          "membership coefficients failed verification",
                          "separator fails on a generator or the target")
    return ConeMembership(coef is not None, coef, sep)


class PositiveFunctional(_Value):
    """Decision for ``exists y with <row, y> >= 1 for every row``.

    On success ``y`` is such a vector.  On failure ``farkas`` holds convex
    coefficients (nonnegative, summing to 1) combining the rows to zero,
    which rules out any y pairing positively with all of them.
    """

    found: bool
    y: tuple[Fraction, ...] | None
    farkas: tuple[Fraction, ...] | None

    def __init__(self, found: bool, y: tuple[Fraction, ...] | None,
                 farkas: tuple[Fraction, ...] | None):
        self.__dict__.update(found=found, y=y, farkas=farkas)


def positive_functional(rows: Sequence[Sequence]) -> PositiveFunctional:
    """Find y with <row, y> >= 1 for all rows, or prove none exists.

    Gordan's alternative on the integer rows r_i = scale * row_i: either
    some pi >= 0 has sum_i pi_i (r_i, 1) = (0, ..., 0, 1), the convex
    certificate, or the verified Farkas vector (z, t) has z·r_i + t <= 0
    and t > 0, so y = -scale·z/t pairs to at least 1 with every row.
    """
    mat, scale = _integral(rows)
    if not mat:
        return PositiveFunctional(True, (), None)
    dim = len(mat[0])
    if any(len(r) != dim for r in mat):
        raise InternalError("ragged row list")

    system = [list(col) for col in zip(*mat)] + [[1] * len(mat)]
    pi, zt = _verified(system, [0] * dim + [1], "invalid convex certificate",
                       "functional failed verification")
    if pi is not None:
        return PositiveFunctional(False, None, pi)
    *z, t = zt
    return PositiveFunctional(True, tuple(-scale * v / t for v in z), None)


def cone_sweep(vectors: Sequence[Sequence]) -> tuple[ConeMembership, ...]:
    """For each vector, whether it is a nonnegative combination of the
    others, decided in one dual-simplex sweep (see the module docstring).

    Answer i has one coefficient per vector, 0 on vector i itself, or a
    separator that pairs nonpositively with every other vector and
    positively with vector i.  Each is verified by substitution, as
    :func:`cone_membership` verifies its answer, and agrees with
    ``cone_membership(vectors[i], vectors without i)``.
    """
    cols = _integral(vectors)[0]
    if any(len(c) != len(cols[0]) for c in cols):
        raise InternalError("vector dimension mismatch")
    sparse = [[(t, v) for t, v in enumerate(c) if v] for c in cols]
    answers = []
    for i, (x, y, d) in enumerate(_sweep_integral(cols)):
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
    return tuple(answers)


def _sweep_integral(cols: list[list[int]]):
    """:func:`cone_sweep` on integer vectors, unverified: per vector, in
    order, ``(x, None, d)`` with the coefficients ``x / d`` or
    ``(None, y, d)`` with the separator ``y / d``, where ``d > 0``.

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

    for i in range(k):
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
