"""Exact rational linear programming.

A small phase-1 simplex with Bland's pivoting rule, which terminates
without cycling.  It pivots fraction-free: the system is read into
integers once, by :func:`toriclab.lattice.over_common_denominator`, and
every tableau entry and certificate stays an integer over one common
denominator.  There are no tolerances anywhere: every verdict comes with a
certificate that is re-verified by exact substitution before it is
returned, so a caller can trust either answer unconditionally.  Every entry
point poses one system to the same verified solve and only translates its
answer.

Two feasibility questions are exposed besides :func:`phase1_simplex`:

* :func:`cone_membership` — is a vector a nonnegative combination of given
  generators?  Yields the coefficients, or a separating functional that is
  nonpositive on every generator and positive on the target.
* :func:`positive_functional` — is there a vector pairing to at least 1
  with every row?  Posed as Gordan's alternative, it yields the vector, or
  convex-combination coefficients exhibiting 0 as a convex combination of
  the rows (which makes any positive pairing impossible).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import InternalError
from .lattice import over_common_denominator

__all__ = [
    "Phase1Result",
    "ConeMembership",
    "PositiveFunctional",
    "phase1_simplex",
    "cone_membership",
    "positive_functional",
]


@dataclass(frozen=True)
class Phase1Result:
    """Outcome of ``find x >= 0 with A x = b``.

    Exactly one of ``solution`` (the x) and ``farkas`` (a vector y with
    y·A <= 0 componentwise and y·b > 0) is set.
    """

    solution: Optional[tuple[Fraction, ...]]
    farkas: Optional[tuple[Fraction, ...]]

    @property
    def feasible(self) -> bool:
        return self.solution is not None


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
    fraction-free (Edmonds/Bareiss): it holds integers ``T`` and ``z``
    together with the basis determinant ``d > 0``, and the rational tableau
    and reduced costs are ``T / d`` and ``z / d``.  Pivoting on
    ``p = T[r][e] > 0`` keeps row r, maps every other row (and z) to
    ``(p * T[i] - T[i][e] * T[r]) // d``, a division that is exact, and
    sets ``d = p``.  Signs and ratio comparisons are read off the integers,
    so the pivots are those of the rational tableau.
    """
    *a, b = over_common_denominator([*rows, rhs])[0]
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

    # Tableau: real columns, artificial columns, right-hand side.
    tab = []
    for i in range(nrows):
        row = a[i] + [0] * nrows + [b[i]]
        row[ncols + i] = 1
        tab.append(row)
    basis = [ncols + i for i in range(nrows)]

    # Reduced-cost row for minimizing the artificial sum: cost 1 on each
    # artificial, 0 elsewhere, minus the sum of the (basic) rows.
    z = [-sum(col) for col in zip(*a)] + [0] * nrows + [-sum(b)]
    d = 1

    while True:
        enter = next((j for j in range(ncols + nrows) if z[j] < 0), None)
        if enter is None:
            break
        # Least ratio T[i][-1] / T[i][enter], ties to the least basic
        # variable, compared by cross-multiplication.
        pivot = None
        for i, row in enumerate(tab):
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
        prow = tab[pivot]
        p = prow[enter]
        for i, row in enumerate(tab):
            if i == pivot:
                continue
            c = row[enter]
            if c:
                tab[i] = [(p * x - c * y) // d for x, y in zip(row, prow)]
            elif p != d:
                tab[i] = [p * x // d for x in row]
        c = z[enter]
        z = [(p * x - c * y) // d for x, y in zip(z, prow)]
        d = p
        basis[pivot] = enter

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


@dataclass(frozen=True)
class ConeMembership:
    """Decision for ``x in cone(generators)`` with its certificate.

    On membership, ``coefficients`` re-assemble x exactly; otherwise
    ``separator`` pairs nonpositively with every generator and positively
    with x.  Exactly one field is set.
    """

    member: bool
    coefficients: Optional[tuple[Fraction, ...]]
    separator: Optional[tuple[Fraction, ...]]


def cone_membership(x: Sequence, generators: Sequence[Sequence]) -> ConeMembership:
    """Decide whether x is a nonnegative combination of the generators."""
    # One common scale for x and the generators changes neither answer.
    target, *gens = over_common_denominator([x, *generators])[0]
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


@dataclass(frozen=True)
class PositiveFunctional:
    """Decision for ``exists y with <row, y> >= 1 for every row``.

    On success ``y`` is such a vector.  On failure ``farkas`` holds convex
    coefficients (nonnegative, summing to 1) combining the rows to zero,
    which rules out any y pairing positively with all of them.
    """

    found: bool
    y: Optional[tuple[Fraction, ...]]
    farkas: Optional[tuple[Fraction, ...]]


def positive_functional(rows: Sequence[Sequence]) -> PositiveFunctional:
    """Find y with <row, y> >= 1 for all rows, or prove none exists.

    Gordan's alternative on the integer rows r_i = scale * row_i: either
    some pi >= 0 has sum_i pi_i (r_i, 1) = (0, ..., 0, 1), the convex
    certificate, or the verified Farkas vector (z, t) has z·r_i + t <= 0
    and t > 0, so y = -scale·z/t pairs to at least 1 with every row.
    """
    mat, scale = over_common_denominator(rows)
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
