"""Dominance-based efficiency check, independent of the certificate route.

The primary decision procedure reasons in weight space: it asks for
strictly positive weights that put the point's support at the maximum.
The check here asks the alternative question directly: is there a
feasible point at least as good on every criterion and better in total?
By Gordan's and Motzkin's theorems of the alternative exactly one of the
two has an answer, so the routes share the LP solver but no program, and
agreement between them is a meaningful cross-check.

The program is built on the normalized criteria
(``CriteriaMatrix.normalized``, computed once per matrix): each row loses
its mean and is divided by its largest absolute entry, and a constant row
becomes zero.  Neither map changes which points dominate which, because
every feasible point sums to one, and together they make the program
independent of the units of each criterion.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    CriteriaMatrix,
    SimplexPoint,
    Tolerances,
    Verdict,
    _one_based,
    check_dimension,
)
from .lp import LpError, Relation, StandardLp, solve

__all__ = ["build_dominance_lp", "dominance_lp_verdict"]


def build_dominance_lp(matrix: CriteriaMatrix, x: SimplexPoint) -> StandardLp:
    """Feasibility program over (y, t) >= 0, on the normalized criteria C:

        sum(y) - t = 0,   C y - t C x >= 0,   1 . (C y - t C x) = 1.

    It is feasible exactly when ``x`` is dominated, and then y / t is a
    feasible point dominating it: t = 0 would force y = 0, which breaks
    the last row.
    """
    check_dimension(x.n, matrix.n)
    k, n = matrix.k, matrix.n
    criteria = matrix.normalized
    rows = np.empty((k + 2, n + 1))
    rows[0] = 1.0
    rows[0, n] = -1.0
    gains = rows[1 : k + 1]
    gains[:, :n] = criteria
    np.negative(criteria @ x.coords, out=gains[:, n])
    gains.sum(axis=0, out=rows[-1])
    relations = [Relation.EQ] + [Relation.GE] * k + [Relation.EQ]
    rhs = np.zeros(k + 2)
    rhs[-1] = 1.0
    return StandardLp(rows, relations, rhs)


def dominance_lp_verdict(
    matrix: CriteriaMatrix,
    x: SimplexPoint,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Verdict:
    """Dominated when the dominance program is feasible, efficient when it
    is infeasible.  A breakdown names the program, the point's support
    (its components above ``tol.x_zero``) and the matrix's shape."""
    try:
        solution = solve(build_dominance_lp(matrix, x), tol)
    except LpError as exc:
        raise LpError.of_program("dominance", _one_based(x.coords > tol.x_zero), matrix.k, matrix.n, exc) from exc
    return Verdict.EFFICIENT if solution.point is None else Verdict.DOMINATED
