"""Dense phase-one simplex deciding the feasibility of small linear systems.

The solver targets the small programs built elsewhere in this package:
the certificate programs and the dominance program, a few dozen rows and
columns, dense data, heavy degeneracy.  Each of them asks whether some
nonnegative point satisfies constraints given in relational form (<=, =,
>=), and nothing is optimized, so the solver has no objective.

Conversion to computational form: rows are sign-normalized to a
nonnegative right-hand side, and slack, surplus, and artificial columns
are appended.  Phase one minimizes the sum of the artificials; the system
is feasible exactly when that minimum is zero, and the basic solution
phase one ends at is then a feasible point.  The phase-one objective is
kept as the last row of the tableau, so that each pivot updates every
row, the objective included, with one broadcast subtraction.

Pivoting uses Dantzig's rule (most positive reduced cost) and switches to
Bland's rule after a stall of 2 * (rows + columns) consecutive degenerate
pivots, which guarantees termination on cycling instances.  Ties in the
ratio test always leave the smallest basic index, so solves are
deterministic.  A feasible point is re-checked against the original
constraints before it is returned; a failed re-check raises instead of
reporting a wrong point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .core import DEFAULT_TOLERANCES, DimensionMismatchError, InputError, Tolerances, float_array

__all__ = [
    "LpError",
    "LpSolution",
    "Relation",
    "StandardLp",
    "feasibility_violation",
    "solve",
]


class Relation(Enum):
    LE = "<="
    EQ = "="
    GE = ">="


class LpError(RuntimeError):
    """The solver could neither return a point nor prove that none exists:
    pivoting stalled past the iteration cap, or the final point failed its
    feasibility re-check.  Never silently reported as feasible.  The
    command line raises it too when ``enumerate --oracle`` finds supports
    on which the enumeration and the dominance oracle disagree, since one
    of the two then answered wrongly."""

    @classmethod
    def of_program(cls, program: str, support: Iterable[int], k: int, n: int, cause: object) -> LpError:
        """A breakdown naming the program's kind, its support (1-based
        columns) and the shape of the k x n matrix it was built on."""
        columns = ", ".join(map(str, support))
        return cls(f"{program} program on support {{{columns}}} of the {k}x{n} matrix: {cause}")


_CODES = {Relation.LE: 0, Relation.EQ: 1, Relation.GE: 2}


class StandardLp:
    """The system  a x (rel) rhs  and  x >= 0.

    Rows may be empty, variables may not.
    """

    __slots__ = ("a", "relations", "rhs", "codes")

    def __init__(self, a, relations: Sequence[Relation], rhs) -> None:
        self.a = float_array(a)
        if self.a.ndim != 2 or self.a.shape[1] == 0:
            raise InputError("matrix must be 2-dimensional with at least one column")
        r = self.a.shape[0]
        self.relations = tuple(relations)
        self.rhs = float_array(rhs).reshape(-1)
        if len(self.relations) != r or self.rhs.size != r:
            raise DimensionMismatchError("rows, relations, and rhs must align")
        try:
            # Relation codes for the solver: 0 for <=, 1 for =, 2 for >=.
            self.codes = np.array([_CODES[rel] for rel in self.relations], dtype=int)
        except (KeyError, TypeError):
            raise InputError("relations must be Relation members") from None
        for arr, name in ((self.a, "matrix"), (self.rhs, "rhs")):
            if not np.isfinite(arr).all():
                raise InputError(f"{name} entries must be finite")
        for arr in (self.a, self.rhs, self.codes):
            arr.setflags(write=False)

    @property
    def num_vars(self) -> int:
        return self.a.shape[1]

    @property
    def num_rows(self) -> int:
        return self.rhs.size

    def __repr__(self) -> str:
        return f"StandardLp(vars={self.num_vars}, rows={self.num_rows})"


@dataclass(frozen=True)
class LpSolution:
    """Outcome of a solve: a feasible point, or None when the system is
    infeasible."""

    point: np.ndarray | None
    iterations: int


def feasibility_violation(lp: StandardLp, point: np.ndarray) -> float:
    """Largest constraint or sign violation of ``point``; row violations are
    scaled by 1 + |rhs| so the measure is meaningful across magnitudes.  A
    point with a NaN or infinite component violates by ``inf``."""
    x = float_array(point)
    if not np.isfinite(x).all():
        return float("inf")
    resid = lp.a @ x - lp.rhs
    # Per relation code: excess for <=, distance for =, shortfall for >=.
    gaps = np.choose(lp.codes, (resid, np.abs(resid), -resid))
    # fmax skips a NaN gap, as a row-by-row max does, so it hides no other row.
    worst = max(0.0, float(np.fmax.reduce(gaps / (1.0 + np.abs(lp.rhs)), initial=0.0)))
    return float(max(worst, np.max(-x, initial=0.0)))


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, tol: Tolerances) -> int:
    """Maximize phase one's objective in place; returns the pivot count.

    The last row of ``tableau`` is the maximized objective: its reduced
    costs, then minus its current value.  Each pivot divides the pivot row by the pivot
    and subtracts a multiple of it from every other row, the objective
    included, in one update.  Raises LpError past the iteration cap, and
    on an improving column with no positive entry, which phase one,
    bounded by zero, cannot have in exact arithmetic."""
    rows, width = tableau.shape[0] - 1, tableau.shape[1]
    stall_limit = 2 * (rows + width - 1)
    iteration_cap = 10_000 + 100 * (rows + width)
    reduced = tableau[-1, :-1]
    levels = tableau[:-1, -1]
    pivots = 0
    stall = 0
    bland = False
    while True:
        if bland:
            improving = (reduced > tol.lp).nonzero()[0]
            if improving.size == 0:
                return pivots
            col = int(improving[0])
        else:
            col = int(reduced.argmax())
            if reduced[col] <= tol.lp:
                return pivots
        column = tableau[:-1, col]
        candidates = (column > tol.lp).nonzero()[0]
        if candidates.size == 0:
            raise LpError(f"phase one reported an unbounded auxiliary program after {pivots} pivots")
        ratios = np.maximum(levels[candidates], 0.0) / column[candidates]
        best = float(ratios.min())
        tied = candidates[ratios <= best + tol.lp]
        row = int(tied[basis[tied].argmin()])
        pivot_row = tableau[row]
        pivot_row /= pivot_row[col]
        factor = tableau[:, col].copy()
        factor[row] = 0.0
        tableau -= factor[:, None] * pivot_row
        basis[row] = col
        pivots += 1
        if best <= tol.lp:
            stall += 1
            if stall > stall_limit:
                bland = True
        else:
            stall = 0
            bland = False
        if pivots > iteration_cap:
            raise LpError(f"no progress after {pivots} pivots; aborting instead of looping")


def solve(lp: StandardLp, tol: Tolerances = DEFAULT_TOLERANCES) -> LpSolution:
    """Decide whether ``lp`` has a feasible point, and return one if so.

    Deterministic for fixed input and tolerances.  Raises LpError rather
    than returning a point that fails the feasibility re-check.
    """
    n_struct, r = lp.num_vars, lp.num_rows

    # Sign-normalize rows, then append slack/surplus and artificial columns.
    # A flipped row's code c becomes 2 - c: <= and >= swap, and = stays.
    flip = lp.rhs < 0.0
    b = np.abs(lp.rhs)
    rel_codes = np.where(flip, 2 - lp.codes, lp.codes)

    slack_rows = (rel_codes != 1).nonzero()[0]
    art_rows = (rel_codes != 0).nonzero()[0]
    n_slack = slack_rows.size
    n_art = art_rows.size
    width = n_struct + n_slack + n_art + 1
    # Rows 0..r-1 are the constraints; row r is the phase-one objective.
    tableau = np.zeros((r + 1, width))
    tableau[:r, :n_struct] = np.where(flip[:, None], -lp.a, lp.a)
    tableau[:r, -1] = b
    slack_cols = n_struct + np.arange(n_slack)
    art_cols = n_struct + n_slack + np.arange(n_art)
    le = rel_codes[slack_rows] == 0
    tableau[slack_rows, slack_cols] = np.where(le, 1.0, -1.0)
    tableau[art_rows, art_cols] = 1.0
    basis = np.empty(r, dtype=int)
    basis[art_rows] = art_cols
    basis[slack_rows[le]] = slack_cols[le]

    # Phase one maximizes minus the sum of the artificials; with none, its
    # cost row is zero and it stops at once.
    phase_cost = np.zeros(width)
    phase_cost[n_struct + n_slack : -1] = -1.0
    tableau[-1] = phase_cost - phase_cost[basis] @ tableau[:r]
    iterations = _run_simplex(tableau, basis, tol)
    if tableau[-1, -1] > 10.0 * tol.lp * (1.0 + float(b.max(initial=0.0))):
        return LpSolution(None, iterations)

    # Artificials still basic sit at level zero and are not part of the point.
    point = np.zeros(n_struct)
    structural = basis < n_struct
    point[basis[structural]] = tableau[:r, -1][structural]
    if feasibility_violation(lp, point) > tol.lp:
        raise LpError(f"phase-one point failed its feasibility re-check after {iterations} pivots")
    point.setflags(write=False)
    return LpSolution(point, iterations)
