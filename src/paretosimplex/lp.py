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

The programs are small enough that the fixed cost of a NumPy call, not
arithmetic, dominates a solve.  So each pivot selects on Python floats
(the ratio test, the tie rule and the stall counter run on the entering
column, read with ``tolist``, and on the levels of its candidate rows)
and leaves to NumPy only the work that grows with the tableau: the choice
of the entering column, the pivot-row division and the rank-one update.
The tableau is laid out in one Python pass over the rows, and the
re-check is a row loop over one matrix product.  Python's float division,
``max`` and comparisons are the IEEE operations NumPy applies element by
element, and the phase-one cost row and the update are the same NumPy
expressions as in a fully vectorized solver, so the pivots and the floats
are the ones that form gives.  An overflow in the pivots raises no NumPy
warning; a NaN ratio it leaves raises LpError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, MutableSequence, Sequence

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
    pivoting stalled past the iteration cap, overflowed, or the final point
    failed its feasibility re-check.  Never silently reported as feasible.
    The command line raises it too when ``enumerate --oracle`` finds
    supports on which the enumeration and the dominance oracle disagree,
    since one of the two then answered wrongly."""

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
            self.codes = tuple(map(_CODES.__getitem__, self.relations))
        except (KeyError, TypeError):
            raise InputError("relations must be Relation members") from None
        if not np.isfinite(self.a).all():
            raise InputError("matrix entries must be finite")
        # One entry per row: Python reads it faster than a NumPy call.
        if not all(map(math.isfinite, self.rhs.tolist())):
            raise InputError("rhs entries must be finite")
        self.a.setflags(write=False)
        self.rhs.setflags(write=False)

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
    values = x.tolist()
    if not all(map(math.isfinite, values)):
        return float("inf")
    worst = 0.0
    for code, activity, rhs in zip(lp.codes, (lp.a @ x).tolist(), lp.rhs.tolist()):
        resid = activity - rhs
        # Per relation code: excess for <=, distance for =, shortfall for >=.
        gap = resid if code == 0 else abs(resid) if code == 1 else -resid
        # A NaN gap never compares greater, so it hides no other row.
        worst = max(worst, gap / (1.0 + abs(rhs)))
    return max(worst, -min(values))


def _run_simplex(tableau: np.ndarray, basis: MutableSequence[int], tol: Tolerances) -> int:
    """Maximize phase one's objective in place; returns the pivot count.

    The last row of ``tableau`` is the maximized objective: its reduced
    costs, then minus its current value.  ``basis`` (a list or an integer
    array) holds the basic column of each constraint row.  Each pivot
    divides the pivot row by the pivot and subtracts a multiple of it from
    every other row, the objective included, in one update.  Raises
    LpError past the iteration cap; on an improving column with no
    positive entry, which phase one, bounded by zero, cannot have in exact
    arithmetic; and on a NaN ratio, which only an overflowed tableau has."""
    rows, width = tableau.shape[0] - 1, tableau.shape[1]
    stall_limit = 2 * (rows + width - 1)
    iteration_cap = 10_000 + 100 * (rows + width)
    eps = tol.lp
    reduced = tableau[-1, :-1]
    levels = tableau[:-1, -1]
    pivots = 0
    stall = 0
    bland = False
    while True:
        if bland:
            improving = (reduced > eps).nonzero()[0]
            if improving.size == 0:
                return pivots
            col = int(improving[0])
        else:
            col = int(reduced.argmax())
            if reduced[col] <= eps:
                return pivots
        # The ratio test: each row with an entry above eps bounds the step
        # by its level, clipped at zero as max(level, 0.0) clips it, over
        # that entry.  Only those rows' levels are read.
        column = tableau[:-1, col].tolist()
        ratios = {}
        for i, entry in enumerate(column):
            if entry > eps:
                level = levels.item(i)
                ratios[i] = (0.0 if level < 0.0 else level) / entry
        if not ratios:
            raise LpError(f"phase one reported an unbounded auxiliary program after {pivots} pivots")
        # Ratios are >= 0, so their sum is NaN exactly when one of them is.
        if math.isnan(sum(ratios.values())):
            raise LpError(f"phase one's ratio test met a NaN after {pivots} pivots: the tableau overflowed")
        best = min(ratios.values())
        limit = best + eps
        # Rows within eps of the best ratio tie; the smallest basic index leaves.
        row = -1
        for i, ratio in ratios.items():
            if ratio <= limit and (row < 0 or basis[i] < basis[row]):
                row = i
        pivot_row = tableau[row]
        pivot_row /= column[row]
        factor = tableau[:, col].copy()
        factor[row] = 0.0
        tableau -= factor[:, None] * pivot_row
        basis[row] = col
        pivots += 1
        if best <= eps:
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

    # One pass over the rows sign-normalizes them (a flipped row's code c
    # becomes 2 - c: <= and >= swap, and = stays) and lists the slack or
    # surplus and the artificial each row gets.
    b, flipped, slacks, artificials, costs = [], [], [], [], []
    for i, (code, value) in enumerate(zip(lp.codes, lp.rhs.tolist())):
        if value < 0.0:
            flipped.append(i)
            code = 2 - code
        b.append(abs(value))
        if code != 1:
            slacks.append((i, 1.0 if code == 0 else -1.0))
        if code != 0:
            artificials.append(i)
        # Phase one's cost of the row's first basic column: -1 on an artificial.
        costs.append(0.0 if code == 0 else -1.0)
    first_art = n_struct + len(slacks)
    width = first_art + len(artificials) + 1

    # Rows 0..r-1 are the constraints; row r is the phase-one objective.
    tableau = np.zeros((r + 1, width))
    tableau[:r, :n_struct] = lp.a
    for i in flipped:
        np.negative(lp.a[i], out=tableau[i, :n_struct])
    tableau[:r, -1] = b
    # A <= row's slack and every artificial enter with +1 and start basic:
    # each row has one of them.
    basis = [0] * r
    for col, (i, entry) in enumerate(slacks + [(i, 1.0) for i in artificials], n_struct):
        tableau[i, col] = entry
        if entry > 0.0:
            basis[i] = col

    # Phase one maximizes minus the sum of the artificials; with none, its
    # cost row is zero and it stops at once.
    tableau[-1, first_art:-1] = -1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tableau[-1] -= np.array(costs) @ tableau[:r]
        iterations = _run_simplex(tableau, basis, tol)
        if tableau[-1, -1] > 10.0 * tol.lp * (1.0 + max(b, default=0.0)):
            return LpSolution(None, iterations)

        # Artificials still basic sit at level zero and are not part of the point.
        values = [0.0] * n_struct
        for j, level in zip(basis, tableau[:r, -1].tolist()):
            if j < n_struct:
                values[j] = level
        point = np.array(values)
        if feasibility_violation(lp, point) > tol.lp:
            raise LpError(f"phase-one point failed its feasibility re-check after {iterations} pivots")
    point.setflags(write=False)
    return LpSolution(point, iterations)
