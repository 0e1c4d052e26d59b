"""Certificate programs and the efficiency decision procedure.

A feasible point is efficient exactly when some strictly positive weight
vector makes it a maximizer of the collapsed objective.  Each of the
three certificate programs below searches for such weights in one shot:

* T0 asks for weights that tie every column, which certifies the whole
  simplex efficient at once.
* T1 targets a support pattern: the support columns must tie and every
  other column must trail by a positive gap, certifying the open face on
  that support (and its closure).
* T2 is the single-column case of the same construction, certifying one
  vertex.

The strict gaps make T1 and T2 certify that the support is exactly the
argmax pattern of some weighting.  A point can also be efficient by lying
on the boundary of a larger efficient face, where no weighting separates
its support from the rest: duplicate columns are the simplest case, a
column sitting in the convex hull of the tied ones the general one.  The
closure program covers both: it keeps the support tied but only forbids
other columns from exceeding it, so a feasible program exhibits weights
whose argmax pattern contains the support.  That makes the point a
maximizer under strictly positive weights, hence efficient, and every
feasible T1 or T2 program is a feasible closure program, so the closure
program alone decides every support short of the full one.  It runs
first.  When its weights tie exactly the support, they already certify
the exact face and the report names T1 or T2; only when they tie more
columns is the strict program solved, to name the exact face if one
exists and the larger pattern actually certified otherwise.

Each program is a pure feasibility system over u >= 0 with weights
w = 1 + u: ties are equalities, strict gaps are "at least 1" and weak gaps
"at least 0".  Scaling w by a large enough factor turns any strictly
positive weighting with positive gaps into one with w >= 1 and gaps >= 1,
so feasibility is exactly the certificate's existence (Isermann's
weight-space test).  T1 and T2 also bound the weight mass, sum(u) <= 1e6;
they run only after a feasible closure program, so the bound changes no
verdict.  A feasible program certifies efficiency, with weights
(1 + u) / min(1 + u); an infeasible one proves that no weighting exists,
within the bound for T1 and T2.  Because the programs depend only on
the support, the analyzer keeps one report (verdict, test, verified
certificate and face) per point class, so a batch of points costs one
decision per distinct support.  T0 is decided at most once, as the
randomized class's report, which every other class reads first: all-tying
weights make every point efficient.

Efficient supports are closed under subsets: weights that keep a support
at the maximum keep each of its subsets there.  So a support that contains
a dominated support is dominated, and its program is infeasible whenever
the subset's is.  The analyzer keeps the supports its programs found
dominated, and decides a support containing one of them dominated, with
no certificate, without building or solving a program: the decision
solving would give.  The full support, whose program is T0, follows the
same rule; it contains every support, so any support known dominated
makes the randomized class dominated.

Some columns need no program at all.  When column i is at least column j
in every criterion, compared exactly, and beats it by a normalized gain
above 1e-5, moving mass from j to i dominates every point with mass on j.
The analyzer screens each column this way once, in O(k n**2), and starts
its dominated supports with the screened columns.

The weights that certify a support usually tie more columns: their argmax
face.  Those weights certify every support inside the face too, so
``EfficiencyAnalyzer.efficient``, the support predicate the face scan
asks, keeps the argmax face of each closure certificate it has verified,
vertices included, and decides a support inside one of them efficient
without building or solving a program.  Only certificates that pass the
closure re-verification on the original matrix are kept, and a kept face
counts a column as tied only within the solver tolerance, so each such
verdict rests on weights that satisfy the support's own closure program
to the solver's accuracy, and no weight exceeds 1e6 times the smallest.
Kept faces persist for the analyzer's lifetime; ``decide`` neither reads
nor adds them.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    CriteriaMatrix,
    DimensionMismatchError,
    InputError,
    PointClass,
    Randomized,
    SimplexPoint,
    SupportPattern,
    Tolerances,
    Verdict,
    check_dimension,
    check_points,
    clamped_indices,  # not called here, but benchmark/spans.py traces this name
    classify,
    float_array,
    point_groups,
    row_key,
    support_class,
)
from .lp import LpError, LpSolution, Relation, StandardLp, solve
from .scalarize import WeightVector, argmax_set, weighted_objective

__all__ = [
    "EfficiencyAnalyzer",
    "EfficiencyReport",
    "TestKind",
    "TestResult",
    "build_closure",
    "build_t0",
    "build_t1",
    "build_t2",
    "verify_certificate",
]

class TestKind(Enum):
    T0 = "T0"
    T1 = "T1"
    T2 = "T2"
    CLOSURE = "closure"


@dataclass(frozen=True)
class TestResult:
    """A solved certificate program: the LP a builder returned, and its solution.

    target is the support the program certifies: every column for T0, the
    tested support for T1 and the closure program, a single column for T2.
    The LP's variables are the weight offsets u, one per criterion.
    """

    kind: TestKind
    target: SupportPattern
    lp: StandardLp
    solution: LpSolution

    @property
    def certified(self) -> bool:
        """Whether the program is feasible, so that weights exist."""
        return self.solution.point is not None

    @property
    def value(self) -> float:
        return float(self.certified)


@dataclass(frozen=True)
class EfficiencyReport:
    """The decision for a point class, which is the decision for each of its
    points.  The analyzer keeps one report per class, keyed by the class
    (``classify`` gives a point's), so a report holds the decision alone; on
    a full matrix every class shares the T0 report.

    face is the region the decisive certificate proves efficient
    alongside the point: its weights' argmax face, as the class of the
    points that fill it (``Randomized()`` for the whole simplex,
    ``Deterministic(j)`` for a vertex, ``PartiallyRandomized(S)`` for an
    open face).  It is absent for dominated points.  The components a point
    holds within the zero threshold are a property of the point alone
    (``core.clamped_indices``), not of its report.
    """

    verdict: Verdict
    test: TestKind
    certificate: WeightVector | None
    face: PointClass | None


#: U of the T1 and T2 row sum(u) / U <= 1, and the largest weight a kept face's certificate may have.
_WEIGHT_BOUND = 1e6

#: Normalized gain sum(N[:, i] - N[:, j]) that column i must exceed to screen out column j.
_SCREEN_GAIN = 1e-5


def _screened_columns(matrix: CriteriaMatrix) -> list[int]:
    """1-based columns j that some column i beats in every criterion:
    C[:, i] >= C[:, j] entry by entry, compared exactly, with a normalized
    gain above _SCREEN_GAIN.  Normalizing a row preserves its order, so a
    positive gain puts some entry of i strictly above j's.  A row whose mean
    overflows normalizes to NaN, and a NaN gain screens nothing."""
    entries = matrix.entries
    beats = (entries[:, :, np.newaxis] >= entries[:, np.newaxis, :]).all(axis=0)
    with np.errstate(all="ignore"):
        sums = matrix.normalized.sum(axis=0)
        beats &= sums[:, np.newaxis] - sums > _SCREEN_GAIN
    return (np.flatnonzero(beats.any(axis=0)) + 1).tolist()


def _build(matrix: CriteriaMatrix, support: SupportPattern, kind: TestKind) -> StandardLp:
    """Feasibility program over u >= 0 with weights w = 1 + u: the support
    columns tie, and every other column trails the first support column
    by at least 1 (T1, T2) or at least 0 (closure).  T0 passes the full
    support, so it has ties only.  T1 and T2 end with the row
    sum(u) / _WEIGHT_BOUND <= 1: phase one's threshold grows with the
    largest right-hand side, and 1 keeps it where it was."""
    entries = matrix.entries
    inside = [j - 1 for j in support.indices]
    outside = [j for j in range(matrix.n) if j + 1 not in support]
    ties = len(inside) - 1
    rows = [entries[:, a] - entries[:, b] for a, b in itertools.pairwise(inside)]
    rows += [entries[:, inside[0]] - entries[:, j] for j in outside]
    a = np.array(rows)
    gap = 0.0 if kind is TestKind.CLOSURE else 1.0
    # Each row d bounds d . w = d . u + sum(d).
    rhs = [0.0] * ties + [gap] * len(outside) - a.sum(axis=1)
    relations = [Relation.EQ] * ties + [Relation.GE] * len(outside)
    if kind in (TestKind.T1, TestKind.T2):
        a = np.vstack([a, np.full(matrix.k, 1.0 / _WEIGHT_BOUND)])
        rhs = np.append(rhs, 1.0)
        relations.append(Relation.LE)
    return StandardLp(a, relations, rhs)


def build_t0(matrix: CriteriaMatrix) -> StandardLp:
    """Program deciding whether some strictly positive weighting ties all
    columns."""
    return _build(matrix, SupportPattern.trusted(tuple(range(1, matrix.n + 1))), TestKind.T0)


def build_t1(matrix: CriteriaMatrix, support: SupportPattern) -> StandardLp:
    """Certificate program for the open face on ``support``."""
    _check_support(matrix, support, 2)
    return _build(matrix, support, TestKind.T1)


def build_t2(matrix: CriteriaMatrix, j: int) -> StandardLp:
    """Certificate program for the vertex on column ``j`` (1-based)."""
    if not 1 <= j <= matrix.n:
        raise InputError(f"column index {j} out of range 1..{matrix.n}")
    return _build(matrix, SupportPattern((j,)), TestKind.T2)


def build_closure(matrix: CriteriaMatrix, support: SupportPattern) -> StandardLp:
    """Weak-gap variant deciding whether ``support`` sits inside the argmax
    pattern of some strictly positive weighting: the support columns must
    tie and the rest must not exceed them.  Tying all columns is the job
    of the all-column program, so the full support is rejected here.
    """
    _check_support(matrix, support, 1)
    return _build(matrix, support, TestKind.CLOSURE)


def _check_support(matrix: CriteriaMatrix, support: SupportPattern, smallest: int) -> None:
    """Raise unless ``support`` has smallest..n-1 columns, all of ``matrix``."""
    if not smallest <= len(support) <= matrix.n - 1:
        raise InputError(
            f"support size {len(support)} outside {smallest}..{matrix.n - 1} for n={matrix.n}"
        )
    if support.indices[-1] > matrix.n:
        raise DimensionMismatchError("support index exceeds the number of columns")


def verify_certificate(
    matrix: CriteriaMatrix,
    weights: WeightVector,
    point_class: PointClass,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """Check a claimed efficiency certificate: the weights must be strictly
    positive, and the class of their argmax face (``support_class`` of the
    columns they tie) must be ``point_class``."""
    coeffs = weighted_objective(matrix, weights)
    return weights.strictly_positive and support_class(argmax_set(coeffs, tol), matrix.n) == point_class


class EfficiencyAnalyzer:
    """Decision procedure for one criteria matrix with one report per class.

    Verdicts depend only on a point's support, so each point class is
    decided once, on first use, and its report kept: ``report`` is the one
    lookup, by class, that ``decide``, ``decide_many`` and ``check_full``
    read, and it returns one object per class.  Programs are not kept;
    ``t0``, ``t1``, ``t2`` and ``closure`` solve theirs on each call.  A
    support, the full one included, that holds a screened column or
    contains one that its own program found dominated is decided dominated
    without a program, and ``efficient`` decides a support inside a kept
    face efficient without one (see the module docstring).  These
    memos are guarded by a lock; instances are safe to share across
    threads.  The analyzer is the one object that pairs a matrix with
    tolerances: ``check_full``, ``enumerate_vertices`` and
    ``enumerate_faces`` take one, so whatever they decide stays on it.
    """

    def __init__(self, matrix: CriteriaMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> None:
        self.matrix = matrix
        self.tol = tol
        # Every column: T0's target and the randomized class's support.
        self._all_columns = SupportPattern.trusted(tuple(range(1, matrix.n + 1)))
        self._lock = threading.Lock()
        self._reports: dict[PointClass, EfficiencyReport] = {}
        # Bit masks (bit j for column j) of the supports decided dominated,
        # first the screened columns, then the supports found by their own
        # closure program, and of the faces ``efficient`` keeps.
        self._dominated: list[int] = [1 << j for j in _screened_columns(matrix)]
        self._kept: list[int] = []
        # Kept faces count a column as tied only within the solver tolerance.
        self._kept_tol = replace(tol, tie=tol.lp)

    def _run(self, kind: TestKind, target: SupportPattern, lp: StandardLp) -> TestResult:
        try:
            solution = solve(lp, self.tol)
        except LpError as exc:
            raise LpError.of_program(kind.value, target, self.matrix.k, self.matrix.n, exc) from exc
        return TestResult(kind, target, lp, solution)

    def t0(self) -> TestResult:
        return self._run(TestKind.T0, self._all_columns, build_t0(self.matrix))

    def t1(self, support: SupportPattern) -> TestResult:
        return self._run(TestKind.T1, support, build_t1(self.matrix, support))

    def t2(self, j: int) -> TestResult:
        return self._run(TestKind.T2, SupportPattern((j,)), build_t2(self.matrix, j))

    def closure(self, support: SupportPattern) -> TestResult:
        return self._run(TestKind.CLOSURE, support, build_closure(self.matrix, support))

    def certificate_from(self, result: TestResult) -> WeightVector:
        """Extract the weights 1 + u from a feasible certificate program,
        rescaled so the smallest weight is exactly one."""
        weights = 1.0 + result.solution.point
        return WeightVector(weights / weights.min())

    def decide(self, x: SimplexPoint) -> EfficiencyReport:
        """Classify ``x`` and decide efficiency: the randomized report
        (T0, decided once), then the closure program on the support unless
        it contains a support already found dominated, then T1 or T2 only
        to name the exact face.  Returns ``report`` for the point's class."""
        check_dimension(x.n, self.matrix.n)
        return self.report(classify(x, self.tol))

    def decide_many(self, points) -> Iterator[EfficiencyReport]:
        """Decide each row of an (N, n) array, yielding one report per row,
        lazily and in row order.

        Each report is the one ``decide(SimplexPoint(row))`` returns, so
        rows of one class yield the same object.  The rows are checked and
        grouped together (``point_groups``), and each group is classified
        and looked up once per call, on its first row.
        Input NumPy cannot read as an array, such as ragged rows, raises
        ``InputError`` before the first row, and rows of another length
        ``DimensionMismatchError``, whatever their values.  An invalid row
        raises ``SimplexPoint``'s error for it, and a failing decision its
        own error, each after every earlier row has been yielded.
        """
        rows = float_array(points)
        if rows.ndim == 2:
            check_dimension(rows.shape[1], self.matrix.n)
        coords, error = check_points(rows, self.tol)
        # Groups are numbered by first row, so a group is new on its first row.
        reports: list[EfficiencyReport] = []
        for index, group in enumerate(point_groups(coords, self.tol).tolist()):
            if group == len(reports):
                reports.append(self.report(row_key(coords[index], self.tol)[0]))
            yield reports[group]
        if error is not None:
            raise error

    def report(self, point_class: PointClass) -> EfficiencyReport:
        """The one report for ``point_class``, decided on first use.  When T0
        certifies the whole simplex, every class gets the randomized report
        object itself.  A class that no point of n components has raises.  A
        miss is computed outside the lock, and the first report stored wins."""
        with self._lock:
            found = self._reports.get(point_class)
        if found is None:
            found = self._decide_class(point_class)
            with self._lock:
                found = self._reports.setdefault(point_class, found)
        return found

    def _decide_class(self, point_class: PointClass) -> EfficiencyReport:
        if isinstance(point_class, Randomized):
            t0 = self._closure_route(self._all_columns)
            if t0 is None:
                return EfficiencyReport(Verdict.DOMINATED, TestKind.T0, None, None)
            return self._proved(t0)
        support = point_class.support
        _check_support(self.matrix, support, 1)
        full = self.report(Randomized())
        if full.verdict is Verdict.EFFICIENT:
            return full
        closure = self._closure_route(support)
        if closure is None:
            return EfficiencyReport(Verdict.DOMINATED, TestKind.CLOSURE, None, None)
        report = self._proved(closure)
        exact = TestKind.T2 if len(support) == 1 else TestKind.T1
        if report.face == point_class:
            # The weak gaps came out strict, so these weights name the exact face.
            return replace(report, test=exact)
        strict = self.t2(support.indices[0]) if exact is TestKind.T2 else self.t1(support)
        return self._proved(strict) if strict.certified else report

    def efficient(self, support: SupportPattern) -> bool:
        """Whether ``support``, short of the full one, is efficient: false
        when it contains a support decided dominated, true inside a kept
        face, otherwise as ``_closure_route`` decides.  A feasible program's
        argmax face, tied within ``tol.lp``, is kept once its certificate
        passes ``_verified`` with no weight above 1e6 (see the module
        docstring); the dominated supports are read first, so a screened
        column tied within that tolerance is never listed.  A support that is
        not a closure program's raises as ``build_closure`` does, whatever
        the analyzer holds."""
        _check_support(self.matrix, support, 1)
        mask = _mask(support)
        with self._lock:
            if any(d & mask == d for d in self._dominated):
                return False
            if any(mask & face == mask for face in self._kept):
                return True
        result = self._closure_route(support)
        if result is None:
            return False
        verified = self._verified(result, self._kept_tol)
        # Larger weights may tie columns that trail by less than rounding.
        if verified is not None and verified[0].weights.max() <= _WEIGHT_BOUND:
            with self._lock:
                self._kept.append(_mask(verified[1]))
        return True

    def _closure_route(self, support: SupportPattern) -> TestResult | None:
        """The feasible program on ``support``, T0 when it holds every column
        and the closure program otherwise, or None when the support is
        dominated: it contains one found dominated, or its own program is
        infeasible, which records it as dominated."""
        mask = _mask(support)
        with self._lock:
            if any(d & mask == d for d in self._dominated):
                return None
        result = self.t0() if len(support) == self.matrix.n else self.closure(support)
        if result.certified:
            return result
        with self._lock:
            self._dominated.append(mask)
        return None

    def _verified(
        self, result: TestResult, tol: Tolerances | None = None
    ) -> tuple[WeightVector, SupportPattern] | None:
        """Re-verify a feasible program's certificate: strictly positive
        weights keeping the target at the maximum, and for T0, T1 and T2
        tying exactly the target, where columns within ``tol.tie`` of the
        maximum tie (the analyzer's tolerances unless given).  Returns the
        weights and the columns they tie, or None when the check fails."""
        certificate = self.certificate_from(result)
        tied = argmax_set(weighted_objective(self.matrix, certificate), tol or self.tol)
        exact = result.kind is not TestKind.CLOSURE
        held = tied == result.target if exact else set(result.target).issubset(tied)
        if not certificate.strictly_positive or not held:
            return None
        return certificate, tied

    def _proved(self, result: TestResult) -> EfficiencyReport:
        """The report a feasible program proves for its target, once its
        certificate passes ``_verified``.  The face is the class of the
        weights' argmax pattern."""
        verified = self._verified(result)
        if verified is None:
            exact = result.kind is not TestKind.CLOSURE
            claim = "tie exactly that support" if exact else "keep that support at the maximum"
            cause = f"extracted certificate does not {claim}"
            raise LpError.of_program(result.kind.value, result.target, self.matrix.k, self.matrix.n, cause)
        certificate, tied = verified
        return EfficiencyReport(Verdict.EFFICIENT, result.kind, certificate, support_class(tied, self.matrix.n))


def _mask(support: SupportPattern) -> int:
    """Bit j set for each column j of ``support``."""
    return sum(1 << j for j in support.indices)

