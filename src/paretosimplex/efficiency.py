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
weight-space test).  A feasible program certifies efficiency, with
weights (1 + u) / min(1 + u); an infeasible one proves that no weighting
exists.  Because the programs depend only on the support, each program is
solved once per analyzer, and the decision it leads to (verdict, test,
verified certificate and face) is kept per point class, so a batch of
points costs one decision per distinct support.

Efficient supports are closed under subsets: weights that keep a support
at the maximum keep each of its subsets there.  So a support that contains
a dominated support is dominated, and its closure program is infeasible
whenever the subset's is.  The analyzer keeps the supports its closure
programs found dominated, and decides a support containing one of them
dominated by the closure test, with no certificate, without building or
solving a program: the decision solving would give.

The weights that certify a support usually tie more columns: their argmax
face.  Those weights certify every support inside the face too, so
``EfficiencyAnalyzer.efficient``, the support predicate the face scan
asks, keeps the argmax face of each closure certificate it has verified,
vertices included, and decides a support inside one of them efficient
without building or solving a program.  Only certificates that pass the
closure re-verification on the original matrix are kept, and a kept face
counts a column as tied only within the solver tolerance, so each such
verdict rests on weights that satisfy the support's own closure program
to the solver's accuracy.  Kept faces persist for the analyzer's
lifetime; ``decide`` neither reads nor adds them.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, NamedTuple

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
    check_points,
    clamped_indices,
    classify,
    classify_points,
)
from .lp import LpSolution, LpStatus, NumericalBreakdownError, Relation, StandardLp, solve
from .scalarize import (
    SolutionSetDescriptor,
    WeightVector,
    argmax_descriptor,
    argmax_set,
    weighted_objective,
)

__all__ = [
    "EfficiencyAnalyzer",
    "EfficiencyReport",
    "TestKind",
    "TestProgram",
    "TestResult",
    "build_closure",
    "build_t0",
    "build_t1",
    "build_t2",
    "decide",
    "verify_certificate",
]

class TestKind(Enum):
    T0 = "T0"
    T1 = "T1"
    T2 = "T2"
    CLOSURE = "closure"


@dataclass(frozen=True)
class TestProgram:
    """A certificate program.

    target is the support the program certifies: every column for T0, the
    tested support for T1, a single column for T2.  The LP's variables are
    the weight offsets u, one per criterion.
    """

    kind: TestKind
    target: SupportPattern
    lp: StandardLp


@dataclass(frozen=True)
class TestResult:
    program: TestProgram
    solution: LpSolution

    @property
    def certified(self) -> bool:
        """Whether the program is feasible, so that weights exist."""
        return self.solution.status is LpStatus.FEASIBLE

    @property
    def value(self) -> float:
        return float(self.certified)


@dataclass(frozen=True)
class EfficiencyReport:
    """Outcome of deciding one point.

    face describes the region the decisive certificate proves efficient
    alongside the point (whole simplex, one vertex, or an open face); it
    is absent for dominated points.  clamped lists 1-based components
    whose positive mass fell within the zero threshold and was excluded
    from the support.
    """

    point: SimplexPoint
    point_class: PointClass
    verdict: Verdict
    test: TestKind
    certificate: WeightVector | None
    face: SolutionSetDescriptor | None
    clamped: tuple[int, ...] = ()


class _Decision(NamedTuple):
    """The part of a report that depends on the point class alone."""

    verdict: Verdict
    test: TestKind
    certificate: WeightVector | None
    face: SolutionSetDescriptor | None


def _build(matrix: CriteriaMatrix, support: SupportPattern, kind: TestKind) -> TestProgram:
    """Feasibility program over u >= 0 with weights w = 1 + u: the support
    columns tie, and every other column trails the first support column
    by at least 1 (T1, T2) or at least 0 (closure).  T0 passes the full
    support, so it has ties only."""
    entries = matrix.entries
    inside = [j - 1 for j in support.indices]
    outside = [j for j in range(matrix.n) if j + 1 not in support]
    ties = len(inside) - 1
    rows = [entries[:, a] - entries[:, b] for a, b in itertools.pairwise(inside)]
    rows += [entries[:, inside[0]] - entries[:, j] for j in outside]
    a = np.array(rows)
    gap = 0.0 if kind is TestKind.CLOSURE else 1.0
    bound = np.array([0.0] * ties + [gap] * len(outside))
    relations = [Relation.EQ] * ties + [Relation.GE] * len(outside)
    # Each row d bounds d . w = d . u + sum(d).
    lp = StandardLp(a, relations, bound - a.sum(axis=1))
    return TestProgram(kind=kind, target=support, lp=lp)


def build_t0(matrix: CriteriaMatrix) -> TestProgram:
    """Program deciding whether some strictly positive weighting ties all
    columns."""
    return _build(matrix, SupportPattern(range(1, matrix.n + 1)), TestKind.T0)


def build_t1(matrix: CriteriaMatrix, support: SupportPattern) -> TestProgram:
    """Certificate program for the open face on ``support``."""
    if not 2 <= len(support) <= matrix.n - 1:
        raise InputError(
            f"support size {len(support)} outside 2..{matrix.n - 1} for n={matrix.n}"
        )
    if support.indices[-1] > matrix.n:
        raise DimensionMismatchError("support index exceeds the number of columns")
    return _build(matrix, support, TestKind.T1)


def build_t2(matrix: CriteriaMatrix, j: int) -> TestProgram:
    """Certificate program for the vertex on column ``j`` (1-based)."""
    if not 1 <= j <= matrix.n:
        raise InputError(f"column index {j} out of range 1..{matrix.n}")
    return _build(matrix, SupportPattern((j,)), TestKind.T2)


def build_closure(matrix: CriteriaMatrix, support: SupportPattern) -> TestProgram:
    """Weak-gap variant deciding whether ``support`` sits inside the argmax
    pattern of some strictly positive weighting: the support columns must
    tie and the rest must not exceed them.  Tying all columns is the job
    of the all-column program, so the full support is rejected here.
    """
    if not 1 <= len(support) <= matrix.n - 1:
        raise InputError(
            f"support size {len(support)} outside 1..{matrix.n - 1} for n={matrix.n}"
        )
    if support.indices[-1] > matrix.n:
        raise DimensionMismatchError("support index exceeds the number of columns")
    return _build(matrix, support, TestKind.CLOSURE)


def _expected_support(matrix: CriteriaMatrix, point_class: PointClass) -> SupportPattern:
    if isinstance(point_class, Randomized):
        return SupportPattern(range(1, matrix.n + 1))
    return point_class.support


def verify_certificate(
    matrix: CriteriaMatrix,
    weights: WeightVector,
    point_class: PointClass,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """Check a claimed efficiency certificate: the weights must be strictly
    positive and their collapsed objective must tie exactly the support of
    the given class (all columns for randomized points)."""
    if weights.k != matrix.k:
        raise DimensionMismatchError(f"{weights.k} weights for {matrix.k} criteria")
    if not weights.strictly_positive:
        return False
    tied = argmax_set(weighted_objective(matrix, weights), tol)
    return tied == _expected_support(matrix, point_class)


class EfficiencyAnalyzer:
    """Decision procedure for one criteria matrix with cached certificates.

    Verdicts depend only on a point's support, so each certificate program
    is solved at most once per analyzer, and each point class is decided
    once: its verdict, test, certificate and face are extracted and
    re-verified on first use and kept.  A support containing one that its
    closure program found dominated is decided dominated without a program,
    and ``efficient`` decides a support inside a kept face efficient without
    one (see the module docstring).  ``decide`` and ``decide_many`` read the
    same per-class decisions.  The caches are keyed on supports or classes
    and guarded by a lock; instances are safe to share across threads.
    """

    def __init__(self, matrix: CriteriaMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> None:
        self.matrix = matrix
        self.tol = tol
        self._lock = threading.Lock()
        self._programs: dict[tuple[TestKind, SupportPattern], TestResult] = {}
        self._decisions: dict[PointClass, _Decision] = {}
        # Bit masks (bit j for column j) of the supports decided dominated
        # by their own closure program, and of the faces ``efficient`` keeps.
        self._dominated: list[int] = []
        self._kept: list[int] = []

    def _cached(self, cache: dict, key, compute):
        """cache[key], computed outside the lock on a miss; when two threads
        miss at once, the first result stored wins."""
        with self._lock:
            hit = cache.get(key)
        if hit is not None:
            return hit
        value = compute()
        with self._lock:
            return cache.setdefault(key, value)

    def _solve(self, kind: TestKind, key: SupportPattern, build) -> TestResult:
        return self._cached(self._programs, (kind, key), lambda: self._run(kind, key, build))

    def _run(self, kind: TestKind, key: SupportPattern, build) -> TestResult:
        program = build()
        try:
            solution = solve(program.lp, self.tol)
        except NumericalBreakdownError as exc:
            raise NumericalBreakdownError(f"{self._program_name(kind, key)}: {exc}") from exc
        return TestResult(program, solution)

    def _program_name(self, kind: TestKind, key: SupportPattern) -> str:
        """Names a program in breakdown errors: kind, support, matrix shape."""
        support = ", ".join(map(str, key))
        return f"{kind.value} program on support {{{support}}} of the {self.matrix.k}x{self.matrix.n} matrix"

    def t0(self) -> TestResult:
        full = SupportPattern.trusted(tuple(range(1, self.matrix.n + 1)))
        return self._solve(TestKind.T0, full, lambda: build_t0(self.matrix))

    def t1(self, support: SupportPattern) -> TestResult:
        return self._solve(TestKind.T1, support, lambda: build_t1(self.matrix, support))

    def t2(self, j: int) -> TestResult:
        key = SupportPattern((j,))
        return self._solve(TestKind.T2, key, lambda: build_t2(self.matrix, j))

    def closure(self, support: SupportPattern) -> TestResult:
        return self._solve(
            TestKind.CLOSURE, support, lambda: build_closure(self.matrix, support)
        )

    def certificate_from(self, result: TestResult) -> WeightVector:
        """Extract the weights 1 + u from a feasible certificate program,
        rescaled so the smallest weight is exactly one."""
        weights = 1.0 + result.solution.point
        return WeightVector(weights / weights.min())

    def decide(self, x: SimplexPoint) -> EfficiencyReport:
        """Classify ``x`` and decide efficiency: T0, then the closure
        program on the support unless it contains a support already found
        dominated, then T1 or T2 only to name the exact face."""
        if x.n != self.matrix.n:
            raise DimensionMismatchError(
                f"point has {x.n} components, matrix has {self.matrix.n} columns"
            )
        point_class = classify(x, self.tol)
        clamped = clamped_indices(x, self.tol)
        return EfficiencyReport(x, point_class, *self._decision(point_class), clamped)

    def decide_many(self, points) -> Iterator[EfficiencyReport]:
        """Decide each row of an (N, n) array, yielding one report per row,
        lazily and in row order.

        The reports are those ``decide(SimplexPoint(row))`` gives, but the
        rows are checked and classified together, and each distinct point
        class is decided once.  An invalid row raises the error
        ``SimplexPoint`` raises for it, and a failing decision its own
        error, each after every earlier row has been yielded.
        """
        rows = np.asarray(points, dtype=float)
        if rows.ndim == 2 and rows.shape[1] != self.matrix.n:
            raise DimensionMismatchError(
                f"point has {rows.shape[1]} components, matrix has {self.matrix.n} columns"
            )
        coords, error = check_points(rows, self.tol)
        for row, (point_class, clamped) in zip(coords, classify_points(coords, self.tol)):
            yield EfficiencyReport(
                SimplexPoint.trusted(row), point_class, *self._decision(point_class), clamped
            )
        if error is not None:
            raise error

    def _decision(self, point_class: PointClass) -> _Decision:
        return self._cached(self._decisions, point_class, lambda: self._decide_class(point_class))

    def _decide_class(self, point_class: PointClass) -> _Decision:
        t0 = self.t0()
        if t0.certified:
            return self._proved(t0)
        if isinstance(point_class, Randomized):
            # No all-tying weights exist, so no randomized point is efficient.
            return _Decision(Verdict.DOMINATED, TestKind.T0, None, None)
        support = point_class.support
        closure = self._closure_route(support)
        if closure is None or not closure.certified:
            return _Decision(Verdict.DOMINATED, TestKind.CLOSURE, None, None)
        decision = self._proved(closure)
        exact = TestKind.T2 if len(support) == 1 else TestKind.T1
        if decision.face == argmax_descriptor(support, self.matrix.n):
            # The weak gaps came out strict, so these weights name the exact face.
            return decision._replace(test=exact)
        strict = self.t2(support.indices[0]) if exact is TestKind.T2 else self.t1(support)
        return self._proved(strict) if strict.certified else decision

    def efficient(self, support: SupportPattern) -> bool:
        """Whether ``support``, short of the full one, is efficient: true
        inside a kept face, otherwise as ``_closure_route`` decides.  A feasible
        program's argmax face, tied within ``tol.lp``, is kept once its
        certificate passes ``verified`` (see the module docstring)."""
        mask = _mask(support)
        with self._lock:
            if any(mask & face == mask for face in self._kept):
                return True
        result = self._closure_route(support)
        if result is None or not result.certified:
            return False
        verified = self.verified(result, replace(self.tol, tie=self.tol.lp))
        if verified is not None:
            with self._lock:
                self._kept.append(_mask(verified[1]))
        return True

    def _closure_route(self, support: SupportPattern) -> TestResult | None:
        """The closure program on ``support``, or None when the support
        contains one found dominated, so that its program is infeasible too.
        An infeasible program records its support as dominated."""
        mask = _mask(support)
        with self._lock:
            if any(d & mask == d for d in self._dominated):
                return None
        result = self.closure(support)
        if not result.certified:
            with self._lock:
                self._dominated.append(mask)
        return result

    def verified(
        self, result: TestResult, tol: Tolerances | None = None
    ) -> tuple[WeightVector, SupportPattern] | None:
        """Re-verify a feasible program's certificate: strictly positive
        weights keeping the target at the maximum, and for T0, T1 and T2
        tying exactly the target, where columns within ``tol.tie`` of the
        maximum tie (the analyzer's tolerances unless given).  Returns the
        weights and the columns they tie, or None when the check fails."""
        target = result.program.target
        certificate = self.certificate_from(result)
        tied = argmax_set(weighted_objective(self.matrix, certificate), tol or self.tol)
        exact = result.program.kind is not TestKind.CLOSURE
        held = tied == target if exact else set(target).issubset(tied)
        if not certificate.strictly_positive or not held:
            return None
        return certificate, tied

    def _proved(self, result: TestResult) -> _Decision:
        """The decision a feasible program proves, once its certificate
        passes ``verified``.  The face is the weights' argmax pattern."""
        verified = self.verified(result)
        if verified is None:
            target = result.program.target
            exact = result.program.kind is not TestKind.CLOSURE
            claim = f"tie exactly {target}" if exact else f"keep {target} at the maximum"
            raise NumericalBreakdownError(f"extracted certificate does not {claim}")
        certificate, tied = verified
        return _Decision(
            Verdict.EFFICIENT,
            result.program.kind,
            certificate,
            argmax_descriptor(tied, self.matrix.n),
        )


def _mask(support: SupportPattern) -> int:
    """Bit j set for each column j of ``support``."""
    return sum(1 << j for j in support.indices)


def decide(
    matrix: CriteriaMatrix,
    x: SimplexPoint,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> EfficiencyReport:
    """Decide efficiency of one point.  Builds a fresh analyzer; callers
    checking many points against one matrix should hold an
    EfficiencyAnalyzer instead to reuse its certificate cache."""
    return EfficiencyAnalyzer(matrix, tol).decide(x)
