"""Acceptance gate: eight criteria, one pass/fail line each.

Capture is disabled for this module so the per-criterion lines show up in
a plain ``pytest -v`` run.  The random corpus is seed-fixed, so every run
checks the same instances.
"""

import itertools
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from conftest import (
    ALL_EFFICIENT_ROWS,
    EDGE_ONLY_ROWS,
    barycenter,
    margin_form_optima,
    random_matrix,
    random_point_on_support,
)

from paretosimplex import (
    CriteriaMatrix,
    EfficiencyAnalyzer,
    LpError,
    Randomized,
    SimplexPoint,
    SupportPattern,
    TestKind as Kind,
    WeightVector,
    bicriterion_full_check,
    check_full,
    decide,
    dominance_lp_verdict,
    enumerate_faces,
    enumerate_vertices,
    feasibility_violation,
    verify_certificate,
    vertex,
    weighted_objective,
)

VALUE_TOL = 1e-6
CORPUS_SIZE = 1000
CORPUS_SEED = 90125


@pytest.fixture
def report(capsys):
    """Print one criterion verdict line on the live terminal, then assert."""

    def emit(num: int, name: str, ok: bool, detail: str = "") -> None:
        with capsys.disabled():
            print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{detail}")
        assert ok, f"criterion {num} ({name}){detail}"

    return emit


def _near_binary(value: float) -> bool:
    return abs(value) <= VALUE_TOL or abs(value - 1.0) <= VALUE_TOL


@dataclass
class SweepRecord:
    matrix: CriteriaMatrix
    analyzer: EfficiencyAnalyzer
    t0: float
    t1: dict = field(default_factory=dict)
    t2: dict = field(default_factory=dict)
    closure: dict = field(default_factory=dict)
    max_violation: float = 0.0


@pytest.fixture(scope="module")
def sweep():
    """All certificate programs solved on the shared random corpus."""
    rng = np.random.default_rng(CORPUS_SEED)
    records, errors = [], []
    for index in range(CORPUS_SIZE):
        matrix = random_matrix(rng)
        analyzer = EfficiencyAnalyzer(matrix)
        try:
            results = [analyzer.t0()]
            record = SweepRecord(matrix, analyzer, results[0].value)
            for j in range(1, matrix.n + 1):
                results.append(analyzer.t2(j))
                record.t2[j] = results[-1].value
            for size in range(1, matrix.n):
                for combo in itertools.combinations(range(1, matrix.n + 1), size):
                    if size > 1:
                        results.append(analyzer.t1(SupportPattern(combo)))
                        record.t1[combo] = results[-1].value
                    results.append(analyzer.closure(SupportPattern(combo)))
                    record.closure[combo] = results[-1].value
        except LpError as exc:
            errors.append((index, matrix.entries.tolist(), repr(exc)))
            continue
        # Only feasible programs have a point; infeasible ones are verdicts.
        record.max_violation = max(
            (
                feasibility_violation(res.program.lp, res.solution.point)
                for res in results
                if res.solution.point is not None
            ),
            default=0.0,
        )
        records.append(record)
    return records, errors


def test_criterion_1_worked_example(report):
    started = time.perf_counter()
    matrix = CriteriaMatrix(EDGE_ONLY_ROWS)
    analyzer = EfficiencyAnalyzer(matrix)
    values = {"T0": analyzer.t0().value}
    for combo in ((1, 2), (1, 3), (2, 3)):
        values[f"T1{combo}"] = analyzer.t1(SupportPattern(combo)).value
    for j in (1, 2, 3):
        values[f"T2({j})"] = analyzer.t2(j).value
    structure = enumerate_faces(matrix, analyzer=analyzer)
    elapsed = time.perf_counter() - started

    expected = {
        "T0": 0.0,
        "T1(1, 2)": 1.0,
        "T1(1, 3)": 0.0,
        "T1(2, 3)": 0.0,
        "T2(1)": 1.0,
        "T2(2)": 1.0,
        "T2(3)": 0.0,
    }
    value_errors = {
        key: values[key] for key in expected if abs(values[key] - expected[key]) > VALUE_TOL
    }
    sets_ok = (
        not structure.full
        and structure.vertices == frozenset({1, 2})
        and structure.faces == frozenset({SupportPattern((1, 2))})
        and structure.exhaustive
    )
    ok = not value_errors and sets_ok and elapsed < 1.0
    report(1, "worked example", ok,
            f"; {elapsed * 1000:.0f} ms" + (f"; off values {value_errors}" if value_errors else ""))


def test_criterion_2_fully_efficient_instance(report):
    matrix = CriteriaMatrix(ALL_EFFICIENT_ROWS)
    full, certificate = check_full(matrix)
    emitted_ok = (
        full
        and certificate is not None
        and verify_certificate(matrix, certificate, Randomized())
    )
    direct = WeightVector([1.0, 2.0, 1.0])
    direct_ok = (
        verify_certificate(matrix, direct, Randomized())
        and np.array_equal(weighted_objective(matrix, direct).coeffs, [2.0, 2.0, 2.0])
    )
    report(2, "fully efficient instance", emitted_ok and direct_ok)


def test_criterion_3_zero_one_law(sweep, report):
    # The feasibility programs answer 0 or 1 by construction, so the law is
    # checked on the margin-maximizing reference form of every program:
    # its optimum must be 0 or 1, and above one half exactly when the
    # feasibility program certified.  A matrix's reference programs are
    # solved in one call.
    records, _ = sweep
    off_binary, disagree = [], []
    total = 0
    for rec in records:
        n = rec.matrix.n
        programs = [(Kind.T0, tuple(range(1, n + 1)), rec.t0)]
        programs += [(Kind.T2, (j,), value) for j, value in rec.t2.items()]
        programs += [(Kind.T1, combo, value) for combo, value in rec.t1.items()]
        programs += [(Kind.CLOSURE, combo, value) for combo, value in rec.closure.items()]
        optima = margin_form_optima(rec.matrix, [(kind, support) for kind, support, _ in programs])
        for (kind, support, value), optimum in zip(programs, optima):
            total += 1
            case = (kind.value, support, value, optimum, rec.matrix.entries.tolist())
            if not _near_binary(optimum):
                off_binary.append(case)
            if (value == 1.0) != (optimum > 0.5):
                disagree.append(case)
    detail = f"; {total} optima over {len(records)} instances"
    if off_binary:
        detail += f"; reference optima off 0/1: {off_binary[:3]}"
    if disagree:
        detail += f"; verdicts unlike the reference: {disagree[:3]}"
    report(3, "zero-one law", not off_binary and not disagree, detail)


def test_criterion_4_oracle_agreement(sweep, report):
    records, _ = sweep
    disagreements = []
    checked = 0
    for rec in records:
        n = rec.matrix.n
        points = [vertex(j, n) for j in range(1, n + 1)]
        for size in range(2, n):
            for combo in itertools.combinations(range(1, n + 1), size):
                points.append(SimplexPoint(barycenter(n, combo)))
        points.append(SimplexPoint(barycenter(n, range(1, n + 1))))
        for point in points:
            checked += 1
            certified = rec.analyzer.decide(point).verdict
            oracle = dominance_lp_verdict(rec.matrix, point)
            if certified is not oracle:
                disagreements.append(
                    (rec.matrix.entries.tolist(), point.coords.tolist(), certified.value, oracle.value)
                )
    detail = f"; {checked} points checked"
    if disagreements:
        detail += f"; first disagreements: {disagreements[:3]}"
    report(4, "oracle agreement", not disagreements, detail)


def test_criterion_5_support_invariance(report):
    rng = np.random.default_rng(5150)
    violations = []
    pairs = 0
    for _ in range(100):
        n = int(rng.integers(3, 6))
        matrix = random_matrix(rng, n=n)
        for size in range(2, n):
            for combo in itertools.combinations(range(1, n + 1), size):
                for _ in range(10):
                    first = SimplexPoint(random_point_on_support(rng, n, combo))
                    second = SimplexPoint(random_point_on_support(rng, n, combo))
                    # fresh decide per point: no shared cache to hide a bug
                    va = decide(matrix, first).verdict
                    vb = decide(matrix, second).verdict
                    pairs += 1
                    if va is not vb:
                        violations.append(
                            (matrix.entries.tolist(), combo, first.coords.tolist(), second.coords.tolist())
                        )
    detail = f"; {pairs} pairs"
    if violations:
        detail += f"; first violations: {violations[:3]}"
    report(5, "support invariance", not violations, detail)


def test_criterion_6_existence(sweep, report):
    records, _ = sweep
    bad = [
        rec.matrix.entries.tolist()
        for rec in records
        if rec.t0 == 0.0
        and not enumerate_vertices(rec.matrix, analyzer=rec.analyzer)
    ]
    detail = f"; {len(records)} instances"
    if bad:
        detail += f"; no efficient vertex: {bad[:3]}"
    report(6, "efficient vertex exists", not bad, detail)


def test_criterion_7_ratio_condition_soundness(report):
    rng = np.random.default_rng(2112)
    bad = []
    for _ in range(100):
        n = int(rng.integers(2, 7))
        # integer data keeps the consecutive ratios exactly equal to r
        first = np.sort(rng.choice(np.arange(-20, 21), size=n, replace=False))[::-1].astype(float)
        r = int(rng.integers(1, 6))
        second = [float(rng.integers(-9, 10))]
        for j in range(n - 1):
            second.append(second[-1] + r * (first[j] - first[j + 1]))
        matrix = CriteriaMatrix([first.tolist(), second])
        ratio_ok = bicriterion_full_check(matrix)
        lp_ok, _ = check_full(matrix)
        if not (ratio_ok and lp_ok):
            bad.append((matrix.entries.tolist(), ratio_ok, lp_ok))
    detail = "; 100 constructed instances"
    if bad:
        detail += f"; failures: {bad[:3]}"
    report(7, "bicriterion ratio condition", not bad, detail)


def test_criterion_8_solver_robustness(sweep, report):
    records, errors = sweep
    max_violation = max(rec.max_violation for rec in records) if records else float("inf")
    ok = not errors and len(records) == CORPUS_SIZE and max_violation <= 1e-9
    detail = f"; {len(records)}/{CORPUS_SIZE} instances, max feasibility violation {max_violation:.3e}"
    if errors:
        detail += f"; solver errors: {errors[:3]}"
    report(8, "solver robustness", ok, detail)
