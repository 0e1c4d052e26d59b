"""Simplex solver: statuses, invariants, and a reference cross-check."""

from collections import Counter

import numpy as np
import pytest
from scipy import optimize

import paretosimplex.lp as lp_module
from paretosimplex import (
    CriteriaMatrix,
    InputError,
    LpStatus,
    NumericalBreakdownError,
    Relation,
    SimplexPoint,
    StandardLp,
    SupportPattern,
    build_closure,
    build_dominance_lp,
    feasibility_violation,
    solve,
)

def test_single_upper_bound_row():
    lp = StandardLp([[1.0]], [Relation.LE], [1.0])
    got = solve(lp)
    assert got.status is LpStatus.FEASIBLE
    assert 0.0 <= got.point[0] <= 1.0


def test_infeasible():
    lp = StandardLp([[1.0]], [Relation.LE], [-1.0])
    got = solve(lp)
    assert got.status is LpStatus.INFEASIBLE
    assert got.point is None


def test_equality_rows():
    lp = StandardLp(
        [[1.0, 1.0], [1.0, -1.0]],
        [Relation.EQ, Relation.GE],
        [1.0, 0.0],
    )
    got = solve(lp)
    assert got.status is LpStatus.FEASIBLE
    assert feasibility_violation(lp, got.point) <= 1e-12
    assert got.point.sum() == pytest.approx(1.0)
    assert got.point[0] >= got.point[1]


def test_degenerate_cycling_instance_terminates():
    # Beale's cycling instance for most-positive-cost pricing, with its
    # objective turned into the row c . x >= 0.05 (its optimum), so that
    # phase one must work through the degenerate vertex at the origin.
    # The stall switch to Bland's rule must get through it.
    c = [0.75, -150.0, 1.0 / 50.0, -6.0]
    rows = [
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
        c,
    ]
    lp = StandardLp(rows, [Relation.LE] * 3 + [Relation.GE], [0.0, 0.0, 1.0, 0.05])
    got = solve(lp)
    assert got.status is LpStatus.FEASIBLE
    assert feasibility_violation(lp, got.point) <= 1e-9


def test_validation():
    with pytest.raises(InputError):
        StandardLp([[1.0]], [Relation.LE], [np.inf])
    with pytest.raises(InputError):
        StandardLp(np.zeros((0, 0)), [], [])
    with pytest.raises(InputError):
        StandardLp([1.0], [Relation.LE], [1.0])
    for relation in ("<=", "LE", ["<="]):
        with pytest.raises(InputError, match="^relations must be Relation members$"):
            StandardLp([[1.0]], [relation], [1.0])


def test_breakdown_messages_name_the_pivot_count(monkeypatch):
    lp = StandardLp(
        [[1.0, 1.0], [1.0, -1.0]],
        [Relation.EQ, Relation.GE],
        [1.0, 0.0],
    )
    pivots = solve(lp).iterations
    assert pivots > 0
    monkeypatch.setattr(lp_module, "feasibility_violation", lambda lp, point: 1.0)
    with pytest.raises(NumericalBreakdownError, match=f"re-check after {pivots} pivots$"):
        solve(lp)
    monkeypatch.setattr(lp_module, "_run_simplex", lambda *args: ("unbounded", 3))
    with pytest.raises(NumericalBreakdownError, match="auxiliary program after 3 pivots$"):
        solve(lp)


def _random_lp(rng: np.random.Generator) -> StandardLp:
    m = int(rng.integers(1, 7))
    r = int(rng.integers(1, 7))
    a = rng.integers(-5, 6, size=(r, m)).astype(float)
    rng.integers(-5, 6, size=m)  # an objective, unused; keeps each seed's programs
    b = rng.integers(-4, 9, size=r).astype(float)
    relations = [
        (Relation.LE, Relation.GE, Relation.EQ)[int(t)]
        for t in rng.integers(0, 3, size=r)
    ]
    return StandardLp(a, relations, b)


def _reference(lp: StandardLp):
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for i, rel in enumerate(lp.relations):
        if rel is Relation.LE:
            a_ub.append(lp.a[i])
            b_ub.append(lp.rhs[i])
        elif rel is Relation.GE:
            a_ub.append(-lp.a[i])
            b_ub.append(-lp.rhs[i])
        else:
            a_eq.append(lp.a[i])
            b_eq.append(lp.rhs[i])
    return optimize.linprog(
        np.zeros(lp.num_vars),
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=(0, None),
        method="highs",
    )


def test_statuses_and_values_match_reference_solver():
    rng = np.random.default_rng(12345)
    seen = Counter()
    for _ in range(300):
        lp = _random_lp(rng)
        got = solve(lp)
        ref = _reference(lp)
        if ref.status == 4:
            continue
        seen[got.status] += 1
        if got.status is LpStatus.FEASIBLE:
            assert ref.status == 0
            assert feasibility_violation(lp, got.point) <= 1e-9
            assert got.iterations >= 0
        else:
            assert ref.status == 2
    # the corpus must exercise both statuses to mean anything
    assert all(seen[status] >= 10 for status in LpStatus), seen


def test_solves_are_deterministic():
    rng = np.random.default_rng(777)
    for _ in range(25):
        lp = _random_lp(rng)
        first = solve(lp)
        second = solve(lp)
        assert first.status is second.status
        assert first.iterations == second.iterations
        if first.status is LpStatus.FEASIBLE:
            assert np.array_equal(first.point, second.point)


def _pinned_corpus() -> list[StandardLp]:
    """Closure programs on supports of size 1, 2 and n - 1 and a dominance
    program per seeded integer matrix, then random systems."""
    rng = np.random.default_rng(20261019)
    programs = []
    for _ in range(24):
        k, n = int(rng.integers(2, 7)), int(rng.integers(3, 9))
        matrix = CriteriaMatrix(rng.integers(-9, 10, size=(k, n)).astype(float))
        for size in (1, 2, n - 1):
            support = SupportPattern(int(j) + 1 for j in rng.choice(n, size, replace=False))
            programs.append(build_closure(matrix, support).lp)
        columns = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        x = np.zeros(n)
        x[columns] = 1.0 / columns.size
        programs.append(build_dominance_lp(matrix, SimplexPoint(x)))
    programs += [_random_lp(rng) for _ in range(48)]
    return programs


# Status initial (F or I) and pivot count of each program of the corpus, in
# order, as the pivot rule, tie-breaking and stall switch decide them.
PINNED_SOLVES = """
    F0 I1 I0 F5 I1 I0 I0 F5 F0 I2 I2 F6 F0 I1 I1 F5 I0 I0 I1 I5 I0 I1 I0 I4
    F0 I2 I2 F6 F1 F1 F2 I5 F1 F3 I1 I4 I1 I2 I0 F5 F3 F7 I2 F11 F0 F5 F3 F8
    I5 I2 I2 F6 F5 F5 I3 I7 I0 F1 I0 F5 I4 I3 I1 F5 F6 I6 I2 F12 F1 I0 I0 I1
    I1 I1 I0 F5 F4 F2 I0 F5 F9 I1 I2 F7 I1 I1 I0 F5 I0 I1 I0 F6 I0 I1 I0 F4
    I0 I0 I1 F0 I2 I2 I4 F1 F0 I2 F4 F1 F1 I2 F2 F1 I1 F1 F2 I0 I0 I1 F1 I3
    F1 F1 F3 I0 F1 F2 I0 F1 F1 I5 I2 F1 I0 I1 I1 I2 I2 F2 F4 I2 I1 F2 F2 I1
""".split()


def test_pivot_paths_are_pinned():
    got = [f"{s.status.value[0].upper()}{s.iterations}" for s in map(solve, _pinned_corpus())]
    assert got == PINNED_SOLVES
