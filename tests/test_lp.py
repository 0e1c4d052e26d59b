"""Simplex solver: statuses, invariants, and a reference cross-check."""

from collections import Counter

import numpy as np
import pytest
from scipy import optimize

import paretosimplex.lp as lp_module
from paretosimplex import (
    InputError,
    LpStatus,
    NumericalBreakdownError,
    Relation,
    StandardLp,
    feasibility_violation,
    solve,
)

NO_ROWS = np.zeros((0, 1))


def test_single_upper_bound_row():
    lp = StandardLp([1.0], [[1.0]], [Relation.LE], [1.0])
    got = solve(lp)
    assert got.status is LpStatus.OPTIMAL
    assert got.value == pytest.approx(1.0)
    assert got.point[0] == pytest.approx(1.0)


def test_infeasible():
    lp = StandardLp([1.0], [[1.0]], [Relation.LE], [-1.0])
    assert solve(lp).status is LpStatus.INFEASIBLE


def test_unbounded():
    lp = StandardLp([1.0], NO_ROWS, [], [])
    assert solve(lp).status is LpStatus.UNBOUNDED


def test_equality_rows():
    lp = StandardLp(
        [1.0, 2.0],
        [[1.0, 1.0], [1.0, -1.0]],
        [Relation.EQ, Relation.GE],
        [1.0, 0.0],
    )
    got = solve(lp)
    assert got.status is LpStatus.OPTIMAL
    # best is the even split x = y = 1/2
    assert got.value == pytest.approx(1.5)


def test_degenerate_cycling_instance_terminates():
    # Classic cycling instance for most-positive-cost pricing; the stall
    # switch to Bland's rule must get through it.
    rows = [
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    lp = StandardLp(
        [0.75, -150.0, 1.0 / 50.0, -6.0],
        rows,
        [Relation.LE] * 3,
        [0.0, 0.0, 1.0],
    )
    got = solve(lp)
    assert got.status is LpStatus.OPTIMAL
    assert got.value == pytest.approx(0.05)


def test_validation():
    with pytest.raises(InputError):
        StandardLp([1.0], [[1.0]], [Relation.LE], [np.inf])
    with pytest.raises(InputError):
        StandardLp([], NO_ROWS, [], [])


def test_breakdown_messages_name_the_pivot_count(monkeypatch):
    lp = StandardLp(
        [1.0, 2.0],
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
    c = rng.integers(-5, 6, size=m).astype(float)
    b = rng.integers(-4, 9, size=r).astype(float)
    relations = [
        (Relation.LE, Relation.GE, Relation.EQ)[int(t)]
        for t in rng.integers(0, 3, size=r)
    ]
    return StandardLp(c, a, relations, b)


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
        -lp.objective,
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
        if got.status is LpStatus.OPTIMAL:
            assert ref.status == 0
            assert got.value == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)
            assert feasibility_violation(lp, got.point) <= 1e-9
            assert got.value == pytest.approx(float(lp.objective @ got.point), abs=1e-9)
            assert got.iterations >= 0
        elif got.status is LpStatus.INFEASIBLE:
            assert ref.status == 2
        else:
            assert ref.status == 3
    # the corpus must exercise all three statuses to mean anything
    assert all(seen[status] >= 10 for status in LpStatus), seen


def test_solves_are_deterministic():
    rng = np.random.default_rng(777)
    for _ in range(25):
        lp = _random_lp(rng)
        first = solve(lp)
        second = solve(lp)
        assert first.status is second.status
        assert first.iterations == second.iterations
        if first.status is LpStatus.OPTIMAL:
            assert first.value == second.value
            assert np.array_equal(first.point, second.point)


def test_local_perturbations_do_not_improve():
    # Coordinate steps from an optimal point that stay feasible must not
    # raise the objective beyond solver noise.
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(120):
        lp = _random_lp(rng)
        got = solve(lp)
        if got.status is not LpStatus.OPTIMAL:
            continue
        step = 1e-9
        for j in range(lp.num_vars):
            for sign in (1.0, -1.0):
                moved = np.array(got.point)
                moved[j] += sign * step
                if feasibility_violation(lp, moved) > 1e-9:
                    continue
                assert float(lp.objective @ moved) <= got.value + 1e-8
                checked += 1
    assert checked > 50
