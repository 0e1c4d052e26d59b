"""Simplex solver: feasibility answers, invariants, and a reference cross-check."""

from collections import Counter

import numpy as np
import pytest
from scipy import optimize

import paretosimplex.lp as lp_module
from paretosimplex import (
    DEFAULT_TOLERANCES,
    CriteriaMatrix,
    InputError,
    LpError,
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
    assert 0.0 <= got.point[0] <= 1.0


def test_infeasible():
    lp = StandardLp([[1.0]], [Relation.LE], [-1.0])
    got = solve(lp)
    assert got.point is None


def test_equality_rows():
    lp = StandardLp(
        [[1.0, 1.0], [1.0, -1.0]],
        [Relation.EQ, Relation.GE],
        [1.0, 0.0],
    )
    got = solve(lp)
    assert got.point is not None
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
    assert got.point is not None
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
    with pytest.raises(LpError, match=f"re-check after {pivots} pivots$"):
        solve(lp)
    # One row, and an improving column with no positive entry to pivot on.
    tableau = np.array([[-1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(LpError, match="auxiliary program after 0 pivots$"):
        lp_module._run_simplex(tableau, np.array([1]), DEFAULT_TOLERANCES)


def test_a_breakdown_names_its_program():
    error = LpError.of_program("T1", SupportPattern((1, 3)), 2, 4, "no progress")
    assert type(error) is LpError
    assert str(error) == "T1 program on support {1, 3} of the 2x4 matrix: no progress"


def _beale_tableau(b3: float) -> np.ndarray:
    """Beale's cycling example, maximized: constraint rows over x1..x4 and
    the slacks x5..x7, then the objective 3/4 x1 - 20 x2 + 1/2 x3 - 6 x4."""
    return np.array([
        [0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0, 0.0],
        [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, b3],
        [0.75, -20.0, 0.5, -6.0, 0.0, 0.0, 0.0, 0.0],
    ])


def test_blands_rule_ends_beales_cycle():
    # Dantzig's rule cycles on Beale's example through degenerate pivots, so
    # the stall passes its limit of 2 * (3 + 8 - 1) = 20 and Bland's rule
    # takes over.  With b3 = 0 every pivot is degenerate, and Bland's rule
    # finds the optimum, 0.
    tableau, basis = _beale_tableau(0.0), np.array([4, 5, 6])
    assert lp_module._run_simplex(tableau, basis, DEFAULT_TOLERANCES) == 24
    assert (-tableau[-1, -1], basis.tolist()) == (0.0, [2, 4, 0])
    # With b3 = 1 Bland's rule makes a pivot of progress, Dantzig's rule
    # resumes and ends at the reference optimum, x = (1, 0, 1, 0).
    start = _beale_tableau(1.0)
    tableau, basis = start.copy(), np.array([4, 5, 6])
    assert lp_module._run_simplex(tableau, basis, DEFAULT_TOLERANCES) == 24
    ref = optimize.linprog(-start[-1, :4], A_ub=start[:-1, :4], b_ub=start[:-1, -1], method="highs")
    assert ref.status == 0 and ref.x == pytest.approx([1.0, 0.0, 1.0, 0.0])
    assert -tableau[-1, -1] == pytest.approx(-ref.fun) == 1.25


def _klee_minty_tableau(d: int) -> np.ndarray:
    """The Klee-Minty cube, maximized: rows i = 1..d hold
    sum_{j<i} 2^(i-j+1) x_j + x_i plus the slack s_i, equal to 5^i, and the
    objective row holds 2^(d-j) on x_j."""
    tableau = np.zeros((d + 1, 2 * d + 1))
    for i in range(d):
        tableau[i, :i] = [2.0 ** (i - j + 1) for j in range(i)]
        tableau[i, i] = tableau[i, d + i] = 1.0
        tableau[i, -1] = 5.0 ** (i + 1)
    tableau[-1, :d] = [2.0 ** (d - 1 - j) for j in range(d)]
    return tableau


def test_the_iteration_cap_stops_an_exponential_run():
    # Dantzig's rule visits all 2^d vertices of the cube, each pivot
    # nondegenerate, so Bland's rule never engages.
    d = 12
    tableau, basis = _klee_minty_tableau(d), np.arange(d, 2 * d)
    assert lp_module._run_simplex(tableau, basis, DEFAULT_TOLERANCES) == 2**d - 1
    assert tableau[-1, -1] == -(5.0**d)
    # At d = 14 the 2^14 - 1 pivots pass the cap of 10,000 + 100 * (14 + 29).
    d = 14
    tableau, basis = _klee_minty_tableau(d), np.arange(d, 2 * d)
    with pytest.raises(LpError, match="^no progress after 14301 pivots; aborting instead of looping$"):
        lp_module._run_simplex(tableau, basis, DEFAULT_TOLERANCES)


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
        seen[got.point is not None] += 1
        if got.point is not None:
            assert ref.status == 0
            assert feasibility_violation(lp, got.point) <= 1e-9
            assert got.iterations >= 0
        else:
            assert ref.status == 2
    # the corpus must exercise both answers to mean anything
    assert seen[True] >= 10 and seen[False] >= 10, seen


def _row_loop_violation(lp: StandardLp, point: np.ndarray) -> float:
    """The violation measure row by row, as a reference."""
    if not np.isfinite(point).all():
        return float("inf")
    worst = 0.0
    activity = lp.a @ point
    for i, rel in enumerate(lp.relations):
        resid = activity[i] - lp.rhs[i]
        if rel is Relation.LE:
            gap = max(resid, 0.0)
        elif rel is Relation.GE:
            gap = max(-resid, 0.0)
        else:
            gap = abs(resid)
        worst = max(worst, gap / (1.0 + abs(lp.rhs[i])))
    return float(max(worst, np.max(-point, initial=0.0)))


def test_feasibility_violation_equals_the_row_loop_bit_for_bit():
    rng = np.random.default_rng(4711)
    for _ in range(400):
        lp = _random_lp(rng)
        points = [rng.normal(size=lp.num_vars), np.abs(rng.normal(size=lp.num_vars)) * 1e-9]
        points.append(np.where(rng.random(lp.num_vars) < 0.5, -0.0, points[1]))
        # A NaN or infinite component; 0 * inf gives a NaN row gap too.
        for bad in (np.nan, np.inf):
            point = points[0].copy()
            point[rng.integers(lp.num_vars)] = bad
            points.append(point)
        got = solve(lp)
        if got.point is not None:
            points.append(got.point)
        for point in points:
            with np.errstate(invalid="ignore"):
                value = feasibility_violation(lp, point)
                expected = _row_loop_violation(lp, point)
            assert type(value) is float
            assert np.float64(value).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize(
    ("a", "relations", "rhs", "point"),
    [
        ([[1, 1]], [Relation.EQ], [1], [np.nan, 0.5]),
        ([[1, 0], [0, 1]], [Relation.EQ, Relation.EQ], [1, 0], [np.nan, -5]),
        ([[1, 0]], [Relation.EQ], [1], [1, np.inf]),
    ],
    ids=["nan-component", "nan-beside-a-negative-component", "inf-in-a-zero-column"],
)
def test_a_point_with_a_non_finite_component_violates_by_inf(a, relations, rhs, point):
    # Each of these read 0.0, so solve's re-check would have passed them.
    lp = StandardLp(a, relations, rhs)
    assert feasibility_violation(lp, np.array(point, dtype=float)) == np.inf
    assert _row_loop_violation(lp, np.array(point, dtype=float)) == np.inf


def test_solves_are_deterministic():
    rng = np.random.default_rng(777)
    for _ in range(25):
        lp = _random_lp(rng)
        first = solve(lp)
        second = solve(lp)
        assert first.iterations == second.iterations
        if first.point is None:
            assert second.point is None
        else:
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
            programs.append(build_closure(matrix, support))
        columns = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        x = np.zeros(n)
        x[columns] = 1.0 / columns.size
        programs.append(build_dominance_lp(matrix, SimplexPoint(x)))
    programs += [_random_lp(rng) for _ in range(48)]
    return programs


# Feasible or infeasible (F or I) and pivot count of each program of the corpus, in
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
    got = [f"{'I' if s.point is None else 'F'}{s.iterations}" for s in map(solve, _pinned_corpus())]
    assert got == PINNED_SOLVES
