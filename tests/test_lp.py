"""Simplex solver: feasibility answers, invariants, and a reference cross-check."""

import itertools
from collections import Counter

import numpy as np
import pytest
from scipy import optimize

import paretosimplex.lp as lp_module
from conftest import barycenter, near_tie_corpus
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
    build_t0,
    build_t1,
    build_t2,
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
                vectorized = _numpy_violation(lp, point)
            assert type(value) is float
            assert np.float64(value).tobytes() == np.float64(expected).tobytes()
            assert np.float64(value).tobytes() == np.float64(vectorized).tobytes()


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


def _numpy_violation(lp: StandardLp, point: np.ndarray) -> float:
    """``feasibility_violation`` in the vectorized form the solver used
    before its re-check became a row loop, as a reference."""
    x = np.array(point, dtype=float)
    if not np.isfinite(x).all():
        return float("inf")
    resid = lp.a @ x - lp.rhs
    gaps = np.choose(np.array(lp.codes, dtype=int), (resid, np.abs(resid), -resid))
    worst = max(0.0, float(np.fmax.reduce(gaps / (1.0 + np.abs(lp.rhs)), initial=0.0)))
    return float(max(worst, np.max(-x, initial=0.0)))


def _numpy_run_simplex(tableau: np.ndarray, basis: np.ndarray, tol=DEFAULT_TOLERANCES) -> int:
    """The pivot loop with every step in NumPy, as the solver ran it before
    selection moved to Python floats: the reference for the kernel."""
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


def _numpy_solve(lp: StandardLp):
    """``solve`` with the tableau built, pivoted and re-checked in NumPy
    alone: the reference for the kernel."""
    n_struct, r = lp.num_vars, lp.num_rows
    codes = np.array(lp.codes, dtype=int)
    flip = lp.rhs < 0.0
    b = np.abs(lp.rhs)
    rel_codes = np.where(flip, 2 - codes, codes)
    slack_rows = (rel_codes != 1).nonzero()[0]
    art_rows = (rel_codes != 0).nonzero()[0]
    n_slack = slack_rows.size
    n_art = art_rows.size
    width = n_struct + n_slack + n_art + 1
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
    phase_cost = np.zeros(width)
    phase_cost[n_struct + n_slack : -1] = -1.0
    tableau[-1] = phase_cost - phase_cost[basis] @ tableau[:r]
    iterations = _numpy_run_simplex(tableau, basis)
    if tableau[-1, -1] > 10.0 * DEFAULT_TOLERANCES.lp * (1.0 + float(b.max(initial=0.0))):
        return iterations, None
    point = np.zeros(n_struct)
    structural = basis < n_struct
    point[basis[structural]] = tableau[:r, -1][structural]
    if _numpy_violation(lp, point) > DEFAULT_TOLERANCES.lp:
        raise LpError(f"phase-one point failed its feasibility re-check after {iterations} pivots")
    return iterations, point.tobytes()


def _kernel_corpus() -> list[StandardLp]:
    """Random systems, the pinned corpus, Beale's example, and every program
    the analyzer builds and the dominance program of each support's
    barycenter on seeded integer matrices, plain and with each row rescaled
    by 10^U(-3, 3), and on every 40th near-tie matrix, where solves break
    down."""
    rng = np.random.default_rng(20261022)
    programs = [_random_lp(rng) for _ in range(2500)] + _pinned_corpus()
    beale = [[0.25, -60.0, -1.0 / 25.0, 9.0], [0.5, -90.0, -1.0 / 50.0, 3.0], [0.0, 0.0, 1.0, 0.0]]
    programs.append(StandardLp(beale + [[0.75, -150.0, 1.0 / 50.0, -6.0]], [Relation.LE] * 3 + [Relation.GE], [0.0, 0.0, 1.0, 0.05]))
    matrices = []
    for _ in range(12):
        k, n = int(rng.integers(2, 7)), int(rng.integers(2, 9))
        entries = rng.integers(-9, 10, size=(k, n)).astype(float)
        matrices += [entries, entries * 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1))]
    matrices += [entries for index, entries, _ in near_tie_corpus() if index % 40 == 0]
    for entries in matrices:
        matrix = CriteriaMatrix(entries)
        n = matrix.n
        programs.append(build_t0(matrix))
        programs += [build_t2(matrix, j) for j in range(1, n + 1)]
        for size in range(1, n + 1):
            for support in itertools.combinations(range(1, n + 1), size):
                if 2 <= size < n:
                    programs.append(build_t1(matrix, SupportPattern(support)))
                if size < n:
                    programs.append(build_closure(matrix, SupportPattern(support)))
                programs.append(build_dominance_lp(matrix, SimplexPoint(barycenter(n, support))))
    return programs


def _solve_outcome(lp: StandardLp):
    """Pivot count and point bytes (None when infeasible), or the LpError text."""
    try:
        solution = solve(lp)
    except LpError as exc:
        return str(exc)
    return solution.iterations, None if solution.point is None else solution.point.tobytes()


def _numpy_outcome(lp: StandardLp):
    try:
        return _numpy_solve(lp)
    except LpError as exc:
        return str(exc)


def test_the_kernel_matches_the_numpy_form_bit_for_bit():
    # Selection on Python floats makes the same pivots and the same floats
    # as the form with every step in NumPy, and fails with the same message.
    programs = _kernel_corpus()
    assert len(programs) >= 5000
    outcomes = Counter()
    for lp in programs:
        got = _solve_outcome(lp)
        assert got == _numpy_outcome(lp), lp
        outcomes["error" if isinstance(got, str) else "infeasible" if got[1] is None else "feasible"] += 1
    assert min(outcomes.values()) >= 10, outcomes
    # The pivot loop alone, on both of Beale's tableaux: the same pivots,
    # final tableau and basis.
    for b3 in (0.0, 1.0):
        tableau, basis = _beale_tableau(b3), np.array([4, 5, 6])
        reference, reference_basis = tableau.copy(), basis.copy()
        assert lp_module._run_simplex(tableau, basis, DEFAULT_TOLERANCES) == _numpy_run_simplex(reference, reference_basis)
        assert (tableau.tobytes(), basis.tolist()) == (reference.tobytes(), reference_basis.tolist())


def _overflowing_lp() -> StandardLp:
    """Finite data whose second pivot overflows the tableau to inf and NaN."""
    return StandardLp(
        [
            [-1.5002957605281143e-252, 4.606816521000953e109],
            [1.9594572102390417e52, 1.4623211652220327e282],
            [-4.18164127089494e262, -0.0],
        ],
        [Relation.EQ, Relation.EQ, Relation.LE],
        [4.9082488486556794e60, 1.608879463055123e-58, -8.149254718646264e-24],
    )


def test_an_overflowing_pivot_raises_lp_error():
    # The one program on which the kernel and the NumPy form part: the NaN
    # ratios made the form's tie rule take the argmin of no rows.
    with pytest.raises(LpError, match="^phase one's ratio test met a NaN after 2 pivots: the tableau overflowed$"):
        solve(_overflowing_lp())
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="argmin of an empty sequence"):
        _numpy_solve(_overflowing_lp())
