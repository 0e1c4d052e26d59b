"""Shared fixtures: two hand-checkable 3x3 instances plus corpus helpers."""

import itertools

import numpy as np
import pytest

from scipy import optimize, sparse

from paretosimplex import CriteriaMatrix, TestKind

# Efficient set is the closed edge between vertices 1 and 2: those vertices
# and the open face {1,2} pass their certificate programs, nothing else does.
EDGE_ONLY_ROWS = [[1.0, 2.0, -4.0], [2.0, -5.0, 1.0], [0.0, 3.0, -0.5]]

# Weights (1,2,1) tie every column at 2, so all feasible points are efficient.
ALL_EFFICIENT_ROWS = [[1.0, 2.0, -5.0], [2.0, 1.0, -1.0], [-3.0, -2.0, 9.0]]


@pytest.fixture
def edge_matrix() -> CriteriaMatrix:
    return CriteriaMatrix(EDGE_ONLY_ROWS)


@pytest.fixture
def full_matrix() -> CriteriaMatrix:
    return CriteriaMatrix(ALL_EFFICIENT_ROWS)


def random_matrix(rng: np.random.Generator, k: int | None = None, n: int | None = None) -> CriteriaMatrix:
    """Random integer criteria matrix with entries in [-9, 9]."""
    if k is None:
        k = int(rng.integers(2, 7))
    if n is None:
        n = int(rng.integers(2, 7))
    return CriteriaMatrix(rng.integers(-9, 10, size=(k, n)).astype(float))


def random_point_on_support(rng: np.random.Generator, n: int, support) -> np.ndarray:
    """Coordinates with mass exactly on the 1-based ``support`` columns,
    each component comfortably above the zero threshold."""
    support = list(support)
    coords = np.zeros(n)
    mass = rng.uniform(0.05, 1.0, len(support))
    coords[[j - 1 for j in support]] = mass / mass.sum()
    return coords


def barycenter(n: int, support) -> np.ndarray:
    support = list(support)
    coords = np.zeros(n)
    coords[[j - 1 for j in support]] = 1.0 / len(support)
    return coords


def _margin_form(matrix: CriteriaMatrix, kind: TestKind, support):
    """The margin-maximizing form of one certificate program, the reference
    formulation for the feasibility programs the package solves.

    The variables are the weights w, a weight floor f and, for T1 and T2,
    one gap per column outside the support and a margin.  The support
    columns tie, w >= f and f <= 1.  T1 and T2 maximize the margin, which
    is at most f and at most every gap, where a gap is at most the lead of
    the first support column over its column.  T0 and closure maximize f,
    and there the other columns may not exceed the support.  Every
    variable is nonnegative, which keeps the optimum: zero is feasible,
    and a solution with a positive optimum has positive weights, floor and
    gaps.  The optimum is 0 or 1, and 1 exactly when a certificate exists.

    Returns the objective to minimize, A_ub, b_ub and A_eq (b_eq is zero).
    """
    k, entries = matrix.k, matrix.entries
    inside = [j - 1 for j in support]
    outside = [j for j in range(matrix.n) if j + 1 not in support]
    strict = kind in (TestKind.T1, TestKind.T2)
    floor, gap0 = k, k + 1
    margin = gap0 + len(outside) if strict else None
    nvars = k + 1 + (len(outside) + 1 if strict else 0)
    a_ub, b_ub, a_eq = [], [], []

    def row(coeffs: dict, diff=None) -> np.ndarray:
        out = np.zeros(nvars)
        if diff is not None:
            out[:k] = diff
        for var, coeff in coeffs.items():
            out[var] = coeff
        return out

    def at_least_zero(coeffs: dict, diff=None) -> None:
        a_ub.append(-row(coeffs, diff))
        b_ub.append(0.0)

    for a, b in itertools.pairwise(inside):
        a_eq.append(row({}, entries[:, a] - entries[:, b]))
    for offset, j in enumerate(outside):
        at_least_zero({gap0 + offset: -1.0} if strict else {}, entries[:, inside[0]] - entries[:, j])
    for i in range(k):
        at_least_zero({i: 1.0, floor: -1.0})
    if strict:
        for offset in range(len(outside)):
            at_least_zero({gap0 + offset: 1.0, margin: -1.0})
        at_least_zero({floor: 1.0, margin: -1.0})
    a_ub.append(row({floor: 1.0}))
    b_ub.append(1.0)
    objective = np.zeros(nvars)
    objective[margin if strict else floor] = -1.0
    return objective, np.array(a_ub), b_ub, np.array(a_eq).reshape(-1, nvars)


def margin_form_optima(matrix: CriteriaMatrix, programs) -> list[float]:
    """Optima of the margin-maximizing forms (``_margin_form``) of several
    (kind, support) programs on one matrix, solved by SciPy's HiGHS, so the
    reference shares no code with the package.

    The programs go to the solver in one call: their constraints stacked
    block-diagonally and their objectives side by side.  The blocks share
    no variable and each optimum is bounded by its f <= 1 row, so the
    combined optimum is their sum and each program's optimum is read from
    its own block of the solution.
    """
    forms = [_margin_form(matrix, kind, support) for kind, support in programs]
    a_eq = sparse.block_diag([form[3] for form in forms], format="csr")
    result = optimize.linprog(
        np.concatenate([form[0] for form in forms]),
        A_ub=sparse.block_diag([form[1] for form in forms], format="csr"),
        b_ub=np.concatenate([form[2] for form in forms]),
        A_eq=a_eq if a_eq.shape[0] else None,
        b_eq=np.zeros(a_eq.shape[0]) if a_eq.shape[0] else None,
        bounds=(0, None),
        method="highs",
    )
    assert result.status == 0, result.message
    optima, start = [], 0
    for objective, *_ in forms:
        stop = start + len(objective)
        optima.append(-float(objective @ result.x[start:stop]))
        start = stop
    return optima
