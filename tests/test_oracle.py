"""Dominance-program verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import barycenter, random_matrix

from paretosimplex import (
    CriteriaMatrix,
    DimensionMismatchError,
    EfficiencyAnalyzer,
    LpError,
    Relation,
    SimplexPoint,
    Verdict,
    build_dominance_lp,
    dominance_lp_verdict,
    oracle,
    solve,
    vertex,
)


def test_dominance_lp_shape(edge_matrix):
    point = vertex(1, 3)
    lp = build_dominance_lp(edge_matrix, point)
    k, n = edge_matrix.k, edge_matrix.n
    assert lp.num_vars == n + 1
    assert lp.num_rows == k + 2
    assert lp.relations == (Relation.EQ,) + (Relation.GE,) * k + (Relation.EQ,)
    assert np.array_equal(lp.rhs, [0.0] * (k + 1) + [1.0])
    with pytest.raises(DimensionMismatchError):
        dominance_lp_verdict(edge_matrix, SimplexPoint([0.5, 0.5]))


def test_criteria_are_normalized_per_row():
    # 0.1 has no exact mean, so the constant row must be zeroed, not scaled
    # from rounding noise; the other row is centered and scaled into [-1, 1].
    matrix = CriteriaMatrix([[0.1, 0.1, 0.1], [1.0, -2.0, 7.0]])
    lp = build_dominance_lp(matrix, vertex(1, 3))
    assert not lp.a[1].any()
    assert np.array_equal(lp.a[2, :3], [-0.2, -0.8, 1.0])
    # normalized once per matrix, and shared read-only by every program
    assert matrix.normalized is matrix.normalized
    assert not matrix.normalized.flags.writeable
    assert np.array_equal(build_dominance_lp(matrix, vertex(2, 3)).a[1:3, :3], matrix.normalized)


def test_verdicts_on_edge_instance(edge_matrix):
    assert dominance_lp_verdict(edge_matrix, vertex(1, 3)) is Verdict.EFFICIENT
    assert dominance_lp_verdict(edge_matrix, vertex(2, 3)) is Verdict.EFFICIENT
    assert dominance_lp_verdict(edge_matrix, vertex(3, 3)) is Verdict.DOMINATED
    assert dominance_lp_verdict(edge_matrix, SimplexPoint([0.55, 0.45, 0.0])) is Verdict.EFFICIENT
    assert dominance_lp_verdict(edge_matrix, SimplexPoint([0.3, 0.0, 0.7])) is Verdict.DOMINATED
    assert dominance_lp_verdict(edge_matrix, SimplexPoint([0.2, 0.3, 0.5])) is Verdict.DOMINATED


def test_everything_efficient_on_full_instance(full_matrix):
    for a in range(4):
        for b in range(4 - a):
            point = SimplexPoint([a / 3, b / 3, (3 - a - b) / 3])
            assert dominance_lp_verdict(full_matrix, point) is Verdict.EFFICIENT


def test_dominated_points_have_positive_slack(edge_matrix):
    # The program of a dominated point is feasible, and y / t dominates it.
    x = vertex(3, 3)
    solution = solve(build_dominance_lp(edge_matrix, x))
    assert solution.point is not None
    y, t = solution.point[:-1], solution.point[-1]
    improvement = edge_matrix.entries @ (y / t - x.coords)
    assert improvement.min() >= -1e-12
    assert improvement.max() > 1e-7


def test_breakdowns_name_the_dominance_program(edge_matrix, monkeypatch):
    # The support is the components above x_zero, so the clamped first one is left out.
    def solve(lp, tol):
        raise LpError("stub breakdown")

    monkeypatch.setattr(oracle, "solve", solve)
    with pytest.raises(LpError) as info:
        dominance_lp_verdict(edge_matrix, SimplexPoint([1e-10, 0.5, 0.5 - 1e-10]))
    assert str(info.value) == "dominance program on support {2, 3} of the 3x3 matrix: stub breakdown"
    assert str(info.value.__cause__) == "stub breakdown"


def test_agreement_with_certificate_route():
    rng = np.random.default_rng(220)
    for _ in range(40):
        matrix = random_matrix(rng, n=int(rng.integers(2, 6)))
        n = matrix.n
        points = [vertex(j, n) for j in range(1, n + 1)]
        points.append(SimplexPoint(barycenter(n, range(1, n + 1))))
        for point in points:
            verdict = EfficiencyAnalyzer(matrix).decide(point).verdict
            assert verdict is dominance_lp_verdict(matrix, point)


@st.composite
def unit_changes(draw):
    """An integer matrix, a support barycenter, and the same instance in
    other units: each row shifted by an integer and scaled by 10^[-9, 9],
    one column duplicated with half of its mass moved to the copy, and the
    columns permuted."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(2, 6))
    entries = np.array(draw(st.lists(st.integers(-9, 9), min_size=k * n, max_size=k * n)), dtype=float)
    entries = entries.reshape(k, n)
    support = draw(st.sets(st.integers(1, n), min_size=1))
    x = barycenter(n, support)
    shifts = np.array(draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k)), dtype=float)
    exponents = np.array(draw(st.lists(st.floats(-9.0, 9.0), min_size=k, max_size=k)))
    copied = draw(st.integers(0, n - 1))
    order = draw(st.permutations(range(n + 1)))
    scaled = (entries + shifts[:, None]) * 10.0 ** exponents[:, None]
    moved = np.append(x, x[copied] / 2)
    moved[copied] -= moved[-1]
    scaled = np.hstack([scaled, scaled[:, [copied]]])[:, order]
    return CriteriaMatrix(entries), x, CriteriaMatrix(scaled), moved[order]


@settings(max_examples=300, deadline=None)
@given(unit_changes())
def test_oracle_verdicts_do_not_depend_on_units(case):
    # None of these changes alters which points dominate which, so the
    # verdict must be the unscaled one, and no LpError may escape.
    matrix, x, scaled, moved = case
    expected = dominance_lp_verdict(matrix, SimplexPoint(x))
    assert dominance_lp_verdict(scaled, SimplexPoint(moved)) is expected
