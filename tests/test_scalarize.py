"""Weighted objectives, argmax sets, and maximizer descriptors."""

import numpy as np
import pytest

from paretosimplex import (
    CriteriaMatrix,
    Deterministic,
    DimensionMismatchError,
    InputError,
    PartiallyRandomized,
    Randomized,
    SupportPattern,
    Tolerances,
    WeightVector,
    argmax_set,
    solution_set,
    weighted_objective,
)


def test_collapse_known_values(edge_matrix):
    got = weighted_objective(edge_matrix, WeightVector([1.0, 1.0, 1.0]))
    assert got.tolist() == [3.0, 0.0, -3.5]
    assert argmax_set(got) == SupportPattern((1,))
    assert solution_set(edge_matrix, WeightVector([1.0, 1.0, 1.0])) == Deterministic(1)


def test_collapse_all_tie(full_matrix):
    got = weighted_objective(full_matrix, WeightVector([1.0, 2.0, 1.0]))
    assert got.tolist() == [2.0, 2.0, 2.0]
    assert argmax_set(got) == SupportPattern((1, 2, 3))
    assert solution_set(full_matrix, WeightVector([1.0, 2.0, 1.0])) == Randomized()


def test_open_face_descriptor():
    matrix = CriteriaMatrix([[7.0, 7.0, 0.0], [7.0, 7.0, 0.0]])
    got = solution_set(matrix, WeightVector([0.5, 0.5]))
    assert got == PartiallyRandomized(SupportPattern((1, 2)))


def test_the_objective_is_a_read_only_float_array(edge_matrix):
    got = weighted_objective(edge_matrix, WeightVector([1, 1, 1]))
    assert isinstance(got, np.ndarray) and got.dtype == float and got.shape == (3,)
    with pytest.raises(ValueError):
        got[0] = 1.0


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ([], "coefficients must form a nonempty vector"),
        ([[1.0, 2.0]], "coefficients must form a nonempty vector"),
        (2.0, "coefficients must form a nonempty vector"),
        ([1.0, np.inf], "coefficients must be finite"),
        ([np.nan, 1.0], "coefficients must be finite"),
    ],
)
def test_argmax_set_rejects_what_is_not_a_finite_vector(coeffs, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        argmax_set(coeffs)


def test_tie_threshold_boundary():
    assert argmax_set(([1.0, 1.0 - 5e-8, 0.0])) == SupportPattern((1, 2))
    assert argmax_set(([1.0, 1.0 - 2e-7, 0.0])) == SupportPattern((1,))
    wide = Tolerances(tie=1e-3)
    assert argmax_set(([1.0, 1.0 - 2e-7, 0.0]), wide) == SupportPattern((1, 2))


def test_argmax_contains_literal_argmax():
    rng = np.random.default_rng(5)
    for _ in range(300):
        coeffs = rng.normal(size=int(rng.integers(2, 9)))
        got = argmax_set(coeffs)
        assert int(np.argmax(coeffs)) + 1 in got


def test_descriptor_scale_invariance():
    # Integer data keeps ties exact, so positive rescaling must not change
    # the descriptor while the scaled gaps stay above the tie threshold.
    rng = np.random.default_rng(17)
    for _ in range(150):
        k, n = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        matrix = CriteriaMatrix(rng.integers(-9, 10, size=(k, n)).astype(float))
        weights = rng.integers(1, 6, size=k).astype(float)
        base = solution_set(matrix, WeightVector(weights))
        for t in (1e-2, 0.5, 3.0, 1e2):
            assert solution_set(matrix, WeightVector(t * weights)) == base


def test_strict_positivity_predicate():
    assert WeightVector([1.0, 0.5]).strictly_positive
    assert len(WeightVector([1.0, 0.5])) == 2
    assert not WeightVector([1.0, 0.0]).strictly_positive
    assert not WeightVector([1.0, -0.1]).strictly_positive


def test_dimension_mismatch(edge_matrix):
    with pytest.raises(DimensionMismatchError):
        weighted_objective(edge_matrix, WeightVector([1.0, 1.0]))


def test_unique_vertex_means_strict_dominance_of_other_vertices():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        coeffs = rng.permutation(np.arange(n, dtype=float) * rng.integers(1, 4))
        matrix = CriteriaMatrix(np.vstack([coeffs, coeffs]))
        descriptor = solution_set(matrix, WeightVector([0.5, 0.5]))
        if not isinstance(descriptor, Deterministic):
            continue
        objective = weighted_objective(matrix, WeightVector([0.5, 0.5]))
        dmax = objective.max()
        gap = dmax - np.partition(objective, -2)[-2]
        for i in range(1, n + 1):
            if i == descriptor.index:
                continue
            assert objective[i - 1] <= dmax - gap
        # interior points lose in proportion to the mass off the winner
        for _ in range(20):
            mass = rng.uniform(0.0, 1.0, n)
            x = mass / mass.sum()
            slack = (1.0 - x[descriptor.index - 1]) * gap
            assert float(objective @ x) <= dmax - slack + 1e-9
