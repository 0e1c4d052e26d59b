"""Point classification and domain type validation."""

import numpy as np
import pytest

from paretosimplex import (
    DEFAULT_TOLERANCES,
    CriteriaMatrix,
    Deterministic,
    InputError,
    InvalidPointError,
    PartiallyRandomized,
    Randomized,
    SimplexPoint,
    SupportPattern,
    Tolerances,
    clamped_indices,
    classify,
    vertex,
)


def test_vertices_classify_deterministic():
    for n in range(2, 7):
        for j in range(1, n + 1):
            point = vertex(j, n)
            assert point.coords[j - 1] == 1.0
            assert classify(point) == Deterministic(j)


def test_vertex_index_out_of_range():
    with pytest.raises(InputError):
        vertex(0, 3)
    with pytest.raises(InputError):
        vertex(4, 3)


def test_interior_point_is_randomized():
    assert classify(SimplexPoint([0.2, 0.3, 0.5])) == Randomized()


def test_partial_point_support():
    got = classify(SimplexPoint([0.55, 0.45, 0.0]))
    assert got == PartiallyRandomized(SupportPattern((1, 2)))


def test_two_columns_never_partial():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = float(rng.uniform(0.0, 1.0))
        cls = classify(SimplexPoint([a, 1.0 - a]))
        assert isinstance(cls, (Deterministic, Randomized))


def _support_tuple(cls, n: int) -> tuple[int, ...]:
    if isinstance(cls, Randomized):
        return tuple(range(1, n + 1))
    return cls.support.indices


def test_classification_commutes_with_permutations():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        size = int(rng.integers(1, n + 1))
        support = 1 + rng.choice(n, size=size, replace=False)
        coords = np.zeros(n)
        mass = rng.uniform(0.05, 1.0, size)
        coords[support - 1] = mass / mass.sum()
        perm = rng.permutation(n)
        permuted = SimplexPoint(coords[perm])
        base = classify(SimplexPoint(coords))
        expected = tuple(sorted(int(np.flatnonzero(perm == j - 1)[0]) + 1 for j in _support_tuple(base, n)))
        assert _support_tuple(classify(permuted), n) == expected


def test_sum_tolerance_boundary():
    eps = DEFAULT_TOLERANCES.x_zero
    SimplexPoint([0.25 + 3 * eps, 0.25, 0.25, 0.25])
    with pytest.raises(InvalidPointError):
        SimplexPoint([0.25 + 50 * eps, 0.25, 0.25, 0.25])
    # The edge is n * x_zero, so sums just inside it pass and just outside fail.
    edge = 4 * eps
    for sign in (1.0, -1.0):
        SimplexPoint([0.25 + sign * (1 - 1e-5) * edge, 0.25, 0.25, 0.25])
        with pytest.raises(InvalidPointError):
            SimplexPoint([0.25 + sign * (1 + 1e-5) * edge, 0.25, 0.25, 0.25])


def test_small_negative_components_clamp_to_zero():
    x = SimplexPoint([1.0, -5e-10, 5e-10])
    assert x.coords[1] == 0.0
    assert x.coords[2] == 5e-10
    with pytest.raises(InvalidPointError):
        SimplexPoint([1.0, -1e-8, 0.0])


def test_coordinates_are_not_renormalized():
    x = SimplexPoint([0.5, 0.5 - 1e-10, 1e-10])
    assert x.coords[0] == 0.5
    assert x.coords[1] == 0.5 - 1e-10


def test_clamped_indices_and_boundary_classification():
    x = SimplexPoint([0.5, 0.5 - 1e-12, 1e-12])
    assert clamped_indices(x) == (3,)
    assert classify(x) == PartiallyRandomized(SupportPattern((1, 2)))


def test_classify_with_looser_threshold():
    x = SimplexPoint([0.6, 0.4 - 1e-5, 1e-5])
    assert classify(x) == Randomized()
    loose = Tolerances(x_zero=1e-4, tie=1e-3, lp=1e-9)
    assert classify(x, loose) == PartiallyRandomized(SupportPattern((1, 2)))


def test_point_validation():
    with pytest.raises(InvalidPointError):
        SimplexPoint([[0.5, 0.5]])
    with pytest.raises(InvalidPointError):
        SimplexPoint([])
    with pytest.raises(InvalidPointError):
        SimplexPoint([0.5, np.inf])
    with pytest.raises(InvalidPointError):
        SimplexPoint([0.9, 0.2])
    with pytest.raises(InvalidPointError):
        SimplexPoint([0.5, np.nan])


def test_point_coords_read_only():
    x = SimplexPoint([0.5, 0.5])
    with pytest.raises(ValueError):
        x.coords[0] = 0.9


def test_support_pattern_normalizes_and_validates():
    assert SupportPattern([3, 1, 2]).indices == (1, 2, 3)
    assert 2 in SupportPattern((1, 2))
    assert len(SupportPattern((4, 2))) == 2
    with pytest.raises(InputError):
        SupportPattern([])
    with pytest.raises(InputError):
        SupportPattern([1, 1])
    with pytest.raises(InputError):
        SupportPattern([0, 1])
    with pytest.raises(InputError):
        SupportPattern([1.5, 2])


def test_trusted_support_pattern_equals_the_checked_one():
    trusted = SupportPattern.trusted((1, 3, 4))
    assert trusted == SupportPattern([4, 1, 3])
    assert hash(trusted) == hash(SupportPattern((1, 3, 4)))
    assert trusted in {SupportPattern((1, 3, 4))}


def test_tolerances_validation():
    with pytest.raises(InputError):
        Tolerances(lp=1e-3)  # solver noise above the tie threshold
    with pytest.raises(InputError):
        Tolerances(x_zero=0.0)
    with pytest.raises(InputError):
        Tolerances(tie=-1.0)


def test_criteria_matrix_validation():
    with pytest.raises(InputError):
        CriteriaMatrix([[1.0, 2.0]])
    with pytest.raises(InputError):
        CriteriaMatrix([[1.0], [2.0]])
    with pytest.raises(InputError):
        CriteriaMatrix([[1.0, np.nan], [0.0, 1.0]])
    matrix = CriteriaMatrix([[1.0, 2.0], [3.0, 4.0]])
    assert (matrix.k, matrix.n) == (2, 2)
    with pytest.raises(ValueError):
        matrix.entries[0, 0] = 9.0
