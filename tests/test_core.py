"""Point classification and domain type validation."""

import re

import numpy as np
import pytest

from paretosimplex import (
    DEFAULT_TOLERANCES,
    CriteriaMatrix,
    Deterministic,
    EfficiencyAnalyzer,
    InputError,
    PartiallyRandomized,
    Randomized,
    Relation,
    SimplexPoint,
    StandardLp,
    SupportPattern,
    Tolerances,
    WeightVector,
    argmax_set,
    check_points,
    clamped_indices,
    classify,
    feasibility_violation,
    support_class,
    vertex,
)

RAGGED = "setting an array element with a sequence"
TEXT = "could not convert string to float: 'a'"


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
    with pytest.raises(InputError, match=re.escape("components sum to 1.00000005, not 1")):
        SimplexPoint([0.25 + 50 * eps, 0.25, 0.25, 0.25])
    # The edge is n * x_zero, so sums just inside it pass and just outside fail.
    edge = 4 * eps
    for sign, total in ((1.0, "1.00000000400004"), (-1.0, "0.99999999599996")):
        SimplexPoint([0.25 + sign * (1 - 1e-5) * edge, 0.25, 0.25, 0.25])
        with pytest.raises(InputError, match=re.escape(f"components sum to {total}, not 1")):
            SimplexPoint([0.25 + sign * (1 + 1e-5) * edge, 0.25, 0.25, 0.25])


def test_small_negative_components_clamp_to_zero():
    x = SimplexPoint([1.0, -5e-10, 5e-10])
    assert x.coords[1] == 0.0
    assert x.coords[2] == 5e-10
    with pytest.raises(InputError, match=re.escape("component -1e-08 is below -x_zero")):
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
    with pytest.raises(InputError, match="a point must be a nonempty one-dimensional vector"):
        SimplexPoint([[0.5, 0.5]])
    with pytest.raises(InputError, match="a point must be a nonempty one-dimensional vector"):
        SimplexPoint([])
    with pytest.raises(InputError, match="point components must be finite"):
        SimplexPoint([0.5, np.inf])
    with pytest.raises(InputError, match=re.escape("components sum to 1.1, not 1")):
        SimplexPoint([0.9, 0.2])
    with pytest.raises(InputError, match="point components must be finite"):
        SimplexPoint([0.5, np.nan])


def test_check_points_takes_only_the_rows_of_a_two_dimensional_array():
    for points in ([0.5, 0.5], np.zeros((2, 0))):
        with pytest.raises(InputError, match="points must be the rows of a 2-dimensional array"):
            check_points(points)


def test_support_class_is_the_class_of_the_points_on_the_support():
    assert support_class(SupportPattern((2,)), 3) == Deterministic(2)
    assert support_class(SupportPattern((1, 3)), 3) == PartiallyRandomized(SupportPattern((1, 3)))
    assert support_class(SupportPattern((1, 2, 3)), 3) == Randomized()
    assert support_class(SupportPattern((1, 2)), 2) == Randomized()


def test_point_coords_read_only():
    x = SimplexPoint([0.5, 0.5])
    with pytest.raises(ValueError):
        x.coords[0] = 0.9
    assert (len(x), repr(x)) == (2, "SimplexPoint([0.5, 0.5])")


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
    assert (matrix.k, matrix.n, repr(matrix)) == (2, 2, "CriteriaMatrix(k=2, n=2)")
    with pytest.raises(ValueError):
        matrix.entries[0, 0] = 9.0


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda: CriteriaMatrix([[1, 2, 3], [3, 4]]), RAGGED),
        (lambda: CriteriaMatrix([[1, "a"], [3, 4]]), TEXT),
        (lambda: SimplexPoint(["a", 1]), TEXT),
        (lambda: check_points([[1, 0], [1]]), RAGGED),
        (lambda: next(EfficiencyAnalyzer(CriteriaMatrix([[1, 0], [0, 1]])).decide_many([[1, 0], [1]])), RAGGED),
        (lambda: WeightVector(["a"]), TEXT),
        (lambda: argmax_set(["a", 1.0]), TEXT),
        (lambda: StandardLp([["a"]], [Relation.EQ], [1]), TEXT),
        (lambda: feasibility_violation(StandardLp([[1]], [Relation.EQ], [1]), ["a"]), TEXT),
        (lambda: SupportPattern(("a",)), "support index 'a' is not an integer"),
        (lambda: SupportPattern((None,)), "support index None is not an integer"),
        (lambda: SupportPattern((float("inf"),)), "support index inf is not an integer"),
        (lambda: Deterministic("a"), "vertex index must be a positive integer"),
        (lambda: Deterministic(None), "vertex index must be a positive integer"),
        (lambda: CriteriaMatrix([1, 2, 3]), "expected a 2-dimensional array, got shape (3,)"),
        (lambda: WeightVector([]), "weights must form a nonempty vector"),
        (lambda: WeightVector([1.0, np.inf]), "weights must be finite"),
        (lambda: StandardLp([[1, 1]], [Relation.EQ, Relation.LE], [1]), "rows, relations, and rhs must align"),
        (lambda: PartiallyRandomized(SupportPattern((1,))), "a partially randomized point has support size >= 2"),
        (lambda: vertex(1, 0), "dimension must be positive"),
    ],
    ids=[
        "matrix-ragged", "matrix-text", "point-text", "check_points-ragged", "decide_many-ragged",
        "weights-text", "coefficients-text", "lp-text", "violation-text", "support-text", "support-none", "support-inf",
        "vertex-text", "vertex-none", "matrix-one-dimensional", "weights-empty", "weights-inf", "lp-misaligned",
        "partial-one-column", "vertex-no-dimension",
    ],
)
def test_numbers_the_library_cannot_read_raise_input_error(read, message):
    # The message keeps NumPy's own text where NumPy read the numbers.
    with pytest.raises(InputError, match=re.escape(message)):
        read()
