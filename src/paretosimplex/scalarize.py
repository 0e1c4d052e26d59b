"""Weighted-sum objectives and the structure of their maximizer sets.

Collapsing the criteria rows with a weight vector gives one linear
objective over the simplex; ``weighted_objective`` returns its column
coefficients as a read-only array.  Its maximizer set is determined
entirely by the columns that attain the top coefficient, ``argmax_set``
of the coefficients: all of the simplex when every column ties, a single
vertex when exactly one does, and otherwise the closed face spanned by
the tied columns.  ``solution_set`` reports it as the class of the points
in its relative interior (``core.support_class`` of the tied columns):
``Randomized()``, ``Deterministic(j)`` or ``PartiallyRandomized(S)``.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    CriteriaMatrix,
    DimensionMismatchError,
    InputError,
    PointClass,
    SupportPattern,
    Tolerances,
    float_array,
    support_class,
)

__all__ = [
    "WeightVector",
    "argmax_set",
    "solution_set",
    "weighted_objective",
]


class WeightVector:
    """Per-criterion weights, not necessarily positive."""

    __slots__ = ("weights",)

    def __init__(self, weights) -> None:
        arr = float_array(weights)
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("weights must form a nonempty vector")
        if not np.isfinite(arr).all():
            raise InputError("weights must be finite")
        arr.setflags(write=False)
        self.weights = arr

    @property
    def k(self) -> int:
        return self.weights.size

    @property
    def strictly_positive(self) -> bool:
        """Exact strict positivity of every weight, no tolerance."""
        return bool((self.weights > 0.0).all())

    def __len__(self) -> int:
        return self.weights.size

    def __repr__(self) -> str:
        inner = ", ".join(format(w, "g") for w in self.weights)
        return f"WeightVector([{inner}])"


def check_weights(count: int, k: int) -> None:
    """Raise ``DimensionMismatchError`` unless ``count`` weights fit a
    matrix of k criteria."""
    if count != k:
        raise DimensionMismatchError(f"{count} weights for {k} criteria")


def weighted_objective(matrix: CriteriaMatrix, weights: WeightVector) -> np.ndarray:
    """Collapse the criteria rows into one objective: the read-only
    coefficients weights . matrix, one per column."""
    check_weights(weights.k, matrix.k)
    coeffs = weights.weights @ matrix.entries
    coeffs.setflags(write=False)
    return coeffs


def argmax_set(coeffs, tol: Tolerances = DEFAULT_TOLERANCES) -> SupportPattern:
    """1-based indices of the columns tied with the largest of the
    coefficients ``coeffs``, where tied means within ``tol.tie`` of it."""
    arr = float_array(coeffs)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError("coefficients must form a nonempty vector")
    if not np.isfinite(arr).all():
        raise InputError("coefficients must be finite")
    tied = np.flatnonzero(arr >= arr.max() - tol.tie)
    return SupportPattern.trusted(tuple((tied + 1).tolist()))


def solution_set(
    matrix: CriteriaMatrix,
    weights: WeightVector,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> PointClass:
    """The maximizer set of the collapsed objective over the simplex, as
    the class of the points in its relative interior."""
    return support_class(argmax_set(weighted_objective(matrix, weights), tol), matrix.n)
