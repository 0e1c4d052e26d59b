"""Weighted-sum objectives and the structure of their maximizer sets.

Collapsing the criteria rows with a weight vector gives one linear
objective over the simplex.  Its maximizer set is determined entirely by
which columns attain the top coefficient: all of the simplex when every
column ties, a single vertex when exactly one does, and otherwise the
closed face spanned by the tied columns.  ``solution_set`` reports it as
the class of the points in its relative interior (``core.support_class``
of the tied columns): ``Randomized()``, ``Deterministic(j)`` or
``PartiallyRandomized(S)``.
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
    support_class,
)

__all__ = [
    "ObjectiveVector",
    "WeightVector",
    "argmax_set",
    "solution_set",
    "weighted_objective",
]


class WeightVector:
    """Per-criterion weights, not necessarily positive."""

    __slots__ = ("weights",)

    def __init__(self, weights) -> None:
        arr = np.array(weights, dtype=float)
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


class ObjectiveVector:
    """Column coefficients of a collapsed objective and their maximum."""

    __slots__ = ("coeffs", "dmax")

    def __init__(self, coeffs) -> None:
        arr = np.array(coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("coefficients must form a nonempty vector")
        if not np.isfinite(arr).all():
            raise InputError("coefficients must be finite")
        arr.setflags(write=False)
        self.coeffs = arr
        self.dmax = float(arr.max())

    @property
    def n(self) -> int:
        return self.coeffs.size

    def __repr__(self) -> str:
        inner = ", ".join(format(c, "g") for c in self.coeffs)
        return f"ObjectiveVector([{inner}])"


def weighted_objective(matrix: CriteriaMatrix, weights: WeightVector) -> ObjectiveVector:
    """Collapse the criteria rows into one objective: coefficients
    weights . matrix, one per column."""
    if weights.k != matrix.k:
        raise DimensionMismatchError(
            f"{weights.k} weights for {matrix.k} criteria"
        )
    return ObjectiveVector(weights.weights @ matrix.entries)


def argmax_set(objective: ObjectiveVector, tol: Tolerances = DEFAULT_TOLERANCES) -> SupportPattern:
    """1-based indices of the columns tied with the maximum coefficient,
    where tied means within ``tol.tie`` of it."""
    tied = np.flatnonzero(objective.coeffs >= objective.dmax - tol.tie)
    return SupportPattern(int(j) + 1 for j in tied)


def solution_set(
    matrix: CriteriaMatrix,
    weights: WeightVector,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> PointClass:
    """The maximizer set of the collapsed objective over the simplex, as
    the class of the points in its relative interior."""
    return support_class(argmax_set(weighted_objective(matrix, weights), tol), matrix.n)
