"""Domain types for linear multi-criteria analysis on the probability simplex.

The feasible set is the standard probability simplex: vectors with
nonnegative components summing to one.  Points are classified by support
size: deterministic points put all mass on a single column (a vertex),
randomized points have strictly positive mass everywhere, and partially
randomized points sit strictly between those extremes.  The points of one
class on one support fill one face of the simplex (a vertex, an open face,
or the interior), so a class names that face too; ``support_class`` maps a
support to its class.

A batch of points, the rows of an (N, n) array, is checked by
``check_points`` under the same rules as ``SimplexPoint`` and numbered by
``point_groups`` into groups of one class and clamped indices, so that a
caller classifies each group once, on its first row, with ``row_key``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

__all__ = [
    "DEFAULT_TOLERANCES",
    "CriteriaMatrix",
    "Deterministic",
    "DimensionMismatchError",
    "InputError",
    "PartiallyRandomized",
    "PointClass",
    "Randomized",
    "SimplexPoint",
    "SupportPattern",
    "Tolerances",
    "Verdict",
    "check_points",
    "clamped_indices",
    "classify",
    "point_groups",
    "support_class",
    "vertex",
]


class InputError(ValueError):
    """Invalid domain data (malformed matrix, point, support, or tolerance)."""


class DimensionMismatchError(InputError):
    """Operands whose dimensions do not agree."""


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds shared across the library.

    x_zero: point components at or below this count as zero.
    tie: objective coefficients within this of the maximum count as tied.
    lp: pivot and feasibility tolerance of the simplex solver.

    The solver tolerance must not exceed the tie tolerance, otherwise the
    noise the solver is allowed to leave behind could flip tie decisions.
    """

    x_zero: float = 1e-9
    tie: float = 1e-7
    lp: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("x_zero", "tie", "lp"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and np.isfinite(value) and value > 0):
                raise InputError(f"tolerance {name!r} must be a positive finite number")
        if self.lp > self.tie:
            raise InputError("solver tolerance lp must not exceed tie tolerance")


DEFAULT_TOLERANCES = Tolerances()


def float_array(values) -> np.ndarray:
    """A new float array of ``values``; what NumPy cannot read as one, such
    as ragged rows or text, raises ``InputError`` with NumPy's message."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from None


def _frozen_array(values, ndim: int) -> np.ndarray:
    arr = float_array(values)
    if arr.ndim != ndim:
        raise InputError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


#: Normalized gain sum(N[:, i] - N[:, j]) that column i must exceed to screen out column j.
_SCREEN_GAIN = 1e-5


class CriteriaMatrix:
    """A k-by-n matrix of criteria values; row i scores the n columns under
    criterion i.  Requires at least two criteria and two columns, all finite.
    """

    __slots__ = ("entries", "_normalized", "_screened")

    def __init__(self, entries) -> None:
        arr = _frozen_array(entries, ndim=2)
        k, n = arr.shape
        if k < 2 or n < 2:
            raise InputError(f"need at least two criteria and two columns, got {k}x{n}")
        if not np.isfinite(arr).all():
            raise InputError("criteria entries must be finite")
        self.entries = arr
        self._normalized: np.ndarray | None = None
        self._screened: tuple[int, ...] | None = None

    @property
    def normalized(self) -> np.ndarray:
        """The entries with each row minus its mean, divided by its largest
        absolute entry; constant rows become zero.  Neither map changes
        which points of the simplex dominate which.  Computed on first use
        and kept, read-only."""
        if self._normalized is None:
            entries = self.entries
            centered = entries - entries.mean(axis=1, keepdims=True)
            centered[np.ptp(entries, axis=1) == 0.0] = 0.0
            spread = np.abs(centered).max(axis=1, keepdims=True)
            normalized = centered / np.where(spread > 0.0, spread, 1.0)
            normalized.setflags(write=False)
            self._normalized = normalized
        return self._normalized

    @property
    def screened(self) -> tuple[int, ...]:
        """1-based columns j that some column i beats in every criterion:
        C[:, i] >= C[:, j] entry by entry, compared exactly, with a normalized
        gain above _SCREEN_GAIN.  Moving the mass of j to i dominates every
        point with mass on j.  Normalizing a row preserves its order, so a
        positive gain puts some entry of i strictly above j's.  A row whose
        mean overflows normalizes to NaN, and a NaN gain screens nothing.
        Computed on first use, in O(k n**2), and kept."""
        if self._screened is None:
            entries = self.entries
            beats = (entries[:, :, np.newaxis] >= entries[:, np.newaxis, :]).all(axis=0)
            with np.errstate(all="ignore"):
                sums = self.normalized.sum(axis=0)
                beats &= sums[:, np.newaxis] - sums > _SCREEN_GAIN
            self._screened = _one_based(beats.any(axis=0))
        return self._screened

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    def __repr__(self) -> str:
        return f"CriteriaMatrix(k={self.k}, n={self.n})"


class SimplexPoint:
    """A probability vector.

    Components in [-x_zero, 0) are clamped to zero at construction; anything
    more negative is rejected.  The component sum must be within n * x_zero
    of one.  Coordinates are never renormalized.  ``check_points`` applies
    these rules.
    """

    __slots__ = ("coords",)

    def __init__(self, coords, tol: Tolerances = DEFAULT_TOLERANCES) -> None:
        arr = float_array(coords)
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("a point must be a nonempty one-dimensional vector")
        checked, error = check_points(arr[np.newaxis], tol)
        if error is not None:
            raise error
        self.coords = checked[0]

    @property
    def n(self) -> int:
        return self.coords.size

    def __len__(self) -> int:
        return self.coords.size

    def __repr__(self) -> str:
        inner = ", ".join(format(c, "g") for c in self.coords)
        return f"SimplexPoint([{inner}])"


def check_points(
    points, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[np.ndarray, InputError | None]:
    """Apply the point rules to every row of an (N, n) array at once.

    A row is a point when its components are finite and none is below
    -x_zero; components in [-x_zero, 0) are then clamped to zero, and the
    clamped sum must be within n * x_zero of one.  Returns the clamped,
    read-only rows before the first invalid row, and the error for that
    row, or None when every row is a point.
    """
    rows = float_array(points)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise InputError(
            f"points must be the rows of a 2-dimensional array, got shape {rows.shape}"
        )
    clamped = np.where(rows < 0.0, 0.0, rows)
    clamped.setflags(write=False)
    with np.errstate(invalid="ignore", over="ignore"):
        totals = clamped.sum(axis=1)
    # A NaN fails both tests and an infinity fails the sum test, so only
    # the first failing row is examined for which rule it breaks.
    good = (rows >= -tol.x_zero).all(axis=1) & (np.abs(totals - 1.0) <= rows.shape[1] * tol.x_zero)
    if good.all():
        return clamped, None
    first = int(good.argmin())
    row = rows[first]
    if not np.isfinite(row).all():
        error = InputError("point components must be finite")
    elif (row < -tol.x_zero).any():
        error = InputError(f"component {float(row.min())} is below -x_zero")
    else:
        # Summed again on its own, so that an overflow warns as it would
        # for this point alone.
        error = InputError(f"components sum to {float(clamped[first].sum())}, not 1")
    return clamped[:first], error


def check_dimension(components: int, n: int) -> None:
    """Raise ``DimensionMismatchError`` unless a point of ``components``
    components fits a matrix of n columns."""
    if components != n:
        raise DimensionMismatchError(f"point has {components} components, matrix has {n} columns")


def _integer(value) -> int | None:
    """``value`` as an int when it equals one, else None."""
    try:
        j = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return j if j == value else None


@dataclass(frozen=True)
class SupportPattern:
    """Sorted, duplicate-free 1-based column indices."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        cleaned = []
        for i in self.indices:
            j = _integer(i)
            if j is None:
                raise InputError(f"support index {i!r} is not an integer")
            cleaned.append(j)
        if not cleaned:
            raise InputError("a support pattern cannot be empty")
        if len(set(cleaned)) != len(cleaned):
            raise InputError("support indices must be distinct")
        if min(cleaned) < 1:
            raise InputError("support indices are 1-based")
        object.__setattr__(self, "indices", tuple(sorted(cleaned)))

    @classmethod
    def trusted(cls, indices: tuple[int, ...]) -> SupportPattern:
        """The pattern on ``indices``, a tuple of distinct positive ints
        already in increasing order; nothing is checked again."""
        pattern = object.__new__(cls)
        object.__setattr__(pattern, "indices", indices)
        return pattern

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, j: object) -> bool:
        return j in self.indices

    def __repr__(self) -> str:
        return f"SupportPattern({self.indices})"


@dataclass(frozen=True)
class Deterministic:
    """All mass on one column: the point is the vertex with this 1-based index."""

    index: int

    def __post_init__(self) -> None:
        index = _integer(self.index)
        if index is None or index < 1:
            raise InputError("vertex index must be a positive integer")
        object.__setattr__(self, "index", index)

    @property
    def support(self) -> SupportPattern:
        return SupportPattern.trusted((self.index,))


@dataclass(frozen=True)
class PartiallyRandomized:
    """Mass on at least two but not all columns."""

    support: SupportPattern

    def __post_init__(self) -> None:
        if len(self.support) < 2:
            raise InputError("a partially randomized point has support size >= 2")


@dataclass(frozen=True)
class Randomized:
    """Strictly positive mass on every column."""


PointClass = Deterministic | PartiallyRandomized | Randomized


class Verdict(Enum):
    EFFICIENT = "efficient"
    DOMINATED = "dominated"


def classify(x: SimplexPoint, tol: Tolerances = DEFAULT_TOLERANCES) -> PointClass:
    """Classify a point by its support at threshold ``tol.x_zero``.

    The support consists of exactly the components strictly above x_zero,
    so boundary mass within the threshold is treated as zero.  With two
    columns there is no partially randomized class.
    """
    coords = x.coords
    if abs(float(coords.sum()) - 1.0) > coords.size * tol.x_zero:
        raise InputError("point does not lie on the simplex at this tolerance")
    return _classify(coords, tol)


def _classify(coords: np.ndarray, tol: Tolerances) -> PointClass:
    positive = np.flatnonzero(coords > tol.x_zero)
    if positive.size == 0:
        raise InputError("every component is within the zero threshold")
    return support_class(SupportPattern.trusted(tuple((positive + 1).tolist())), coords.size)


def support_class(support: SupportPattern, n: int) -> PointClass:
    """The class of the points of the n-column simplex whose support is
    ``support``, which is also the face those points fill: the whole
    simplex when the support has every column, a vertex when it has one,
    and otherwise the open face on the support."""
    size = len(support.indices)
    if size == n:
        return Randomized()
    if size == 1:
        return Deterministic(support.indices[0])
    return PartiallyRandomized(support)


def clamped_indices(x: SimplexPoint, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[int, ...]:
    """1-based indices with positive mass at or below the zero threshold.

    These are the components that classification treats as zero even though
    they carry (negligible) mass.
    """
    return _one_based(_clamped_mask(x.coords, tol))


def _clamped_mask(coords: np.ndarray, tol: Tolerances) -> np.ndarray:
    return (coords > 0.0) & (coords <= tol.x_zero)


def _one_based(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(j) + 1 for j in np.flatnonzero(mask))


def point_groups(coords: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Group the rows that ``check_points`` returned by class and clamped
    indices, in one pass over the array.

    Returns each row's group number.  Groups are numbered by their first
    row, so a row begins a new group exactly when its number equals the
    count of groups before it.  Rows of one group share their support mask
    (coords > x_zero) and their clamped mask, and ``row_key`` gives a
    group's class and clamped indices from any of its rows.
    """
    # Per component: 2 on the support, 1 when clamped, 0 otherwise.
    codes = 2 * (coords > tol.x_zero) + _clamped_mask(coords, tol)
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    rows = codes.view(np.dtype((np.void, codes.shape[1]))).ravel()
    _, first, groups = np.unique(rows, return_index=True, return_inverse=True)
    # np.unique numbers the groups in sorted order; renumber them by first row.
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    return number[groups]


def row_key(
    row: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[PointClass, tuple[int, ...]]:
    """Class and clamped indices of one row that ``check_points`` returned,
    as ``classify`` and ``clamped_indices`` give them for its point; the sum
    is not checked again."""
    return _classify(row, tol), _one_based(_clamped_mask(row, tol))


def vertex(j: int, n: int) -> SimplexPoint:
    """The j-th vertex of the n-simplex (1-based): the unit vector e_j."""
    if n < 1:
        raise InputError("dimension must be positive")
    if not 1 <= j <= n:
        raise InputError(f"vertex index {j} out of range 1..{n}")
    coords = np.zeros(n)
    coords[j - 1] = 1.0
    return SimplexPoint(coords)
