"""Structure of the efficient set: vertices and open faces.

Because efficiency depends only on a point's support, the efficient set
is a union of open faces and the whole structure is finite: one verdict
per support pattern.  Each support is decided by the analyzer's
``efficient`` predicate, the closure test ``decide`` uses too: a support
is efficient exactly when some strictly positive weighting keeps it at the
maximum.  Efficient supports are closed under subsets, since weights that
keep a support at the maximum keep each of its subsets there.  The face
scan is therefore level-wise: starting from the efficient vertices, it
tests a support of size s only when all its subsets of size s-1 are
efficient, and stops at the first size with no efficient support.  Every
skipped support has a dominated subset, so the scan is exact, and its cost
follows the size of the efficient set rather than the 2**n supports.  The
analyzer decides a support inside the argmax face of a certificate it has
already verified without a program (see ``paretosimplex.efficiency``).
The scan can be limited to small supports, and an enumeration that would
list more than MAX_LISTED_SUPPORTS is refused.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    CriteriaMatrix,
    DimensionMismatchError,
    InputError,
    SupportPattern,
    Tolerances,
)
from .efficiency import EfficiencyAnalyzer
from .scalarize import WeightVector

__all__ = [
    "MAX_LISTED_SUPPORTS",
    "EfficientStructure",
    "EnumerationCapError",
    "bicriterion_full_check",
    "bicriterion_ratios",
    "check_full",
    "enumerate_faces",
    "enumerate_vertices",
]

#: Most supports one enumeration lists.  A matrix of at most 16 columns
#: has at most 2**16 - 18 faces, so it never reaches the bound.
MAX_LISTED_SUPPORTS = 2**16


class EnumerationCapError(RuntimeError):
    """Enumeration refused: it would list more than MAX_LISTED_SUPPORTS supports."""


@dataclass(frozen=True)
class EfficientStructure:
    """Enumerated efficient structure.

    full means every feasible point is efficient.  vertices holds the
    efficient column indices, faces the efficient support patterns of
    size two and up within the scanned sizes: those whose closure program
    is feasible, found by the level-wise scan (exact, since efficient
    supports are closed under subsets).  A support inside the argmax face
    of a certificate the analyzer already verified is decided without a
    program.  exhaustive is set when no support size up to n-1 was cut
    off, so the structure describes the entire efficient set.  It lists
    at most MAX_LISTED_SUPPORTS faces.
    """

    full: bool
    vertices: frozenset[int]
    faces: frozenset[SupportPattern]
    exhaustive: bool


def check_full(
    matrix: CriteriaMatrix,
    tol: Tolerances = DEFAULT_TOLERANCES,
    analyzer: EfficiencyAnalyzer | None = None,
) -> tuple[bool, WeightVector | None]:
    """Decide whether every feasible point is efficient.

    True comes with a verified certificate: strictly positive weights
    under which every column ties.  A certificate that fails the check
    raises ``NumericalBreakdownError``, as in ``decide``.
    """
    analyzer = analyzer or EfficiencyAnalyzer(matrix, tol)
    result = analyzer.t0()
    if not result.certified:
        return False, None
    return True, analyzer._proved(result).certificate


def enumerate_vertices(
    matrix: CriteriaMatrix,
    tol: Tolerances = DEFAULT_TOLERANCES,
    analyzer: EfficiencyAnalyzer | None = None,
) -> frozenset[int]:
    """1-based indices of the efficient vertices.  Never empty: some vertex
    maximizes any strictly positive weighting, and one always exists that
    certifies at least one vertex."""
    analyzer = analyzer or EfficiencyAnalyzer(matrix, tol)
    columns = range(1, matrix.n + 1)
    if check_full(matrix, tol, analyzer)[0]:
        return frozenset(columns)
    return frozenset(j for j in columns if analyzer.efficient(SupportPattern.trusted((j,))))


def _scan_sizes(n: int, max_support: int | None) -> range:
    cap = n - 1 if max_support is None else min(max_support, n - 1)
    return range(2, cap + 1)


def _listed_supports(n: int, max_support: int | None) -> list[tuple[int, ...]]:
    """Every support of the scanned sizes, by size, then lexicographically.

    Raises ``EnumerationCapError``, before building any, when there are
    more than MAX_LISTED_SUPPORTS of them.
    """
    sizes = _scan_sizes(n, max_support)
    count = sum(math.comb(n, size) for size in sizes)
    if count > MAX_LISTED_SUPPORTS:
        raise EnumerationCapError(
            f"{count} supports to list, more than {MAX_LISTED_SUPPORTS}; limit max_support"
        )
    return [combo for size in sizes for combo in itertools.combinations(range(1, n + 1), size)]


def _candidates(level: list[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """Supports one column larger than those of ``level`` (sorted index
    tuples) whose every one-smaller subset is in ``level``, in
    lexicographic order.

    Each candidate joins the two members that share all but their last
    column; those two are subsets already, so only the subsets that drop
    one of the shared columns need a lookup.
    """
    known = set(level)
    for _, group in itertools.groupby(sorted(level), key=lambda combo: combo[:-1]):
        for a, b in itertools.combinations(group, 2):
            combo = a + b[-1:]
            if all(combo[:i] + combo[i + 1 :] in known for i in range(len(combo) - 2)):
                yield combo


def enumerate_faces(
    matrix: CriteriaMatrix,
    tol: Tolerances = DEFAULT_TOLERANCES,
    max_support: int | None = None,
    analyzer: EfficiencyAnalyzer | None = None,
) -> EfficientStructure:
    """Find the efficient vertices, then the efficient support patterns
    level by level as the module docstring describes.

    max_support limits the scanned support sizes; the result is flagged
    exhaustive only when nothing was cut off.  Raises
    ``EnumerationCapError`` as soon as the faces found pass
    MAX_LISTED_SUPPORTS.
    """
    n = matrix.n
    if max_support is not None and max_support < 2:
        raise InputError("max_support below 2 scans no faces; omit it instead")
    analyzer = analyzer or EfficiencyAnalyzer(matrix, tol)
    sizes = _scan_sizes(n, max_support)
    exhaustive = sizes.stop > n - 1
    vertices = enumerate_vertices(matrix, tol, analyzer)
    if analyzer.t0().certified:
        faces = frozenset(map(SupportPattern.trusted, _listed_supports(n, max_support)))
        return EfficientStructure(True, vertices, faces, exhaustive)
    level = [(j,) for j in sorted(vertices)]
    faces: list[tuple[int, ...]] = []
    for _ in sizes:
        start = len(faces)
        for combo in _candidates(level):
            if analyzer.efficient(SupportPattern.trusted(combo)):
                faces.append(combo)
                if len(faces) > MAX_LISTED_SUPPORTS:
                    raise EnumerationCapError(
                        f"{len(faces)} supports to list so far, more than {MAX_LISTED_SUPPORTS}; "
                        "limit max_support"
                    )
        level = faces[start:]
        if not level:
            break
    return EfficientStructure(
        False, vertices, frozenset(map(SupportPattern.trusted, faces)), exhaustive
    )


def bicriterion_ratios(matrix: CriteriaMatrix) -> np.ndarray:
    """Trade-off ratios (c2[j+1] - c2[j]) / (c1[j] - c1[j+1]) of a
    two-criteria matrix, one per pair of consecutive columns.  The
    consecutive first-criterion entries must be distinct."""
    if matrix.k != 2:
        raise DimensionMismatchError("the ratio test applies to exactly two criteria")
    first, second = matrix.entries[0], matrix.entries[1]
    denominators = first[:-1] - first[1:]
    if (denominators == 0.0).any():
        raise InputError(
            "consecutive first-criterion entries must be distinct for the ratio test"
        )
    return (second[1:] - second[:-1]) / denominators


def bicriterion_full_check(
    matrix: CriteriaMatrix,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """Closed-form sufficient test for two criteria.

    With consecutive first-criterion entries all distinct, every feasible
    point is efficient if the trade-off ratios (``bicriterion_ratios``)
    are all equal and positive.  Equality is relative to the first ratio
    at ``tol.tie``.  This checks sufficiency only: a False still leaves
    the LP-based check_full to decide.
    """
    ratios = bicriterion_ratios(matrix)
    lead = ratios[0]
    if lead <= 0.0:
        return False
    return bool(
        (ratios > 0.0).all() and (abs(ratios - lead) <= tol.tie * abs(lead)).all()
    )
