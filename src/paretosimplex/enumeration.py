"""Structure of the efficient set: vertices and open faces.

Because efficiency depends only on a point's support, the efficient set
is a union of open faces and the whole structure is finite: one verdict
per support pattern.  ``check_full``, ``enumerate_vertices`` and
``enumerate_faces`` take an ``EfficiencyAnalyzer``, which holds the
matrix and tolerances, and every program they solve and face they keep
stays on it for later calls.  Each support is decided by the analyzer's
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
list more than MAX_LISTED_SUPPORTS is refused.  For two criteria,
``bicheck`` is a closed-form sufficient test for a full matrix: the
trade-off ratios of consecutive columns, from exact steps, all equal and
positive.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .core import (
    DEFAULT_TOLERANCES,
    CriteriaMatrix,
    DimensionMismatchError,
    InputError,
    Randomized,
    SupportPattern,
    Tolerances,
    Verdict,
)
from .efficiency import EfficiencyAnalyzer
from .scalarize import WeightVector

__all__ = [
    "MAX_LISTED_SUPPORTS",
    "EfficientStructure",
    "EnumerationCapError",
    "bicheck",
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


def check_full(analyzer: EfficiencyAnalyzer) -> tuple[bool, WeightVector | None]:
    """Decide whether every feasible point is efficient.

    True comes with a verified certificate: strictly positive weights
    under which every column ties.  A certificate that fails the check
    raises ``LpError``, as in ``decide``.
    """
    report = analyzer.report(Randomized())
    return report.verdict is Verdict.EFFICIENT, report.certificate


def enumerate_vertices(analyzer: EfficiencyAnalyzer) -> frozenset[int]:
    """1-based indices of the efficient vertices.  Never empty: some vertex
    maximizes any strictly positive weighting, and one always exists that
    certifies at least one vertex."""
    columns = range(1, analyzer.matrix.n + 1)
    if check_full(analyzer)[0]:
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
    analyzer: EfficiencyAnalyzer, max_support: int | None = None
) -> EfficientStructure:
    """Find the efficient vertices, then the efficient support patterns
    level by level as the module docstring describes.

    max_support limits the scanned support sizes; the result is flagged
    exhaustive only when nothing was cut off.  Raises
    ``EnumerationCapError`` as soon as the faces found pass
    MAX_LISTED_SUPPORTS.
    """
    n = analyzer.matrix.n
    if max_support is not None and max_support < 2:
        raise InputError("max_support below 2 scans no faces; omit it instead")
    sizes = _scan_sizes(n, max_support)
    exhaustive = sizes.stop > n - 1
    vertices = enumerate_vertices(analyzer)
    if check_full(analyzer)[0]:
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


def bicheck(
    matrix: CriteriaMatrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[bool, list[float | None]]:
    """Closed-form sufficient test for two criteria, and its trade-off
    ratios, in one pass over exact steps, which never overflow.

    The ratios (c2[j+1] - c2[j]) / (c1[j] - c1[j+1]), one per pair of
    consecutive columns, are exact quotients rounded once, or None where
    the first-criterion entries repeat; a ratio past the float range
    raises InputError.  full is True when the ratios are all positive and
    equal to the first within ``tol.tie``, relative to the first.  A pair
    of equal columns gives no ratio and is skipped; a pair whose
    first-criterion entries repeat and whose second ones differ has one
    column dominating the other, so full is False.  This checks
    sufficiency only: a False still leaves ``check_full`` to decide.
    """
    # Imported here: only bicheck needs it, and it adds about 3 ms to start-up.
    from fractions import Fraction

    if matrix.k != 2:
        raise DimensionMismatchError("the ratio test applies to exactly two criteria")
    first, second = ([Fraction(v) for v in row] for row in matrix.entries.tolist())
    ratios: list[float | None] = []
    dominated = False
    for j in range(1, matrix.n):
        run, rise = first[j - 1] - first[j], second[j] - second[j - 1]
        dominated |= run == 0 and rise != 0
        try:
            ratios.append(float(rise / run) if run else None)
        except OverflowError:
            raise InputError(f"the trade-off ratio of columns {j} and {j + 1} exceeds the float range") from None
    defined = [r for r in ratios if r is not None]
    # all() tests the lead first, so the later terms compare with a positive lead.
    full = not dominated and all(r > 0.0 and abs(r - defined[0]) <= tol.tie * defined[0] for r in defined)
    return full, ratios
