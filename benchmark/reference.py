"""Correctness reference, run outside the timed region.

Verdicts are checked with a dominance LP of its own, solved by SciPy's HiGHS
on the row-normalized matrix: each row has its mean subtracted and is divided
by its largest absolute value.  On the simplex (entries summing to one) a
positive scaling or a shift of one criterion changes no dominance relation,
so the normalized matrix has the same efficient points as the original,
whatever units its rows were given in.  Certificates are checked with NumPy
on the original matrix.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

#: Largest total improvement, on the normalized matrix, that still counts as
#: none.  Rows are scaled into [-1, 1]; real improvements are far larger.
GAIN_TOL = 1e-7


class ReferenceFailure(RuntimeError):
    """The reference solver itself failed; no verdict can be checked."""


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Subtract each row's mean, then divide by its largest absolute value.
    A constant row (indifferent criterion) becomes zero."""
    shifted = matrix - matrix.mean(axis=1, keepdims=True)
    scale = np.abs(shifted).max(axis=1, keepdims=True)
    return np.divide(shifted, scale, out=np.zeros_like(shifted), where=scale > 0)


def barycenter(n: int, support) -> np.ndarray:
    """Equal mass on the 1-based ``support`` columns."""
    coords = np.zeros(n)
    coords[[j - 1 for j in support]] = 1.0 / len(support)
    return coords


def dominance_gain(normalized: np.ndarray, x: np.ndarray) -> float:
    """Largest total improvement over ``x`` that a point of the simplex can
    give without worsening any criterion: maximize sum(s) subject to
    normalized @ y - s = normalized @ x, sum(y) = 1, y, s >= 0."""
    k, n = normalized.shape
    a_eq = np.zeros((k + 1, n + k))
    a_eq[:k, :n] = normalized
    a_eq[:k, n:] = -np.eye(k)
    a_eq[k, :n] = 1.0
    b_eq = np.append(normalized @ x, 1.0)
    cost = np.zeros(n + k)
    cost[n:] = -1.0
    result = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if result.status != 0:
        raise ReferenceFailure(f"reference LP failed: {result.message}")
    return -result.fun


def efficient(normalized: np.ndarray, support) -> bool:
    """Reference verdict for every point with this 1-based support.  Efficiency
    depends only on the support, so the barycenter stands for all of them."""
    return dominance_gain(normalized, barycenter(normalized.shape[1], support)) <= GAIN_TOL


def verdicts(normalized: np.ndarray, supports) -> dict[tuple[int, ...], bool]:
    """Reference verdicts for sorted 1-based supports, decided smallest first.

    Efficient supports are closed under subsets: a weighting that keeps a
    support at the maximum keeps each of its subsets there.  So a support
    with a dominated subset one column smaller is dominated as well, and only
    the other supports need an LP.
    """
    truth: dict[tuple[int, ...], bool] = {}
    for support in sorted(set(supports), key=len):
        smaller = (support[:i] + support[i + 1 :] for i in range(len(support)))
        if len(support) > 1 and any(truth.get(sub) is False for sub in smaller):
            truth[support] = False
        else:
            truth[support] = efficient(normalized, support)
    return truth


def certificate_ok(matrix: np.ndarray, weights, support) -> bool:
    """The weights must all be positive and the columns of ``support`` must
    all attain the maximum of the weighted objective.  Ties are judged within
    1e-7 plus 1e-9 of the largest term, so rounding never rejects a tie."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (matrix.shape[0],) or not np.isfinite(w).all() or not (w > 0).all():
        return False
    objective = w @ matrix
    tie = 1e-7 + 1e-9 * float((w @ np.abs(matrix)).max())
    tied = objective >= objective.max() - tie
    return bool(tied[[j - 1 for j in support]].all())
