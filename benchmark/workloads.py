"""The three workloads: seeded input streams, the timed call, and the checks.

Every workload is a closed loop with one client: the next request is sent
only after the previous one returned, because callers of the CLI and of the
library wait for each reply.  Inputs come from ``numpy.random.default_rng``
seeded with the benchmark seed and a per-workload salt, so the same seed gives
the same stream of requests.  The program receives only the generated matrix
file and argv (``test_batch``, ``enumerate``) or the generated matrix
(``audit``).

An operation is a point given to ``test``, a whole ``enumerate`` scan, or one
point of the ``audit`` sweep.  A failed request fails all its operations.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

import reference

MATRIX_FILE = ".bench_out/matrix.json"


@dataclass
class Request:
    index: int
    matrix: np.ndarray
    supports: list[tuple[int, ...]]
    operations: int
    argv: list[str] | None = None
    matrix_text: bytes | None = None
    points: list[np.ndarray] | None = None
    rescaled: bool = False


@dataclass
class Checked:
    """What a request's output claims, pending the reference.

    ``claims`` maps a support to (operation, source, claims-efficient)
    triples; ``failures`` maps a failed operation to its reasons.
    """

    request: Request
    claims: dict[tuple[int, ...], list[tuple[int, str, bool]]] = field(default_factory=dict)
    failures: dict[int, set[str]] = field(default_factory=dict)

    def claim(self, op: int, support: tuple[int, ...], source: str, efficient: bool) -> None:
        self.claims.setdefault(support, []).append((op, source, efficient))

    def fail(self, op: int, reason: str) -> None:
        self.failures.setdefault(op, set()).add(reason)

    def fail_all(self, reason: str) -> None:
        for op in range(self.request.operations):
            self.fail(op, reason)


#: Failure reasons that mean a wrong answer rather than a refusal to answer.
WRONG_ANSWERS = ("verdict", "certificate", "report")


def resolve(checked: Checked) -> None:
    """Compare every claim with the reference verdict for its support."""
    normalized = reference.normalize_rows(checked.request.matrix)
    truth = reference.verdicts(normalized, checked.claims)
    for support, claims in checked.claims.items():
        for op, source, efficient in claims:
            if efficient != truth[support]:
                checked.fail(op, f"{source} verdict")


def all_supports(n: int) -> list[tuple[int, ...]]:
    """Every nonempty support pattern, by size, then lexicographically."""
    return [
        combo for size in range(1, n + 1) for combo in itertools.combinations(range(1, n + 1), size)
    ]


def matrix_json(matrix: np.ndarray) -> bytes:
    k, n = matrix.shape
    rows = [[int(v) for v in row] for row in matrix]
    return json.dumps({"k": k, "n": n, "C": rows}).encode()


def run_cli(argv: list[str], lib) -> tuple[int | None, str, str]:
    """One in-process CLI call with stdout and stderr captured.  An exception
    escaping ``main`` is a crash: exit code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except Exception as exc:  # the harness keeps running and counts it
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
    return code, out.getvalue(), err.getvalue()


class CliWorkload:
    """A workload whose request is one in-process CLI call."""

    def execute(self, request: Request, lib):
        return run_cli(request.argv, lib)

    def fingerprint(self, outcome) -> bytes:
        code, out, _ = outcome
        return f"{code}\n{out}".encode()

    def output_bytes(self, outcome) -> int:
        return len(outcome[1].encode())


class TestBatch(CliWorkload):
    """``paretosimplex test MATRIX --json POINT...`` on a fresh integer matrix,
    every (k, n) with k in 2..6 and n in 4..10 in turn, with 200..400 points
    drawn from a pool of 3 or 4 supports: one vertex, the full support
    (all-positive points) and one or two partial supports.  The analyzer's
    per-support cache is warm after the first few points, so parsing,
    classification, certificate re-verification and the report do most of
    the work."""

    name = "test_batch"
    salt = 1
    shapes = [(k, n) for k in range(2, 7) for n in range(4, 11)]
    cycle = len(shapes)
    #: Summed latency of one cycle on the reference machine (see README).
    cycle_seconds = 1.25
    trace_requests = 50

    def requests(self, seed: int):
        rng = np.random.default_rng([seed, self.salt])
        for index in itertools.count():
            k, n = self.shapes[index % self.cycle]
            matrix = rng.integers(-9, 10, size=(k, n)).astype(float)
            pool = [(int(rng.integers(1, n + 1)),), tuple(range(1, n + 1))]
            while len(pool) < 2 + int(rng.integers(1, 3)):
                size = int(rng.integers(2, n))
                partial = tuple(sorted(int(j) + 1 for j in rng.choice(n, size, replace=False)))
                if partial not in pool:
                    pool.append(partial)
            count = int(rng.integers(200, 401))
            picks = rng.integers(len(pool), size=count)
            masks = np.zeros((len(pool), n), dtype=bool)
            for mask, support in zip(masks, pool):
                mask[[j - 1 for j in support]] = True
            masses = rng.integers(1, 10, size=(count, n)) * masks[picks]
            coords = masses / masses.sum(axis=1, keepdims=True)
            literal = ",".join(["%.17g"] * n)
            supports = [pool[pick] for pick in picks]
            literals = [literal % tuple(point) for point in coords.tolist()]
            yield Request(
                index,
                matrix,
                supports,
                len(supports),
                argv=["test", MATRIX_FILE, "--json", *literals],
                matrix_text=matrix_json(matrix),
            )

    def check(self, request: Request, outcome) -> Checked:
        checked = Checked(request)
        code, out, _ = outcome
        if code != 0:
            checked.fail_all("crash" if code is None else f"exit {code}")
            return checked
        lines = out.splitlines()
        if len(lines) != len(request.supports):
            checked.fail_all("report")
            return checked
        # Points of one support share their certificate while the cache is
        # warm, so each (support, certificate) pair is checked once.
        certified: dict[tuple, bool] = {}
        for op, (support, line) in enumerate(zip(request.supports, lines)):
            try:
                report = json.loads(line)
                efficient = report["verdict"] == "efficient"
                if report["support"] != list(support):
                    raise ValueError("support")
                if efficient:
                    if not set(support) <= set(report["face"]["support"]):
                        raise ValueError("face")
                    key = (support, tuple(report["certificate"]))
                    if key not in certified:
                        certified[key] = reference.certificate_ok(request.matrix, report["certificate"], support)
                    if not certified[key]:
                        checked.fail(op, "certificate")
                elif report["verdict"] != "dominated" or report["certificate"] is not None or report["face"] is not None:
                    raise ValueError("dominated report")
            except (ValueError, KeyError, TypeError):
                checked.fail(op, "report")
                continue
            checked.claim(op, support, "test", efficient)
        return checked

    def tally(self, checked: Checked) -> dict[str, int]:
        supports = checked.request.supports
        return {"points": len(supports), "repeats": len(supports) - len(set(supports))}

    def properties(self, totals) -> dict[str, float]:
        """Share of points whose support repeats within their request."""
        return {"support_repeat_share": totals["repeats"] / totals["points"]}


class Enumerate(CliWorkload):
    """``paretosimplex enumerate MATRIX --json`` on a fresh integer matrix;
    ``lp.solve`` and the ``build_*`` functions do almost all the work.  The
    scan is one operation: it gives one answer, the efficient set, and a
    failed scan counts once whatever its number of support patterns."""

    name = "enumerate"
    salt = 2
    #: (n, k) of successive requests: n from 6 to 9 and k from 2 to 6, so
    #: runs made of whole cycles always hold the same mix of sizes, from few
    #: efficient faces to many.  Latency roughly doubles with each column, so
    #: the cycle holds 8 scans with n = 6, 8 with n = 7, 3 with n = 8 and one
    #: with n = 9.  The median then falls inside the n = 7 scans and p90
    #: inside the n = 8 ones, not in a gap between sizes, and a run holds
    #: many scans of each, so neither moves much with the seed.  p90 is the
    #: sixth of a run's nine n = 8 scans, so these keep k near 4: with k 2, 4
    #: and 6 it fell between the k = 4 and k = 6 scans and moved with the draw.
    shapes = (
        (6, 2), (7, 3), (8, 4), (6, 5), (7, 6), (6, 3), (7, 4), (9, 3), (6, 6), (7, 2),
        (6, 4), (7, 5), (8, 3), (6, 2), (7, 3), (6, 4), (8, 4), (7, 5), (6, 6), (7, 4),
    )
    cycle = len(shapes)
    cycle_seconds = 7.0
    trace_requests = 20

    def requests(self, seed: int):
        rng = np.random.default_rng([seed, self.salt])
        for index in itertools.count():
            n, k = self.shapes[index % self.cycle]
            matrix = rng.integers(-9, 10, size=(k, n)).astype(float)
            yield Request(
                index,
                matrix,
                all_supports(n),
                1,
                argv=["enumerate", MATRIX_FILE, "--json"],
                matrix_text=matrix_json(matrix),
            )

    def check(self, request: Request, outcome) -> Checked:
        checked = Checked(request)
        code, out, _ = outcome
        if code != 0:
            checked.fail_all("crash" if code is None else f"exit {code}")
            return checked
        n = request.matrix.shape[1]
        try:
            payload = json.loads(out)
            full = payload["full"] is True
            vertices = set(payload["vertices"])
            faces = {tuple(face) for face in payload["faces"]}
            if payload["exhaustive"] is not True or payload["warning"] is not None:
                raise ValueError("not an exhaustive scan")
        except (ValueError, KeyError, TypeError):
            checked.fail_all("report")
            return checked
        for support in request.supports:
            if full or len(support) == n:
                efficient = full
            elif len(support) == 1:
                efficient = support[0] in vertices
            else:
                efficient = support in faces
            checked.claim(0, support, "enumerate", efficient)
        return checked

    def tally(self, checked: Checked) -> dict[str, int]:
        n = checked.request.matrix.shape[1]
        tested = [claims[0][2] for support, claims in checked.claims.items() if len(support) < n]
        return {"tested": len(tested), "efficient": sum(tested)}

    def properties(self, totals) -> dict[str, float]:
        """Efficient supports over supports tested, as the program reported
        them (the full support is decided by T0 alone)."""
        return {"useful_ratio": totals["efficient"] / totals["tested"] if totals["tested"] else 0.0}


class Audit:
    """Acceptance criterion 4 as a workload: for a random integer instance of
    every (k, n) with k and n in 2..6 in turn, a fresh ``EfficiencyAnalyzer``
    decides every vertex and support barycenter, and ``dominance_lp_verdict``
    judges the same point.  Every second instance has each row multiplied by
    a log-uniform factor in 10^[-3, 3], which exposes the solver's dependence
    on units; with 25 shapes, a cycle of 50 has each shape once plain and once
    rescaled."""

    name = "audit"
    salt = 3
    shapes = [(k, n) for k in range(2, 7) for n in range(2, 7)]
    cycle = 2 * len(shapes)
    cycle_seconds = 3.3
    trace_requests = 50

    def requests(self, seed: int):
        rng = np.random.default_rng([seed, self.salt])
        for index in itertools.count():
            k, n = self.shapes[index % len(self.shapes)]
            matrix = rng.integers(-9, 10, size=(k, n)).astype(float)
            rescaled = index % 2 == 1
            if rescaled:
                matrix *= 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1))
            supports = all_supports(n)
            points = [reference.barycenter(n, support) for support in supports]
            yield Request(index, matrix, supports, len(supports), points=points, rescaled=rescaled)

    def execute(self, request: Request, lib):
        matrix = lib.core.CriteriaMatrix(request.matrix)
        analyzer = lib.efficiency.EfficiencyAnalyzer(matrix)
        results = []
        for coords in request.points:
            x = lib.core.SimplexPoint(coords)
            # A point that raises is counted as failed and the sweep goes on.
            try:
                report = analyzer.decide(x)
            except Exception as exc:
                report = exc
            try:
                verdict = lib.oracle.dominance_lp_verdict(matrix, x)
            except Exception as exc:
                verdict = exc
            results.append((report, verdict))
        return results

    def fingerprint(self, outcome) -> bytes:
        parts = []
        for report, verdict in outcome:
            if isinstance(report, Exception):
                parts.append(type(report).__name__)
            else:
                weights = None if report.certificate is None else report.certificate.weights.tolist()
                parts.append(f"{report.verdict.value} {report.test.value} {weights}")
            parts.append(type(verdict).__name__ if isinstance(verdict, Exception) else verdict.value)
        return "\n".join(parts).encode()

    def output_bytes(self, outcome) -> int:
        return 0

    def check(self, request: Request, outcome) -> Checked:
        checked = Checked(request)
        for op, (support, (report, verdict)) in enumerate(zip(request.supports, outcome)):
            if isinstance(report, Exception):
                checked.fail(op, f"decide error: {type(report).__name__}")
            else:
                efficient = report.verdict.value == "efficient"
                if efficient and not reference.certificate_ok(
                    request.matrix, report.certificate.weights, support
                ):
                    checked.fail(op, "certificate")
                checked.claim(op, support, "decide", efficient)
            if isinstance(verdict, Exception):
                checked.fail(op, f"oracle error: {type(verdict).__name__}")
            else:
                checked.claim(op, support, "oracle", verdict.value == "efficient")
        return checked

    def tally(self, checked: Checked) -> dict[str, int]:
        return {"instances": 1, "rescaled": int(checked.request.rescaled)}

    def properties(self, totals) -> dict[str, float]:
        return {"rescaled_share": totals["rescaled"] / totals["instances"]}


WORKLOADS = {w.name: w for w in (TestBatch(), Enumerate(), Audit())}
