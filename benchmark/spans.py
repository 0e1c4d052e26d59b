"""Spans for the traced benchmark run, and the per-layer metrics drawn from them.

A span is one call across a layer boundary: ``[name, start, end, parent,
request]``, where ``parent`` is the index of the enclosing span (-1 for a
request root) and ``request`` is the request the call belongs to.  The first
dotted part of a name is the layer (``cli``, ``core``, ``scalarize``,
``efficiency``, ``lp``, ``enumeration``, ``oracle``); the harness records its
own per-request root span under the name ``request``.

Spans are recorded by wrapping the names that callers look up, for example
``paretosimplex.efficiency.solve`` and ``paretosimplex.oracle.solve``
separately, so that solves split by caller.  Nothing under ``src/`` changes,
and the untraced run installs no wrapper at all.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

KINDS = ("T0", "T1", "T2", "closure")

#: Every per-layer metric with its unit, in the order the traced run prints them.
LAYER_METRICS = {
    "cli.self_s": "s",
    "cli.self_share": "ratio",
    "cli.output_bytes_per_point": "B/point",
    "core.simplexpoint.calls": "count",
    "core.classify.calls": "count",
    "core.self_s": "s",
    "scalarize.argmax_set.calls": "count",
    "scalarize.self_s": "s",
    "efficiency.decide.calls": "count",
    "efficiency.lookups": "count",
    **{f"efficiency.programs_built.{kind}": "count" for kind in KINDS},
    "efficiency.cache_hit_ratio": "ratio",
    "efficiency.build.self_s": "s",
    "efficiency.self_s": "s",
    "efficiency.closure_fallback_share": "ratio",
    "lp.solves.certificate": "count",
    "lp.solves.oracle": "count",
    "lp.solve.self_s": "s",
    "lp.solve_us_p50": "us",
    "lp.pivots_per_solve": "count",
    "lp.rows_per_solve": "count",
    "lp.vars_per_solve": "count",
    "lp.errors": "count",
    "enumeration.supports_tested": "count",
    "enumeration.efficient_supports": "count",
    "enumeration.useful_ratio": "ratio",
    "enumeration.self_s": "s",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "oracle.solve_s": "s",
    "trace.overhead_share": "ratio",
}


class Tracer:
    """Records spans in memory while its patches are installed.

    Single-threaded by design: the benchmark runs one client in one thread,
    so a plain stack gives every span its parent.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.extra: dict[int, dict] = {}
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, annotate=None):
        """Return ``fn`` wrapped in a span called ``name``.  ``annotate(args,
        result, error)`` may return a dict stored with the span; it runs after
        the span's end time is taken."""
        spans, stack, extra = self.spans, self._stack, self.extra
        clock = time.perf_counter

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as error:
                span[2] = clock()
                stack.pop()
                if annotate is not None:
                    extra[index] = annotate(args, None, error)
                raise
            span[2] = clock()
            stack.pop()
            if annotate is not None:
                extra[index] = annotate(args, result, None)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until ``restore``."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, annotate))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write one JSON line per span: name, start, end, parent, request,
        plus any annotation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                record = {"name": name, "start": start, "end": end, "parent": parent, "request": request}
                record.update(self.extra.get(index, {}))
                out.write(json.dumps(record) + "\n")


def install(tracer: Tracer, lib) -> None:
    """Wrap the public names each layer's callers look up.  ``lib`` holds the
    ``paretosimplex`` modules by their short names."""
    cli, core, efficiency, enumeration, oracle = (
        lib.cli, lib.core, lib.efficiency, lib.enumeration, lib.oracle
    )
    analyzer = efficiency.EfficiencyAnalyzer

    def lp_annotation(caller):
        def annotate(args, result, error):
            program = args[0]
            info = {"caller": caller, "rows": program.num_rows, "vars": program.num_vars}
            if error is not None:
                info["error"] = type(error).__name__
            else:
                info["pivots"] = result.iterations
            return info

        return annotate

    def enumeration_annotation(args, result, error):
        if error is not None or result.full:
            return {"efficient": 0}
        return {"efficient": len(result.vertices) + len(result.faces)}

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "SimplexPoint", "core.SimplexPoint")
    tracer.patch(cli, "CriteriaMatrix", "core.CriteriaMatrix")
    tracer.patch(cli, "enumerate_faces", "enumeration.enumerate_faces", enumeration_annotation)
    tracer.patch(core, "SimplexPoint", "core.SimplexPoint")
    tracer.patch(core, "CriteriaMatrix", "core.CriteriaMatrix")
    tracer.patch(efficiency, "classify", "core.classify")
    tracer.patch(efficiency, "clamped_indices", "core.clamped_indices")
    tracer.patch(efficiency, "argmax_set", "scalarize.argmax_set")
    tracer.patch(efficiency, "weighted_objective", "scalarize.weighted_objective")
    for method in ("decide", "certificate_from", "t0", "t1", "t2", "closure"):
        tracer.patch(analyzer, method, f"efficiency.{method}")
    for kind in KINDS:
        tracer.patch(efficiency, f"build_{kind.lower()}", f"efficiency.build.{kind}")
    tracer.patch(efficiency, "solve", "lp.solve", lp_annotation("certificate"))
    tracer.patch(oracle, "solve", "lp.solve", lp_annotation("oracle"))
    tracer.patch(enumeration, "check_full", "enumeration.check_full")
    tracer.patch(enumeration, "enumerate_vertices", "enumeration.enumerate_vertices")
    tracer.patch(oracle, "dominance_lp_verdict", "oracle.dominance_lp_verdict")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Spans nest through one stack in one thread, so children never overlap."""
    result = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def _ratio(part: float, whole: float) -> float:
    """part / whole, or 0 where the workload never reaches the layer."""
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, output_bytes: int, points: int) -> dict[str, float]:
    """Per-layer numbers from the recorded spans (``trace.overhead_share`` is
    left to the caller, which owns the untraced timing)."""
    spans, extra = tracer.spans, tracer.extra
    own = self_times(spans)
    count: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    build_self = 0.0
    request_time = 0.0
    solves = []
    supports_tested = 0
    efficient_supports = 0
    oracle_solve_s = 0.0
    for index, (name, start, end, parent, _) in enumerate(spans):
        count[name] += 1
        layer = name.split(".", 1)[0]
        if name.startswith("efficiency.build."):
            build_self += own[index]
        else:
            layer_self[layer] += own[index]
        if parent < 0:
            request_time += end - start
        if name == "lp.solve":
            info = extra[index]
            solves.append((end - start, info))
            if info["caller"] == "oracle":
                oracle_solve_s += end - start
        elif name in ("efficiency.t1", "efficiency.t2") and parent >= 0:
            if spans[parent][0].startswith("enumeration."):
                supports_tested += 1
        elif name == "enumeration.enumerate_faces":
            efficient_supports += extra[index]["efficient"]

    built = {kind: count[f"efficiency.build.{kind}"] for kind in KINDS}
    lookups = sum(count[f"efficiency.{kind.lower()}"] for kind in KINDS)
    solved = [info for _, info in solves if "pivots" in info]
    metrics = {
        "cli.self_s": layer_self["cli"],
        "cli.self_share": _ratio(layer_self["cli"], request_time),
        "cli.output_bytes_per_point": _ratio(output_bytes, points),
        "core.simplexpoint.calls": count["core.SimplexPoint"],
        "core.classify.calls": count["core.classify"],
        "core.self_s": layer_self["core"],
        "scalarize.argmax_set.calls": count["scalarize.argmax_set"],
        "scalarize.self_s": layer_self["scalarize"],
        "efficiency.decide.calls": count["efficiency.decide"],
        "efficiency.lookups": lookups,
        **{f"efficiency.programs_built.{kind}": built[kind] for kind in KINDS},
        "efficiency.cache_hit_ratio": 1.0 - _ratio(sum(built.values()), lookups) if lookups else 0.0,
        "efficiency.build.self_s": build_self,
        "efficiency.self_s": layer_self["efficiency"],
        "efficiency.closure_fallback_share": _ratio(built["closure"], built["T1"] + built["T2"]),
        "lp.solves.certificate": sum(1 for _, info in solves if info["caller"] == "certificate"),
        "lp.solves.oracle": sum(1 for _, info in solves if info["caller"] == "oracle"),
        "lp.solve.self_s": layer_self["lp"],
        "lp.solve_us_p50": statistics.median(d for d, _ in solves) * 1e6 if solves else 0.0,
        "lp.pivots_per_solve": _ratio(sum(info["pivots"] for info in solved), len(solved)),
        "lp.rows_per_solve": _ratio(sum(info["rows"] for _, info in solves), len(solves)),
        "lp.vars_per_solve": _ratio(sum(info["vars"] for _, info in solves), len(solves)),
        "lp.errors": sum(1 for _, info in solves if "error" in info),
        "enumeration.supports_tested": supports_tested,
        "enumeration.efficient_supports": efficient_supports,
        "enumeration.useful_ratio": _ratio(efficient_supports, supports_tested),
        "enumeration.self_s": layer_self["enumeration"],
        "oracle.calls": count["oracle.dominance_lp_verdict"],
        "oracle.self_s": layer_self["oracle"],
        "oracle.solve_s": oracle_solve_s,
    }
    return metrics
