"""End-to-end and per-layer benchmark of paretosimplex.

Run from the root of a checkout:

    python3 benchmark/run.py --workload test_batch --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``test_batch``, ``enumerate``, ``audit``.
One process, one thread, one client in a closed loop; no process is started
per request.  The inputs come from ``--seed``; the program gets only the
generated matrix file and argv, or the generated matrix.

``--trace 0`` sends a fixed number of requests, a whole number of cycles of
the workload's size mix sized to ``--seconds`` on the reference machine, and
reports the end-to-end metrics.  ``--trace 1`` sends a fixed prefix of the
same request stream, each request once with spans at every layer boundary
and once without, so that per-layer counts repeat exactly for a seed; it
reports the per-layer metrics and the tracing overhead.

Every output is checked against an independent reference after its request,
outside the timing (``reference.py``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts operations that raised, exited nonzero or gave an answer the reference
rejects; ``correct`` is false when any answer was wrong, or when tracing
changed an output.  Lines before it give the machine, the workload's
measured properties and the failure breakdown.  The same record, with spans
for traced runs, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

# One thread: keep numerical libraries from starting worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402  (after the thread settings above)

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")

#: Fresh interpreters started to time the import, spread over the run
#: because the machine's speed drifts; the median is reported.
SETUP_SAMPLES = 25
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "start = time.perf_counter()\n"
    "import paretosimplex, paretosimplex.cli\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "points_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The program under test cannot be found or imported."""


def load_program() -> SimpleNamespace:
    """Import paretosimplex from this checkout's ``src`` and nowhere else."""
    if not (SRC / "paretosimplex" / "__init__.py").is_file():
        raise SetupError(f"no paretosimplex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import paretosimplex.cli
    import paretosimplex.core
    import paretosimplex.efficiency
    import paretosimplex.enumeration
    import paretosimplex.lp
    import paretosimplex.oracle

    if Path(paretosimplex.__file__).resolve().parent != SRC / "paretosimplex":
        raise SetupError(f"imported paretosimplex from {paretosimplex.__file__}, not {SRC}")
    return SimpleNamespace(
        cli=paretosimplex.cli,
        core=paretosimplex.core,
        efficiency=paretosimplex.efficiency,
        enumeration=paretosimplex.enumeration,
        lp=paretosimplex.lp,
        oracle=paretosimplex.oracle,
    )


def setup_sample() -> float:
    """Import time of ``paretosimplex`` and ``paretosimplex.cli`` in a fresh
    interpreter, measured inside it."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if done.returncode != 0:
        raise SetupError(f"fresh import failed: {done.stderr.strip()}")
    return float(done.stdout)


def machine(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


@dataclass
class Pass:
    """One sweep of the closed loop.  It keeps per-request latencies and
    output digests, and only totals of everything else, so that its memory
    does not grow with the length of the run."""

    latencies: list[float] = field(default_factory=list)
    digests: list[bytes] = field(default_factory=list)
    output_bytes: int = 0
    points: int = 0
    operations: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    totals: Counter = field(default_factory=Counter)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def correct(self) -> bool:
        """No answer was wrong; refusals to answer only count as failures."""
        return not any(reason.endswith(workloads.WRONG_ANSWERS) for reason in self.failures)


def send(run: Pass, workload, request, lib, tracer=None) -> None:
    """Send one request and record its latency and output digest.  Writing
    the input file beforehand and checking the output against the reference
    afterwards are not timed.  Traced requests are not checked: their
    outputs must match the untraced ones byte for byte."""
    if request.matrix_text is not None:
        Path(workloads.MATRIX_FILE).write_bytes(request.matrix_text)
    execute = workload.execute
    if tracer is not None:
        tracer.request = request.index
        execute = tracer.wrap("request", execute)
    start = time.perf_counter()
    outcome = execute(request, lib)
    run.latencies.append(time.perf_counter() - start)
    run.digests.append(hashlib.sha256(workload.fingerprint(outcome)).digest())
    run.output_bytes += workload.output_bytes(outcome)
    run.points += len(request.supports)
    run.operations += request.operations
    if tracer is None:
        checked = workload.check(request, outcome)
        workloads.resolve(checked)
        run.failed += len(checked.failures)
        run.failures.update(reason for reasons in checked.failures.values() for reason in reasons)
        run.totals.update(workload.tally(checked))


def request_count(workload, seconds: float) -> int:
    """Requests in one end-to-end run: a whole number of the workload's
    size-mix cycles, as many as fill ``seconds`` on the machine that
    ``baseline.json`` records.  The count depends on ``seconds`` alone, never
    on measured time, so a seed gives the same inputs on any machine."""
    return max(1, round(seconds / workload.cycle_seconds)) * workload.cycle


def end_to_end(workload, seed: int, seconds: float, lib) -> tuple[dict, Pass]:
    """Send the run's requests one at a time.  Between requests, take
    set-up samples at even steps of the request count."""
    count = request_count(workload, seconds)
    run, setup = Pass(), []
    for done, request in enumerate(itertools.islice(workload.requests(seed), count)):
        if len(setup) < SETUP_SAMPLES * done // count:
            setup.append(setup_sample())
        send(run, workload, request, lib)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    busy = run.busy
    metrics = {
        "setup_s": statistics.median(setup),
        "requests_per_s": len(run.latencies) / busy,
        "points_per_s": run.points / busy,
        "request_p50_ms": statistics.median(run.latencies) * 1e3,
        "request_p90_ms": percentile(run.latencies, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, run


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def traced(workload, seed: int, lib) -> tuple[dict, Pass, bool, Path]:
    """Send a fixed prefix of the request stream, each request once with
    spans and once without, back to back, so that machine speed drifting
    during the run cancels out of the tracing overhead.  The traced copy goes
    first on even requests and second on odd ones, so that any effect of
    order cancels too."""
    tracer = spans.Tracer()
    plain, run = Pass(), Pass()
    for request in itertools.islice(workload.requests(seed), workload.trace_requests):
        if request.index % 2:
            send(plain, workload, request, lib)
        spans.install(tracer, lib)
        try:
            send(run, workload, request, lib, tracer)
        finally:
            tracer.restore()
        if not request.index % 2:
            send(plain, workload, request, lib)
    metrics = spans.layer_metrics(tracer, run.output_bytes, run.points)
    metrics["trace.overhead_share"] = run.busy / plain.busy - 1.0
    trace_path = OUT / "spans" / f"{workload.name}-seed{seed}.jsonl"
    tracer.write(trace_path)
    return metrics, plain, plain.digests == run.digests, trace_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    os.chdir(ROOT)
    try:
        lib = load_program()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload.name, "trace": args.trace, "machine": machine(args.seed)}
    if args.trace:
        metrics, run, unchanged, trace_path = traced(workload, args.seed, lib)
        units = spans.LAYER_METRICS
        record["spans"] = str(trace_path)
    else:
        metrics, run = end_to_end(workload, args.seed, args.seconds, lib)
        units = END_TO_END
        unchanged = True
    attempted = run.operations
    if not args.trace:
        metrics["ok_share"] = 1.0 - run.failed / attempted
    breakdown = dict(sorted(run.failures.items()))
    record.update(
        requests=len(run.latencies),
        properties=workload.properties(run.totals),
        failures=breakdown,
        tracing_changed_outputs=not unchanged,
        latencies_s=run.latencies,
    )
    result = {
        "correct": run.correct and unchanged,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print("machine: " + " ".join(f"{k}={v}" for k, v in record["machine"].items()))
    print(
        f"workload: {workload.name} requests={record['requests']} operations={attempted} "
        + " ".join(f"{k}={v:.4f}" for k, v in record["properties"].items())
    )
    print("failures: " + (", ".join(f"{k}={v}" for k, v in breakdown.items()) or "none"))
    if not unchanged:
        print("tracing changed the program's output")
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
