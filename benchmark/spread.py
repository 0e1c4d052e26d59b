"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmark/spread.py --seeds 1-10 [--seeds 11-20] [--traced] [--out FILE]

Runs ``run.py --trace 0`` once per workload and seed, one run at a time, with
``run_seconds`` from ``BENCHMARK.json``; with ``--traced``, also one
``--trace 1`` run per workload on the first seed, for its per-layer numbers.
For each set of seeds it reports, per
metric, the median and the quartiles (``statistics.quantiles(values, n=4)``)
and the spread: the distance between the quartiles as a share of the median.
With two sets it also reports how much worse the second median is than the
first, as a share of the first.  Both are compared with the metric's bound.
Each run's wall time, set-up and checks included, is kept as ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One benchmark run; returns the record it wrote (machine, workload
    properties, failure breakdown and the printed result)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    record_path = ROOT / ".bench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text())
    record.pop("latencies_s")
    record["wall_s"] = time.perf_counter() - start
    if record["result"] != json.loads(done.stdout.strip().splitlines()[-1]):
        raise RuntimeError(f"{record_path} does not match the printed result")
    return record


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def worse_share(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", action="append", required=True, help="seed range such as 1-10; give twice to compare two sets")
    parser.add_argument("--traced", action="store_true", help="also make one traced run per workload")
    parser.add_argument("--out", default=None, help="write the summary as JSON to this file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        sets = []
        for seeds in args.seeds:
            records = [run_once(workload, seed, spec["run_seconds"]) for seed in seed_range(seeds)]
            results = [r["result"] for r in records]
            summary.setdefault("machine", {k: v for k, v in records[0]["machine"].items() if k != "seed"})
            metrics = {
                name: summarize([r["metrics"][name]["value"] for r in results]) for name in bounds
            }
            sets.append({
                "seeds": seeds,
                "correct": all(r["correct"] for r in results),
                "attempted": [r["attempted"] for r in results],
                "failed": [r["failed"] for r in results],
                "failures": [r["failures"] for r in records],
                "properties": [r["properties"] for r in records],
                "wall_s": [r["wall_s"] for r in records],
                "metrics": metrics,
            })
        for index, entry in enumerate(sets):
            print(f"{workload} seeds {entry['seeds']} correct={entry['correct']} failed={entry['failed']} "
                  f"wall {sum(entry['wall_s']):.0f} s")
            for name, stats in entry["metrics"].items():
                bound = bounds[name]["bound"]
                line = f"  {name:<16} median {stats['median']:<12.6g} spread {stats['spread']:.4f} (bound {bound}, third {bound / 3:.4f})"
                if index:
                    worse = worse_share(sets[0]["metrics"][name]["median"], stats["median"], bounds[name]["better"])
                    stats["worse_than_first"] = worse
                    line += f" worse-than-first {worse:+.4f}"
                print(line, flush=True)
        summary["workloads"][workload] = {"sets": sets}
        if args.traced:
            seed = seed_range(args.seeds[0])[0]
            record = run_once(workload, seed, spec["run_seconds"], trace=1)
            summary["workloads"][workload]["traced"] = {
                "seed": seed,
                "correct": record["result"]["correct"],
                "properties": record["properties"],
                "metrics": {k: v["value"] for k, v in record["result"]["metrics"].items()},
            }
        if args.out:
            Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
