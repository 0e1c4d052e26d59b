"""Tests of the benchmark itself: ``python3 -m pytest benchmark``."""

import itertools
import json
from pathlib import Path

import pytest

import reference
import run
import spans
import workloads


@pytest.fixture(scope="module")
def lib():
    return run.load_program()


def _inputs(workload, seed, count):
    return [
        (r.matrix.tobytes(), r.matrix_text, r.argv, r.supports, r.rescaled, r.points and [p.tobytes() for p in r.points])
        for r in itertools.islice(workload.requests(seed), count)
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = workloads.WORKLOADS[name]
    assert _inputs(workload, 5, 12) == _inputs(workload, 5, 12)
    assert _inputs(workload, 5, 12) != _inputs(workload, 6, 12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_request_count_is_whole_cycles_set_by_seconds(name):
    workload = workloads.WORKLOADS[name]
    assert run.request_count(workload, 20) % workload.cycle == 0
    assert run.request_count(workload, 1) == workload.cycle


def test_self_times_on_hand_built_tree():
    # request [0, 10] holds cli [1, 9], which holds core [2, 3] and
    # efficiency [4, 8]; efficiency holds lp [5, 7].  A second request
    # [10, 12] has no children.
    tree = [
        ["request", 0.0, 10.0, -1, 0],
        ["cli.main", 1.0, 9.0, 0, 0],
        ["core.classify", 2.0, 3.0, 1, 0],
        ["efficiency.decide", 4.0, 8.0, 1, 0],
        ["lp.solve", 5.0, 7.0, 3, 0],
        ["request", 10.0, 12.0, -1, 1],
    ]
    assert spans.self_times(tree) == [2.0, 3.0, 1.0, 2.0, 2.0, 2.0]


def test_layer_metrics_from_traced_calls(lib, tmp_path):
    request = next(workloads.WORKLOADS["test_batch"].requests(3))
    tracer = spans.Tracer()
    spans.install(tracer, lib)
    try:
        code, out, _ = workloads.run_cli(_argv_in(request, tmp_path), lib)
    finally:
        tracer.restore()
    assert code == 0
    assert lib.cli.main.__name__ == "main" and not hasattr(lib.cli.main, "__wrapped__")
    metrics = spans.layer_metrics(tracer, len(out), len(request.supports))
    points = len(request.supports)
    assert metrics["core.simplexpoint.calls"] == points
    assert metrics["efficiency.decide.calls"] == points
    built = sum(metrics[f"efficiency.programs_built.{kind}"] for kind in spans.KINDS)
    assert metrics["lp.solves.certificate"] == built
    assert metrics["lp.solves.oracle"] == 0
    assert metrics["efficiency.cache_hit_ratio"] == 1 - built / metrics["efficiency.lookups"]
    assert 0 < metrics["cli.self_share"] < 1


def _argv_in(request, tmp_path):
    path = tmp_path / "matrix.json"
    path.write_bytes(request.matrix_text)
    return [request.argv[0], str(path), *request.argv[2:]]


def _efficient_request(lib, tmp_path):
    """The first test_batch request, checked, whose output has an efficient
    point, with that point's index."""
    workload = workloads.WORKLOADS["test_batch"]
    for request in workload.requests(11):
        outcome = workloads.run_cli(_argv_in(request, tmp_path), lib)
        lines = outcome[1].splitlines()
        for op, line in enumerate(lines):
            if json.loads(line)["verdict"] == "efficient":
                return workload, request, outcome, op
    raise AssertionError("unreachable: the stream is endless")


def _failures(workload, request, outcome):
    checked = workload.check(request, outcome)
    workloads.resolve(checked)
    return checked.failures


def test_reference_accepts_the_program_output(lib, tmp_path):
    workload, request, outcome, _ = _efficient_request(lib, tmp_path)
    assert _failures(workload, request, outcome) == {}


def test_reference_flags_an_injected_wrong_verdict(lib, tmp_path):
    workload, request, (code, out, err), op = _efficient_request(lib, tmp_path)
    lines = out.splitlines()
    report = json.loads(lines[op])
    report.update(verdict="dominated", certificate=None, face=None)
    lines[op] = json.dumps(report)
    failures = _failures(workload, request, (code, "\n".join(lines) + "\n", err))
    assert failures == {op: {"test verdict"}}
    assert "verdict".endswith(workloads.WRONG_ANSWERS)


def test_reference_rejects_a_certificate_that_misses_the_support(lib, tmp_path):
    workload, request, (code, out, err), op = _efficient_request(lib, tmp_path)
    lines = out.splitlines()
    report = json.loads(lines[op])
    report["certificate"] = [-1.0] * len(report["certificate"])
    lines[op] = json.dumps(report)
    failures = _failures(workload, request, (code, "\n".join(lines) + "\n", err))
    assert failures == {op: {"certificate"}}


def test_reference_flags_a_missing_enumerated_vertex(lib, tmp_path):
    workload = workloads.WORKLOADS["enumerate"]
    request = next(workload.requests(1))
    code, out, err = workloads.run_cli(_argv_in(request, tmp_path), lib)
    assert _failures(workload, request, (code, out, err)) == {}
    payload = json.loads(out)
    dropped = payload["vertices"].pop()
    failures = _failures(workload, request, (code, json.dumps(payload), err))
    assert failures == {0: {"enumerate verdict"}}


@pytest.mark.parametrize("name, operations", [("test_batch", "points"), ("enumerate", "one")])
def test_failed_request_fails_every_operation(name, operations):
    workload = workloads.WORKLOADS[name]
    request = next(workload.requests(2))
    checked = workload.check(request, (4, "", "error: breakdown"))
    assert len(checked.failures) == (len(request.supports) if operations == "points" else 1)


def test_normalization_keeps_reference_verdicts():
    matrix = next(workloads.WORKLOADS["audit"].requests(4)).matrix
    scaled = matrix * [[1e-3]] + 7.0
    for support in workloads.all_supports(matrix.shape[1]):
        assert reference.efficient(reference.normalize_rows(matrix), support) == reference.efficient(
            reference.normalize_rows(scaled), support
        )


def test_inferred_verdicts_match_one_lp_per_support():
    for request in itertools.islice(workloads.WORKLOADS["audit"].requests(8), 6):
        normalized = reference.normalize_rows(request.matrix)
        supports = request.supports
        assert reference.verdicts(normalized, supports) == {
            s: reference.efficient(normalized, s) for s in supports
        }


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
