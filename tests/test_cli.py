"""End-to-end command line behaviour, run in-process through main()."""

import argparse
import ast
import io
import json
import os
import runpy
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import EDGE_ONLY_ROWS, ALL_EFFICIENT_ROWS

import paretosimplex
from paretosimplex import DEFAULT_TOLERANCES, Tolerances, Verdict, cli, enumeration, oracle, scalarize


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json_matrix(tmp_path, rows, name="matrix.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"k": len(rows), "n": len(rows[0]), "C": rows}))
    return str(path)


def write_csv_matrix(tmp_path, rows, name="matrix.csv"):
    path = tmp_path / name
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")
    return str(path)


@pytest.fixture
def edge_json(tmp_path):
    return write_json_matrix(tmp_path, EDGE_ONLY_ROWS, name="edge.json")


@pytest.fixture
def full_json(tmp_path):
    return write_json_matrix(tmp_path, ALL_EFFICIENT_ROWS, name="full.json")


def test_test_command_json_reports_validate(capsys, edge_json):
    code, out, _ = run(
        capsys, "test", edge_json, "--json", "1,0,0", "0.5,0.5,0", "0,0,1", "0.2,0.3,0.5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    reports = [json.loads(line) for line in lines]
    for report in reports:
        jsonschema.validate(report, cli.REPORT_SCHEMA)
    # Every key is required and no other key is allowed.
    extra = {**reports[0], "extra": 1}
    missing = {key: value for key, value in reports[0].items() if key != "clamped"}
    for report in (extra, missing):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, cli.REPORT_SCHEMA)
    assert [r["verdict"] for r in reports] == ["efficient", "efficient", "dominated", "dominated"]
    assert [r["test"] for r in reports] == ["T2", "T1", "closure", "T0"]
    assert reports[0]["class"] == "deterministic"
    assert reports[1]["class"] == "partial"
    assert reports[3]["class"] == "randomized"
    assert reports[1]["face"] == {"kind": "open-face", "support": [1, 2]}
    assert reports[2]["certificate"] is None
    assert min(reports[0]["certificate"]) == 1.0


def test_test_command_text_output(capsys, edge_json):
    code, out, _ = run(capsys, "test", edge_json, "1,0,0")
    assert code == 0
    assert "class: deterministic" in out
    assert "verdict: efficient" in out
    assert "test: T2" in out
    assert "certificate:" in out
    assert "face: vertex {1}" in out


def test_json_lines_follow_each_points_clamped_indices(capsys, edge_json):
    code, out, _ = run(capsys, "test", edge_json, "--json", "0.5,0.5,0", "0.5,0.5,1e-10", "0.5,0.5,0")
    assert code == 0
    assert [json.loads(line)["clamped"] for line in out.splitlines()] == [[], [3], []]


def test_text_blocks_blank_line_separated(capsys, edge_json):
    code, out, _ = run(capsys, "test", edge_json, "1,0,0", "0,1,0")
    assert code == 0
    assert out.count("\n\n") == 1


def test_output_is_byte_identical_across_runs(capsys, edge_json):
    first = run(capsys, "test", edge_json, "--json", "0.5,0.5,0", "0.2,0.3,0.5")
    second = run(capsys, "test", edge_json, "--json", "0.5,0.5,0", "0.2,0.3,0.5")
    assert first == second


def test_json_floats_round_trip(capsys, edge_json):
    code, out, _ = run(capsys, "test", edge_json, "--json", "0.2,0.3,0.5")
    assert code == 0
    report = json.loads(out)
    # .17g output parses back to the exact double that was printed
    assert report["value"] == json.loads(cli._json_text(report["value"]))
    with pytest.raises(TypeError, match="cannot serialize <class 'set'>"):
        cli._json_text({1.0})


def test_check_full_command(capsys, full_json, edge_json):
    code, out, _ = run(capsys, "check-full", full_json, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["full"] is True
    assert payload["certificate"] == [1, 2, 1]

    code, out, _ = run(capsys, "check-full", edge_json)
    assert code == 0
    assert out.strip() == "full: no"


def test_enumerate_command(capsys, edge_json, full_json):
    code, out, _ = run(capsys, "enumerate", edge_json, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["full"] is False
    assert payload["vertices"] == [1, 2]
    assert payload["faces"] == [[1, 2]]
    assert payload["exhaustive"] is True
    assert payload["warning"] is None

    code, out, _ = run(capsys, "enumerate", full_json)
    assert code == 0
    assert "full: yes" in out
    assert "efficient vertices: 1, 2, 3" in out
    assert "{1, 2}; {1, 3}; {2, 3}" in out


def test_enumerate_oracle_crosscheck(capsys, edge_json):
    code, out, _ = run(capsys, "enumerate", edge_json, "--oracle", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"]
    assert all(entry["agrees"] for entry in payload["oracle"])

    code, out, _ = run(capsys, "enumerate", edge_json, "--oracle")
    assert code == 0
    assert "DISAGREE" not in out


def test_enumerate_oracle_builds_its_points_through_the_class_name(capsys, edge_json, monkeypatch):
    # Wrappers such as a tracer may replace ``cli.SimplexPoint`` with a plain
    # function, so the oracle sweep must not reach its class attributes.
    expected = run(capsys, "enumerate", edge_json, "--oracle", "--json")
    real_point = cli.SimplexPoint
    monkeypatch.setattr(cli, "SimplexPoint", lambda coords, tol: real_point(coords, tol))
    assert run(capsys, "enumerate", edge_json, "--oracle", "--json") == expected


def flip_oracle_on_vertex_3(monkeypatch):
    """Make the dominance oracle give vertex 3 the other verdict."""
    real_verdict = oracle.dominance_lp_verdict

    def flipped_on_vertex_3(matrix, point, tol):
        verdict = real_verdict(matrix, point, tol)
        if list(point.coords) != [0.0, 0.0, 1.0]:
            return verdict
        return Verdict.EFFICIENT if verdict is Verdict.DOMINATED else Verdict.DOMINATED

    monkeypatch.setattr(oracle, "dominance_lp_verdict", flipped_on_vertex_3)


def test_enumerate_oracle_disagreement_exits_4(capsys, edge_json, monkeypatch):
    flip_oracle_on_vertex_3(monkeypatch)
    code, out, err = run(capsys, "enumerate", edge_json, "--oracle", "--json")
    assert code == 4
    payload = json.loads(out)
    assert [entry["support"] for entry in payload["oracle"] if not entry["agrees"]] == [[3]]
    assert err == "error: 1 supports disagree with the dominance oracle\n"

    code, out, err = run(capsys, "enumerate", edge_json, "--oracle")
    assert code == 4
    assert "oracle {3}: DISAGREE" in out
    assert "oracle {1, 2}: agree" in out
    assert err == "error: 1 supports disagree with the dominance oracle\n"


def test_scalarize_command(capsys, full_json, edge_json):
    code, out, _ = run(capsys, "scalarize", full_json, "--weights", "1,2,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == [2, 2, 2]
    assert payload["dmax"] == 2
    assert payload["argmax"] == [1, 2, 3]
    assert payload["solution_set"] == {"kind": "all", "support": [1, 2, 3]}

    code, out, _ = run(capsys, "scalarize", edge_json, "--weights", "1,1,1")
    assert code == 0
    assert "argmax: 1" in out
    assert "solution set: vertex {1}" in out


def test_scalarize_collapses_the_criteria_once(capsys, edge_json, monkeypatch):
    # The face is read from the coefficients the command already printed.
    calls = []
    real = scalarize.weighted_objective

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "weighted_objective", counting)
    monkeypatch.setattr(scalarize, "weighted_objective", counting)
    assert run(capsys, "scalarize", edge_json, "--weights", "1,1,1")[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    ("weights", "fmt", "expected"),
    [
        (["--weights", "-1,2,1"], "--json", '{"coeffs": [3, -9, 5.5], "dmax": 5.5, "argmax": [3], '
         '"solution_set": {"kind": "vertex", "support": [3]}}\n'),
        (["--weights", "-1,2,1"], None, "coeffs: 3, -9, 5.5\ndmax: 5.5\nargmax: 3\nsolution set: vertex {3}\n"),
        (["--we", "-1,2,1"], "--json", '{"coeffs": [3, -9, 5.5], "dmax": 5.5, "argmax": [3], '
         '"solution_set": {"kind": "vertex", "support": [3]}}\n'),
        (["--w", "-.5,1,0.5"], None, "coeffs: 1.5, -4.5, 2.75\ndmax: 2.75\nargmax: 3\nsolution set: vertex {3}\n"),
    ],
    ids=["json", "text", "json-prefix", "text-prefix"],
)
def test_scalarize_takes_a_negative_first_weight_without_equals(capsys, edge_json, weights, fmt, expected):
    argv = ["scalarize", edge_json, *weights, *([fmt] if fmt else [])]
    assert run(capsys, *argv) == (0, expected, "")
    joined = ["scalarize", edge_json, f"--weights={weights[1]}", *([fmt] if fmt else [])]
    assert run(capsys, *joined) == (0, expected, "")


def test_weights_after_dashes_stay_as_given():
    # argparse reads every argument after "--" as positional, so no
    # "--weights" there is joined with the literal after it.
    argv = ["scalarize", "edge.json", "--weights", "1,1,1", "--", "--weights", "-1,2,1"]
    assert cli._join_weights(argv) == argv


def test_bicheck_command(capsys, tmp_path):
    path = write_csv_matrix(tmp_path, [[3, 2, 1], [1, 2, 3]])
    code, out, _ = run(capsys, "bicheck", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["full"] is True
    assert payload["ratios"] == [1, 1]

    path = write_csv_matrix(tmp_path, [[1, 2, 3], [1, 2, 3]], name="down.csv")
    code, out, _ = run(capsys, "bicheck", path)
    assert code == 0
    assert "full: no" in out


def test_bicheck_ratios_of_steps_that_overflow(capsys, tmp_path):
    # The first step of the first criterion, -2e308, overflows; the first
    # ratio is 1 / 2e308, which once printed as 0.
    path = write_csv_matrix(tmp_path, [[1e308, -1e308, 0], [0, 1, 2]])
    code, out, _ = run(capsys, "bicheck", path, "--json")
    assert code == 0
    assert json.loads(out) == {"full": False, "ratios": [0.5 / 1e308, 1 / -1e308]}
    assert 0.0 < json.loads(out)["ratios"][0]


def test_bicheck_error_codes(capsys, edge_json, tmp_path):
    code, _, err = run(capsys, "bicheck", edge_json)
    assert code == 3
    assert "error:" in err

    # A repeated first-criterion entry is decided: column 2 dominates column 1.
    path = write_csv_matrix(tmp_path, [[1, 1, 2], [0, 1, 2]], name="flat.csv")
    assert run(capsys, "bicheck", path) == (0, "full: no\nratios: null, -1\n", "")
    assert run(capsys, "bicheck", path, "--json") == (0, '{"full": false, "ratios": [null, -1]}\n', "")


def test_bicheck_reads_the_matrix_once(capsys, tmp_path, monkeypatch):
    # The verdict and the printed ratios come from one pass over the steps.
    calls = []
    one_pass = enumeration.bicheck

    def counting(*args):
        calls.append(args)
        return one_pass(*args)

    monkeypatch.setattr(enumeration, "bicheck", counting)
    monkeypatch.setattr(cli, "bicheck", counting)
    path = write_csv_matrix(tmp_path, [[0, 2, 1], [0, -2, -1]], name="zigzag.csv")
    assert run(capsys, "bicheck", path) == (0, "full: yes\nratios: 1, 1\n", "")
    assert len(calls) == 1


def test_plot3_grid(capsys, edge_json):
    code, out, _ = run(capsys, "plot3", edge_json, "--density", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2,x3,verdict"
    assert len(lines) == 1 + 66
    for line in lines[1:]:
        x1, x2, x3, verdict = line.split(",")
        expected = "efficient" if float(x3) == 0.0 else "dominated"
        assert verdict == expected

    code, out, _ = run(capsys, "plot3", edge_json, "--density", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["density"] == 2
    assert len(payload["rows"]) == 6


def test_plot3_error_codes(capsys, tmp_path, edge_json):
    path = write_csv_matrix(tmp_path, [[1, 2], [2, 1]], name="two.csv")
    code, _, err = run(capsys, "plot3", path, "--density", "4")
    assert code == 3

    code, _, err = run(capsys, "plot3", edge_json, "--density", "0")
    assert code == 2
    assert "density" in err


def test_oracle_command(capsys, edge_json):
    code, out, _ = run(capsys, "oracle", edge_json, "--json", "0,0,1", "1,0,0")
    assert code == 0
    first, second = (json.loads(line) for line in out.strip().splitlines())
    assert first == {"point": [0, 0, 1], "verdict": "dominated"}
    assert second["verdict"] == "efficient"

    code, out, _ = run(capsys, "oracle", edge_json, "0,0,1")
    assert code == 0
    assert "verdict: dominated" in out


def test_the_matrix_format_comes_from_the_content(capsys, tmp_path):
    # A file is JSON when its first non-blank character is "{" or "[",
    # whatever its name, and CSV otherwise.
    csv_path = Path(write_csv_matrix(tmp_path, EDGE_ONLY_ROWS))
    json_in_txt = tmp_path / "matrix.txt"
    json_in_txt.write_text("\n " + json.dumps({"C": EDGE_ONLY_ROWS}))
    csv_in_json = tmp_path / "rows.json"
    csv_in_json.write_text(csv_path.read_text())
    for path in (csv_path, json_in_txt, csv_in_json):
        assert run(capsys, "check-full", str(path)) == (0, "full: no\n", ""), path

    array = tmp_path / "array.json"
    array.write_text(json.dumps(EDGE_ONLY_ROWS))
    assert run(capsys, "check-full", str(array)) == (2, "", f"error: {array}: expected an object with a 'C' field\n")


def test_a_byte_order_mark_before_the_matrix_is_dropped(capsys, tmp_path):
    # Spreadsheet programs start "CSV UTF-8" files with a byte-order mark.
    for name, text in (("excel.csv", "3,2,1\r\n1,2,3\r\n"), ("bom.json", '{"C": [[3, 2, 1], [1, 2, 3]]}')):
        plain, marked = tmp_path / f"plain-{name}", tmp_path / name
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        for mode in ((), ("--json",)):
            expected = run(capsys, "check-full", str(plain), *mode)
            assert expected[0] == 0
            assert run(capsys, "check-full", str(marked), *mode) == expected, (name, mode)


def test_matrix_file_errors(capsys, tmp_path, edge_json):
    code, _, err = run(capsys, "check-full", str(tmp_path / "missing.json"))
    assert code == 2
    assert "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "check-full", str(bad))
    assert code == 2

    wrong_n = tmp_path / "wrong.json"
    wrong_n.write_text(json.dumps({"k": 3, "n": 4, "C": EDGE_ONLY_ROWS}))
    code, _, err = run(capsys, "check-full", str(wrong_n))
    assert code == 2
    assert "disagrees" in err


def test_point_dimension_mismatch_exit(capsys, edge_json):
    code, _, err = run(capsys, "test", edge_json, "0.5,0.5")
    assert code == 3
    assert "error:" in err

    code, _, _ = run(capsys, "scalarize", edge_json, "--weights", "1,1")
    assert code == 3


def test_malformed_point_literal(capsys, edge_json):
    code, _, err = run(capsys, "test", edge_json, "0.5,oops,0.5")
    assert code == 2
    assert "malformed point" in err

    code, _, _ = run(capsys, "test", edge_json, "0.5,0.4,0.2")
    assert code == 2


# Each entry: the literals after the two good points, the exit code and
# stderr.  The later entries hold n - 1 commas per literal, or N * n numbers
# in all, so that parsing every literal in one pass must find the same
# first bad literal as parsing them one by one.  The last ones have another
# length and also break a point rule, and their length is what is reported.
BAD_THIRD_POINTS = [
    (("0.5,oops,0.5",), 2, "error: malformed point literal '0.5,oops,0.5': could not convert string to float: 'oops'\n"),
    (("0.5,0.6,0",), 2, "error: components sum to 1.1, not 1\n"),
    (("0.5,-0.001,0.501",), 2, "error: component -0.001 is below -x_zero\n"),
    (("0.5,0.5",), 3, "error: point has 2 components, matrix has 3 columns\n"),
    (("0.5,0.5", "0.25,0.25,0.25,0.25"), 3, "error: point has 2 components, matrix has 3 columns\n"),
    (("0.5,,0.5",), 2, "error: malformed point literal '0.5,,0.5': could not convert string to float: ''\n"),
    (("0.5,0.5,",), 2, "error: malformed point literal '0.5,0.5,': could not convert string to float: ''\n"),
    (("1e400,0,0",), 2, "error: point components must be finite\n"),
    (("nan,0.5,0.5",), 2, "error: point components must be finite\n"),
    ((" 0.5,0.6,0",), 2, "error: components sum to 1.1, not 1\n"),
    (("0.07",), 3, "error: point has 1 components, matrix has 3 columns\n"),
    (("0.5,0.6",), 3, "error: point has 2 components, matrix has 3 columns\n"),
    (("nan,0.5",), 3, "error: point has 2 components, matrix has 3 columns\n"),
    (("0.3,0.3,0.1,0.1",), 3, "error: point has 4 components, matrix has 3 columns\n"),
    (("-0.5,1.5",), 3, "error: point has 2 components, matrix has 3 columns\n"),
]
BAD_THIRD_IDS = [
    "malformed", "sum", "below", "length",
    "split-length", "empty-part", "trailing-comma", "overflow", "nan", "space",
    "one-component-sum", "short-sum", "short-nan", "long-sum", "short-below",
]


# Both commands read their literals through one reader; the test ids of
# the ``test`` cases carry no command name.
@pytest.mark.parametrize(
    ("command", "mode"),
    [("test", ()), ("test", ("--json",)), ("oracle", ()), ("oracle", ("--json",))],
    ids=["text", "json", "oracle-text", "oracle-json"],
)
@pytest.mark.parametrize(("bad", "code", "message"), BAD_THIRD_POINTS, ids=BAD_THIRD_IDS)
def test_test_reports_the_points_before_a_bad_one(capsys, edge_json, command, mode, bad, code, message):
    _, before, _ = run(capsys, command, edge_json, *mode, "1,0,0", "0.5,0.5,0")
    for tail in (("0,1,0",), ("0,1,0", "oops")):
        got = run(capsys, command, edge_json, *mode, "1,0,0", "0.5,0.5,0", *bad, *tail)
        assert got == (code, before, message)


@pytest.mark.parametrize(
    ("argv", "code"),
    [
        (("test", "1,0,0", "0.5,0.5,0", "0.5,0.5"), 3),
        (("oracle", "1,0,0", "0.5,0.5,0", "0.07"), 3),
        (("test", "--json", "1,0,0", "0.5,0.5,0", "0.5,0.6,0"), 2),
    ],
    ids=["test-fallback", "oracle-fallback", "one-pass"],
)
def test_the_point_reader_checks_the_rows_once(capsys, edge_json, monkeypatch, argv, code):
    # Both routes of the literal reader reach one check of the point rules.
    calls = []
    real = cli.check_points

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "check_points", counting)
    command, *rest = argv
    assert run(capsys, command, edge_json, *rest)[0] == code
    assert len(calls) == 1


@pytest.mark.parametrize("tol_x", [None, "1e-4"], ids=["default-tol-x", "tol-x-1e-4"])
@pytest.mark.parametrize("seed", range(3))
def test_keyed_output_equals_per_point_output(capsys, tmp_path, seed, tol_x):
    """`test` decides and renders each (class, clamped indices) key once;
    every point still prints what it prints when run alone, and its text
    block starts with its own clamped coordinates."""
    rng = np.random.default_rng(seed)
    n = 5
    path = write_csv_matrix(tmp_path, rng.integers(-9, 10, size=(3, n)).tolist())
    options = () if tol_x is None else ("--tol-x", tol_x)
    x_zero = 1e-9 if tol_x is None else float(tol_x)
    supports = [(1,), (2, 4), (1, 3, 5), tuple(range(1, n + 1))]
    literals, clamped_rows = [], []
    for _ in range(24):
        support = supports[rng.integers(len(supports))]
        coords = np.zeros(n)
        mass = rng.uniform(0.1, 1.0, len(support))
        coords[[j - 1 for j in support]] = mass / mass.sum()
        # Mass within the zero threshold, either side of zero, off the support.
        small = (coords == 0.0) & (rng.random(n) < 0.4)
        coords[small] = x_zero * rng.uniform(0.1, 1.0, small.sum()) * rng.choice([-1.0, 1.0], small.sum())
        literals.append(",".join(repr(float(c)) for c in coords))
        clamped_rows.append(np.where(coords < 0.0, 0.0, coords))
    assert any(c < 0.0 for c in map(float, ",".join(literals).split(",")))

    outputs = {}
    for mode, separator in (("text", "\n"), ("--json", "")):
        flags = (*options, mode) if mode == "--json" else options
        # "--" ends the options, since a literal may start with a minus sign.
        code, out, err = run(capsys, "test", path, *flags, "--", *literals)
        alone = [run(capsys, "test", path, *flags, "--", literal) for literal in literals]
        assert (code, err) == (0, "")
        assert all((c, e) == (0, "") for c, _, e in alone)
        assert out == separator.join(o for _, o, _ in alone)
        outputs[mode] = out
    points = [line for line in outputs["text"].splitlines() if line.startswith("point: ")]
    assert points == [f"point: {', '.join(format(c, '.17g') for c in row)}" for row in clamped_rows]
    reports = [json.loads(line) for line in outputs["--json"].splitlines()]
    keys = [(r["class"], tuple(r["support"]), tuple(r["clamped"])) for r in reports]
    # Keys repeat, and some class recurs with other clamped indices.
    assert len(set(keys)) < len(keys)
    assert len(set(keys)) > len({key[:2] for key in keys})


def fail_closure_on_vertex_2(monkeypatch):
    """Make the solver break down on the closure program of vertex 2 of
    ``EDGE_ONLY_ROWS``.  Column 1 beats column 3, so vertex 3 needs no
    program; vertex 2 does."""
    from paretosimplex import CriteriaMatrix, LpError, SupportPattern, efficiency

    failing = efficiency.build_closure(CriteriaMatrix(EDGE_ONLY_ROWS), SupportPattern((2,)))
    real_solve = efficiency.solve

    def solve(lp, tol):
        if lp.a.shape == failing.a.shape and (lp.a == failing.a).all():
            raise LpError("stub breakdown")
        return real_solve(lp, tol)

    monkeypatch.setattr(efficiency, "solve", solve)


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
def test_test_reports_the_points_before_a_solver_failure(capsys, edge_json, monkeypatch, mode):
    _, before, _ = run(capsys, "test", edge_json, *mode, "1,0,0", "0.5,0.5,0")
    fail_closure_on_vertex_2(monkeypatch)
    code, out, err = run(capsys, "test", edge_json, *mode, "1,0,0", "0.5,0.5,0", "0,1,0", "0,0,1")
    assert (code, out) == (4, before)
    assert err == "error: closure program on support {2} of the 3x3 matrix: stub breakdown\n"


# The commands that print one document, run on the error table's files.
SINGLE_DOCUMENT_COMMANDS = [
    ("check-full", "full.json"),
    ("enumerate", "edge.json"),
    ("enumerate", "edge.json", "--oracle"),
    ("scalarize", "edge.json", "--weights", "1,1,1"),
    ("bicheck", "full.json"),
    ("plot3", "edge.json", "--density", "2"),
]

# The other command lines that write stdout once, run on the error table's
# files, each with the stub it runs under: one document per point, the
# points before a bad one or a failing decision, a disagreement, and a
# missing matrix, which writes nothing to stdout.
POINT_AND_FAILING_COMMANDS = [
    pytest.param(("test", "edge.json", "1,0,0", "0.5,0.5,0", "0,0,1"), None, id="test"),
    pytest.param(("test", "edge.json", "1,0,0", "0,0,1", "0.5,oops,0.5"), None, id="test-malformed"),
    pytest.param(
        ("test", "edge.json", "1,0,0", "0.5,0.5,0", "0,1,0", "0,0,1"), fail_closure_on_vertex_2, id="test-breakdown"
    ),
    pytest.param(("oracle", "edge.json", "1,0,0", "0,0,1"), None, id="oracle"),
    pytest.param(("oracle", "edge.json", "1,0,0", "0,0,1", "0.5,0.5"), None, id="oracle-short"),
    pytest.param(("enumerate", "edge.json", "--oracle"), flip_oracle_on_vertex_3, id="enumerate-disagreement"),
    pytest.param(("check-full", "missing.json"), None, id="check-full-missing"),
]


class RecordingStream(io.StringIO):
    """A stdout or stderr that records each write, with its stream's name,
    in a list it shares with the other stream."""

    def __init__(self, name, writes):
        super().__init__()
        self.name, self.writes = name, writes

    def write(self, text):
        self.writes.append((self.name, text))
        return super().write(text)


def run_recording_writes(capsys, monkeypatch, argv):
    """Run ``argv`` twice, and check that the second run writes the first
    run's stdout with one write, or none when it is empty, and then its
    stderr: one error line exactly when the command fails.  Returns the
    exit code."""
    code, out, err = run(capsys, *argv)
    writes: list[tuple[str, str]] = []
    monkeypatch.setattr(sys, "stdout", RecordingStream("stdout", writes))
    monkeypatch.setattr(sys, "stderr", RecordingStream("stderr", writes))
    assert cli.main(list(argv)) == code
    assert writes[: bool(out)] == [("stdout", out)] * bool(out)
    assert all(name == "stderr" for name, _ in writes[bool(out) :])
    assert "".join(text for _, text in writes[bool(out) :]) == err
    assert [line[:7] for line in err.splitlines()] == ["error: "] * (code != 0)
    return code


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("argv", SINGLE_DOCUMENT_COMMANDS, ids=" ".join)
def test_single_document_commands_write_stdout_once(capsys, error_table_dir, monkeypatch, argv, mode):
    assert run_recording_writes(capsys, monkeypatch, [*argv, *mode]) == 0


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize(("argv", "stub"), POINT_AND_FAILING_COMMANDS)
def test_points_and_failures_write_stdout_once(capsys, error_table_dir, monkeypatch, argv, stub, mode):
    if stub is not None:
        stub(monkeypatch)
    run_recording_writes(capsys, monkeypatch, [*argv, *mode])


@pytest.mark.parametrize(
    ("oracle_flag", "expected"),
    [
        ((), '{"full": false, "vertices": [1, 2], "faces": [[1, 2]], "exhaustive": true, "warning": null}\n'),
        (("--oracle",), '{"full": false, "vertices": [1, 2], "faces": [[1, 2]], "exhaustive": true, "warning": null, '
         '"oracle": [{"support": [1], "agrees": true}, {"support": [2], "agrees": true}, {"support": [3], "agrees": true}, '
         '{"support": [1, 2], "agrees": true}, {"support": [1, 3], "agrees": true}, {"support": [2, 3], "agrees": true}]}\n'),
    ],
    ids=["plain", "oracle"],
)
def test_enumerate_json_renders_no_text(capsys, edge_json, monkeypatch, oracle_flag, expected):
    def refuse(*_):
        raise AssertionError("text rendered under --json")

    monkeypatch.setattr(cli, "_items", refuse)
    assert run(capsys, "enumerate", edge_json, *oracle_flag, "--json") == (0, expected, "")
    with pytest.raises(AssertionError, match="text rendered"):
        cli.main(["enumerate", edge_json, *oracle_flag])


def test_usage_errors_exit_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()


def test_enumeration_cap_exit_code(capsys, tmp_path):
    rows = [list(range(1, 18)), list(range(17, 0, -1))]
    path = write_csv_matrix(tmp_path, rows, name="wide.csv")
    code, _, err = run(capsys, "enumerate", path)
    assert code == 5
    assert "error:" in err

    code, _, err = run(capsys, "enumerate", path, "--oracle")
    assert code == 5
    assert "error:" in err

    # The oracle sweep lists every support of the scanned sizes, so it is
    # refused even where the efficient structure itself is small.
    rows = [[j % 5 for j in range(17)], [j % 3 for j in range(17)]]
    sparse = write_csv_matrix(tmp_path, rows, name="sparse.csv")
    assert run(capsys, "enumerate", sparse)[0] == 0
    assert run(capsys, "enumerate", sparse, "--oracle")[0] == 5

    code, out, _ = run(capsys, "enumerate", path, "--max-support", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["warning"] is None
    assert payload["exhaustive"] is False
    assert len(payload["faces"]) == 136

    code, out, err = run(capsys, "enumerate", path, "--allow-large-n")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "paretosimplex: error: unrecognized arguments: --allow-large-n"


def test_tolerance_flags_reach_the_classifier(capsys, edge_json):
    code, out, _ = run(capsys, "test", edge_json, "--tol-x", "1e-3", "--tol-d", "1e-2",
                       "--json", "0.9995,0.0005,0")
    assert code == 0
    assert json.loads(out)["class"] == "deterministic"

    code, _, _ = run(capsys, "test", edge_json, "--tol-x", "-1", "1,0,0")
    assert code == 2


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """Each ``$ command`` line of README.md's code blocks, with the lines
    shown after it up to the next command or the end of the block."""
    examples, inside, current = [], False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            inside, current = not inside, None
        elif inside and line.startswith("$ "):
            current = []
            examples.append((line[2:], current))
        elif inside and current is not None:
            current.append(line)
    return examples


def test_readme_examples_print_what_the_readme_shows(capsys, tmp_path, monkeypatch):
    # `$ cat FILE` examples give the matrix files the commands read.
    monkeypatch.chdir(tmp_path)
    ran = 0
    for command, shown in readme_examples():
        words = shlex.split(command)
        if words[0] == "cat":
            Path(words[1]).write_text("".join(line + "\n" for line in shown))
            continue
        assert words[0] == "paretosimplex", command
        keep = None
        if "|" in words:
            bar = words.index("|")
            assert words[bar + 1 :] == ["head", words[-1]] and words[-1].startswith("-"), command
            keep = int(words[-1][1:])
            words = words[:bar]
        code, out, err = run(capsys, *words[1:])
        assert (code, err) == (0, ""), command
        assert "".join(out.splitlines(keepends=True)[:keep]) == "".join(
            line + "\n" for line in shown
        ), command
        ran += 1
    assert ran == 13


def test_the_module_runs_as_a_script(capsys, tmp_path, monkeypatch):
    # ``python -m paretosimplex.cli`` exits with main's code, here on the
    # README's full.json.
    matrix = tmp_path / "full.json"
    matrix.write_text('{"k": 2, "n": 3, "C": [[3, 2, 1], [1, 2, 3]]}\n')
    monkeypatch.setattr(sys, "argv", ["paretosimplex", "check-full", str(matrix)])
    with warnings.catch_warnings():
        # The package has imported the module before runpy executes it.
        warnings.filterwarnings("ignore", message=".*found in sys.modules", category=RuntimeWarning)
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("paretosimplex.cli", run_name="__main__")
    assert exited.value.code == 0
    assert capsys.readouterr() == ("full: yes\ncertificate: 1, 1\n", "")


def test_readme_library_usage_shows_what_it_returns():
    # The "Library usage" block runs as written, and each expression
    # statement's comment, on its line or alone on the next, starts with
    # the repr of its value.
    block = README.read_text().split("## Library usage", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    shown = 0
    for statement in ast.parse(block).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        after = lines[statement.end_lineno - 1][statement.end_col_offset :]
        if "#" not in after:
            after = lines[statement.end_lineno]
        comment = after.split("#", 1)[1].strip()
        assert comment.startswith(repr(value)), (ast.unparse(statement), comment)
        shown += 1
    assert shown == 9


# Matrix files for the error table, read from the working directory so
# that the messages name them by these relative paths; full.json is
# README.md's.
ERROR_TABLE_FILES = {
    "edge.json": json.dumps({"k": 3, "n": 3, "C": EDGE_ONLY_ROWS}),
    "full.json": json.dumps({"k": 2, "n": 3, "C": [[3, 2, 1], [1, 2, 3]]}),
    "two.csv": "1,2\n2,1\n",
    "flat.csv": "1,1,2\n0,1,2\n",
    "bad.json": "{not json",
    "wrong.json": json.dumps({"k": 3, "n": 4, "C": EDGE_ONLY_ROWS}),
    "ragged.json": json.dumps({"C": [[1, 2, 3], [1, 2]]}),
    "rows.json": json.dumps({"rows": EDGE_ONLY_ROWS}),
    "cell.csv": "1,x\n2,3\n",
    "object.json": json.dumps({"C": [[{}, 1], [1, 2]]}),
    "wide.csv": ",".join(map(str, range(1, 18))) + "\n" + ",".join(map(str, range(17, 0, -1))) + "\n",
    # Finite entries whose differences, spreads or sums overflow.
    "huge.json": json.dumps({"C": [[1e308, -1e308, 0], [0, 1, 2]]}),
    "hugetie.json": json.dumps({"C": [[1e308, -1e308, 0], [-1, 1, 0]]}),
    "hugesum.json": json.dumps({"C": [[1.5e308, 1.5e308, 0], [0, 1, 2]]}),
    "over.csv": "1,0\n-1e308,1e308\n",
    # JSON files that hold no object, read as CSV.
    "empty.json": "",
    "scalar.json": "5",
}

# (command line, exit code, stdout, stderr), each as printed before the
# command line front end was consolidated.
ERROR_TABLE = [
    ("test edge.json --tol-x -1 1,0,0", 2, "", "error: tolerance 'x_zero' must be a positive finite number\n"),
    ("test missing.json --tol-x -1 1,0,0", 2, "", "error: tolerance 'x_zero' must be a positive finite number\n"),
    ("check-full edge.json --tol-lp 1e-6 --tol-d 1e-7", 2, "", "error: solver tolerance lp must not exceed tie tolerance\n"),
    ("check-full missing.json", 2, "", "error: cannot read missing.json: [Errno 2] No such file or directory: 'missing.json'\n"),
    ("check-full bad.json", 2, "", "error: bad.json: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"),
    ("check-full wrong.json", 2, "", "error: wrong.json: field n=4 disagrees with C (3)\n"),
    ("check-full ragged.json", 2, "", "error: ragged.json: setting an array element with a sequence. The requested array has an inhomogeneous shape after 1 dimensions. The detected shape was (2,) + inhomogeneous part.\n"),
    ("check-full rows.json", 2, "", "error: rows.json: expected an object with a 'C' field\n"),
    ("check-full empty.json", 2, "", "error: empty.json: expected a 2-dimensional array, got shape (0,)\n"),
    ("check-full scalar.json", 2, "", "error: scalar.json: need at least two criteria and two columns, got 1x1\n"),
    ("check-full cell.csv", 2, "", "error: cell.csv: could not convert string to float: 'x'\n"),
    ("check-full object.json", 2, "", "error: object.json: float() argument must be a string or a real number, not 'dict'\n"),
    ("bicheck edge.json", 3, "", "error: the ratio test applies to exactly two criteria\n"),
    ("bicheck flat.csv", 0, "full: no\nratios: null, -1\n", ""),
    ("plot3 two.csv --density 4", 3, "", "error: plot3 needs exactly 3 columns, matrix has 2\n"),
    ("plot3 edge.json --density 0", 2, "", "error: density must be at least 1\n"),
    ("scalarize edge.json --weights 1,1", 3, "", "error: 2 weights for 3 criteria\n"),
    ("scalarize edge.json --weights 1,x,1", 2, "", "error: malformed weights literal '1,x,1': could not convert string to float: 'x'\n"),
    ("scalarize full.json --weights inf,1", 2, "", "error: weights must be finite\n"),
    # The weights' count is checked before their values.
    ("scalarize full.json --weights nan,1,2", 3, "", "error: 3 weights for 2 criteria\n"),
    ("scalarize full.json --weights inf,1,2,3", 3, "", "error: 4 weights for 2 criteria\n"),
    ("oracle edge.json 0.5,0.5", 3, "", "error: point has 2 components, matrix has 3 columns\n"),
    ("oracle edge.json 0,0,1 0.5,oops,0.5", 2, "point: 0, 0, 1\nverdict: dominated\n", "error: malformed point literal '0.5,oops,0.5': could not convert string to float: 'oops'\n"),
    ("test edge.json 0.5,0.5", 3, "", "error: point has 2 components, matrix has 3 columns\n"),
    ("enumerate edge.json --max-support 1", 2, "", "error: max_support below 2 scans no faces; omit it instead\n"),
    ("enumerate wide.csv", 5, "", "error: 131053 supports to list, more than 65536; limit max_support\n"),
]


@pytest.fixture
def error_table_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in ERROR_TABLE_FILES.items():
        Path(name).write_text(text)


@pytest.mark.parametrize(("command", "code", "out", "err"), ERROR_TABLE, ids=[c[0] for c in ERROR_TABLE])
def test_error_table(capsys, error_table_dir, command, code, out, err):
    assert run(capsys, *shlex.split(command)) == (code, out, err)


# Commands whose finite input overflows, with their exit code and stderr.
# Column 3 of huge.json beats column 2 in both criteria, so check-full and
# test decide it without a program; no column of hugetie.json beats another.
OVERFLOW_COMMANDS = [
    ("scalarize full.json --weights 1e308,1e308", 2, "error: coefficients must be finite\n"),
    ("check-full huge.json", 0, ""),
    ("check-full hugetie.json", 2, "error: matrix entries must be finite\n"),
    ("enumerate huge.json", 2, "error: matrix entries must be finite\n"),
    ("enumerate huge.json --oracle", 2, "error: matrix entries must be finite\n"),
    ("enumerate hugetie.json", 2, "error: matrix entries must be finite\n"),
    ("test huge.json 0.5,0.5,0", 0, ""),
    ("test hugetie.json 0.5,0.5,0", 2, "error: matrix entries must be finite\n"),
    ("plot3 huge.json --density 1", 2, "error: matrix entries must be finite\n"),
    ("oracle huge.json 0.5,0.5,0", 0, ""),
    ("bicheck huge.json", 0, ""),
    ("bicheck over.csv", 2, "error: the trade-off ratio of columns 1 and 2 exceeds the float range\n"),
    ("oracle hugesum.json 0.5,0.5,0", 2, "error: matrix entries must be finite\n"),
]


@pytest.mark.parametrize(("command", "code", "err"), OVERFLOW_COMMANDS, ids=[c[0] for c in OVERFLOW_COMMANDS])
def test_overflow_on_finite_input_writes_no_numpy_warning(capsys, error_table_dir, command, code, err):
    # Each of these once printed a RuntimeWarning with a source line to stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, _, stderr = run(capsys, *shlex.split(command))
    assert (got, stderr) == (code, err)


def test_a_matrix_file_that_is_not_text_is_an_input_error(capsys, tmp_path, monkeypatch):
    # Reading the file is inside load_matrix's one try, so a decoding
    # error maps to exit 2 like any other unreadable matrix.
    monkeypatch.chdir(tmp_path)
    Path("bytes.json").write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "check-full", "bytes.json")
    assert (code, out) == (2, "")
    assert err.startswith("error: bytes.json: ") and "decode" in err


@pytest.mark.parametrize(
    ("command", "last_line"),
    [
        ("test edge.json 1,0,0 --max-support 2", "paretosimplex: error: unrecognized arguments: --max-support 2"),
        ("oracle edge.json 1,0,0 --allow-large-n", "paretosimplex: error: unrecognized arguments: --allow-large-n"),
        ("test", "paretosimplex test: error: the following arguments are required: matrix, point"),
        ("test edge.json -1e-10,0.5,0.5 --max-support 2", "paretosimplex: error: unrecognized arguments: --max-support 2"),
        ("oracle edge.json 1,0,0 -.5,1,0.5 --json 0,1,0", "paretosimplex: error: unrecognized arguments: 0,1,0"),
        ("test edge.json", "paretosimplex test: error: the following arguments are required: point"),
        ("test edge.json --", "paretosimplex test: error: the following arguments are required: point"),
        ("check-full edge.json --format json", "paretosimplex: error: unrecognized arguments: --format json"),
        # After "--", "--weights" is a positional argument, not the option.
        ("scalarize edge.json -- --weights -1,2,1", "paretosimplex scalarize: error: the following arguments are required: --weights"),
    ],
)
def test_usage_errors_name_the_argument(capsys, error_table_dir, command, last_line):
    code, out, err = run(capsys, *shlex.split(command))
    assert (code, out, err.splitlines()[-1:]) == (2, "", [last_line])


@pytest.mark.parametrize(
    ("command", "mode"),
    [("test", ()), ("test", ("--json",)), ("oracle", ()), ("oracle", ("--json",))],
    ids=["test-text", "test-json", "oracle-text", "oracle-json"],
)
def test_a_negative_first_component_needs_no_dashes(capsys, edge_json, command, mode):
    # The literal is read as a point, first or after a good one, as it is
    # after "--", and its component in [-x_zero, 0) is clamped.
    first = run(capsys, command, edge_json, *mode, "--", "-1e-10,0.5,0.5")
    assert first == (0, run(capsys, command, edge_json, *mode, "0,0.5,0.5")[1], "")
    assert run(capsys, command, edge_json, *mode, "-1e-10,0.5,0.5") == first
    second = run(capsys, command, edge_json, *mode, "--", "1,0,0", "-1e-10,0.5,0.5")
    assert second[0] == 0 and second[1].endswith(first[1])
    assert run(capsys, command, edge_json, *mode, "1,0,0", "-1e-10,0.5,0.5") == second
    assert run(capsys, command, edge_json, *mode, "1,0,0", "--", "-1e-10,0.5,0.5") == second
    # Options after the points are still options.
    assert run(capsys, command, edge_json, "1,0,0", "-1e-10,0.5,0.5", *mode) == second
    assert run(capsys, command, edge_json, "-.5e-9,0.5,0.5", *mode, "--tol-x", "1e-9") == first


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
def test_test_renders_each_key_once(capsys, edge_json, monkeypatch, mode):
    rng = np.random.default_rng(17)
    pool = ["1,0,0", "0,0,1", "0.25,0.75,0", "0.2,0.3,0.5", "0.5,0.5,1e-10", "0.5,0.5,-1e-10"]
    literals = [pool[i] for i in rng.integers(len(pool), size=300)]
    calls = []
    real = cli._report_text
    monkeypatch.setattr(cli, "_report_text", lambda *a: calls.append(a) or real(*a))
    code, out, _ = run(capsys, "test", edge_json, *mode, *literals)
    assert code == 0
    # "0.5,0.5,-1e-10" clamps to the key of "0.25,0.75,0"; "0.5,0.5,1e-10" has its own.
    assert len(calls) == 5
    blocks = out.split("\n\n") if not mode else out.splitlines()
    assert len(blocks) == 300


def test_the_argv_reader_knows_the_options_of_test_and_oracle():
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name in ("test", "oracle"):
        options = [a for a in subparsers.choices[name]._actions if a.option_strings]
        assert sorted(s for a in options for s in a.option_strings) == sorted(cli._OPTIONS)
        assert sorted(s for a in options if a.nargs is None for s in a.option_strings) == sorted(cli._VALUED)


def test_the_tolerance_options_default_to_the_library_tolerances():
    args = cli.build_parser().parse_args(["test", "m.json", "1,0"])
    assert Tolerances(x_zero=args.tol_x, tie=args.tol_d, lp=args.tol_lp) == DEFAULT_TOLERANCES


def _parsed(capsys, argv):
    """What argparse makes of argv: the namespace, or the exit code and output."""
    try:
        args = cli._parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code, capsys.readouterr()
    return vars(args)


def test_the_argv_reader_gives_argparse_the_same_reading(capsys, monkeypatch):
    """Without an argument that starts like a negative number but is none,
    such as -1e-10,0.5,0.5, and with at most one "--", reading the literals
    outside argparse changes nothing: the namespace, or the usage error, is
    the one argparse gives for the whole argv."""
    monkeypatch.setenv("COLUMNS", "80")
    rng = np.random.default_rng(2031)
    words = [
        "--json", "--tol-x", "--tol-d", "--tol-lp", "--format", "-h", "--js", "--form", "--tol", "--f",
        "--json=1", "--tol-x=1e-3", "--format=csv", "--max-support", "-x", "--tol-x=1 2", "--form=a b", "--xyz=1 2",
        "-1", "-0.5", "json", "1e-3", "--", "edge.json", "m.csv", "1,0,0", "0.5,oops", "oops", "",
        "-", " 0.5,0.5,0", "-1 2", "-h 1", "-inf,0,0", "nan,1,0",
    ]
    checked = 0
    for _ in range(3000):
        argv = [str(rng.choice(["test", "oracle"]))] + [str(w) for w in rng.choice(words, rng.integers(0, 8))]
        if argv.count("--") > 1:
            continue
        kept, literals = cli._split_points(argv)
        expected = _parsed(capsys, argv)
        got = _parsed(capsys, kept)
        if literals is not None and isinstance(got, dict):
            got["points"] = literals
        assert got == expected, argv
        checked += 1
    assert checked > 2500


def test_main_carries_no_state_between_calls(capsys, error_table_dir, monkeypatch):
    # main reuses one parser; each call in this sequence must print what the
    # same command prints as the first call of a fresh process.
    commands = [
        "test edge.json 1,0,0 --max-support 2",
        "test edge.json --json 1,0,0 0.5,0.5,0 0,0,1 0.2,0.3,0.5",
        "enumerate edge.json --max-support 2 --json",
        "scalarize edge.json --weights 1,2,1",
        "test edge.json 0.5,0.5,0 0,1,0",
        "",
    ]
    # Usage text wraps at the terminal width, which the subprocess reads too.
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(paretosimplex.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for command in commands:
        fresh = subprocess.run(
            [sys.executable, "-m", "paretosimplex.cli", *shlex.split(command)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert run(capsys, *shlex.split(command)) == (fresh.returncode, fresh.stdout, fresh.stderr), command
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize(
    ("argv", "code", "out"),
    [(["check-full", "full.json", "--json"], 0, '{"full": true, "certificate": [1, 2, 1]}\n'), (["test"], 2, "")],
)
def test_console_script_entry_exits_with_the_code_of_main(capsys, full_json, monkeypatch, argv, code, out):
    monkeypatch.chdir(Path(full_json).parent)
    monkeypatch.setattr(sys, "argv", ["paretosimplex", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.entry()
    assert (exit_info.value.code, capsys.readouterr().out) == (code, out)
