"""End-to-end command line behaviour, run in-process through main()."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import EDGE_ONLY_ROWS, ALL_EFFICIENT_ROWS

import paretosimplex
from paretosimplex import Verdict, cli


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


def test_enumerate_oracle_disagreement_exits_4(capsys, edge_json, monkeypatch):
    real_verdict = cli.dominance_lp_verdict

    def flipped_on_vertex_3(matrix, point, tol):
        verdict = real_verdict(matrix, point, tol)
        if list(point.coords) != [0.0, 0.0, 1.0]:
            return verdict
        return Verdict.EFFICIENT if verdict is Verdict.DOMINATED else Verdict.DOMINATED

    monkeypatch.setattr(cli, "dominance_lp_verdict", flipped_on_vertex_3)
    code, out, err = run(capsys, "enumerate", edge_json, "--oracle", "--json")
    assert code == 4
    payload = json.loads(out)
    assert [entry["support"] for entry in payload["oracle"] if not entry["agrees"]] == [[3]]
    assert "disagree" in err

    code, out, err = run(capsys, "enumerate", edge_json, "--oracle")
    assert code == 4
    assert "oracle {3}: DISAGREE" in out
    assert "oracle {1, 2}: agree" in out
    assert "disagree" in err


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


def test_bicheck_error_codes(capsys, edge_json, tmp_path):
    code, _, err = run(capsys, "bicheck", edge_json)
    assert code == 3
    assert "error:" in err

    path = write_csv_matrix(tmp_path, [[1, 1, 2], [0, 1, 2]], name="flat.csv")
    code, _, err = run(capsys, "bicheck", path)
    assert code == 2
    assert "error:" in err


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


def test_csv_sniff_and_format_override(capsys, tmp_path):
    csv_path = write_csv_matrix(tmp_path, EDGE_ONLY_ROWS)
    code, out, _ = run(capsys, "check-full", csv_path)
    assert code == 0
    assert "full: no" in out

    odd_path = tmp_path / "matrix.txt"
    odd_path.write_text(json.dumps({"C": EDGE_ONLY_ROWS}))
    code, _, _ = run(capsys, "check-full", str(odd_path))
    assert code == 2
    code, out, _ = run(capsys, "check-full", str(odd_path), "--format", "json")
    assert code == 0
    assert "full: no" in out


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
# first bad literal as parsing them one by one.
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
]
BAD_THIRD_IDS = [
    "malformed", "sum", "below", "length",
    "split-length", "empty-part", "trailing-comma", "overflow", "nan", "space",
]


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize(("bad", "code", "message"), BAD_THIRD_POINTS, ids=BAD_THIRD_IDS)
def test_test_reports_the_points_before_a_bad_one(capsys, edge_json, mode, bad, code, message):
    _, before, _ = run(capsys, "test", edge_json, *mode, "1,0,0", "0.5,0.5,0")
    for tail in (("0,1,0",), ("0,1,0", "oops")):
        got = run(capsys, "test", edge_json, *mode, "1,0,0", "0.5,0.5,0", *bad, *tail)
        assert got == (code, before, message)


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


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
def test_test_reports_the_points_before_a_solver_failure(capsys, edge_json, monkeypatch, mode):
    from conftest import EDGE_ONLY_ROWS as rows
    from paretosimplex import CriteriaMatrix, NumericalBreakdownError, SupportPattern, efficiency

    failing = efficiency.build_closure(CriteriaMatrix(rows), SupportPattern((3,))).lp
    real_solve = efficiency.solve

    def solve(lp, tol):
        if lp.a.shape == failing.a.shape and (lp.a == failing.a).all():
            raise NumericalBreakdownError("stub breakdown")
        return real_solve(lp, tol)

    _, before, _ = run(capsys, "test", edge_json, *mode, "1,0,0", "0.5,0.5,0")
    monkeypatch.setattr(efficiency, "solve", solve)
    code, out, err = run(capsys, "test", edge_json, *mode, "1,0,0", "0.5,0.5,0", "0,0,1", "0,1,0")
    assert (code, out) == (4, before)
    assert err == "error: closure program on support {3} of the 3x3 matrix: stub breakdown\n"


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
    assert ran == 9


# Matrix files for the error table, read from the working directory so
# that the messages name them by these relative paths.
ERROR_TABLE_FILES = {
    "edge.json": json.dumps({"k": 3, "n": 3, "C": EDGE_ONLY_ROWS}),
    "two.csv": "1,2\n2,1\n",
    "flat.csv": "1,1,2\n0,1,2\n",
    "bad.json": "{not json",
    "wrong.json": json.dumps({"k": 3, "n": 4, "C": EDGE_ONLY_ROWS}),
    "ragged.json": json.dumps({"C": [[1, 2, 3], [1, 2]]}),
    "rows.json": json.dumps({"rows": EDGE_ONLY_ROWS}),
    "cell.csv": "1,x\n2,3\n",
    "object.json": json.dumps({"C": [[{}, 1], [1, 2]]}),
    "wide.csv": ",".join(map(str, range(1, 18))) + "\n" + ",".join(map(str, range(17, 0, -1))) + "\n",
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
    ("check-full cell.csv", 2, "", "error: cell.csv: could not convert string to float: 'x'\n"),
    ("check-full object.json", 2, "", "error: object.json: float() argument must be a string or a real number, not 'dict'\n"),
    ("bicheck edge.json", 3, "", "error: the ratio test applies to exactly two criteria\n"),
    ("bicheck flat.csv", 2, "", "error: consecutive first-criterion entries must be distinct for the ratio test\n"),
    ("plot3 two.csv --density 4", 3, "", "error: plot3 needs exactly 3 columns, matrix has 2\n"),
    ("plot3 edge.json --density 0", 2, "", "error: density must be at least 1\n"),
    ("scalarize edge.json --weights 1,1", 3, "", "error: 2 weights for 3 criteria\n"),
    ("scalarize edge.json --weights 1,x,1", 2, "", "error: malformed weights literal '1,x,1': could not convert string to float: 'x'\n"),
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


@pytest.mark.parametrize(
    ("command", "last_line"),
    [
        ("test edge.json 1,0,0 --max-support 2", "paretosimplex: error: unrecognized arguments: --max-support 2"),
        ("oracle edge.json 1,0,0 --allow-large-n", "paretosimplex: error: unrecognized arguments: --allow-large-n"),
        ("test", "paretosimplex test: error: the following arguments are required: matrix, point"),
    ],
)
def test_usage_errors_name_the_argument(capsys, error_table_dir, command, last_line):
    code, out, err = run(capsys, *shlex.split(command))
    assert (code, out, err.splitlines()[-1:]) == (2, "", [last_line])


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
