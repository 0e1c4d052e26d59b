"""Command line front end.

Matrix files are either a JSON object with fields k, n, and C (row-major
list of criteria rows) or headerless CSV with one criteria row per line;
the format is sniffed from the file extension and can be forced with
--format.  Points and weights on the command line are comma-separated
numbers.  All indices printed or read are 1-based.

``test`` reports its points in order, up to the first bad one, and then
fails with that point's error.  A report depends on the point only through
its class and clamped indices, apart from the text ``point:`` line, which
shows the point's own clamped coordinates; each distinct (class, clamped
indices) key is decided and rendered once, on its first point.

Exit codes: 0 success, 2 malformed input, 3 dimension mismatch, 4 solver
failure or a disagreement under enumerate --oracle, 5 enumeration would
list more supports than the bound allows.

Numbers are printed with 17 significant digits so every value round-trips
exactly; for fixed input and options the output is byte-identical across
runs.  main can be called many times in one process; it builds its parser
on the first call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

import numpy as np

from .core import (
    CriteriaMatrix,
    Deterministic,
    DimensionMismatchError,
    InputError,
    PartiallyRandomized,
    Randomized,
    SimplexPoint,
    SupportPattern,
    Tolerances,
    Verdict,
    check_points,
    classify_points,
)
from .efficiency import EfficiencyAnalyzer, EfficiencyReport
from .enumeration import (
    EnumerationCapError,
    bicriterion_full_check,
    bicriterion_ratios,
    check_full,
    enumerate_faces,
    _listed_supports,
)
from .lp import LpError
from .oracle import dominance_lp_verdict
from .scalarize import (
    FullSimplex,
    UniqueVertex,
    WeightVector,
    argmax_set,
    solution_set,
    weighted_objective,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_SOLVER = 4
EXIT_SIZE_CAP = 5

#: Schema of the JSON documents printed by the ``test`` command (one per point).
REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "class": {"enum": ["deterministic", "partial", "randomized"]},
        "support": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "verdict": {"enum": ["efficient", "dominated"]},
        "test": {"enum": ["T0", "T1", "T2", "closure"]},
        "value": {"type": "number"},
        "certificate": {
            "type": ["array", "null"],
            "items": {"type": "number"},
        },
        "face": {
            "type": ["object", "null"],
            "properties": {
                "kind": {"enum": ["all", "vertex", "open-face"]},
                "support": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            },
            "required": ["kind", "support"],
            "additionalProperties": False,
        },
        "clamped": {"type": "array", "items": {"type": "integer", "minimum": 1}},
    },
    "required": ["class", "support", "verdict", "test", "value", "certificate", "face", "clamped"],
    "additionalProperties": False,
}


def _json_text(value) -> str:
    """Serialize with fixed key order and 17-significant-digit floats."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _items(values, braces: bool = False) -> str:
    """Comma-separated values, each written as ``_json_text`` writes it,
    in set braces if asked."""
    text = ", ".join(_json_text(v) for v in values)
    return "{" + text + "}" if braces else text


def _numbers(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(f"malformed {what} literal {text!r}: {exc}") from None


def load_matrix(path: str, fmt: str | None) -> CriteriaMatrix:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    if fmt is None:
        fmt = "json" if path.lower().endswith(".json") else "csv"
    doc = {}
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(doc, dict) or "C" not in doc:
            raise InputError(f"{path}: expected an object with a 'C' field")
    try:
        if fmt == "json":
            rows = doc["C"]
        else:
            rows = [[float(cell) for cell in record] for record in csv.reader(io.StringIO(text)) if record]
        matrix = CriteriaMatrix(rows)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    for name, expected in (("k", matrix.k), ("n", matrix.n)):
        if name in doc and doc[name] != expected:
            raise InputError(f"{path}: field {name}={doc[name]} disagrees with C ({expected})")
    return matrix


def _parse_point(text: str, tol: Tolerances) -> SimplexPoint:
    values = _numbers(text, "point")
    return SimplexPoint(values, tol)


def _class_name(report: EfficiencyReport) -> str:
    if isinstance(report.point_class, Deterministic):
        return "deterministic"
    if isinstance(report.point_class, PartiallyRandomized):
        return "partial"
    return "randomized"


def _support_list(report: EfficiencyReport) -> list[int]:
    if isinstance(report.point_class, Randomized):
        return list(range(1, report.point.n + 1))
    return list(report.point_class.support)


def _face_payload(face, n: int) -> dict | None:
    if face is None:
        return None
    if isinstance(face, FullSimplex):
        return {"kind": "all", "support": list(range(1, n + 1))}
    if isinstance(face, UniqueVertex):
        return {"kind": "vertex", "support": [face.index]}
    return {"kind": "open-face", "support": list(face.support)}


def _report_payload(report: EfficiencyReport) -> dict:
    return {
        "class": _class_name(report),
        "support": _support_list(report),
        "verdict": report.verdict.value,
        "test": report.test.value,
        "value": 1.0 if report.verdict is Verdict.EFFICIENT else 0.0,
        "certificate": None if report.certificate is None else [float(w) for w in report.certificate.weights],
        "face": _face_payload(report.face, report.point.n),
        "clamped": list(report.clamped),
    }


def _report_text(report: EfficiencyReport, as_json: bool) -> str:
    """The report's JSON line, or the lines of its text block after
    ``point:``.  Neither holds the point's coordinates, so either is the
    same for every point with the report's class and clamped indices."""
    payload = _report_payload(report)
    if as_json:
        return _json_text(payload)
    lines = [
        f"class: {payload['class']}",
        f"support: {_items(payload['support'])}",
        f"verdict: {payload['verdict']}",
        f"test: {payload['test']}  value: {_json_text(payload['value'])}",
    ]
    if payload["certificate"] is not None:
        lines.append(f"certificate: {_items(payload['certificate'])}")
    if payload["face"] is not None:
        face = payload["face"]
        lines.append(f"face: {face['kind']} {_items(face['support'], braces=True)}")
    if payload["clamped"]:
        lines.append(f"clamped: {_items(payload['clamped'])}")
    return "\n".join(lines)


def _point_rows(literals: list[str], n: int) -> tuple[np.ndarray, str | None]:
    """Coordinates of the literals before the first one that is malformed or
    does not have n components, and that literal (None if there is none)."""
    # One float pass over every component, taken only when each literal
    # has n components and all of them parse.
    if all(literal.count(",") == n - 1 for literal in literals):
        parts = ",".join(literals).split(",")
        try:
            flat = np.fromiter(map(float, parts), float, len(parts))
        except ValueError:
            pass
        else:
            return flat.reshape(len(literals), n), None
    rows = np.empty((len(literals), n))
    for count, literal in enumerate(literals):
        try:
            values = _numbers(literal, "point")
        except InputError:
            break
        if len(values) != n:
            break
        rows[count] = values
    else:
        return rows, None
    return rows[:count], literal


def cmd_test(args: argparse.Namespace, matrix: CriteriaMatrix, tol: Tolerances) -> int:
    analyzer = EfficiencyAnalyzer(matrix, tol)
    rows, stop = _point_rows(args.points, matrix.n)
    coords, error = check_points(rows, tol)
    # Efficiency depends on the point class alone, and the JSON line or
    # text block after "point:" on the class and clamped indices, so each
    # such key is decided and rendered once, on its first row.
    rendered: dict[tuple, str] = {}
    for index, key in enumerate(classify_points(coords, tol)):
        text = rendered.get(key)
        if text is None:
            report = analyzer.decide(SimplexPoint(coords[index], tol))
            text = rendered[key] = _report_text(report, args.json)
        if not args.json:
            if index:
                print()
            print(f"point: {_items(coords[index])}")
        print(text)
    if error is not None:
        raise error
    if stop is not None:
        # Raises the error that deciding this literal on its own raises.
        analyzer.decide(_parse_point(stop, tol))
    return EXIT_OK


def cmd_check_full(args: argparse.Namespace, matrix: CriteriaMatrix, tol: Tolerances) -> int:
    full, certificate = check_full(matrix, tol)
    payload = {
        "full": full,
        "certificate": None if certificate is None else [float(w) for w in certificate.weights],
    }
    if args.json:
        print(_json_text(payload))
    else:
        print(f"full: {'yes' if full else 'no'}")
        if certificate is not None:
            print(f"certificate: {_items(certificate.weights)}")
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace, matrix: CriteriaMatrix, tol: Tolerances) -> int:
    if args.oracle:
        # Listed first, so that a sweep past the listing bound is refused unscanned.
        supports = [(j,) for j in range(1, matrix.n + 1)] + _listed_supports(matrix.n, args.max_support)
    structure = enumerate_faces(matrix, tol, max_support=args.max_support)
    vertices = sorted(structure.vertices)
    faces = sorted(structure.faces, key=lambda p: (len(p), p.indices))
    payload = {
        "full": structure.full,
        "vertices": vertices,
        "faces": [list(face) for face in faces],
        "exhaustive": structure.exhaustive,
        "warning": None,  # always null; kept so that readers of the document find the key
    }
    agreement = None
    if args.oracle:
        agreement = []
        for combo in supports:
            coords = np.zeros(matrix.n)
            coords[[j - 1 for j in combo]] = 1.0 / len(combo)
            verdict = dominance_lp_verdict(matrix, SimplexPoint(coords, tol), tol)
            if len(combo) == 1:
                efficient = combo[0] in structure.vertices
            else:
                efficient = SupportPattern(combo) in structure.faces
            agreement.append(
                {"support": list(combo), "agrees": efficient == (verdict is Verdict.EFFICIENT)}
            )
        payload["oracle"] = agreement
    disagreements = sum(not entry["agrees"] for entry in agreement or ())
    if disagreements:
        print(f"error: {disagreements} supports disagree with the dominance oracle", file=sys.stderr)
    status = EXIT_SOLVER if disagreements else EXIT_OK
    if args.json:
        print(_json_text(payload))
        return status
    print(f"full: {'yes' if structure.full else 'no'}")
    print(f"efficient vertices: {_items(vertices) or '(none)'}")
    print(f"efficient faces: {'; '.join(_items(face, braces=True) for face in faces) or '(none)'}")
    print(f"exhaustive: {'yes' if structure.exhaustive else 'no'}")
    if agreement is not None:
        for entry in agreement:
            print(f"oracle {_items(entry['support'], braces=True)}: {'agree' if entry['agrees'] else 'DISAGREE'}")
    return status


def cmd_scalarize(args: argparse.Namespace, matrix: CriteriaMatrix, tol: Tolerances) -> int:
    weights = WeightVector(_numbers(args.weights, "weights"))
    objective = weighted_objective(matrix, weights)
    tied = argmax_set(objective, tol)
    desc_payload = _face_payload(solution_set(matrix, weights, tol), matrix.n)
    payload = {
        "coeffs": [float(c) for c in objective.coeffs],
        "dmax": objective.dmax,
        "argmax": list(tied),
        "solution_set": desc_payload,
    }
    if args.json:
        print(_json_text(payload))
    else:
        print(f"coeffs: {_items(objective.coeffs)}")
        print(f"dmax: {_json_text(objective.dmax)}")
        print(f"argmax: {_items(tied)}")
        print(f"solution set: {desc_payload['kind']} {_items(desc_payload['support'], braces=True)}")
    return EXIT_OK


def cmd_bicheck(args: argparse.Namespace, matrix: CriteriaMatrix, tol: Tolerances) -> int:
    full = bicriterion_full_check(matrix, tol)
    ratios = bicriterion_ratios(matrix)
    payload = {"full": full, "ratios": [float(r) for r in ratios]}
    if args.json:
        print(_json_text(payload))
    else:
        print(f"full: {'yes' if full else 'no'}")
        print(f"ratios: {_items(ratios)}")
    return EXIT_OK


def cmd_plot3(args: argparse.Namespace, matrix: CriteriaMatrix, tol: Tolerances) -> int:
    if matrix.n != 3:
        raise DimensionMismatchError(f"plot3 needs exactly 3 columns, matrix has {matrix.n}")
    if args.density < 1:
        raise InputError("density must be at least 1")
    analyzer = EfficiencyAnalyzer(matrix, tol)
    d = args.density
    grid = [[a / d, b / d, (d - a - b) / d] for a in range(d + 1) for b in range(d - a + 1)]
    rows = [(coords, report.verdict.value) for coords, report in zip(grid, analyzer.decide_many(grid))]
    if args.json:
        payload = {
            "density": d,
            "rows": [{"point": coords, "verdict": verdict} for coords, verdict in rows],
        }
        print(_json_text(payload))
    else:
        print("x1,x2,x3,verdict")
        for coords, verdict in rows:
            print(",".join(_json_text(c) for c in coords) + f",{verdict}")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace, matrix: CriteriaMatrix, tol: Tolerances) -> int:
    first = True
    for literal in args.points:
        point = _parse_point(literal, tol)
        verdict = dominance_lp_verdict(matrix, point, tol)
        payload = {
            "point": [float(c) for c in point.coords],
            "verdict": verdict.value,
        }
        if args.json:
            print(_json_text(payload))
        else:
            if not first:
                print()
            print(f"point: {_items(point.coords)}")
            print(f"verdict: {verdict.value}")
        first = False
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # Every subcommand takes the tolerances, --json and --format.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-x", type=float, default=1e-9, help="zero threshold for point components")
    common.add_argument("--tol-d", type=float, default=1e-7, help="tie threshold for objective coefficients")
    common.add_argument("--tol-lp", type=float, default=1e-9, help="simplex pivot tolerance")
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--format", choices=("json", "csv"), default=None, help="matrix file format (default: sniff extension)")

    parser = argparse.ArgumentParser(
        prog="paretosimplex",
        description="Pareto efficiency tests and enumeration for linear criteria on the probability simplex.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", parents=[common], help="decide efficiency of one or more points")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("points", nargs="+", metavar="point", help="comma-separated coordinates")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("enumerate", parents=[common], help="enumerate efficient vertices and faces")
    p.add_argument("matrix")
    p.add_argument("--max-support", type=int, default=None, help="largest support size to scan when enumerating")
    p.add_argument("--oracle", action="store_true", help="cross-check each scanned support against the dominance oracle")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("check-full", parents=[common], help="decide whether every feasible point is efficient")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_check_full)

    p = sub.add_parser("scalarize", parents=[common], help="collapse the criteria under weights and describe the maximizers")
    p.add_argument("matrix")
    p.add_argument("--weights", required=True, help="comma-separated weights, one per criterion")
    p.set_defaults(func=cmd_scalarize)

    p = sub.add_parser("bicheck", parents=[common], help="closed-form full-efficiency test for two criteria")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_bicheck)

    p = sub.add_parser("plot3", parents=[common], help="verdict grid over the 3-column simplex as plot data")
    p.add_argument("matrix")
    p.add_argument("--density", type=int, required=True, help="grid subdivisions per edge")
    p.set_defaults(func=cmd_plot3)

    p = sub.add_parser("oracle", parents=[common], help="dominance-LP verdict for one or more points")
    p.add_argument("matrix")
    p.add_argument("points", nargs="+", metavar="point")
    p.set_defaults(func=cmd_oracle)
    return parser


# Built on the first main call, not at import.  Sharing one parser is safe:
# parse_args returns a fresh Namespace and no action has a mutable default.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        tol = Tolerances(x_zero=args.tol_x, tie=args.tol_d, lp=args.tol_lp)
        return args.func(args, load_matrix(args.matrix, args.format), tol)
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except LpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
