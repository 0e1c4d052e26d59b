"""Command line front end.

Matrix files are either a JSON object with fields k, n, and C (row-major
list of criteria rows) or headerless CSV with one criteria row per line;
``load_matrix`` tells them apart by the file's first non-blank character.
Both are read as UTF-8, and a leading byte-order mark, which spreadsheet
programs write, is dropped.
Points and weights on the command line are comma-separated numbers.  All
indices printed or read are 1-based.

``test`` and ``oracle`` take their point literals out of argv themselves
(``_split_points``), and argparse reads only the options, the matrix path
and one stand-in point.  So ``--`` is optional: an argument that starts
with ``-`` and a digit, or ``-.`` and a digit, is never an option.  Both report their
points in order, up to the first bad one, and then fail with its error:
a malformed literal's, else a dimension mismatch, else the point rules'.
``test`` numbers its rows by class and clamped indices in one pass
(``point_groups``), and on each group's first row looks up the report of
its class with ``EfficiencyAnalyzer.report`` and renders it once, with
its clamped indices; only the text ``point:`` line shows the point's own
clamped coordinates.  ``plot3`` decides its grid through ``decide_many``.

A command only appends its output documents to the list ``main`` passes
it, or raises: one JSON line under --json, else one text block, built
only then.  ``test`` and ``oracle`` append one per point, the other five
one in all.  ``main`` writes the documents with one write to stdout, also
when the command raises, and then prints the error line.

Exit codes, which ``main`` reads from one table, ``_EXIT_CODES``: 0
success, 2 malformed input, 3 dimension mismatch, 4 solver failure or a
disagreement under enumerate --oracle, 5 enumeration would list more
supports than the bound allows.  Any error but a usage error prints one
``error:`` line to stderr.  NumPy's overflow and invalid-value warnings are silenced, since
the finiteness checks already turn such values into errors.

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
import re
import sys
from pathlib import Path

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    CriteriaMatrix,
    Deterministic,
    DimensionMismatchError,
    InputError,
    PartiallyRandomized,
    PointClass,
    Randomized,
    SimplexPoint,
    Tolerances,
    Verdict,
    check_dimension,
    check_points,
    point_groups,
    row_key,
    support_class,
)
from .efficiency import EfficiencyAnalyzer, EfficiencyReport
from .enumeration import (
    EnumerationCapError,
    bicheck,
    check_full,
    enumerate_faces,
    _listed_supports,
)
from . import oracle
from .lp import LpError
from .scalarize import WeightVector, argmax_set, check_weights, weighted_objective

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_SOLVER = 4
EXIT_SIZE_CAP = 5

# The exit code of each error a command may raise, the first matching class
# winning: a dimension mismatch is also an input error.
_EXIT_CODES = {
    DimensionMismatchError: EXIT_DIMENSION,
    InputError: EXIT_PARSE,
    EnumerationCapError: EXIT_SIZE_CAP,
    LpError: EXIT_SOLVER,
}

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


def load_matrix(path: str) -> CriteriaMatrix:
    """Read the matrix file at ``path``: JSON if its first non-blank
    character is ``{`` or ``[``, else CSV, since CSV rows are numbers."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
        if text.lstrip()[:1] not in ("{", "["):
            return CriteriaMatrix([[float(cell) for cell in record] for record in csv.reader(io.StringIO(text)) if record])
        doc = json.loads(text)
        if not isinstance(doc, dict) or "C" not in doc:
            raise InputError("expected an object with a 'C' field")
        matrix = CriteriaMatrix(doc["C"])
        for name, expected in (("k", matrix.k), ("n", matrix.n)):
            if name in doc and doc[name] != expected:
                raise InputError(f"field {name}={doc[name]} disagrees with C ({expected})")
        return matrix
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


# The printed names of a point class, and of the face its points fill.
_CLASS_NAMES = {Deterministic: "deterministic", PartiallyRandomized: "partial", Randomized: "randomized"}
_FACE_KINDS = {Deterministic: "vertex", PartiallyRandomized: "open-face", Randomized: "all"}


def _support_list(point_class: PointClass, n: int) -> list[int]:
    """The 1-based support of the class's points out of n columns."""
    if isinstance(point_class, Randomized):
        return list(range(1, n + 1))
    return list(point_class.support)


def _face_payload(face: PointClass | None, n: int) -> dict | None:
    if face is None:
        return None
    return {"kind": _FACE_KINDS[type(face)], "support": _support_list(face, n)}


def _report_payload(point_class: PointClass, report: EfficiencyReport, n: int, clamped: tuple[int, ...]) -> dict:
    """The JSON document of the report on a point of this class with n
    components and these clamped indices."""
    return {
        "class": _CLASS_NAMES[type(point_class)],
        "support": _support_list(point_class, n),
        "verdict": report.verdict.value,
        "test": report.test.value,
        "value": 1.0 if report.verdict is Verdict.EFFICIENT else 0.0,
        "certificate": None if report.certificate is None else [float(w) for w in report.certificate.weights],
        "face": _face_payload(report.face, n),
        "clamped": list(clamped),
    }


def _report_text(point_class: PointClass, report: EfficiencyReport, n: int, clamped: tuple[int, ...], as_json: bool) -> str:
    """The report's JSON line, or the lines of its text block after
    ``point:``.  Neither holds the point's coordinates, so either is the
    same for every point with this class and these clamped indices."""
    payload = _report_payload(point_class, report, n, clamped)
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


def _point_rows(
    literals: list[str], n: int, tol: Tolerances
) -> tuple[np.ndarray, InputError | None]:
    """Checked coordinates of the literals before the first bad one, and
    that literal's error or None: a malformed literal's, else a dimension
    mismatch, else the point rules', from the one ``check_points`` call."""
    flat, error = None, None
    # One float pass over every component, taken only when each literal
    # has n components and all of them parse.
    if all(literal.count(",") == n - 1 for literal in literals):
        parts = ",".join(literals).split(",")
        try:
            flat = np.fromiter(map(float, parts), float, len(parts))
        except ValueError:
            pass
    if flat is None:
        # Else parse up to the first malformed literal or one of another length.
        flat = []
        for literal in literals:
            try:
                row = _numbers(literal, "point")
                check_dimension(len(row), n)
            except InputError as exc:
                error = exc
                break
            flat += row
    coords, rule_error = check_points(np.asarray(flat, float).reshape(-1, n), tol)
    return coords, error if rule_error is None else rule_error


def cmd_test(args: argparse.Namespace, matrix: CriteriaMatrix, tol: Tolerances, documents: list[str]) -> None:
    coords, error = _point_rows(args.points, matrix.n, tol)
    # Rows of one group share one report, and its JSON line or text block
    # after "point:" is rendered once, on the group's first row: groups are
    # numbered by first row, so that is the row whose group is not rendered yet.
    analyzer = EfficiencyAnalyzer(matrix, tol)
    texts: list[str] = []
    for index, group in enumerate(point_groups(coords, tol).tolist()):
        if group == len(texts):
            point_class, clamped = row_key(coords[index], tol)
            texts.append(_report_text(point_class, analyzer.report(point_class), matrix.n, clamped, args.json))
        documents.append(texts[group] if args.json else f"point: {_items(coords[index])}\n{texts[group]}")
    if error is not None:
        raise error


def cmd_check_full(args: argparse.Namespace, matrix: CriteriaMatrix, tol: Tolerances, documents: list[str]) -> None:
    full, certificate = check_full(EfficiencyAnalyzer(matrix, tol))
    weights = None if certificate is None else [float(w) for w in certificate.weights]
    documents.append(_json_text({"full": full, "certificate": weights}) if args.json else "\n".join([
        f"full: {'yes' if full else 'no'}",
        *([] if weights is None else [f"certificate: {_items(weights)}"]),
    ]))


def cmd_enumerate(args: argparse.Namespace, matrix: CriteriaMatrix, tol: Tolerances, documents: list[str]) -> None:
    if args.oracle:
        # Listed first, so that a sweep past the listing bound is refused unscanned.
        supports = [(j,) for j in range(1, matrix.n + 1)] + _listed_supports(matrix.n, args.max_support)
    structure = enumerate_faces(EfficiencyAnalyzer(matrix, tol), args.max_support)
    vertices = sorted(structure.vertices)
    faces = sorted((face.indices for face in structure.faces), key=lambda face: (len(face), face))
    payload = {
        "full": structure.full,
        "vertices": vertices,
        "faces": [list(face) for face in faces],
        "exhaustive": structure.exhaustive,
        "warning": None,  # always null; kept so that readers of the document find the key
    }
    agreement = []
    if args.oracle:
        efficient = {(j,) for j in vertices}.union(faces)
        for combo in supports:
            coords = np.zeros(matrix.n)
            coords[[j - 1 for j in combo]] = 1.0 / len(combo)
            verdict = oracle.dominance_lp_verdict(matrix, SimplexPoint(coords, tol), tol)
            agrees = (combo in efficient) == (verdict is Verdict.EFFICIENT)
            agreement.append({"support": list(combo), "agrees": agrees})
        payload["oracle"] = agreement
    documents.append(_json_text(payload) if args.json else "\n".join([
        f"full: {'yes' if structure.full else 'no'}",
        f"efficient vertices: {_items(vertices) or '(none)'}",
        f"efficient faces: {'; '.join(_items(face, braces=True) for face in faces) or '(none)'}",
        f"exhaustive: {'yes' if structure.exhaustive else 'no'}",
        *(f"oracle {_items(entry['support'], braces=True)}: {'agree' if entry['agrees'] else 'DISAGREE'}"
          for entry in agreement),
    ]))
    disagreements = sum(not entry["agrees"] for entry in agreement)
    if disagreements:
        raise LpError(f"{disagreements} supports disagree with the dominance oracle")


def cmd_scalarize(args: argparse.Namespace, matrix: CriteriaMatrix, tol: Tolerances, documents: list[str]) -> None:
    values = _numbers(args.weights, "weights")
    check_weights(len(values), matrix.k)
    coeffs = weighted_objective(matrix, WeightVector(values))
    solutions = _face_payload(support_class(argmax_set(coeffs, tol), matrix.n), matrix.n)
    payload = {
        "coeffs": [float(c) for c in coeffs],
        "dmax": float(coeffs.max()),
        "argmax": solutions["support"],
        "solution_set": solutions,
    }
    documents.append(_json_text(payload) if args.json else "\n".join([
        f"coeffs: {_items(payload['coeffs'])}",
        f"dmax: {_json_text(payload['dmax'])}",
        f"argmax: {_items(solutions['support'])}",
        f"solution set: {solutions['kind']} {_items(solutions['support'], braces=True)}",
    ]))


def cmd_bicheck(args: argparse.Namespace, matrix: CriteriaMatrix, tol: Tolerances, documents: list[str]) -> None:
    full, ratios = bicheck(matrix, tol)
    documents.append(_json_text({"full": full, "ratios": ratios}) if args.json else "\n".join([
        f"full: {'yes' if full else 'no'}", f"ratios: {_items(ratios)}"
    ]))


def cmd_plot3(args: argparse.Namespace, matrix: CriteriaMatrix, tol: Tolerances, documents: list[str]) -> None:
    if matrix.n != 3:
        raise DimensionMismatchError(f"plot3 needs exactly 3 columns, matrix has {matrix.n}")
    if args.density < 1:
        raise InputError("density must be at least 1")
    analyzer = EfficiencyAnalyzer(matrix, tol)
    d = args.density
    grid = [[a / d, b / d, (d - a - b) / d] for a in range(d + 1) for b in range(d - a + 1)]
    rows = [{"point": c, "verdict": report.verdict.value} for c, report in zip(grid, analyzer.decide_many(grid))]
    documents.append(_json_text({"density": d, "rows": rows}) if args.json else "\n".join([
        "x1,x2,x3,verdict", *(",".join(map(_json_text, row["point"])) + f",{row['verdict']}" for row in rows)
    ]))


def cmd_oracle(args: argparse.Namespace, matrix: CriteriaMatrix, tol: Tolerances, documents: list[str]) -> None:
    coords, error = _point_rows(args.points, matrix.n, tol)
    for row in coords:
        verdict = oracle.dominance_lp_verdict(matrix, SimplexPoint(row, tol), tol)
        documents.append(_json_text({"point": row.tolist(), "verdict": verdict.value}) if args.json
                         else f"point: {_items(row)}\nverdict: {verdict.value}")
    if error is not None:
        raise error


# The options every subcommand takes, with their add_argument keywords, and
# the argv reader's lists of options and of those that take the next
# argument as their value: all but the flags.
_COMMON = (
    ("--tol-x", dict(type=float, default=DEFAULT_TOLERANCES.x_zero, help="zero threshold for point components")),
    ("--tol-d", dict(type=float, default=DEFAULT_TOLERANCES.tie, help="tie threshold for objective coefficients")),
    ("--tol-lp", dict(type=float, default=DEFAULT_TOLERANCES.lp, help="simplex pivot tolerance")),
    ("--json", dict(action="store_true", help="emit JSON instead of text")),
)
_OPTIONS = ("-h", "--help", *(name for name, _ in _COMMON))
_VALUED = tuple(name for name, keywords in _COMMON if "action" not in keywords)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for name, keywords in _COMMON:
        common.add_argument(name, **keywords)

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

# An argument that starts like a negative number, such as -1e-10,0.5,0.5.
_NUMBER = re.compile(r"-\.?\d")
# What argparse reads as the points of test and oracle: one positional argument.
_STAND_IN = "0"


def _positional(arg: str) -> bool:
    """Whether argparse reads ``arg`` as a positional argument of a
    subcommand rather than as an option name, known, abbreviated or unknown.
    One exception: an argument that starts like a negative number, such as
    ``-1e-10,0.5,0.5``, is positional here, where argparse may take it for
    an option."""
    if not arg.startswith("-") or arg == "-" or _NUMBER.match(arg):
        return True
    if arg.startswith("--"):
        # A full or abbreviated long option, with or without "=value".
        name = arg.split("=", 1)[0]
        if any(option.startswith(name) for option in _OPTIONS):
            return False
    elif arg[:2] in _OPTIONS:
        return False
    return " " in arg


def _takes_value(arg: str) -> bool:
    """Whether argparse gives the option ``arg`` the next argument as its
    value: ``arg`` names a valued option in full or by a unique prefix,
    without ``=value``."""
    if "=" in arg:
        return False
    names = [option for option in _OPTIONS if option.startswith(arg)]
    return arg in _VALUED or (len(names) == 1 and names[0] in _VALUED)


def _split_points(argv: list[str]) -> tuple[list[str], list[str] | None]:
    """Take the point literals of ``test`` and ``oracle`` out of ``argv``.

    One scan finds the positional arguments, skipping option values before
    the first literal and stopping at the first option after it; every
    argument after the first ``--`` is positional, and that ``--`` is none.
    The first is the matrix path, the rest are the literals.  Returns argv
    with one stand-in point in place of the literals' run, so that argparse
    reads every other argument as before but no literal, and the literals.
    With no literal, or for another command, returns argv unchanged and None.
    """
    if argv[:1] not in (["test"], ["oracle"]):
        return argv, None
    dashes = skip = False
    positionals: list[int] = []
    end = len(argv)
    for index, arg in enumerate(argv[1:], 1):
        if skip:
            skip = False
        elif arg == "--" and not dashes:
            dashes = True
        # Testing the first character spares each literal a call.
        elif arg[:1] != "-" or dashes or _positional(arg):
            positionals.append(index)
        elif len(positionals) > 1:
            end = index
            break
        else:
            skip = _takes_value(arg)
    if len(positionals) < 2:
        return argv, None
    return [*argv[: positionals[1]], _STAND_IN, *argv[end:]], [argv[i] for i in positionals[1:]]


def _join_weights(argv: list[str]) -> list[str]:
    """Join ``scalarize``'s ``--weights``, or a prefix of it, and a next
    argument that starts like a negative number into ``--weights=<literal>``."""
    for index, arg in enumerate(argv[1:-1] if argv[:1] == ["scalarize"] else [], 1):
        if arg == "--":
            break
        if len(arg) > 2 and "--weights".startswith(arg) and _NUMBER.match(argv[index + 1]):
            return [*argv[:index], f"--weights={argv[index + 1]}", *argv[index + 2 :]]
    return argv


def main(argv: list[str] | None = None) -> int:
    argv, literals = _split_points(sys.argv[1:] if argv is None else list(argv))
    argv = _join_weights(argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    if literals is not None:
        args.points = literals
    # A parameter of the command, not its return value, so that the
    # documents it appended before raising are written too.
    documents: list[str] = []
    try:
        try:
            tol = Tolerances(x_zero=args.tol_x, tie=args.tol_d, lp=args.tol_lp)
            # The finiteness checks raise on what these warnings would report.
            with np.errstate(over="ignore", invalid="ignore"):
                args.func(args, load_matrix(args.matrix), tol, documents)
        finally:
            if documents:
                sys.stdout.write(("\n" if args.json else "\n\n").join(documents) + "\n")
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
