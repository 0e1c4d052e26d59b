"""Certificate programs and the decision procedure."""

import dataclasses
import itertools
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_EFFICIENT_ROWS, barycenter, margin_form_optima, random_matrix, random_point_on_support

import paretosimplex.efficiency as efficiency_module
from paretosimplex.cli import _report_payload
from paretosimplex.core import row_key
from paretosimplex import (
    CriteriaMatrix,
    Deterministic,
    DimensionMismatchError,
    EfficiencyAnalyzer,
    InputError,
    LpError,
    PartiallyRandomized,
    Randomized,
    Relation,
    SimplexPoint,
    StandardLp,
    SupportPattern,
    TestKind as Kind,
    Tolerances,
    Verdict,
    WeightVector,
    argmax_set,
    build_closure,
    build_t0,
    build_t1,
    build_t2,
    check_full,
    check_points,
    clamped_indices,
    classify,
    enumerate_faces,
    solution_set,
    solve,
    support_class,
    verify_certificate,
    vertex,
    weighted_objective,
)

# Columns 2 and 3 are identical and jointly undominated: no weighting can
# single either vertex out, but both sit on the closed efficient face {2,3}.
DUPLICATE_COLUMN_ROWS = [[-2.0, 6.0, 6.0, 5.0, -9.0], [1.0, 4.0, 4.0, 1.0, 1.0]]


def _assert_layout(lp, kind, matrix, support, gap):
    """The ``kind`` program is over k weight offsets u >= 0: |S| - 1 tie rows, then one row per other column, in column
    order, whose lead over that column must reach ``gap`` under w = 1 + u.  T1 and T2 end with the row sum(u) / 1e6 <= 1."""
    entries = matrix.entries
    inside = [j - 1 for j in support]
    outside = [j for j in range(matrix.n) if j + 1 not in support]
    ties = len(inside) - 1
    capped = int(kind in (Kind.T1, Kind.T2))
    assert lp.num_vars == matrix.k
    assert lp.num_rows == ties + len(outside) + capped
    assert lp.relations == (Relation.EQ,) * ties + (Relation.GE,) * len(outside) + (Relation.LE,) * capped
    rows = [entries[:, a] - entries[:, b] for a, b in itertools.pairwise(inside)]
    rows += [entries[:, inside[0]] - entries[:, j] for j in outside]
    rows += [np.full(matrix.k, 1e-6)] * capped
    assert np.array_equal(lp.a, np.array(rows))
    gaps = [0.0] * ties + [gap] * len(outside) - lp.a[: len(rows) - capped].sum(axis=1)
    assert np.array_equal(lp.rhs, [*gaps, *[1.0] * capped])


def test_t0_program_shape(edge_matrix):
    result = EfficiencyAnalyzer(edge_matrix).t0()
    assert result.kind is Kind.T0
    assert result.target == SupportPattern((1, 2, 3))
    lp = build_t0(edge_matrix)
    _assert_layout(lp, Kind.T0, edge_matrix, (1, 2, 3), 1.0)
    # column sums are 3, 0 and -3.5
    assert lp.rhs.tolist() == [-3.0, -3.5]


def test_t1_program_shape(edge_matrix):
    support = SupportPattern((1, 2))
    result = EfficiencyAnalyzer(edge_matrix).t1(support)
    assert result.kind is Kind.T1
    assert result.target == support
    lp = build_t1(edge_matrix, support)
    _assert_layout(lp, Kind.T1, edge_matrix, support, 1.0)
    assert lp.rhs.tolist() == [-3.0, 1.0 - 6.5, 1.0]


def test_t2_program_shape(edge_matrix):
    result = EfficiencyAnalyzer(edge_matrix).t2(2)
    assert result.kind is Kind.T2
    assert result.target == SupportPattern((2,))
    lp = build_t2(edge_matrix, 2)
    _assert_layout(lp, Kind.T2, edge_matrix, (2,), 1.0)
    assert lp.rhs.tolist() == [1.0 + 3.0, 1.0 - 3.5, 1.0]


def test_closure_program_shape(edge_matrix):
    result = EfficiencyAnalyzer(edge_matrix).closure(SupportPattern((2,)))
    assert result.kind is Kind.CLOSURE
    assert result.target == SupportPattern((2,))
    lp = build_closure(edge_matrix, SupportPattern((2,)))
    _assert_layout(lp, Kind.CLOSURE, edge_matrix, (2,), 0.0)
    assert lp.rhs.tolist() == [3.0, -3.5]

    pair = build_closure(edge_matrix, SupportPattern((1, 3)))
    _assert_layout(pair, Kind.CLOSURE, edge_matrix, (1, 3), 0.0)
    assert pair.rhs.tolist() == [-6.5, -3.0]


def test_builders_return_their_standard_lp(edge_matrix):
    # A builder returns the program alone; the analyzer's result records
    # the kind and target it was asked for next to the program it solved.
    analyzer = EfficiencyAnalyzer(edge_matrix)
    pair = SupportPattern((1, 2))
    built = {
        Kind.T0: (build_t0(edge_matrix), analyzer.t0()),
        Kind.T1: (build_t1(edge_matrix, pair), analyzer.t1(pair)),
        Kind.T2: (build_t2(edge_matrix, 2), analyzer.t2(2)),
        Kind.CLOSURE: (build_closure(edge_matrix, pair), analyzer.closure(pair)),
    }
    for kind, (lp, result) in built.items():
        assert type(lp) is StandardLp
        assert type(result.lp) is StandardLp and result.kind is kind
        assert np.array_equal(result.lp.a, lp.a) and np.array_equal(result.lp.rhs, lp.rhs)
        assert result.lp.relations == lp.relations


def test_builder_validation(edge_matrix):
    with pytest.raises(InputError):
        build_t1(edge_matrix, SupportPattern((1, 2, 3)))  # full support belongs to T0
    with pytest.raises(InputError):
        build_t1(edge_matrix, SupportPattern((2,)))  # singleton belongs to T2
    with pytest.raises(InputError):
        build_t2(edge_matrix, 0)
    with pytest.raises(InputError):
        build_t2(edge_matrix, 4)
    with pytest.raises(InputError):
        build_closure(edge_matrix, SupportPattern((1, 2, 3)))
    with pytest.raises(DimensionMismatchError):
        build_closure(edge_matrix, SupportPattern((4,)))


def test_program_optima_on_edge_instance(edge_matrix):
    analyzer = EfficiencyAnalyzer(edge_matrix)
    assert analyzer.t0().value == pytest.approx(0.0, abs=1e-6)
    assert analyzer.t1(SupportPattern((1, 2))).value == pytest.approx(1.0, abs=1e-6)
    assert analyzer.t1(SupportPattern((1, 3))).value == pytest.approx(0.0, abs=1e-6)
    assert analyzer.t1(SupportPattern((2, 3))).value == pytest.approx(0.0, abs=1e-6)
    assert analyzer.t2(1).value == pytest.approx(1.0, abs=1e-6)
    assert analyzer.t2(2).value == pytest.approx(1.0, abs=1e-6)
    assert analyzer.t2(3).value == pytest.approx(0.0, abs=1e-6)


def test_t0_optimum_on_full_instance(full_matrix):
    assert EfficiencyAnalyzer(full_matrix).t0().value == pytest.approx(1.0, abs=1e-6)


def test_decide_open_face_point(edge_matrix):
    point = SimplexPoint([0.55, 0.45, 0.0])
    report = EfficiencyAnalyzer(edge_matrix).decide(point)
    assert report.verdict is Verdict.EFFICIENT
    assert report.test is Kind.T1
    assert report.face == PartiallyRandomized(SupportPattern((1, 2)))
    assert report.certificate is not None
    assert float(report.certificate.weights.min()) == 1.0
    assert verify_certificate(edge_matrix, report.certificate, classify(point))


def test_decide_dominated_face_point(edge_matrix):
    analyzer = EfficiencyAnalyzer(edge_matrix)
    point_class = PartiallyRandomized(SupportPattern((1, 3)))
    report = analyzer.decide(SimplexPoint([0.3, 0.0, 0.7]))
    assert report.verdict is Verdict.DOMINATED
    # dominated means even the weak-gap closure test failed
    assert report.test is Kind.CLOSURE
    assert _report_payload(point_class, report, 3, ())["value"] == 0.0
    assert analyzer.report(point_class) is report
    assert report.certificate is None and report.face is None


def test_decide_vertices(edge_matrix):
    for j, expected in ((1, Verdict.EFFICIENT), (2, Verdict.EFFICIENT), (3, Verdict.DOMINATED)):
        report = EfficiencyAnalyzer(edge_matrix).decide(vertex(j, 3))
        assert report.verdict is expected
        if expected is Verdict.EFFICIENT:
            assert report.test is Kind.T2
            assert report.face == Deterministic(j)
            assert verify_certificate(edge_matrix, report.certificate, Deterministic(j))
        else:
            assert report.test is Kind.CLOSURE


def test_decide_randomized_point_is_dominated_when_not_full(edge_matrix):
    report = EfficiencyAnalyzer(edge_matrix).decide(SimplexPoint([0.2, 0.3, 0.5]))
    assert report.verdict is Verdict.DOMINATED
    assert report.test is Kind.T0
    assert _report_payload(Randomized(), report, 3, ())["value"] == 0.0


def test_decide_on_full_instance_short_circuits(full_matrix):
    for point in (vertex(2, 3), SimplexPoint([0.5, 0.5, 0.0]), SimplexPoint([0.2, 0.3, 0.5])):
        report = EfficiencyAnalyzer(full_matrix).decide(point)
        assert report.verdict is Verdict.EFFICIENT
        assert report.test is Kind.T0
        assert report.face == Randomized()
        assert verify_certificate(full_matrix, report.certificate, Randomized())


def test_every_class_of_a_full_matrix_shares_the_t0_report(full_matrix):
    analyzer = EfficiencyAnalyzer(full_matrix)
    full = analyzer.report(Randomized())
    for point_class in (Deterministic(2), PartiallyRandomized(SupportPattern((1, 3))), Randomized()):
        assert analyzer.report(point_class) is full
    assert analyzer.decide(SimplexPoint([0.5, 0.5, 0.0])) is full


def test_a_report_holds_the_decision_alone():
    # The class is the report's key, so the report does not repeat it.
    fields = [field.name for field in dataclasses.fields(efficiency_module.EfficiencyReport)]
    assert fields == ["verdict", "test", "certificate", "face"]


def test_boundary_of_duplicated_face_is_efficient():
    matrix = CriteriaMatrix(DUPLICATE_COLUMN_ROWS)
    analyzer = EfficiencyAnalyzer(matrix)
    for j in (2, 3):
        report = analyzer.decide(vertex(j, 5))
        assert report.verdict is Verdict.EFFICIENT
        assert report.test is Kind.CLOSURE
        assert _report_payload(Deterministic(j), report, 5, ())["value"] == 1.0
        assert report.face == PartiallyRandomized(SupportPattern((2, 3)))
        # the certificate ties the enclosing face, not the vertex alone
        assert verify_certificate(matrix, report.certificate, PartiallyRandomized(SupportPattern((2, 3))))
        assert not verify_certificate(matrix, report.certificate, Deterministic(j))
    for j in (1, 4, 5):
        assert analyzer.decide(vertex(j, 5)).verdict is Verdict.DOMINATED
    assert analyzer.t2(2).value == pytest.approx(0.0, abs=1e-6)
    assert analyzer.closure(SupportPattern((2,))).value == pytest.approx(1.0, abs=1e-6)


def test_column_inside_tied_hull_is_efficient():
    # column 3 is the midpoint of columns 1 and 2, so it can never be a
    # strict argmax, yet it is optimal whenever those two tie
    matrix = CriteriaMatrix([[1.0, 0.0, 0.5, -5.0], [0.0, 1.0, 0.5, -5.0]])
    report = EfficiencyAnalyzer(matrix).decide(vertex(3, 4))
    assert report.verdict is Verdict.EFFICIENT
    assert report.test is Kind.CLOSURE
    assert report.face == PartiallyRandomized(SupportPattern((1, 2, 3)))


def test_verify_certificate_fixture_values(edge_matrix):
    ones = WeightVector([1.0, 1.0, 1.0])
    assert verify_certificate(edge_matrix, ones, Deterministic(1))
    assert not verify_certificate(edge_matrix, ones, Randomized())
    assert not verify_certificate(edge_matrix, ones, Deterministic(2))
    assert not verify_certificate(edge_matrix, WeightVector([1.0, 0.0, 1.0]), Deterministic(1))


def test_verify_certificate_compares_face_classes(full_matrix):
    # (1, 2, 1) ties every column: its face is the whole simplex, which no
    # partially randomized class names, even one listing every column.
    ties_all = WeightVector([1.0, 2.0, 1.0])
    assert verify_certificate(full_matrix, ties_all, Randomized())
    assert not verify_certificate(full_matrix, ties_all, PartiallyRandomized(SupportPattern((1, 2, 3))))
    assert not verify_certificate(full_matrix, ties_all, PartiallyRandomized(SupportPattern((1, 2))))
    with pytest.raises(DimensionMismatchError, match="^2 weights for 3 criteria$"):
        verify_certificate(full_matrix, WeightVector([1.0, -1.0]), Randomized())


def test_clamped_boundary_point_decided_by_clamped_support(edge_matrix):
    point = SimplexPoint([0.5, 0.5 - 1e-12, 1e-12])
    analyzer = EfficiencyAnalyzer(edge_matrix)
    report = analyzer.decide(point)
    assert analyzer.report(PartiallyRandomized(SupportPattern((1, 2)))) is report
    assert clamped_indices(point) == (3,)
    assert report.test is Kind.T1
    assert report.verdict is Verdict.EFFICIENT


def test_points_of_one_class_share_one_report_whatever_they_clamp(edge_matrix):
    # The report is the decision for the class; the clamped component is
    # the point's own, read from the point.
    analyzer = EfficiencyAnalyzer(edge_matrix)
    clamped, plain = SimplexPoint([0.5, 0.5 - 1e-12, 1e-12]), SimplexPoint([0.5, 0.5, 0.0])
    assert analyzer.decide(clamped) is analyzer.decide(plain)
    assert (clamped_indices(clamped), clamped_indices(plain)) == ((3,), ())
    reports = list(analyzer.decide_many([clamped.coords, plain.coords]))
    assert reports[0] is reports[1] is analyzer.decide(plain)
    # One entry per class decided: {1, 2}, and the randomized class it reads first.
    assert set(analyzer._reports) == {PartiallyRandomized(SupportPattern((1, 2))), Randomized()}


def test_decide_dimension_mismatch(edge_matrix):
    with pytest.raises(DimensionMismatchError):
        EfficiencyAnalyzer(edge_matrix).decide(SimplexPoint([0.5, 0.5]))


def test_report_rejects_a_class_the_matrix_has_no_point_of(edge_matrix, full_matrix):
    # On the full matrix every class copies the randomized report, so the
    # class is checked before that copy is made.
    for matrix in (edge_matrix, full_matrix):
        analyzer = EfficiencyAnalyzer(matrix)
        with pytest.raises(DimensionMismatchError):
            analyzer.report(Deterministic(4))
        with pytest.raises(DimensionMismatchError):
            analyzer.report(PartiallyRandomized(SupportPattern((1, 4))))
        with pytest.raises(InputError):
            analyzer.report(PartiallyRandomized(SupportPattern((1, 2, 3))))
        point = SimplexPoint([0.5, 0.5, 1e-10])
        assert analyzer.report(PartiallyRandomized(SupportPattern((1, 2)))) is analyzer.decide(point)


def test_zero_one_law_sample():
    # Every kind, closure included, agrees with its margin-form reference,
    # whose optimum is 0 or 1.
    rng = np.random.default_rng(404)
    for _ in range(60):
        matrix = random_matrix(rng, n=int(rng.integers(2, 6)))
        n = matrix.n
        analyzer = EfficiencyAnalyzer(matrix)
        programs = [(Kind.T0, tuple(range(1, n + 1)), analyzer.t0())]
        programs += [(Kind.T2, (j,), analyzer.t2(j)) for j in range(1, n + 1)]
        for size in range(1, n):
            for combo in itertools.combinations(range(1, n + 1), size):
                if size > 1:
                    programs.append((Kind.T1, combo, analyzer.t1(SupportPattern(combo))))
                programs.append((Kind.CLOSURE, combo, analyzer.closure(SupportPattern(combo))))
        optima = margin_form_optima(matrix, [(kind, support) for kind, support, _ in programs])
        for (kind, support, result), optimum in zip(programs, optima):
            assert min(abs(optimum), abs(optimum - 1.0)) < 1e-6
            assert result.value == (1.0 if optimum > 0.5 else 0.0)


def test_verdict_depends_only_on_support():
    rng = np.random.default_rng(505)
    for _ in range(25):
        matrix = random_matrix(rng, n=int(rng.integers(3, 6)))
        size = int(rng.integers(2, matrix.n))
        support = sorted(1 + rng.choice(matrix.n, size=size, replace=False))
        first, second = (
            EfficiencyAnalyzer(matrix).decide(SimplexPoint(random_point_on_support(rng, matrix.n, support)))
            for _ in range(2)
        )
        assert first.verdict is second.verdict
        assert first.test is second.test


def test_efficient_reports_always_carry_verified_certificates():
    rng = np.random.default_rng(606)
    for _ in range(40):
        matrix = random_matrix(rng)
        analyzer = EfficiencyAnalyzer(matrix)
        for j in range(1, matrix.n + 1):
            report = analyzer.decide(vertex(j, matrix.n))
            if report.verdict is Verdict.EFFICIENT:
                assert report.certificate is not None
                assert report.certificate.strictly_positive
                assert float(report.certificate.weights.min()) == 1.0


def test_the_face_of_an_efficient_report_is_efficient():
    # A report's face claims every point of that class efficient, so its
    # own report must agree.  Every class is decided first, so the face's
    # report is a lookup.
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(400):
        matrix = random_matrix(rng, k=int(rng.integers(2, 6)), n=int(rng.integers(2, 8)))
        n = matrix.n
        analyzer = EfficiencyAnalyzer(matrix)
        reports = [
            analyzer.report(support_class(SupportPattern(combo), n))
            for size in range(1, n + 1)
            for combo in itertools.combinations(range(1, n + 1), size)
        ]
        for report in reports:
            if report.verdict is Verdict.EFFICIENT:
                assert analyzer.report(report.face).verdict is Verdict.EFFICIENT, (matrix.entries.tolist(), report)
                checked += 1
    assert checked == 3322


# Column 2 is column 1 less 1e-8 in each row.
NEAR_COPY_ROWS = [[3.0, 2.99999999], [5.0, 4.99999999]]


@pytest.mark.xfail(strict=True, reason="a face read at tol.tie contradicts its own report, ROADMAP items 9 and 13")
def test_the_face_of_a_near_copy_vertex_is_efficient():
    # Vertex 1 is efficient by closure with weights (1, 1), which put column 2
    # 2e-8 below column 1, inside tol.tie, so its face is the whole simplex.
    # The screen finds column 2 beaten, so the randomized class is dominated.
    analyzer = EfficiencyAnalyzer(CriteriaMatrix(NEAR_COPY_ROWS))
    report = analyzer.decide(vertex(1, 2))
    assert (report.verdict, report.test) == (Verdict.EFFICIENT, Kind.CLOSURE)
    assert analyzer.report(report.face).verdict is Verdict.EFFICIENT


# The efficient set is the closed edge between vertices 1 and 2.  Column 3
# trails the midpoint of columns 1 and 2 by 0.5 in the third criterion, so
# no single column beats it: only its closure program shows it dominated.
MIXTURE_DOMINATED_ROWS = [[0.0, -2.0, -1.0], [-1.0, -3.0, -2.0], [0.0, 3.0, 1.0]]


def test_each_program_solved_once(monkeypatch):
    calls = []
    real_solve = efficiency_module.solve

    def counting_solve(lp, tol):
        calls.append(lp)
        return real_solve(lp, tol)

    monkeypatch.setattr(efficiency_module, "solve", counting_solve)
    analyzer = efficiency_module.EfficiencyAnalyzer(CriteriaMatrix(MIXTURE_DOMINATED_ROWS))
    points = [
        SimplexPoint([0.55, 0.45, 0.0]),
        SimplexPoint([0.5, 0.5, 0.0]),
        vertex(1, 3),
        vertex(1, 3),
        SimplexPoint([0.2, 0.3, 0.5]),
        SimplexPoint([0.1, 0.1, 0.8]),
        vertex(3, 3),
        vertex(3, 3),
    ]
    for point in points:
        analyzer.decide(point)
    # T0, closure {1,2}, closure {1} and closure {3}: the closure weights tie
    # exactly {1,2} and {1}, and vertex 3 is dominated by closure {3} alone
    assert len(calls) == 4


def test_a_screened_column_builds_no_program(edge_matrix, monkeypatch):
    # Column 1 beats column 3 in every criterion, so vertex 3, each support
    # holding it and the randomized class are dominated without a program.
    built = []
    for name in ("build_t0", "build_t1", "build_t2", "build_closure"):
        real = getattr(efficiency_module, name)
        monkeypatch.setattr(efficiency_module, name, lambda *args, real=real: built.append(args) or real(*args))
    analyzer = EfficiencyAnalyzer(edge_matrix)
    for combo, kind in (((3,), Kind.CLOSURE), ((2, 3), Kind.CLOSURE), ((1, 2, 3), Kind.T0)):
        report = analyzer.decide(SimplexPoint(barycenter(3, combo)))
        assert (report.verdict, report.test, report.certificate, report.face) == (Verdict.DOMINATED, kind, None, None)
    assert not analyzer.efficient(SupportPattern((3,)))
    assert built == []


@pytest.mark.parametrize("rows", [ALL_EFFICIENT_ROWS, MIXTURE_DOMINATED_ROWS], ids=["full", "mixture-dominated"])
def test_the_randomized_report_validates_no_support(rows, monkeypatch):
    # The analyzer builds its all-columns support once, unchecked, and T0's
    # target and program read it.
    checked = []
    real_check = SupportPattern.__post_init__
    monkeypatch.setattr(SupportPattern, "__post_init__", lambda self: checked.append(self) or real_check(self))
    analyzer = EfficiencyAnalyzer(CriteriaMatrix(rows))
    analyzer.report(Randomized())
    assert checked == []


def test_a_support_found_dominated_first_settles_t0(monkeypatch):
    # No column of MIXTURE_DOMINATED_ROWS beats column 3, so only its closure
    # program shows vertex 3 dominated.  Once it has, the full support, which
    # contains {3}, is dominated without T0.
    built = []
    real_build = efficiency_module.build_t0
    monkeypatch.setattr(efficiency_module, "build_t0", lambda matrix: built.append(matrix) or real_build(matrix))
    matrix = CriteriaMatrix(MIXTURE_DOMINATED_ROWS)
    assert matrix.screened == ()
    analyzer = EfficiencyAnalyzer(matrix)
    assert not analyzer.efficient(SupportPattern((3,)))
    assert check_full(analyzer) == (False, None)
    report = analyzer.report(Randomized())
    assert (report.verdict, report.test, report.certificate, report.face) == (Verdict.DOMINATED, Kind.T0, None, None)
    assert built == []


@st.composite
def screen_changes(draw):
    """An integer matrix, perhaps with one column a copy of another or a
    copy less 1 in one criterion; the same matrix with each row shifted by
    an integer, scaled by 10^[-6, 6] and its columns permuted; and the
    permutation, under which new column p is old column order[p]."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(2, 7))
    entries = np.array(draw(st.lists(st.integers(-9, 9), min_size=k * n, max_size=k * n)), dtype=float)
    entries = entries.reshape(k, n)
    a, b = draw(st.permutations(range(n)))[:2]
    plant = draw(st.sampled_from(["none", "copy", "below"]))
    if plant != "none":
        entries[:, b] = entries[:, a]
    if plant == "below":
        entries[draw(st.integers(0, k - 1)), b] -= 1.0
    shifts = np.array(draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k)), dtype=float)
    exponents = np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=k, max_size=k)))
    order = draw(st.permutations(range(n)))
    changed = ((entries + shifts[:, None]) * 10.0 ** exponents[:, None])[:, order]
    return CriteriaMatrix(entries), CriteriaMatrix(changed), order


@settings(max_examples=300, deadline=None)
@given(screen_changes())
def test_screened_columns_do_not_depend_on_units_or_order(case):
    matrix, changed, order = case
    assert changed.screened == tuple(sorted(order.index(j - 1) + 1 for j in matrix.screened))


def test_the_screen_warns_on_no_finite_matrix():
    # The first row's mean overflows, so it normalizes to NaN and screens
    # nothing, though column 2 beats column 1: the answers are the solver's.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix = CriteriaMatrix([[1e308, 1e308, 0.0], [0.0, 1.0, 2.0]])
        analyzer = EfficiencyAnalyzer(matrix)
        assert matrix.screened == ()
        report = analyzer.decide(SimplexPoint(barycenter(3, (1, 2, 3))))
        assert (report.verdict, report.test) == (Verdict.DOMINATED, Kind.T0)
        with pytest.raises(LpError, match=r"T2 program on support \{2\}"):
            analyzer.decide(vertex(2, 3))


def test_t0_is_solved_once_per_analyzer(edge_matrix, full_matrix, monkeypatch):
    # T0 is decided once, as the randomized report; check_full, the face
    # scan and every other class read that report, in whichever order.
    built = []
    real_build = efficiency_module.build_t0

    def counting_build(matrix):
        built.append(matrix)
        return real_build(matrix)

    monkeypatch.setattr(efficiency_module, "build_t0", counting_build)
    rng = np.random.default_rng(2121)
    matrices = [edge_matrix, full_matrix, CriteriaMatrix(DUPLICATE_COLUMN_ROWS)]
    matrices += [random_matrix(rng, n=int(rng.integers(2, 6))) for _ in range(30)]
    full = solved = 0
    for trial, matrix in enumerate(matrices):
        n = matrix.n
        analyzer = EfficiencyAnalyzer(matrix)
        built.clear()
        points = [
            SimplexPoint(barycenter(n, combo))
            for size in range(1, n + 1)
            for combo in itertools.combinations(range(1, n + 1), size)
        ]
        if trial % 2:
            points.reverse()
            enumerate_faces(analyzer)
        for point in points:
            analyzer.decide(point)
        full += check_full(analyzer)[0]
        enumerate_faces(analyzer)
        # None when a column beats another in every criterion.
        screened = bool(matrix.screened)
        assert len(built) == (0 if screened else 1)
        solved += not screened
    assert full >= 1 and solved >= 15


def _strict_first(analyzer, support):
    """Reference decision in the strict-first order: the exact-face program
    (T1 or T2), then the closure program only when that fails.  Returns the
    verdict, the test kind and the face."""
    pattern = SupportPattern(support)
    if analyzer.t0().certified:
        return Verdict.EFFICIENT, Kind.T0, Randomized()
    if len(support) == 1:
        strict, face = analyzer.t2(support[0]), Deterministic(support[0])
    else:
        strict, face = analyzer.t1(pattern), PartiallyRandomized(pattern)
    if strict.certified:
        return Verdict.EFFICIENT, strict.kind, face
    closure = analyzer.closure(pattern)
    if not closure.certified:
        return Verdict.DOMINATED, Kind.CLOSURE, None
    weights = analyzer.certificate_from(closure)
    return Verdict.EFFICIENT, Kind.CLOSURE, solution_set(analyzer.matrix, weights)


def test_closure_first_keeps_the_strict_first_answers(monkeypatch):
    # Duplicated columns and columns on a segment between two others are
    # where the closure program's weights tie more than the support.
    solved = []
    real_solve = efficiency_module.solve

    def counting_solve(lp, tol):
        solved.append(lp)
        return real_solve(lp, tol)

    monkeypatch.setattr(efficiency_module, "solve", counting_solve)
    rng = np.random.default_rng(9090)
    costs = {}
    for trial in range(60):
        k, n = int(rng.integers(2, 6)), int(rng.integers(3, 7))
        entries = rng.integers(-9, 10, size=(k, n)).astype(float)
        a, b, c = rng.choice(n, size=3, replace=False)
        if trial % 3 == 0:
            entries[:, c] = entries[:, a]
        elif trial % 3 == 1:
            entries[:, c] = (entries[:, a] + entries[:, b]) / 2
        matrix = CriteriaMatrix(entries)
        analyzer, reference = EfficiencyAnalyzer(matrix), EfficiencyAnalyzer(matrix)
        # T0 is solved once, for the randomized report, before costs are counted.
        analyzer.decide(SimplexPoint(barycenter(n, range(1, n + 1))))
        screened = set(matrix.screened)
        dominated = []
        for size in range(1, n):
            for combo in itertools.combinations(range(1, n + 1), size):
                solved.clear()
                point = SimplexPoint(barycenter(n, combo))
                report = analyzer.decide(point)
                cost = len(solved)
                assert (report.verdict, report.test, report.face) == _strict_first(reference, combo)
                costs.setdefault((report.verdict, report.test), set()).add(cost)
                if report.verdict is Verdict.DOMINATED:
                    # its closure program, unless it holds a screened column
                    # or a dominated subset was decided first
                    inferred = screened & set(combo) or any(set(d) < set(combo) for d in dominated)
                    assert cost == (0 if inferred else 1)
                    dominated.append(combo)
                    continue
                weights = report.certificate
                if report.test is Kind.CLOSURE:
                    tied = argmax_set(weighted_objective(matrix, weights))
                    assert weights.strictly_positive and set(combo) <= set(tied)
                else:
                    point_class = Randomized() if report.test is Kind.T0 else classify(point)
                    assert verify_certificate(matrix, weights, point_class)
    # a dominated vertex or face costs its closure program alone, or no
    # program when it contains a screened column or a support already
    # decided dominated
    assert costs[Verdict.DOMINATED, Kind.CLOSURE] == {0, 1}
    # an exact face costs one program when the closure weights already name
    # it and two when the strict program must, and both paths occur
    assert costs[Verdict.EFFICIENT, Kind.T1] | costs[Verdict.EFFICIENT, Kind.T2] == {1, 2}
    assert costs[Verdict.EFFICIENT, Kind.CLOSURE] == {2}


@pytest.mark.parametrize("order", ["by size", "shuffled"])
def test_dominated_supersets_are_inferred(order, monkeypatch):
    # A support containing a dominated support is decided dominated without
    # a program; every verdict must still be the one its own closure program
    # gives.  Duplicated columns and columns on a segment between two others
    # make closure programs whose weights tie more than the support.
    built = []
    real_build = efficiency_module.build_closure

    def counting_build(matrix, support):
        built.append(support)
        return real_build(matrix, support)

    monkeypatch.setattr(efficiency_module, "build_closure", counting_build)
    rng = np.random.default_rng(4141)
    inferred = 0
    for trial in range(45):
        k, n = int(rng.integers(2, 6)), int(rng.integers(3, 8))
        entries = rng.integers(-9, 10, size=(k, n)).astype(float)
        a, b, c = rng.choice(n, size=3, replace=False)
        if trial % 3 == 0:
            entries[:, c] = entries[:, a]
        elif trial % 3 == 1:
            entries[:, c] = (entries[:, a] + entries[:, b]) / 2
        matrix = CriteriaMatrix(entries)
        analyzer = EfficiencyAnalyzer(matrix)
        if analyzer.t0().certified:
            continue
        supports = [
            combo for size in range(1, n) for combo in itertools.combinations(range(1, n + 1), size)
        ]
        if order == "shuffled":
            supports = [supports[i] for i in rng.permutation(len(supports))]
        # A support holding a screened column needs no program either.
        screened = set(matrix.screened)
        built.clear()
        dominated, needed, unscreened = [], 0, 0
        for combo in supports:
            if not screened & set(combo):
                unscreened += 1
                needed += not any(set(d) < set(combo) for d in dominated)
            report = analyzer.decide(SimplexPoint(barycenter(n, combo)))
            own = solve(real_build(matrix, SupportPattern(combo)))
            assert (report.verdict is Verdict.EFFICIENT) == (own.point is not None)
            if report.verdict is Verdict.DOMINATED:
                assert report.test is Kind.CLOSURE and report.certificate is None
                dominated.append(combo)
        assert len(built) == needed
        inferred += unscreened - needed
    # 388 by size and 241 shuffled, besides those holding a screened column
    assert inferred >= 200


def test_analyzer_is_thread_safe(edge_matrix):
    analyzer = EfficiencyAnalyzer(edge_matrix)
    rows = np.array([[a / 4, b / 4, (4 - a - b) / 4] for a in range(5) for b in range(5 - a)])
    grid = [SimplexPoint(row) for row in rows]
    expected = [EfficiencyAnalyzer(edge_matrix).decide(p).verdict for p in grid]

    def decide_all(batch: bool):
        reports = analyzer.decide_many(rows) if batch else map(analyzer.decide, grid)
        return [report.verdict for report in reports]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(decide_all, [True, False] * 8, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 16


def test_dominated_supports_are_shared_across_threads():
    # Threads record dominated supports while others infer from them; each
    # verdict must be the one a fresh analyzer gives the point alone.
    matrix = random_matrix(np.random.default_rng(11), k=3, n=7)
    rows = np.array(
        [barycenter(7, c) for s in range(1, 8) for c in itertools.combinations(range(1, 8), s)]
    )
    expected = [EfficiencyAnalyzer(matrix).decide(SimplexPoint(row)).verdict for row in rows]
    assert expected.count(Verdict.DOMINATED) > len(rows) // 2
    analyzer = EfficiencyAnalyzer(matrix)

    def decide_all(offset: int):
        order = np.roll(np.arange(len(rows)), offset)
        verdicts = dict(zip(order.tolist(), (r.verdict for r in analyzer.decide_many(rows[order]))))
        return [verdicts[i] for i in range(len(rows))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(decide_all, range(0, 128, 8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 16


X_ZERO = 1e-9
# Off-support components: exact zeros of both signs, the clamping edge
# -x_zero, and positive mass at or below the zero threshold.
BOUNDARY_VALUES = [0.0, -0.0, -X_ZERO, X_ZERO, X_ZERO / 2, 1e-12]


@st.composite
def batch_cases(draw):
    """A matrix (random, with a duplicated column, or with every column tied
    under unit weights, so T0 certifies it), tolerances, and rows of points
    with boundary components, sums at the n * x_zero edge, and now and
    then an invalid row."""
    k, n = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    entries = np.array(draw(st.lists(st.integers(-9, 9), min_size=k * n, max_size=k * n))).reshape(k, n)
    shape = draw(st.sampled_from(["random", "duplicated", "full"]))
    if shape == "duplicated":
        source, target = draw(st.permutations(range(n)))[:2]
        entries[:, target] = entries[:, source]
    elif shape == "full":
        entries[-1] = draw(st.integers(-9, 9)) - entries[:-1].sum(axis=0)
    # A wide zero threshold lets rows have no component above it, which
    # classify rejects.
    tol = draw(st.sampled_from([Tolerances(), Tolerances(x_zero=0.3)]))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        support = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
        masses = np.array([draw(st.integers(1, 9)) if inside else 0 for inside in support], float)
        row = masses / masses.sum()
        for j in np.flatnonzero(~np.array(support)):
            row[j] = draw(st.sampled_from(BOUNDARY_VALUES))
        edge = n * tol.x_zero
        row[int(row.argmax())] += draw(st.sampled_from([0.0, 0.0, edge * 0.999, -edge * 0.999, edge * 1.001, -edge * 1.001]))
        spoil = draw(st.sampled_from([None] * 6 + ["low", "nan", "sum"]))
        if spoil == "low":
            row[draw(st.integers(0, n - 1))] = -2 * tol.x_zero
        elif spoil == "nan":
            row[draw(st.integers(0, n - 1))] = np.nan
        elif spoil == "sum":
            row *= 1.5
        rows.append(row)
    return CriteriaMatrix(entries.astype(float)), tol, np.array(rows)


def _outcomes(reports):
    """Each report's fields, then the error that ended the iteration."""
    got = []
    try:
        for report in reports:
            got.append(report)
    except Exception as exc:
        return got, (type(exc), str(exc))
    return got, None


def _assert_same_report(got, expected):
    assert got.verdict is expected.verdict
    assert got.test is expected.test
    if expected.certificate is None:
        assert got.certificate is None
    else:
        assert got.certificate.weights.tobytes() == expected.certificate.weights.tobytes()
    assert got.face == expected.face


@settings(max_examples=300, deadline=None)
@given(batch_cases())
def test_decide_many_matches_decide_on_each_row(case):
    matrix, tol, rows = case
    expected, expected_error = _outcomes(
        EfficiencyAnalyzer(matrix, tol).decide(SimplexPoint(row, tol)) for row in rows
    )
    analyzer = EfficiencyAnalyzer(matrix, tol)
    got, got_error = _outcomes(analyzer.decide_many(rows))
    assert len(got) == len(expected)
    shared = {}
    for row, report, reference in zip(rows, got, expected):
        _assert_same_report(report, reference)
        # Each row gets the analyzer's report for its own class.
        point_class = classify(SimplexPoint(row, tol), tol)
        assert analyzer.report(point_class) is report
        assert shared.setdefault(point_class, report) is report
    assert got_error == expected_error

    checked, error = check_points(rows, tol)
    for index, row in enumerate(rows):
        try:
            point = SimplexPoint(row, tol)
        except InputError as exc:
            assert len(checked) == index
            assert (type(error), str(error)) == (type(exc), str(exc))
            break
        assert checked[index].tobytes() == point.coords.tobytes()
    else:
        assert len(checked) == len(rows) and error is None


def test_decide_many_refuses_rows_of_another_length_before_any_report(edge_matrix):
    # All-positive rows of four components would pass the point rules.
    reports = EfficiencyAnalyzer(edge_matrix).decide_many(np.full((2, 4), 0.25))
    with pytest.raises(DimensionMismatchError, match="point has 4 components, matrix has 3 columns"):
        next(reports)


def test_decide_refuses_a_point_off_the_simplex_at_the_analyzers_tolerance(edge_matrix):
    # The point was checked at a wider zero threshold: its sum is within
    # 3 * 1e-6 of one, but not within 3 * 1e-9.
    x = SimplexPoint([0.5 + 1e-6, 0.5, 0.0], Tolerances(x_zero=1e-6))
    with pytest.raises(InputError, match="point does not lie on the simplex at this tolerance"):
        EfficiencyAnalyzer(edge_matrix).decide(x)


def test_rows_of_one_key_share_one_report(edge_matrix):
    # Classes: {1, 2} (unclamped and with column 3 clamped), {1, 3},
    # vertex 1 and the randomized class.
    rows = np.array(
        [
            [0.55, 0.45, 0.0],
            [0.3, 0.0, 0.7],
            [0.6, 0.4 - 5e-10, 5e-10],
            [0.2, 0.8, 0.0],
            [1.0, 0.0, 0.0],
            [0.2, 0.3, 0.5],
            [0.3, 0.7 - 5e-10, 5e-10],
            [0.6, 0.0, 0.4],
            [0.1, 0.1, 0.8],
        ]
    )
    analyzer = EfficiencyAnalyzer(edge_matrix)
    reports = list(analyzer.decide_many(rows))
    keys = [row_key(row)[0] for row in rows]
    assert len(set(keys)) == 4
    for key, report in zip(keys, reports):
        assert all(other is report for k, other in zip(keys, reports) if k == key)
    again = list(analyzer.decide_many(rows[::-1]))[::-1]
    for row, report, later in zip(rows, reports, again):
        decided = analyzer.decide(SimplexPoint(row))
        assert decided == report and decided is report and later is report
    # A row with column 3 clamped gets the report of its class.
    assert reports[2] is reports[0]


def test_breakdown_errors_name_the_program(edge_matrix, monkeypatch):
    # A stubbed solver stands in for a real breakdown, so the message is
    # checked whatever matrices the solver happens to fail on.
    def broken_solve(lp, tol):
        raise LpError("phase-one point failed its feasibility re-check")

    monkeypatch.setattr(efficiency_module, "solve", broken_solve)
    analyzer = EfficiencyAnalyzer(edge_matrix)
    with pytest.raises(LpError) as info:
        analyzer.t1(SupportPattern((1, 2)))
    message = str(info.value)
    assert message.startswith("T1 program on support {1, 2} of the 3x3 matrix")
    assert "phase-one point failed its feasibility re-check" in message
    assert isinstance(info.value.__cause__, LpError)


#: Scalings of a matrix: uniform factors, and per-row factors 10^U[-e, e].
UNIT_SCALINGS = [
    pytest.param("uniform", -6, id="uniform-1e-6"),
    pytest.param("uniform", -3, id="uniform-1e-3"),
    pytest.param("uniform", 3, id="uniform-1e3"),
    pytest.param("per-row", 3, id="per-row-1e3"),
    pytest.param(
        "uniform", 6, id="uniform-1e6",
        marks=pytest.mark.xfail(strict=True, reason="units still matter, ROADMAP item 3"),
    ),
    pytest.param(
        "per-row", 6, id="per-row-1e6",
        marks=pytest.mark.xfail(strict=True, reason="units still matter, ROADMAP item 3"),
    ),
]


@pytest.mark.parametrize(("mode", "exponent"), UNIT_SCALINGS)
def test_verdicts_do_not_depend_on_units(mode, exponent):
    # Scaling a criterion by a positive factor changes no verdict, so every
    # support barycenter must be decided as on the unscaled matrix, and
    # without a solver breakdown.
    rng = np.random.default_rng(7)
    failures = []
    for _ in range(150):
        matrix = random_matrix(rng)
        if mode == "uniform":
            factors = 10.0**exponent
        else:
            factors = 10.0 ** rng.uniform(-exponent, exponent, size=(matrix.k, 1))
        plain = EfficiencyAnalyzer(matrix)
        scaled = EfficiencyAnalyzer(CriteriaMatrix(matrix.entries * factors))
        n = matrix.n
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(1, n + 1), size):
                point = SimplexPoint(barycenter(n, combo))
                expected = plain.decide(point).verdict
                try:
                    got = scaled.decide(point).verdict
                except LpError as exc:
                    failures.append((matrix.entries.tolist(), combo, repr(exc)))
                    continue
                if got is not expected:
                    failures.append((matrix.entries.tolist(), combo, got.value))
    assert not failures, f"{len(failures)} failures, first: {failures[:2]}"


def test_small_units_keep_certificate_gaps_above_the_tie_tolerance():
    # At 1e-6 units an unbounded T1 certificate for {1, 2, 4, 6} led columns
    # 3 and 5 by 3e-8 after normalization to min weight 1, below the
    # absolute argmax tie tolerance of 1e-7, so re-verification rejected it
    # and decide raised.  T1's bound on the weight mass (ROADMAP item 3
    # step 0) leaves that program infeasible, and the closure report stands.
    rows = [
        [6.0, 5.0, 8.0, 3.0, -5.0, -5.0],
        [3.0, -2.0, 5.0, 2.0, -9.0, 8.0],
        [9.0, -4.0, -4.0, -2.0, 6.0, -9.0],
        [-6.0, 4.0, -2.0, -1.0, 8.0, 6.0],
        [-7.0, -5.0, -5.0, 3.0, -1.0, 3.0],
    ]
    point = SimplexPoint(barycenter(6, (1, 2, 4, 6)))
    assert EfficiencyAnalyzer(CriteriaMatrix(rows)).decide(point).verdict is Verdict.EFFICIENT
    small = EfficiencyAnalyzer(CriteriaMatrix(np.array(rows) * 1e-6))
    assert small.decide(point).verdict is Verdict.EFFICIENT
