"""Enumeration of the efficient structure and the two-criteria shortcut."""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import barycenter, random_matrix

import paretosimplex.efficiency as efficiency_module
from paretosimplex import (
    CriteriaMatrix,
    DimensionMismatchError,
    EfficiencyAnalyzer,
    EnumerationCapError,
    InputError,
    LpError,
    MAX_LISTED_SUPPORTS,
    NumericalBreakdownError,
    Randomized,
    SimplexPoint,
    SupportPattern,
    Verdict,
    WeightVector,
    bicriterion_full_check,
    check_full,
    decide,
    enumerate_faces,
    enumerate_vertices,
    verify_certificate,
    vertex,
)


def exhaustive_structure(matrix, max_support=None, by_closure=False):
    """Reference scan: every support of every scanned size is decided on
    its own, with no pruning and no reuse.  By default ``decide`` on its
    barycenter decides, so the level-wise scan is checked against the
    per-point decision; with ``by_closure`` the support's own closure
    program does.  Returns the vertices, the faces and the exhaustive
    flag."""
    n = matrix.n
    analyzer = EfficiencyAnalyzer(matrix)
    cap = n - 1 if max_support is None else min(max_support, n - 1)

    def efficient(combo):
        if by_closure:
            return analyzer.closure(SupportPattern(combo)).certified
        point = SimplexPoint(barycenter(n, combo))
        return analyzer.decide(point).verdict is Verdict.EFFICIENT

    vertices = frozenset(j for j in range(1, n + 1) if efficient((j,)))
    faces = frozenset(
        SupportPattern(combo)
        for size in range(2, cap + 1)
        for combo in itertools.combinations(range(1, n + 1), size)
        if efficient(combo)
    )
    return vertices, faces, cap == n - 1


def test_edge_instance_structure(edge_matrix):
    structure = enumerate_faces(edge_matrix)
    assert not structure.full
    assert structure.vertices == {1, 2}
    assert structure.faces == {SupportPattern((1, 2))}
    assert structure.exhaustive


def test_full_instance_structure(full_matrix):
    structure = enumerate_faces(full_matrix)
    assert structure.full
    assert structure.vertices == {1, 2, 3}
    assert structure.faces == {
        SupportPattern((1, 2)),
        SupportPattern((1, 3)),
        SupportPattern((2, 3)),
    }
    assert structure.exhaustive


def test_duplicate_column_structure():
    # vertices 2 and 3 carry identical columns: neither passes the strict
    # vertex test, but both border the efficient face {2,3} and must be listed
    matrix = CriteriaMatrix([[-2, 6, 6, 5, -9], [1, 4, 4, 1, 1]])
    structure = enumerate_faces(matrix)
    assert not structure.full
    assert structure.vertices == {2, 3}
    assert structure.faces == {SupportPattern((2, 3))}
    assert structure.exhaustive


def test_check_full_returns_verified_certificate(edge_matrix, full_matrix):
    full, certificate = check_full(full_matrix)
    assert full
    assert verify_certificate(full_matrix, certificate, Randomized())
    assert check_full(edge_matrix) == (False, None)


def test_check_full_rejects_a_certificate_that_does_not_tie_every_column(full_matrix, monkeypatch):
    # T0 is feasible, but the stub weights (1, 1, 1) score the columns 0, 1, 3.
    monkeypatch.setattr(
        EfficiencyAnalyzer, "certificate_from", lambda self, result: WeightVector([1.0, 1.0, 1.0])
    )
    with pytest.raises(NumericalBreakdownError, match="does not tie exactly"):
        check_full(full_matrix)


def test_vertex_sets(edge_matrix, full_matrix):
    assert enumerate_vertices(edge_matrix) == {1, 2}
    assert enumerate_vertices(full_matrix) == {1, 2, 3}


def test_some_vertex_is_always_efficient():
    rng = np.random.default_rng(31)
    for _ in range(80):
        assert enumerate_vertices(random_matrix(rng))


def test_two_columns_have_no_faces():
    matrix = CriteriaMatrix([[1.0, 0.0], [0.0, 1.0]])
    structure = enumerate_faces(matrix)
    assert structure.faces == frozenset()
    assert structure.exhaustive


def test_wide_matrix_with_dominated_columns_is_enumerated():
    # 22 columns, each an original column minus 1 in every criterion, are
    # strictly dominated: the 30-column structure is the 8-column one.
    rng = np.random.default_rng(1)
    small = random_matrix(rng, k=3, n=8)
    extra = small.entries[:, [i % 8 for i in range(22)]] - 1.0
    wide = CriteriaMatrix(np.hstack([small.entries, extra]))
    expected = enumerate_faces(small)
    assert not expected.full and expected.faces
    assert enumerate_faces(wide) == expected


def full_rows(n):
    """Two criteria under which every one of n columns ties at weights (1, 1)."""
    return [list(range(1, n + 1)), list(range(n, 0, -1))]


def test_listing_bound():
    assert MAX_LISTED_SUPPORTS == 2**16
    # The most faces 16 columns have: every support but the 16 vertices,
    # the empty one and the whole simplex.
    structure = enumerate_faces(CriteriaMatrix(full_rows(16)))
    assert structure.full and structure.exhaustive
    assert len(structure.faces) == 2**16 - 18
    # 17 full columns would list 2**17 - 19 supports: refused before any
    # is built, but a limited scan lists 136 + 680 of them.
    full17 = CriteriaMatrix(full_rows(17))
    with pytest.raises(EnumerationCapError, match="131053 supports to list"):
        enumerate_faces(full17)
    structure = enumerate_faces(full17, max_support=3)
    assert structure.full and not structure.exhaustive
    assert len(structure.faces) == 816
    # 17 duplicated columns and a dominated one: the level-wise scan itself
    # passes the bound, at support size 9, and stops at the face that does.
    duplicated = CriteriaMatrix([[1.0] * 17 + [0.0], [2.0] * 17 + [1.0]])
    with pytest.raises(EnumerationCapError, match="^65537 supports to list so far, more than 65536"):
        enumerate_faces(duplicated)


def test_max_support_limits_the_scan():
    rng = np.random.default_rng(9)
    matrix = random_matrix(rng, k=3, n=5)
    partial = enumerate_faces(matrix, max_support=2)
    assert not partial.exhaustive
    assert all(len(face) <= 2 for face in partial.faces)
    complete = enumerate_faces(matrix)
    assert complete.exhaustive
    assert partial.faces == {face for face in complete.faces if len(face) <= 2}
    assert partial.vertices == complete.vertices
    with pytest.raises(InputError):
        enumerate_faces(matrix, max_support=1)


def test_structure_matches_pointwise_decisions():
    rng = np.random.default_rng(42)
    for _ in range(25):
        matrix = random_matrix(rng, n=int(rng.integers(2, 6)))
        analyzer = EfficiencyAnalyzer(matrix)
        structure = enumerate_faces(matrix, analyzer=analyzer)
        for j in range(1, matrix.n + 1):
            report = analyzer.decide(vertex(j, matrix.n))
            assert (j in structure.vertices) == (report.verdict is Verdict.EFFICIENT)
        for size in range(2, matrix.n):
            for combo in itertools.combinations(range(1, matrix.n + 1), size):
                point = SimplexPoint(barycenter(matrix.n, combo))
                report = analyzer.decide(point)
                assert (SupportPattern(combo) in structure.faces) == (
                    report.verdict is Verdict.EFFICIENT
                )


def test_full_structure_lists_every_pattern():
    rng = np.random.default_rng(77)
    found = 0
    for _ in range(200):
        matrix = random_matrix(rng, k=2, n=3)
        structure = enumerate_faces(matrix)
        if not structure.full:
            continue
        found += 1
        assert structure.vertices == {1, 2, 3}
        assert structure.faces == {
            SupportPattern(c) for c in itertools.combinations((1, 2, 3), 2)
        }
    assert found > 0


def test_ratio_shortcut_fixture_values():
    assert bicriterion_full_check(CriteriaMatrix([[3.0, 2.0, 1.0], [1.0, 2.0, 3.0]]))
    assert not bicriterion_full_check(CriteriaMatrix([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
    with pytest.raises(InputError):
        bicriterion_full_check(CriteriaMatrix([[1.0, 1.0, 2.0], [0.0, 1.0, 2.0]]))
    with pytest.raises(DimensionMismatchError):
        bicriterion_full_check(CriteriaMatrix([[1.0, 2.0], [2.0, 1.0], [0.0, 0.0]]))


def test_ratio_shortcut_is_sound():
    # Whenever the shortcut fires, the LP route must agree that everything
    # is efficient; when it does not fire, the LP route stays the authority.
    rng = np.random.default_rng(55)
    fired = 0
    for _ in range(120):
        n = int(rng.integers(2, 7))
        first = rng.choice(np.arange(-9, 10), size=n, replace=False).astype(float)
        if rng.random() < 0.5:
            ratio = float(rng.integers(1, 6))
            second = np.empty(n)
            second[0] = float(rng.integers(-9, 10))
            for j in range(n - 1):
                second[j + 1] = second[j] + ratio * (first[j] - first[j + 1])
        else:
            second = rng.integers(-9, 10, size=n).astype(float)
            if (first[:-1] == first[1:]).any():
                continue
        matrix = CriteriaMatrix(np.vstack([first, second]))
        if bicriterion_full_check(matrix):
            fired += 1
            assert check_full(matrix)[0]
    assert fired >= 30


def test_level_wise_scan_matches_exhaustive_reference(monkeypatch):
    tested = []
    real_closure = EfficiencyAnalyzer.closure

    def recording(analyzer, pattern):
        tested.append(pattern)
        return real_closure(analyzer, pattern)

    monkeypatch.setattr(EfficiencyAnalyzer, "closure", recording)
    rng = np.random.default_rng(2412)
    cases = []
    duplicated = limited = 0
    for trial in range(48):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, 7))
        entries = rng.integers(-9, 10, size=(k, n)).astype(float)
        if trial % 4 == 1 and n >= 3:
            source, target = rng.choice(n, size=2, replace=False)
            entries[:, target] = entries[:, source]
            duplicated += 1
        max_support = None
        if trial % 3 == 2 and n >= 4:
            max_support = int(rng.integers(2, n))
            limited += 1
        cases.append((CriteriaMatrix(entries), max_support))
    # T1 on support {5, 9, 10, 12} of this matrix once broke down in phase
    # one; the reference scan reaches it.
    cases.append((random_matrix(np.random.default_rng(1), k=4, n=12), None))
    for matrix, max_support in cases:
        tested.clear()
        structure = enumerate_faces(matrix, max_support=max_support)
        scanned = list(tested)
        vertices, faces, exhaustive = exhaustive_structure(matrix, max_support)
        assert structure.vertices == vertices
        assert structure.faces == faces
        assert structure.exhaustive == exhaustive
        # a face is tested only when all its one-smaller subsets are efficient
        efficient = faces | {SupportPattern((j,)) for j in vertices}
        for pattern in scanned:
            if len(pattern) > 1:
                subsets = itertools.combinations(pattern.indices, len(pattern) - 1)
                assert all(SupportPattern(sub) in efficient for sub in subsets)
    assert duplicated >= 8 and limited >= 8


def test_level_wise_scan_solves_few_programs(monkeypatch):
    # 4082 supports of size 2..11: the reference decides each one by its
    # own closure program, the level-wise scan only the few whose subsets
    # are all efficient.  (``decide`` would skip the supersets of dominated
    # supports too, so it is not the reference here.)
    matrix = random_matrix(np.random.default_rng(3), k=4, n=12)
    solved = []
    real_solve = efficiency_module.solve

    def counting_solve(lp, tol):
        solved.append(lp)
        return real_solve(lp, tol)

    monkeypatch.setattr(efficiency_module, "solve", counting_solve)
    vertices, faces, _ = exhaustive_structure(matrix, by_closure=True)
    reference = len(solved)
    solved.clear()
    structure = enumerate_faces(matrix)
    assert (structure.vertices, structure.faces) == (vertices, faces)
    assert faces
    assert len(solved) * 20 < reference


def test_face_reuse_matches_the_no_reuse_reference():
    # The scan decides a support inside a verified certificate's argmax
    # face without a program; the references decide every support on its
    # own, by ``decide`` and by its closure program.  A reference that
    # breaks down on an instance is skipped there.  The near-tie variants
    # put a column eps * (1, ..., 1) below the column with the largest
    # sum, or below the midpoint of two others, with eps in [1e-9, 1e-7],
    # between the solver tolerance and the tie tolerance.  Their entries
    # are scaled by 1e-2, so the closure programs' own feasibility gap,
    # which grows with their right-hand sides, stays below the tie
    # tolerance and rejects the perturbed column.
    rng = np.random.default_rng(2026)
    compared = near_ties = 0
    for trial in range(140):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, 7))
        entries = rng.integers(-9, 10, size=(k, n)).astype(float)
        variant = trial % 7
        if variant in (1, 5):
            source, target = rng.choice(n, size=2, replace=False)
            if variant == 5:
                source = int(np.argmax(entries.sum(axis=0)))
                target = int(rng.choice([j for j in range(n) if j != source]))
            entries[:, target] = entries[:, source]
        elif variant in (2, 6):
            a, b, target = rng.choice(n, size=3, replace=False)
            entries[:, target] = (entries[:, a] + entries[:, b]) / 2
        elif variant == 3:
            entries *= 1e-6
        elif variant == 4:
            entries *= 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1))
        if variant in (5, 6):
            entries *= 1e-2
            entries[:, target] -= 10.0 ** rng.uniform(-9.0, -7.0)
        max_support = int(rng.integers(2, n)) if trial % 3 == 2 and n >= 4 else None
        matrix = CriteriaMatrix(entries)
        references = []
        for by_closure in (False, True):
            try:
                references.append(exhaustive_structure(matrix, max_support, by_closure))
            except LpError:
                pass
        if not references:
            continue
        structure = enumerate_faces(matrix, max_support=max_support)
        for reference in references:
            assert (structure.vertices, structure.faces, structure.exhaustive) == reference
        compared += 1
        near_ties += variant in (5, 6)
    assert compared >= 125 and near_ties >= 30


def recording_closures(monkeypatch) -> list:
    """Patch ``EfficiencyAnalyzer.closure`` to record the supports it is
    asked about, and return that record."""
    closures = []
    real_closure = EfficiencyAnalyzer.closure

    def recording(analyzer, pattern):
        closures.append(pattern)
        return real_closure(analyzer, pattern)

    monkeypatch.setattr(EfficiencyAnalyzer, "closure", recording)
    return closures


def test_support_inside_a_certified_face_solves_no_program(monkeypatch):
    # Under weights (1, 1) columns 1, 2 and 3 tie at 2 and column 4 trails,
    # so vertex 1's closure certificate ties the face {1, 2, 3}; column 2
    # is the midpoint of columns 1 and 3.
    matrix = CriteriaMatrix([[2.0, 1.0, 0.0, -3.0], [0.0, 1.0, 2.0, -3.0]])
    closures, solved = recording_closures(monkeypatch), []
    real_solve = efficiency_module.solve

    def counting_solve(lp, tol):
        solved.append(lp)
        return real_solve(lp, tol)

    monkeypatch.setattr(efficiency_module, "solve", counting_solve)
    structure = enumerate_faces(matrix)
    assert structure.vertices == {1, 2, 3}
    assert structure.faces == {
        SupportPattern(c) for size in (2, 3) for c in itertools.combinations((1, 2, 3), size)
    }
    # After vertex 1, no closure program runs on a support inside {1, 2, 3}:
    # the scan solves T0, closure {1} and closure {4}, where deciding every
    # candidate would solve 9 programs.
    assert closures == [SupportPattern((1,)), SupportPattern((4,))]
    assert len(solved) == 3


def test_a_second_scan_on_one_analyzer_asks_no_closure_program(monkeypatch):
    # The analyzer keeps the faces and the dominated supports the first
    # scan found, and those answer every support the second scan tests.
    closures = recording_closures(monkeypatch)
    rng = np.random.default_rng(1606)
    asked = faces = 0
    for _ in range(60):
        matrix = random_matrix(rng, n=int(rng.integers(3, 9)))
        fresh = enumerate_faces(matrix)
        analyzer = EfficiencyAnalyzer(matrix)
        closures.clear()
        assert enumerate_faces(matrix, analyzer=analyzer) == fresh
        asked += len(closures)
        closures.clear()
        assert enumerate_faces(matrix, analyzer=analyzer) == fresh
        assert closures == []
        faces += len(fresh.faces)
    assert asked >= 200 and faces >= 100


def test_a_vertex_decide_found_dominated_needs_no_closure_call(edge_matrix, monkeypatch):
    analyzer = EfficiencyAnalyzer(edge_matrix)
    assert analyzer.decide(vertex(3, 3)).verdict is Verdict.DOMINATED
    closures = recording_closures(monkeypatch)
    assert not analyzer.efficient(SupportPattern((3,)))
    assert closures == []
    assert enumerate_vertices(edge_matrix, analyzer=analyzer) == {1, 2}
    assert SupportPattern((3,)) not in closures


def test_decide_after_a_scan_gives_the_fresh_reports():
    # ``decide`` neither reads nor adds kept faces: after a scan on the
    # same analyzer, each barycenter gets the report a fresh analyzer gives.
    def summary(report):
        weights = None if report.certificate is None else report.certificate.weights.tolist()
        return report.point_class, report.verdict, report.test, weights, report.face

    rng = np.random.default_rng(1607)
    for _ in range(20):
        matrix = random_matrix(rng, n=int(rng.integers(3, 7)))
        analyzer = EfficiencyAnalyzer(matrix)
        enumerate_faces(matrix, analyzer=analyzer)
        for size in range(1, matrix.n):
            for combo in itertools.combinations(range(1, matrix.n + 1), size):
                point = SimplexPoint(barycenter(matrix.n, combo))
                assert summary(analyzer.decide(point)) == summary(decide(matrix, point))


def test_scans_sharing_one_analyzer_across_threads(monkeypatch):
    # Kept faces and dominated supports are shared state: 8 threads scan
    # one analyzer at once, and each gets the structure a fresh scan gives.
    # A face or support lost between threads would make the next scan ask
    # a closure program again.  A duplicated column widens the faces.
    closures = recording_closures(monkeypatch)
    rng = np.random.default_rng(1608)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    faces = 0
    try:
        for _ in range(10):
            entries = rng.integers(-9, 10, size=(3, 8)).astype(float)
            entries[:, 7] = entries[:, 0]
            matrix = CriteriaMatrix(entries)
            expected = enumerate_faces(matrix)
            analyzer = EfficiencyAnalyzer(matrix)
            with ThreadPoolExecutor(max_workers=8) as pool:
                scans = [pool.submit(enumerate_faces, matrix, analyzer=analyzer) for _ in range(8)]
                assert [scan.result(timeout=60) for scan in scans] == [expected] * 8
            closures.clear()
            assert enumerate_faces(matrix, analyzer=analyzer) == expected
            assert closures == []
            faces += len(expected.faces)
    finally:
        sys.setswitchinterval(interval)
    assert faces >= 40
