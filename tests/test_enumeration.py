"""Enumeration of the efficient structure and the two-criteria shortcut."""

import functools
import itertools
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import barycenter, bicriterion_faces, dominance_gain, near_tie_corpus, random_matrix

import paretosimplex.efficiency as efficiency_module
from paretosimplex import (
    CriteriaMatrix,
    DimensionMismatchError,
    EfficiencyAnalyzer,
    EfficientStructure,
    EnumerationCapError,
    InputError,
    LpError,
    MAX_LISTED_SUPPORTS,
    Randomized,
    SimplexPoint,
    SupportPattern,
    TestKind as Kind,
    Verdict,
    WeightVector,
    bicheck,
    check_full,
    classify,
    dominance_lp_verdict,
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
    structure = enumerate_faces(EfficiencyAnalyzer(edge_matrix))
    assert not structure.full
    assert structure.vertices == {1, 2}
    assert structure.faces == {SupportPattern((1, 2))}
    assert structure.exhaustive


def test_full_instance_structure(full_matrix):
    structure = enumerate_faces(EfficiencyAnalyzer(full_matrix))
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
    structure = enumerate_faces(EfficiencyAnalyzer(matrix))
    assert not structure.full
    assert structure.vertices == {2, 3}
    assert structure.faces == {SupportPattern((2, 3))}
    assert structure.exhaustive


def test_check_full_returns_verified_certificate(edge_matrix, full_matrix):
    full, certificate = check_full(EfficiencyAnalyzer(full_matrix))
    assert full
    assert verify_certificate(full_matrix, certificate, Randomized())
    assert check_full(EfficiencyAnalyzer(edge_matrix)) == (False, None)


def test_check_full_rejects_a_certificate_that_does_not_tie_every_column(full_matrix, monkeypatch):
    # T0 is feasible, but the stub weights (1, 1, 1) score the columns 0, 1, 3.
    monkeypatch.setattr(
        EfficiencyAnalyzer, "certificate_from", lambda self, result: WeightVector([1.0, 1.0, 1.0])
    )
    with pytest.raises(LpError) as caught:
        check_full(EfficiencyAnalyzer(full_matrix))
    assert str(caught.value) == (
        "T0 program on support {1, 2, 3} of the 3x3 matrix: extracted certificate does not tie exactly that support"
    )


def test_vertex_sets(edge_matrix, full_matrix):
    assert enumerate_vertices(EfficiencyAnalyzer(edge_matrix)) == {1, 2}
    assert enumerate_vertices(EfficiencyAnalyzer(full_matrix)) == {1, 2, 3}


def test_some_vertex_is_always_efficient():
    rng = np.random.default_rng(31)
    for _ in range(80):
        assert enumerate_vertices(EfficiencyAnalyzer(random_matrix(rng)))


def test_two_columns_have_no_faces():
    matrix = CriteriaMatrix([[1.0, 0.0], [0.0, 1.0]])
    structure = enumerate_faces(EfficiencyAnalyzer(matrix))
    assert structure.faces == frozenset()
    assert structure.exhaustive


def test_wide_matrix_with_dominated_columns_is_enumerated():
    # 22 columns, each an original column minus 1 in every criterion, are
    # strictly dominated: the 30-column structure is the 8-column one.
    rng = np.random.default_rng(1)
    small = random_matrix(rng, k=3, n=8)
    extra = small.entries[:, [i % 8 for i in range(22)]] - 1.0
    wide = CriteriaMatrix(np.hstack([small.entries, extra]))
    expected = enumerate_faces(EfficiencyAnalyzer(small))
    assert not expected.full and expected.faces
    assert enumerate_faces(EfficiencyAnalyzer(wide)) == expected


def full_rows(n):
    """Two criteria under which every one of n columns ties at weights (1, 1)."""
    return [list(range(1, n + 1)), list(range(n, 0, -1))]


def test_listing_bound():
    assert MAX_LISTED_SUPPORTS == 2**16
    # The most faces 16 columns have: every support but the 16 vertices,
    # the empty one and the whole simplex.
    structure = enumerate_faces(EfficiencyAnalyzer(CriteriaMatrix(full_rows(16))))
    assert structure.full and structure.exhaustive
    assert len(structure.faces) == 2**16 - 18
    # 17 full columns would list 2**17 - 19 supports: refused before any
    # is built, but a limited scan lists 136 + 680 of them.
    full17 = CriteriaMatrix(full_rows(17))
    with pytest.raises(EnumerationCapError, match="131053 supports to list"):
        enumerate_faces(EfficiencyAnalyzer(full17))
    structure = enumerate_faces(EfficiencyAnalyzer(full17), max_support=3)
    assert structure.full and not structure.exhaustive
    assert len(structure.faces) == 816
    # 17 duplicated columns and a dominated one: the level-wise scan itself
    # passes the bound, at support size 9, and stops at the face that does.
    duplicated = CriteriaMatrix([[1.0] * 17 + [0.0], [2.0] * 17 + [1.0]])
    with pytest.raises(EnumerationCapError, match="^65537 supports to list so far, more than 65536"):
        enumerate_faces(EfficiencyAnalyzer(duplicated))


def test_max_support_limits_the_scan():
    rng = np.random.default_rng(9)
    matrix = random_matrix(rng, k=3, n=5)
    partial = enumerate_faces(EfficiencyAnalyzer(matrix), max_support=2)
    assert not partial.exhaustive
    assert all(len(face) <= 2 for face in partial.faces)
    complete = enumerate_faces(EfficiencyAnalyzer(matrix))
    assert complete.exhaustive
    assert partial.faces == {face for face in complete.faces if len(face) <= 2}
    assert partial.vertices == complete.vertices
    with pytest.raises(InputError):
        enumerate_faces(EfficiencyAnalyzer(matrix), max_support=1)


def test_structure_matches_pointwise_decisions():
    rng = np.random.default_rng(42)
    for _ in range(25):
        matrix = random_matrix(rng, n=int(rng.integers(2, 6)))
        analyzer = EfficiencyAnalyzer(matrix)
        structure = enumerate_faces(analyzer)
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
        structure = enumerate_faces(EfficiencyAnalyzer(matrix))
        if not structure.full:
            continue
        found += 1
        assert structure.vertices == {1, 2, 3}
        assert structure.faces == {
            SupportPattern(c) for c in itertools.combinations((1, 2, 3), 2)
        }
    assert found > 0


def test_ratio_shortcut_fixture_values():
    assert bicheck(CriteriaMatrix([[3.0, 2.0, 1.0], [1.0, 2.0, 3.0]]))[0]
    assert not bicheck(CriteriaMatrix([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))[0]
    # Column 2 dominates column 1: equal first entries, a larger second one.
    dominated = CriteriaMatrix([[1.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
    assert bicheck(dominated)[1] == [None, -1.0]
    assert not bicheck(dominated)[0] and not check_full(EfficiencyAnalyzer(dominated))[0]
    with pytest.raises(DimensionMismatchError):
        bicheck(CriteriaMatrix([[1.0, 2.0], [2.0, 1.0], [0.0, 0.0]]))
    # Neither row is monotone, yet the ratios agree and the simplex is full.
    zigzag = CriteriaMatrix([[0.0, 2.0, 1.0], [0.0, -2.0, -1.0]])
    assert bicheck(zigzag)[1] == [1.0, 1.0]
    assert bicheck(zigzag)[0] and check_full(EfficiencyAnalyzer(zigzag))[0]
    # Two equal columns give no ratio and are skipped.
    repeated = CriteriaMatrix([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert bicheck(repeated)[1] == [None, 1.0]
    assert bicheck(repeated)[0] and check_full(EfficiencyAnalyzer(repeated))[0]
    # The ratio 2e308 is past the float range.
    over = CriteriaMatrix([[1.0, 0.0], [-1e308, 1e308]])
    with pytest.raises(InputError, match="ratio of columns 1 and 2 exceeds the float range"):
        bicheck(over)


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
        if bicheck(matrix)[0]:
            fired += 1
            assert check_full(EfficiencyAnalyzer(matrix))[0]
    assert fired >= 30


def test_ratio_shortcut_equals_check_full_on_small_integers_with_repeats():
    # On small integers the exact steps leave the tolerance nothing to
    # absorb, so the shortcut decides: all columns tie under one positive
    # weighting exactly when no column dominates its neighbour and the
    # ratios are positive and equal.  Repeated entries are frequent here.
    rng = np.random.default_rng(31)
    full = 0
    for trial in range(2000):
        n = int(rng.integers(2, 7))
        first = rng.integers(-3, 4, size=n)
        if trial % 2:
            second = rng.integers(-3, 4, size=n)
        else:
            # c2[j+1] - c2[j] = ratio * (c1[j] - c1[j+1]) for every j.
            second = int(rng.integers(-3, 4)) - int(rng.integers(1, 6)) * (first - first[0])
        matrix = CriteriaMatrix(np.vstack([first, second]).astype(float))
        expected = check_full(EfficiencyAnalyzer(matrix))[0]
        assert bicheck(matrix)[0] == expected, matrix.entries.tolist()
        full += expected
    assert full >= 1000


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
        structure = enumerate_faces(EfficiencyAnalyzer(matrix), max_support=max_support)
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
    structure = enumerate_faces(EfficiencyAnalyzer(matrix))
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
        structure = enumerate_faces(EfficiencyAnalyzer(matrix), max_support=max_support)
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
    # is the midpoint of columns 1 and 3.  Only mixtures of columns 1 and 2
    # beat column 4, so its closure program runs.
    matrix = CriteriaMatrix([[2.0, 1.0, 0.0, 1.5], [0.0, 1.0, 2.0, 0.4]])
    closures, solved = recording_closures(monkeypatch), []
    real_solve = efficiency_module.solve

    def counting_solve(lp, tol):
        solved.append(lp)
        return real_solve(lp, tol)

    monkeypatch.setattr(efficiency_module, "solve", counting_solve)
    structure = enumerate_faces(EfficiencyAnalyzer(matrix))
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
        fresh = enumerate_faces(EfficiencyAnalyzer(matrix))
        analyzer = EfficiencyAnalyzer(matrix)
        closures.clear()
        assert enumerate_faces(analyzer) == fresh
        asked += len(closures)
        closures.clear()
        assert enumerate_faces(analyzer) == fresh
        assert closures == []
        faces += len(fresh.faces)
    assert asked >= 200 and faces >= 100


def test_the_scan_agrees_with_decide_on_near_ties():
    # Matrices 88 and 385 of the near-tie corpus, both scaled by 1e-6.  The
    # closure certificates of vertex {7} of matrix 88, and of a support of
    # matrix 385, have largest weights of 7.8e9 and 6.0e9 and tie columns
    # that trail by less than rounding.  Kept, their faces made the scan list {4, 7},
    # {5, 7} and {4, 5, 7} of matrix 88 and {1, 4, 5} of matrix 385, whose
    # own closure programs are infeasible.  decide broke down on {1} and
    # {1, 5} of matrix 385 until T1 and T2 bounded the weight mass (ROADMAP
    # item 3 step 0); it now calls both efficient by closure, as the scan does.
    compared = 0
    for index, entries, _ in near_tie_corpus():
        if index > 385:
            break
        if index not in (88, 385):
            continue
        matrix = CriteriaMatrix(entries)
        n = matrix.n
        structure = enumerate_faces(EfficiencyAnalyzer(matrix))
        assert not structure.full
        analyzer = EfficiencyAnalyzer(matrix)
        for size in range(1, n):
            for combo in itertools.combinations(range(1, n + 1), size):
                point = SimplexPoint(barycenter(n, combo))
                efficient = analyzer.decide(point).verdict is Verdict.EFFICIENT
                listed = combo[0] in structure.vertices if size == 1 else SupportPattern(combo) in structure.faces
                assert listed == efficient, (index, combo)
                compared += 1
    # Every support short of the full one: 126 of matrix 88 (n = 7) and 62
    # of matrix 385 (n = 6).
    assert compared == 126 + 62


#: Bounds on the near-tie counts of ``near_tie_counts``; they only go down.
#: Before T1 and T2 bounded the weight mass (ROADMAP item 3 step 0), the
#: first five counts were 24, 223, 305, 0 and 45.  The last one read 7 when
#: it was added, against 1,177 efficient verdicts.  The column screen took
#: the fifth and sixth from 45 and 7, with matrix 52's {2} and {2, 3}.  The
#: face count read 33 of 1,175 efficient verdicts when it was added: faces
#: read at ``tol.tie`` (ROADMAP items 9 and 13).
NEAR_TIE_BOUNDS = {
    "enumerate errors": 24,
    "decide errors": 132,
    "oracle errors": 305,
    "decide/enumerate disagreements": 0,
    "decide/oracle disagreements": 43,
    "efficient where the reference gains": 5,
    "face decided dominated": 33,
}


@functools.cache
def near_tie_counts():
    """Counts over the near-tie corpus matrices whose index is a multiple
    of 4, and every support barycenter of each: the matrices on which
    enumerate_faces raises LpError, the barycenters on which decide and the
    oracle raise it, and the barycenters on which decide disagrees with the
    enumeration and with the oracle, where both answered, the barycenters
    decide calls efficient where the SciPy reference
    (``conftest.dominance_gain``) finds a gain above 1e-6, and the efficient
    reports whose face's own report is dominated."""
    counts = Counter()
    for index, entries, _ in near_tie_corpus():
        if index % 4:
            continue
        matrix = CriteriaMatrix(entries)
        n = matrix.n
        try:
            structure = enumerate_faces(EfficiencyAnalyzer(matrix))
        except LpError:
            structure = None
            counts["enumerate errors"] += 1
        analyzer = EfficiencyAnalyzer(matrix)
        faces, failed = [], set()
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(1, n + 1), size):
                counts["barycenters"] += 1
                point = SimplexPoint(barycenter(n, combo))
                try:
                    report = analyzer.decide(point)
                except LpError:
                    counts["decide errors"] += 1
                    failed.add(classify(point))
                    report = None
                efficient = None if report is None else report.verdict is Verdict.EFFICIENT
                if efficient:
                    counts["efficient verdicts"] += 1
                    counts["efficient where the reference gains"] += dominance_gain(entries, point.coords) > 1e-6
                    faces.append(report.face)
                try:
                    oracle = dominance_lp_verdict(matrix, point) is Verdict.EFFICIENT
                except LpError:
                    counts["oracle errors"] += 1
                    oracle = None
                if efficient is not None and structure is not None:
                    if size == n:
                        listed = structure.full
                    elif size == 1:
                        listed = combo[0] in structure.vertices
                    else:
                        listed = SupportPattern(combo) in structure.faces
                    counts["decide/enumerate disagreements"] += listed != efficient
                if efficient is not None and oracle is not None:
                    counts["decide/oracle disagreements"] += oracle != efficient
        # Every class was decided above, so a face's report is a lookup,
        # except where its decision raised, already counted there.
        counts["face decided dominated"] += sum(
            face not in failed and analyzer.report(face).verdict is Verdict.DOMINATED for face in faces
        )
    return counts


def test_near_tie_counts_only_go_down():
    # Near ties are where the float programs and their tolerances decide
    # (ROADMAP items 3 and 10).  Matrix 385, outside this slice, is pinned
    # by test_the_scan_agrees_with_decide_on_near_ties.
    counts = near_tie_counts()
    assert (counts["barycenters"], counts["efficient verdicts"]) == (7010, 1175)
    above = {key: counts[key] for key, bound in NEAR_TIE_BOUNDS.items() if counts[key] > bound}
    assert not above, f"above their bounds: {above}"
    assert counts["decide/enumerate disagreements"] == 0


#: Near-tie corpus barycenters that a screened column decides dominated,
#: with that column: efficient before the screen (matrices 52 and 543) or a
#: solver breakdown (165 and 331).
SCREENED_NEAR_TIES = {
    52: (2, [(2,), (2, 3)]),
    165: (5, [(5,), (5, 6)]),
    331: (4, [(4,), (4, 5)]),
    543: (2, [(2,), (1, 2), (2, 3), (1, 2, 3)]),
}


def test_screened_columns_decide_these_near_ties():
    # In each, the screened column trails another by a normalized gain
    # above 1e-5 and is no larger in any criterion, so the verdict is a proof.
    decided = 0
    for index, entries, _ in near_tie_corpus():
        if index not in SCREENED_NEAR_TIES:
            continue
        column, combos = SCREENED_NEAR_TIES[index]
        matrix = CriteriaMatrix(entries)
        assert column in efficiency_module._screened_columns(matrix)
        analyzer = EfficiencyAnalyzer(matrix)
        for combo in combos:
            report = analyzer.decide(SimplexPoint(barycenter(matrix.n, combo)))
            kind = Kind.T0 if len(combo) == matrix.n else Kind.CLOSURE
            assert (report.verdict, report.test, report.certificate) == (Verdict.DOMINATED, kind, None), (index, combo)
            decided += 1
        if index == max(SCREENED_NEAR_TIES):
            break
    assert decided == 10


def test_bicriterion_referee_agrees_with_the_scan_on_integers():
    rng = np.random.default_rng(7)
    compared = 0
    for _ in range(300):
        n = int(rng.integers(2, 9))
        entries = rng.integers(-9, 10, size=(2, n)).astype(float)
        structure = enumerate_faces(EfficiencyAnalyzer(CriteriaMatrix(entries)))
        faces = bicriterion_faces(entries)
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(1, n + 1), size):
                if size == n:
                    listed = structure.full
                elif size == 1:
                    listed = combo[0] in structure.vertices
                else:
                    listed = SupportPattern(combo) in structure.faces
                assert listed == any(face.issuperset(combo) for face in faces), (entries.tolist(), combo)
                compared += 1
    assert compared == 22572


#: Bounds on the counts of ``test_bicriterion_near_tie_counts_only_go_down``;
#: they only go down.  The matrices bicheck calls full against the referee
#: were 95, 232, 293, 354, 486, 534 and 545 when the bounds were set: near
#: ties within the relative ``tol.tie`` of its ratio test.  The column
#: screen took the first two from 149 and 84.
BICRITERION_BOUNDS = {
    "decide wrong": 147,
    "decide errors": 82,
    "ratio test full, referee not": 7,
    "referee full, ratio test not": 0,
}


def test_bicriterion_near_tie_counts_only_go_down():
    # Every two-criteria matrix of the near-tie corpus and every support
    # barycenter of each, judged by the exact referee: the barycenters on
    # which decide answers wrongly or raises LpError, and the matrices on
    # which bicheck and the referee differ on the whole simplex.
    counts = Counter()
    for _, entries, _ in near_tie_corpus():
        if entries.shape[0] != 2:
            continue
        counts["matrices"] += 1
        matrix = CriteriaMatrix(entries)
        n = matrix.n
        faces = bicriterion_faces(entries)
        full, quick = frozenset(range(1, n + 1)) in faces, bicheck(matrix)[0]
        counts["ratio test full, referee not"] += quick and not full
        counts["referee full, ratio test not"] += full and not quick
        analyzer = EfficiencyAnalyzer(matrix)
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(1, n + 1), size):
                counts["barycenters"] += 1
                try:
                    report = analyzer.decide(SimplexPoint(barycenter(n, combo)))
                except LpError:
                    counts["decide errors"] += 1
                    continue
                efficient = any(face.issuperset(combo) for face in faces)
                counts["decide wrong"] += (report.verdict is Verdict.EFFICIENT) != efficient
    assert (counts["matrices"], counts["barycenters"]) == (150, 7146)
    above = {key: counts[key] for key, bound in BICRITERION_BOUNDS.items() if counts[key] > bound}
    assert not above, f"above their bounds: {above}"


@st.composite
def bicriterion_near_ties(draw):
    """A two-criteria integer matrix with one column planted against
    others: a copy of one less eps, a copy less 1 in one criterion, or the
    midpoint of two less eps, with eps = 10^[-10, -6]; then each row is
    scaled by 10^[-6, 6]."""
    n = draw(st.integers(3, 6))
    entries = np.array(draw(st.lists(st.integers(-9, 9), min_size=2 * n, max_size=2 * n)), dtype=float)
    entries = entries.reshape(2, n)
    a, b, c = draw(st.permutations(range(n)))[:3]
    eps = 10.0 ** draw(st.floats(-10.0, -6.0))
    plant = draw(st.sampled_from(["copy", "dominated", "midpoint"]))
    if plant == "copy":
        entries[:, b] = entries[:, a] - eps
    elif plant == "dominated":
        entries[:, b] = entries[:, a]
        entries[draw(st.integers(0, 1)), b] -= 1.0
    else:
        entries[:, b] = (entries[:, a] + entries[:, c]) / 2 - eps
    exponents = np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=2)))
    return (entries * 10.0 ** exponents[:, None]).tolist()


@pytest.mark.xfail(strict=True, reason="float verdicts on near ties, ROADMAP item 3")
@settings(max_examples=50, deadline=None)
@given(bicriterion_near_ties())
# Near-tie matrix 95: the midpoint of columns 1 and 3, (0, 0.035), beats
# column 2 in both criteria, yet decide calls vertex 2 efficient.
@example([[0.02, -5.0059601228065e-12, -0.02], [0.02, 0.03499999999499404, 0.05]])
def test_decide_agrees_with_the_bicriterion_referee_on_near_ties(entries):
    n = len(entries[0])
    faces = bicriterion_faces(entries)
    analyzer = EfficiencyAnalyzer(CriteriaMatrix(entries))
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            report = analyzer.decide(SimplexPoint(barycenter(n, combo)))
            efficient = any(face.issuperset(combo) for face in faces)
            assert (report.verdict is Verdict.EFFICIENT) == efficient, (entries, combo)


@pytest.mark.xfail(strict=True, reason="solver breakdowns on near ties, ROADMAP item 3")
def test_near_ties_raise_no_solver_error():
    counts = near_tie_counts()
    assert counts["enumerate errors"] + counts["decide errors"] + counts["oracle errors"] == 0


@pytest.mark.xfail(strict=True, reason="phase one and its re-check disagree on near ties, ROADMAP item 3")
def test_a_column_a_few_solver_tolerances_below_a_tie_is_decided():
    # Column 3 is column 1 less 3e-9 in each row.  The T0 program, which
    # decide and enumerate_faces solve first, and the oracle program of
    # {2, 3} break down: phase one accepts a point within
    # 10 tol.lp (1 + max rhs) of feasible, which then fails the re-check at
    # tol.lp (ROADMAP item 3 step 1).
    matrix = CriteriaMatrix([[1, 0, 1 - 3e-9], [0, 1, -3e-9]])
    raised = []
    for combo in ((3,), (1, 3), (2, 3)):
        point = SimplexPoint(barycenter(3, combo))
        for name, call in (
            ("decide", lambda: EfficiencyAnalyzer(matrix).decide(point)),
            ("oracle", lambda: dominance_lp_verdict(matrix, point)),
        ):
            try:
                call()
            except LpError:
                raised.append((name, combo))
    try:
        enumerate_faces(EfficiencyAnalyzer(matrix))
    except LpError:
        raised.append(("enumerate", None))
    assert raised == []


def test_a_vertex_decide_found_dominated_needs_no_closure_call(edge_matrix, monkeypatch):
    analyzer = EfficiencyAnalyzer(edge_matrix)
    assert analyzer.decide(vertex(3, 3)).verdict is Verdict.DOMINATED
    closures = recording_closures(monkeypatch)
    assert not analyzer.efficient(SupportPattern((3,)))
    assert closures == []
    assert enumerate_vertices(analyzer) == {1, 2}
    assert SupportPattern((3,)) not in closures


@pytest.mark.parametrize(
    "rows, warm, invalid, error, message",
    [
        # {3} is found dominated, and {3, 99} contains it.
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], (3,), (3, 99), DimensionMismatchError, "exceeds"),
        # {1}'s certificate ties every column, so its kept face holds the full support.
        ([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]], (1,), (1, 2, 3), InputError, r"outside 1\.\.2"),
    ],
)
def test_efficient_rejects_an_invalid_support_whatever_the_caches_hold(
    rows, warm, invalid, error, message
):
    matrix = CriteriaMatrix(rows)
    with pytest.raises(error, match=message):
        EfficiencyAnalyzer(matrix).efficient(SupportPattern(invalid))
    analyzer = EfficiencyAnalyzer(matrix)
    analyzer.efficient(SupportPattern(warm))
    with pytest.raises(error, match=message):
        analyzer.efficient(SupportPattern(invalid))


def test_decide_after_a_scan_gives_the_fresh_reports():
    # ``decide`` neither reads nor adds kept faces: after a scan on the
    # same analyzer, each barycenter gets the report a fresh analyzer gives.
    def summary(report):
        weights = None if report.certificate is None else report.certificate.weights.tolist()
        return report.verdict, report.test, weights, report.face

    rng = np.random.default_rng(1607)
    for _ in range(20):
        matrix = random_matrix(rng, n=int(rng.integers(3, 7)))
        analyzer = EfficiencyAnalyzer(matrix)
        enumerate_faces(analyzer)
        for size in range(1, matrix.n):
            for combo in itertools.combinations(range(1, matrix.n + 1), size):
                point = SimplexPoint(barycenter(matrix.n, combo))
                fresh = EfficiencyAnalyzer(matrix).decide(point)
                report = analyzer.decide(point)
                assert summary(report) == summary(fresh)
                assert analyzer.report(classify(point)) is report


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
            expected = enumerate_faces(EfficiencyAnalyzer(matrix))
            analyzer = EfficiencyAnalyzer(matrix)
            with ThreadPoolExecutor(max_workers=8) as pool:
                scans = [pool.submit(enumerate_faces, analyzer) for _ in range(8)]
                assert [scan.result(timeout=60) for scan in scans] == [expected] * 8
            closures.clear()
            assert enumerate_faces(analyzer) == expected
            assert closures == []
            faces += len(expected.faces)
    finally:
        sys.setswitchinterval(interval)
    assert faces >= 40


def permuted_columns(rng, entries):
    """The entries with their columns in a random order, and the map from
    each old 1-based column to its new one."""
    order = rng.permutation(entries.shape[1])
    return entries[:, order], {int(old) + 1: new + 1 for new, old in enumerate(order)}


def shifted_rows(rng, entries):
    """The entries with an integer added to each row; columns stay put."""
    return entries + rng.integers(-9, 10, size=(entries.shape[0], 1)), {
        j: j for j in range(1, entries.shape[1] + 1)
    }


def scaled_rows(rng, entries, exponent=3):
    """The entries with each row multiplied by 10^U[-exponent, exponent];
    columns stay put."""
    factors = 10.0 ** rng.uniform(-exponent, exponent, size=(entries.shape[0], 1))
    return entries * factors, {j: j for j in range(1, entries.shape[1] + 1)}


@pytest.mark.parametrize(
    "relation",
    [
        pytest.param(permuted_columns, id="permute"),
        pytest.param(shifted_rows, id="shift"),
        pytest.param(scaled_rows, id="scale-1e3"),
        pytest.param(
            functools.partial(scaled_rows, exponent=6), id="scale-1e6",
            marks=pytest.mark.xfail(strict=True, reason="units still matter, ROADMAP item 3"),
        ),
    ],
)
def test_structure_and_verdicts_follow_column_permutations_and_row_shifts(relation):
    # Efficiency is unchanged by renaming the columns, by adding a constant
    # to a criterion, which moves every feasible point's score by the same
    # amount, and by multiplying a criterion by a positive factor, which
    # scales every score by it.  So the transformed matrix's structure is
    # the original's with the columns renamed, and each support barycenter
    # gets the verdict of the renamed support's barycenter.
    rng = np.random.default_rng(2030)
    failures = []
    checked = 0
    for _ in range(100):
        k, n = int(rng.integers(2, 7)), int(rng.integers(3, 9))
        entries = rng.integers(-9, 10, size=(k, n)).astype(float)
        moved_entries, column = relation(rng, entries)
        plain = EfficiencyAnalyzer(CriteriaMatrix(entries))
        moved = EfficiencyAnalyzer(CriteriaMatrix(moved_entries))

        def rename(support):
            return SupportPattern(sorted(column[j] for j in support))

        try:
            expected = enumerate_faces(plain)
            got = enumerate_faces(moved)
        except LpError as exc:
            failures.append((entries.tolist(), repr(exc)))
            continue
        renamed = EfficientStructure(
            expected.full,
            frozenset(column[j] for j in expected.vertices),
            frozenset(map(rename, expected.faces)),
            expected.exhaustive,
        )
        if got != renamed:
            failures.append((entries.tolist(), "structure"))
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(1, n + 1), size):
                before = plain.decide(SimplexPoint(barycenter(n, combo))).verdict
                after = moved.decide(SimplexPoint(barycenter(n, rename(combo)))).verdict
                checked += 1
                if after is not before:
                    failures.append((entries.tolist(), combo, after.value))
    assert not failures, f"{len(failures)} failures, first: {failures[:2]}"
    assert checked > 5000


def duplicated_column(rng, entries):
    """The entries with a copy of a random column appended, and the map
    from each new 1-based column to the old column it equals."""
    n = entries.shape[1]
    source = int(rng.integers(n))
    image = {j: j for j in range(1, n + 1)}
    image[n + 1] = source + 1
    return np.column_stack([entries, entries[:, source]]), image


def dominated_column(rng, entries):
    """The entries with a column appended that a random column dominates:
    no better under any criterion and worse under at least one.  The map
    sends each old column to itself and has no entry for the new one."""
    k, n = entries.shape
    loss = rng.integers(0, 4, size=k)
    loss[rng.integers(k)] = rng.integers(1, 4)
    source = int(rng.integers(n))
    return np.column_stack([entries, entries[:, source] - loss]), {j: j for j in range(1, n + 1)}


def efficient_supports(structure, n):
    """The efficient supports of an exhaustive structure on n columns, the
    full support included when the structure is full."""
    supports = {(j,) for j in structure.vertices} | {face.indices for face in structure.faces}
    return supports | {tuple(range(1, n + 1))} if structure.full else supports


@pytest.mark.parametrize("relation", [duplicated_column, dominated_column], ids=["duplicate", "dominated"])
def test_structure_and_verdicts_follow_duplicated_and_dominated_columns(relation):
    # A point of the grown matrix scores as the point of the original that
    # moves each new column's mass onto the column it copies; so its support
    # is efficient exactly when that image is.  A dominated column has no
    # image: mass on it can move to the column that dominates it, at a gain,
    # and the original points lose no efficiency, since the new column
    # offers nothing the old one does not.
    rng = np.random.default_rng(2031)
    failures = []
    checked = 0
    for _ in range(100):
        # The grown matrices have 4 to 8 columns.
        k, n = int(rng.integers(2, 7)), int(rng.integers(3, 8))
        entries = rng.integers(-9, 10, size=(k, n)).astype(float)
        grown_entries, image = relation(rng, entries)
        plain = EfficiencyAnalyzer(CriteriaMatrix(entries))
        grown = EfficiencyAnalyzer(CriteriaMatrix(grown_entries))

        def old_support(support):
            """The support of the original point a grown point scores as,
            or None when the grown point has mass on a dominated column."""
            if any(j not in image for j in support):
                return None
            return tuple(sorted({image[j] for j in support}))

        try:
            before = efficient_supports(enumerate_faces(plain), n)
            after = efficient_supports(enumerate_faces(grown), n + 1)
        except LpError as exc:
            failures.append((entries.tolist(), repr(exc)))
            continue
        supports = [
            combo for size in range(1, n + 2) for combo in itertools.combinations(range(1, n + 2), size)
        ]
        expected = {combo for combo in supports if old_support(combo) in before}
        if after != expected:
            failures.append((entries.tolist(), "structure"))
        for combo in supports:
            old = old_support(combo)
            want = (
                Verdict.DOMINATED
                if old is None
                else plain.decide(SimplexPoint(barycenter(n, old))).verdict
            )
            got = grown.decide(SimplexPoint(barycenter(n + 1, combo))).verdict
            checked += 1
            if got is not want:
                failures.append((entries.tolist(), combo, got.value))
    assert not failures, f"{len(failures)} failures, first: {failures[:2]}"
    assert checked > 8000
