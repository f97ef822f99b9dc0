"""The per-polytope memo: each invariant is computed once, under the scan
budget the polytope was built with."""

import pytest

import castelpoly.classification as classification
import castelpoly.triangulation as triangulation
from castelpoly.classification import idp_check, is_spanning
from castelpoly.corpus import audit_polytope
from castelpoly.ehrhart import hstar
from castelpoly.errors import BudgetExceeded
from castelpoly.geometry import Polytope, build_polytope
from castelpoly.registry import family_vertices, nonspanning_dim4_vertices
from castelpoly.report import build_report
from castelpoly.triangulation import pulling_triangulation


def test_report_runs_one_snf(monkeypatch):
    calls = []
    real = classification.snf

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(classification, "snf", counting)
    p = build_polytope(nonspanning_dim4_vertices())
    build_report(p, name="example-3-5")
    assert len(calls) == 1
    # the SNF sees the n x n Hermite basis, not all the lattice-point differences
    assert calls[0].rows == p.dim < p.lattice_count(1) - 1


@pytest.mark.parametrize("vertices", [nonspanning_dim4_vertices(), family_vertices(2)])
def test_report_runs_one_volume_pass(monkeypatch, vertices):
    calls = []
    real = triangulation._volumes

    def counting(points, simplices, n):
        calls.append(len(simplices))
        return real(points, simplices, n)

    monkeypatch.setattr(triangulation, "_volumes", counting)
    p = build_polytope(vertices)
    build_report(p, name="p")
    assert calls == [len(pulling_triangulation(p).maximal_simplices)]


# Collecting scans of the dilates that the spanning, IDP and pulling steps
# read, and count scans of the other dilates that hstar, degree and the
# audit's Ehrhart round trip read. hstar counts the dilates 1..K,
# K = floor((n+2)/2), not yet counted in one walk, P too when nothing
# collected it first; the audit collects P and then counts 1..2n in one
# walk, which serves hstar, degree and the round trip. No dilate is scanned
# twice in the same mode, and a collecting scan also serves the counts of
# its dilate. The report runs IDP before hstar, so it collects first.
# Each case pins the walks, as (dilates, collect), and the number of dilate
# scans they hold, which names the case.
@pytest.mark.parametrize(
    "vertices, run, scans, walks",
    [
        pytest.param(
            nonspanning_dim4_vertices(),
            build_report,
            3,
            [((1,), True), ((2,), True), ((3,), False)],
            id="vertices0-build_report-3",
        ),
        pytest.param(
            nonspanning_dim4_vertices(),
            audit_polytope,
            8,
            [((1,), True), ((2, 3, 4, 5, 6, 7, 8), False)],
            id="vertices1-audit_polytope-8",
        ),
        pytest.param(
            family_vertices(1),
            build_report,
            2,
            [((1,), True), ((2,), True)],
            id="vertices2-build_report-2",
        ),
        pytest.param(
            family_vertices(1),
            audit_polytope,
            6,
            [((1,), True), ((2, 3, 4, 5, 6), False)],
            id="vertices3-audit_polytope-6",
        ),
        pytest.param(
            family_vertices(1),
            lambda p: (p.lattice_points(3), p.lattice_count(3)),
            1,
            [((3,), True)],
            id="vertices4-<lambda>-1",
        ),
        pytest.param(
            nonspanning_dim4_vertices(),
            hstar,
            3,
            [((1, 2, 3), False)],
            id="vertices5-hstar-3",
        ),
    ],
)
def test_scans_per_analysis(monkeypatch, vertices, run, scans, walks):
    calls = []
    real = Polytope._scan

    def counting(self, ks, collect):
        calls.append((tuple(ks), collect))
        return real(self, ks, collect)

    monkeypatch.setattr(Polytope, "_scan", counting)
    run(build_polytope(vertices))
    assert calls == walks
    scanned = [(k, collect) for ks, collect in calls for k in ks]
    assert len(scanned) == scans
    assert len(set(scanned)) == len(scanned)
    if run is build_report:
        assert len({k for k, _ in scanned}) == len(scanned)


def test_budget_is_fixed_per_polytope():
    points = nonspanning_dim4_vertices()
    roomy = build_polytope(points)
    hstar(roomy)
    is_spanning(roomy)
    tight = build_polytope(points, budget=1)
    with pytest.raises(BudgetExceeded):
        hstar(tight)
    with pytest.raises(BudgetExceeded):
        is_spanning(tight)
    with pytest.raises(BudgetExceeded):
        tight.lattice_count(2)


def test_memo_keys_fill_in_defaults():
    p = build_polytope(family_vertices(1))
    assert idp_check(p) is idp_check(p, None) is idp_check(p, kmax=None)


def test_idp_memo_keys_on_the_resolved_depth():
    p = build_polytope(nonspanning_dim4_vertices())
    assert idp_check(p) is idp_check(p, max(2, p.dim - 1))
    assert idp_check(p, 2) is not idp_check(p, 5)


def test_memo_keeps_points_as_one_read_only_array():
    p = build_polytope(family_vertices(1))
    build_report(p, name="family-a1")
    points = p._points(1)
    assert p.lattice_points(1) == frozenset(map(tuple, points.tolist()))
    assert not any(isinstance(v, frozenset) for v in p._memo.values())
    assert not points.flags.writeable
