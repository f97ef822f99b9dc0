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
from castelpoly.registry import family_vertices, nonspanning_dim4_vertices, square_2x2_vertices
from castelpoly.report import build_report
from castelpoly.triangulation import pulling_triangulation


def snf_calls(monkeypatch):
    """The matrices that :func:`classification.snf` is called on from now."""
    calls = []
    real = classification.snf

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(classification, "snf", counting)
    return calls


def test_report_runs_one_snf(monkeypatch):
    calls = snf_calls(monkeypatch)
    p = build_polytope(nonspanning_dim4_vertices())
    build_report(p, name="example-3-5")
    assert len(calls) == 1
    # the SNF sees the n x n Hermite basis, not all the lattice-point differences
    assert calls[0].rows == p.dim < p.lattice_count(1) - 1


# a spanning polytope's Hermite basis has every pivot 1, which tells its
# invariant factors without an SNF
@pytest.mark.parametrize("vertices", [family_vertices(1), square_2x2_vertices()], ids=["family-a1", "square-2x2"])
def test_report_of_a_spanning_input_runs_no_snf(monkeypatch, vertices):
    calls = snf_calls(monkeypatch)
    report = build_report(build_polytope(vertices), name="p")
    assert report["spanning"] and report["spanning_invariant_factors"] == [1] * report["dim"]
    assert calls == []


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


# Each walk counts some dilates and collects a subset of them: the dilates
# whose points the spanning test, the IDP lookup and the pulling read. hstar
# counts the dilates 1..K, K = floor((n+2)/2), not yet counted in one walk.
# The audit makes one walk: it counts 1..2n, which serves hstar, degree and
# the Ehrhart round trip, and collects P; IDP, where it runs, reads the
# certificate of the unimodular pulling triangulation and collects nothing
# more. The report counts 1..K and collects 1..min(K, kmax) in one walk, so
# it scans no dilate twice. Each case pins the walks, as (dilates counted,
# dilates collected), and the number of dilate scans they hold, which names
# the case.
@pytest.mark.parametrize(
    "vertices, run, scans, walks",
    [
        pytest.param(
            nonspanning_dim4_vertices(),
            build_report,
            3,
            [((1, 2, 3), (1, 2, 3))],
            id="vertices0-build_report-3",
        ),
        pytest.param(
            nonspanning_dim4_vertices(),
            audit_polytope,
            8,
            [((1, 2, 3, 4, 5, 6, 7, 8), (1,))],
            id="vertices1-audit_polytope-8",
        ),
        pytest.param(
            family_vertices(1),
            build_report,
            2,
            [((1, 2), (1, 2))],
            id="vertices2-build_report-2",
        ),
        pytest.param(
            family_vertices(1),
            audit_polytope,
            6,
            [((1, 2, 3, 4, 5, 6), (1,))],
            id="vertices3-audit_polytope-6",
        ),
        pytest.param(
            family_vertices(1),
            lambda p: (p.lattice_points(3), p.lattice_count(3)),
            1,
            [((3,), (3,))],
            id="vertices4-<lambda>-1",
        ),
        pytest.param(
            nonspanning_dim4_vertices(),
            hstar,
            3,
            [((1, 2, 3), ())],
            id="vertices5-hstar-3",
        ),
        # unimodular: both IDP audits run, on the certificate alone
        pytest.param(
            square_2x2_vertices(),
            audit_polytope,
            4,
            [((1, 2, 3, 4), (1,))],
            id="square-2x2-audit_polytope-4",
        ),
        pytest.param(
            square_2x2_vertices(),
            build_report,
            2,
            [((1, 2), (1, 2))],
            id="square-2x2-build_report-2",
        ),
    ],
)
def test_scans_per_analysis(monkeypatch, vertices, run, scans, walks):
    calls = []
    real = Polytope._scan

    def counting(self, ks, collect):
        calls.append((tuple(ks), tuple(sorted(collect))))
        return real(self, ks, collect)

    monkeypatch.setattr(Polytope, "_scan", counting)
    run(build_polytope(vertices))
    assert calls == walks
    scanned = [k for ks, _ in calls for k in ks]
    assert len(scanned) == scans
    assert len(set(scanned)) == len(scanned)


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
