"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole battery (including the 525-polytope corpus) completes in
well under two minutes on a laptop-class machine.
"""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import castelpoly
from castelpoly.classification import (
    STATUS_CERTIFIED,
    STATUS_COUNTEREXAMPLE,
    idp_check,
    is_castelnuovo,
    is_castelnuovo_direct,
    is_spanning,
    spanning_invariant_factors,
)
from castelpoly.corpus import AUDIT_NAMES, OUTCOMES, audit_polytope, generate_corpus
from castelpoly.ehrhart import degree, hstar, normalized_volume
from castelpoly.geometry import build_polytope
from castelpoly.registry import family_vertices, nonspanning_dim4_vertices, run_example

# dims 2-4; 250 + 175 + 100 = 525 >= 500 random polytopes
CORPUS_SPECS = ((2, 3, 250, 101), (3, 2, 175, 202), (4, 2, 100, 303))


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    polys = []
    for dim, bound, count, seed in CORPUS_SPECS:
        polys.extend(generate_corpus(dim, bound, count, seed))
    audits = [audit_polytope(p) for p in polys]
    return polys, audits


def _tally(audits, name):
    counts = {"pass": 0, "fail": 0, "inapplicable": 0, "skipped": 0}
    for a in audits:
        counts[a[name]] += 1
    return counts


def test_criterion_1_nonspanning_dim4_reproduction():
    start = time.perf_counter()
    p = build_polytope(nonspanning_dim4_vertices())
    ok = (
        hstar(p).coeffs == (1, 1, 1, 1, 0)
        and degree(p) == 3
        and normalized_volume(p) == 4
        and not is_spanning(p)
        and spanning_invariant_factors(p) == (1, 1, 1, 2)
        and not is_castelnuovo(p).verdict
        and not is_castelnuovo_direct(p).verdict
    )
    elapsed = time.perf_counter() - start
    _report(1, ok and elapsed < 1.0, f"dim-4 non-spanning example exact values in {elapsed:.3f}s")


def test_criterion_2_family_reproduction():
    start = time.perf_counter()
    ok = True
    for a in (1, 2):
        n = 2 * a + 1
        p = build_polytope(family_vertices(a))
        verdict = idp_check(p)
        ok = ok and (
            hstar(p).coeffs == (1,) + (1,) * a + (2,) + (0,) * a
            and degree(p) == a + 1
            and p.lattice_count(1) == 2 * a + 3
            and is_spanning(p)
            and verdict.status == STATUS_COUNTEREXAMPLE
            and verdict.witness == (a + 1, tuple([1] * n))
            and not is_castelnuovo(p).verdict
            and not is_castelnuovo_direct(p).verdict
        )
    elapsed = time.perf_counter() - start
    _report(2, ok and elapsed < 60.0, f"family a=1,2 exact values in {elapsed:.2f}s (limit 60s)")


def test_family_a3_under_default_budget():
    # dimension 7: the largest dilate the checks scan, k = 7, has 3,717,120
    # box fibers, within the default budget of 10^8; the walk over the
    # projections takes 6,532 fibers of P's last level
    start = time.perf_counter()
    checks = run_example("family-a", a=3)
    elapsed = time.perf_counter() - start
    for _, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {detail}")
    details = {label: detail for label, _, detail in checks}
    assert len(checks) == 8 and all(ok for _, ok, _ in checks)
    assert details["a=3 h*"] == "a=3 h*: got (1, 1, 1, 1, 2, 0, 0, 0)"
    assert details["a=3 degree"] == "a=3 degree: got 4"
    assert details["a=3 idp witness"] == "a=3 idp witness: got (4, (1, 1, 1, 1, 1, 1, 1))"
    print(f"family a=3 registry checks in {elapsed:.2f}s")


def test_unit_6_cube_is_idp():
    # the default depth max(2, n - 1) = 5 reaches 5P, whose 6^6 = 46,656
    # points each need one decomposition
    start = time.perf_counter()
    verdict = idp_check(build_polytope(list(itertools.product((0, 1), repeat=6))))
    elapsed = time.perf_counter() - start
    assert verdict.status == STATUS_CERTIFIED
    assert verdict.kmax_checked == 5
    print(f"unit 6-cube certified IDP up to k = 5 in {elapsed:.2f}s")


def test_criterion_3_route_agreement(corpus):
    polys, audits = corpus
    t = _tally(audits, "route_agreement")
    ok = t["fail"] == 0 and t["pass"] + t["skipped"] == len(polys) and len(polys) >= 500
    _report(3, ok, f"castelnuovo routes agree on {t['pass']}/{len(polys)} corpus polytopes")


def test_criterion_4_inequality_audits(corpus):
    _, audits = corpus
    hibi = _tally(audits, "hibi_bound")
    hkn = _tally(audits, "hkn_bound")
    vol = _tally(audits, "volume_bound")
    ok = hibi["fail"] == 0 and hkn["fail"] == 0 and vol["fail"] == 0
    _report(
        4,
        ok,
        "zero violations: interior bound "
        f"{hibi['pass']} checked, spanning bound {hkn['pass']} checked, "
        f"volume bound (incl. equality-iff-flat) {vol['pass']} checked",
    )


def test_criterion_5_idp_audits(corpus):
    _, audits = corpus
    castel = _tally(audits, "castelnuovo_implies_idp")
    deg2 = _tally(audits, "degree_two_idp")
    ok = castel["fail"] == 0 and deg2["fail"] == 0
    _report(
        5,
        ok,
        f"castelnuovo=>IDP on {castel['pass']} and degree-2 h1>=h2 => IDP on {deg2['pass']} polytopes",
    )


def test_criterion_6_ehrhart_round_trip(corpus):
    _, audits = corpus
    t = _tally(audits, "ehrhart_roundtrip")
    ok = t["fail"] == 0
    _report(6, ok, f"h* predicts all dilate counts k<=2n on {t['pass']} polytopes")


def test_criterion_7_unimodularity_criterion(corpus):
    _, audits = corpus
    t = _tally(audits, "betke_mcmullen")
    ok = t["fail"] == 0
    _report(7, ok, f"unimodular <=> h(triangulation)=h* on {t['pass']} polytopes")


def test_criterion_8_interior_specialization(corpus):
    _, audits = corpus
    t = _tally(audits, "interior_flatness")
    ok = t["fail"] == 0 and t["pass"] > 0
    _report(
        8,
        ok,
        f"interior sub-corpus: castelnuovo<=>flat and h1>=hn on {t['pass']} polytopes",
    )


def test_criterion_9_corpus_determinism():
    cmd = [
        sys.executable,
        "-m",
        "castelpoly.cli",
        "corpus",
        "--dim",
        "3",
        "--coord-bound",
        "2",
        "--count",
        "60",
        "--seed",
        "17",
        "--json",
    ]
    # the child imports the package the suite imports, installed or not
    src = str(Path(castelpoly.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    _report(9, ok, "two corpus runs with one seed are byte-identical")


def test_corpus_audit_coverage(corpus):
    # belt and braces: every audit outcome is a known label, and the
    # pulling-order check never had to log an anomaly on this corpus
    _, audits = corpus
    for a in audits:
        assert set(a) == set(AUDIT_NAMES)
        assert all(v in OUTCOMES for v in a.values())
    anomalies = sum(1 for a in audits if "anomaly" in a.values())
    print(f"corpus anomalies (pulling order missed a unimodular triangulation): {anomalies}")
