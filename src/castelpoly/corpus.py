"""Random polytope corpus generation and batch theorem auditing.

Every audited statement is a theorem, so the expected failure count is zero
on any corpus; a failure means an implementation bug and the offending
polytope is dumped in reproducible form.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor

from .classification import (
    audit_bounds,
    audit_castelnuovo_implies_idp,
    audit_degree_two_idp,
    audit_interior_flatness,
    is_castelnuovo,
    is_castelnuovo_direct,
)
from .ehrhart import ehrhart_eval, hstar
from .errors import BudgetExceeded, NotFullDimensional
from .geometry import DEFAULT_BUDGET, Polytope, build_polytope
from .triangulation import betke_mcmullen_check

AUDIT_NAMES = (
    "route_agreement",
    "hibi_bound",
    "hkn_bound",
    "volume_bound",
    "castelnuovo_implies_idp",
    "degree_two_idp",
    "betke_mcmullen",
    "interior_flatness",
    "flat_interior_unimodular",
    "ehrhart_roundtrip",
)

# "anomaly" is reserved for flat_interior_unimodular: a unimodular
# triangulation is guaranteed to exist under that hypothesis, but whether
# every pulling order finds one is open, so a miss is logged for review
# rather than counted as a failure.
OUTCOMES = ("pass", "fail", "inapplicable", "skipped", "anomaly")


def generate_corpus(
    dim: int, coord_bound: int, count: int, seed: int, budget: int = DEFAULT_BUDGET
) -> list[Polytope]:
    """Deterministic random full-dimensional lattice polytopes.

    Samples dim+1..dim+4 points in the coordinate box and keeps the hull
    whenever it is full-dimensional; ``budget`` is each polytope's scan budget.
    """
    rng = random.Random(seed)
    out: list[Polytope] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise RuntimeError("rejection sampling is not converging; widen the box")
        npts = rng.randint(dim + 1, dim + 4)
        pts = [
            tuple(rng.randint(-coord_bound, coord_bound) for _ in range(dim))
            for _ in range(npts)
        ]
        try:
            out.append(build_polytope(pts, budget))
        except NotFullDimensional:
            continue
    return out


def _tri(applicable, ok):
    if not applicable:
        return "inapplicable"
    return "pass" if ok else "fail"


def audit_polytope(p: Polytope) -> dict[str, str]:
    """Run the full audit battery on one polytope; every outcome is one of
    pass/fail/inapplicable, or skipped across the board on budget exhaustion."""
    try:
        # collect P for the pulling first, then count in one walk every
        # dilate that h*, degree and the Ehrhart round trip read
        p._points(1)
        p.count_dilates(range(1, 2 * p.dim + 1))
        bm = betke_mcmullen_check(p)
        results: dict[str, str] = {}
        agree = is_castelnuovo(p).verdict == is_castelnuovo_direct(p).verdict
        results["route_agreement"] = "pass" if agree else "fail"

        bounds = audit_bounds(p)
        results["hibi_bound"] = _tri(bounds["hibi"]["applicable"], bounds["hibi"]["holds"])
        results["hkn_bound"] = _tri(bounds["hkn"]["applicable"], bounds["hkn"]["holds"])
        vol = bounds["volume"]
        results["volume_bound"] = _tri(
            vol["applicable"], vol["holds"] and vol["equality_iff_flat"]
        )

        results["castelnuovo_implies_idp"] = audit_castelnuovo_implies_idp(p)
        results["degree_two_idp"] = audit_degree_two_idp(p)
        results["betke_mcmullen"] = _tri(True, bm["consistent"])

        flat = audit_interior_flatness(p)
        results["interior_flatness"] = _tri(
            flat["applicable"], flat["holds"] and flat["tail_holds"]
        )

        h = hstar(p)
        flat_hypothesis = p.interior_lattice_count(1) > 0 and all(
            h.coeffs[1] == h.coeffs[j] for j in range(2, p.dim)
        )
        if not flat_hypothesis:
            results["flat_interior_unimodular"] = "inapplicable"
        else:
            results["flat_interior_unimodular"] = "pass" if bm["unimodular"] else "anomaly"

        roundtrip = all(
            ehrhart_eval(h, k) == p.lattice_count(k)
            for k in range(2 * p.dim + 1)
        )
        results["ehrhart_roundtrip"] = "pass" if roundtrip else "fail"
        return results
    except BudgetExceeded:
        return {name: "skipped" for name in AUDIT_NAMES}


def run_corpus(
    dim: int,
    coord_bound: int,
    count: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> dict:
    """Generate, audit, and tally; deterministic for a fixed seed."""
    polys = generate_corpus(dim, coord_bound, count, seed, budget)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            all_results = list(ex.map(audit_polytope, polys))
    else:
        all_results = [audit_polytope(p) for p in polys]

    tallies = {name: {o: 0 for o in OUTCOMES} for name in AUDIT_NAMES}
    failures = []
    for idx, (p, results) in enumerate(zip(polys, all_results)):
        failed = sorted(name for name, outcome in results.items() if outcome == "fail")
        for name in AUDIT_NAMES:
            tallies[name][results[name]] += 1
        if failed:
            failures.append(
                {
                    "name": f"corpus-d{dim}-b{coord_bound}-s{seed}-{idx}",
                    "vertices": [list(v) for v in p.vertices],
                    "failed_audits": failed,
                }
            )
    return {
        "dim": dim,
        "coord_bound": coord_bound,
        "count": count,
        "seed": seed,
        "budget": budget,
        "tallies": tallies,
        "failures": failures,
        "total_failures": sum(t["fail"] for t in tallies.values()),
        "total_anomalies": sum(t["anomaly"] for t in tallies.values()),
        "total_skipped": max(t["skipped"] for t in tallies.values()),
    }


def render_corpus_text(summary: dict) -> str:
    lines = [
        f"corpus: dim={summary['dim']} coord_bound={summary['coord_bound']} "
        f"count={summary['count']} seed={summary['seed']}"
    ]
    for name in AUDIT_NAMES:
        t = summary["tallies"][name]
        line = (
            f"  {name:<26} pass={t['pass']:<5} fail={t['fail']:<3} "
            f"inapplicable={t['inapplicable']:<5} skipped={t['skipped']}"
        )
        if t["anomaly"]:
            line += f" anomaly={t['anomaly']} (pulling order missed a unimodular triangulation; logged for review)"
        lines.append(line)
    if summary["failures"]:
        lines.append("FAILING POLYTOPES (rerun with `analyze` to reproduce):")
        for item in summary["failures"]:
            lines.append(f"  {item['name']} failed {','.join(item['failed_audits'])}")
            lines.append(f"    {{\"name\": \"{item['name']}\", \"vertices\": {item['vertices']}}}")
    if summary["total_skipped"]:
        lines.append(
            f"{summary['total_skipped']} of {summary['count']} polytopes skipped: "
            f"a dilate scan needed more than the budget of {summary['budget']} "
            "fibers walked or points collected"
        )
    elif not summary["failures"]:
        lines.append("all audits passed")
    return "\n".join(lines)
