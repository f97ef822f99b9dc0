"""Full analysis report for one polytope, as a JSON-friendly dict."""

from __future__ import annotations

from .classification import (
    audit_bounds,
    genus_data,
    idp_check,
    is_castelnuovo,
    is_castelnuovo_direct,
    is_spanning,
    spanning_invariant_factors,
)
from .ehrhart import degree, hstar, normalized_volume
from .geometry import Polytope
from .triangulation import betke_mcmullen_check, pulling_triangulation


def build_report(p: Polytope, name: str = "polytope", kmax: int | None = None) -> dict:
    # IDP's collecting scans also count their dilates, so hstar finds those
    # counts and scans each dilate at most once
    idp = idp_check(p, kmax)
    h = hstar(p)
    g = genus_data(h)
    castel = is_castelnuovo(p)
    direct = is_castelnuovo_direct(p)
    tri = pulling_triangulation(p)
    bm = betke_mcmullen_check(p)
    report = {
        "name": name,
        "dim": p.dim,
        "vertex_count": len(p.vertices),
        "vertices": [list(v) for v in p.vertices],
        "nonvertex_input_points": [list(v) for v in p.discarded_points],
        "lattice_point_count": p.lattice_count(1),
        "interior_lattice_point_count": p.interior_lattice_count(1),
        "hstar": list(h.coeffs),
        "degree": degree(p),
        "normalized_volume": normalized_volume(p),
        "spanning": is_spanning(p),
        "spanning_invariant_factors": list(spanning_invariant_factors(p)),
        "smooth": p.is_smooth(),
        "idp": {
            "status": idp.status,
            "kmax_checked": idp.kmax_checked,
            "witness": None
            if idp.witness is None
            else {"k": idp.witness[0], "point": list(idp.witness[1])},
        },
        "genus": {
            "degree": g.s,
            "genus": g.genus,
            "delta": g.delta,
            "m": g.m,
            "bound": g.bound,
            "h0": g.h0,
            "volume": g.volume,
        },
        "castelnuovo": {
            "characterization": castel.as_dict(),
            "direct": direct.as_dict(),
            "routes_agree": castel.verdict == direct.verdict,
        },
        "bound_audits": audit_bounds(p),
        "triangulation": {
            "points": len(tri.points),
            "maximal_simplices": len(tri.maximal_simplices),
            "unimodular": bm["unimodular"],
            "h": bm["h_triangulation"],
            "betke_mcmullen_consistent": bm["consistent"],
        },
    }
    return report


def failed_checks(report: dict) -> list[str]:
    """The checks that :func:`render_text` prints as a route mismatch,
    VIOLATED or INCONSISTENT; an inapplicable check (None) has not failed."""
    b = report["bound_audits"]
    checks = {
        "routes_agree": report["castelnuovo"]["routes_agree"],
        "hibi": b["hibi"]["holds"],
        "hkn": b["hkn"]["holds"],
        "volume": b["volume"]["holds"],
        "equality_iff_flat": b["volume"]["equality_iff_flat"],
        "betke_mcmullen_consistent": report["triangulation"]["betke_mcmullen_consistent"],
    }
    return [name for name, ok in checks.items() if ok is False]


def render_text(report: dict) -> str:
    lines = []
    add = lines.append
    add(f"name:                {report['name']}")
    add(f"dimension:           {report['dim']}")
    add(f"vertices:            {report['vertex_count']}")
    if report["nonvertex_input_points"]:
        add(f"discarded inputs:    {len(report['nonvertex_input_points'])} non-vertex point(s)")
    add(f"lattice points:      {report['lattice_point_count']}"
        f" ({report['interior_lattice_point_count']} interior)")
    add(f"h*-vector:           {tuple(report['hstar'])}")
    add(f"degree:              {report['degree']}")
    add(f"normalized volume:   {report['normalized_volume']}")
    add(f"spanning:            {report['spanning']}"
        f" (invariant factors {tuple(report['spanning_invariant_factors'])})")
    add(f"smooth:              {report['smooth']}")
    idp = report["idp"]
    wit = idp["witness"]
    extra = "" if wit is None else f", witness {tuple(wit['point'])} at k={wit['k']}"
    add(f"idp:                 {idp['status']} (k <= {idp['kmax_checked']}{extra})")
    g = report["genus"]
    add(f"sectional genus:     g={g['genus']}, delta={g['delta']}, m={g['m']},"
        f" bound={g['bound']}, h0={g['h0']}, L^n={g['volume']}")
    c = report["castelnuovo"]
    if not c["routes_agree"]:
        add("*** ROUTE-MISMATCH: the two Castelnuovo routes disagree; this is a bug ***")
    add(f"castelnuovo:         {c['characterization']['verdict']}"
        f" via {c['characterization']['route']}")
    add(f"castelnuovo direct:  {c['direct']['verdict']} via {c['direct']['route']}")
    b = report["bound_audits"]

    def fmt_check(d):
        return "holds" if d["holds"] else ("VIOLATED" if d["holds"] is not None else "vacuous")

    add(f"interior lower bnd:  {fmt_check(b['hibi'])}")
    add(f"spanning lower bnd:  {fmt_check(b['hkn'])}")
    vol = b["volume"]
    if vol["applicable"]:
        eq = "equality" if vol["equality"] else "strict"
        flat = "flat" if vol["flat"] else "not flat"
        consistency = "consistent" if vol["equality_iff_flat"] else "INCONSISTENT"
        add(f"volume lower bnd:    {fmt_check(vol)} ({eq}, {flat}, {consistency})")
    else:
        add("volume lower bnd:    vacuous")
    t = report["triangulation"]
    add(f"triangulation:       {t['maximal_simplices']} simplices on {t['points']} points,"
        f" unimodular={t['unimodular']}")
    add(f"h-vector:            {tuple(t['h'])}"
        f" (h* criterion {'consistent' if t['betke_mcmullen_consistent'] else 'INCONSISTENT'})")
    return "\n".join(lines)
