"""Spanningness, IDP, sectional genus data, and the Castelnuovo property.

The Castelnuovo decision is implemented twice on purpose:

* ``is_castelnuovo`` checks the h*-shape characterization (spanning, flat
  interior coefficients, h*_1 >= h*_s);
* ``is_castelnuovo_direct`` evaluates the sectional-genus upper bound itself
  and asks whether it is attained.

The two routes share no logic beyond the h*-vector, so their agreement on
random polytopes is a genuine consistency check of the underlying theorem.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linalg import IntMatrix, snf
from .ehrhart import HStarVector, degree, hstar
from .geometry import LatticePoint, Polytope, memo

STATUS_CERTIFIED = "certified-idp"
STATUS_PARTIAL = "checked-up-to-kmax"
STATUS_COUNTEREXAMPLE = "counterexample"

ROUTE_HSTAR = "hstar-characterization"
ROUTE_DIRECT = "direct-bound"
ROUTE_VOLUME_ONE = "volume-one-convention"


@dataclass(frozen=True)
class GenusData:
    """Sectional-genus package of a polarized toric pair, read off the h*-vector.

    ``m`` and ``bound`` are absent when h*_1 = 0 (the bound's hypothesis
    h0 >= n+2 fails and its formula would divide by zero).
    """

    s: int
    genus: int
    delta: int
    m: int | None
    bound: int | None
    h0: int
    volume: int


@dataclass(frozen=True)
class IdpVerdict:
    status: str
    kmax_checked: int
    witness: tuple[int, LatticePoint] | None = None

    @property
    def is_idp_certified(self) -> bool:
        return self.status == STATUS_CERTIFIED


@dataclass(frozen=True)
class CastelnuovoVerdict:
    verdict: bool
    route: str
    reasons: dict

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "route": self.route, "reasons": dict(self.reasons)}


def is_spanning(p: Polytope) -> bool:
    """True iff the lattice points of P affinely generate Z^n: the Smith
    normal form behind :func:`spanning_invariant_factors` has n nonzero
    invariant factors, all equal to 1."""
    return [x for x in spanning_invariant_factors(p) if x != 0] == [1] * p.dim


@memo
def spanning_invariant_factors(p: Polytope) -> tuple[int, ...]:
    """Invariant factors of the differences of P's lattice points from the
    lexicographically smallest one (chosen for determinism)."""
    pts = sorted(p.lattice_points(1))
    base = pts[0]
    rows = [tuple(x - b for x, b in zip(q, base)) for q in pts[1:]]
    return snf(IntMatrix.from_rows(rows)).d


@memo
def idp_check(p: Polytope, kmax: int | None = None) -> IdpVerdict:
    """Decide the integer decomposition property by sumset comparison.

    For k = 2..kmax it checks that every lattice point of kP is a sum of a
    point of (k-1)P and a point of P. The default kmax = max(2, n-1) makes a
    clean pass a full certificate: once (k+1)P = kP + P holds for all k up to
    n-1 it holds for all k (Ewald-Wessels / Bruns-Gubeladze-Trung), and the
    smaller dilates were checked directly.
    """
    n = p.dim
    cutoff = max(2, n - 1)
    k_top = cutoff if kmax is None else kmax
    ground = p.lattice_points(1)
    prev = ground
    for k in range(2, k_top + 1):
        target = p.lattice_points(k)
        sumset = {tuple(a + b for a, b in zip(x, y)) for x in prev for y in ground}
        missing = target - sumset
        if missing:
            witness = min(missing)
            return IdpVerdict(STATUS_COUNTEREXAMPLE, kmax_checked=k, witness=(k, witness))
        prev = target
    status = STATUS_CERTIFIED if k_top >= cutoff else STATUS_PARTIAL
    return IdpVerdict(status, kmax_checked=k_top)


def genus_data(h: HStarVector) -> GenusData:
    """Evaluate the genus, Delta-genus, m, and the genus upper bound."""
    if h.dim < 1:
        raise ValueError("genus data needs dimension >= 1")
    s = h.degree
    c = h.coeffs
    genus = sum((j - 1) * c[j] for j in range(1, s + 1))
    delta = sum(c[j] for j in range(2, s + 1))
    h0 = c[1] + h.dim + 1
    if c[1] > 0:
        m = sum(c[1 : s + 1]) // c[1]
        bound = m * delta - m * (m - 1) // 2 * c[1]
    else:
        m = None
        bound = None
    return GenusData(
        s=s, genus=genus, delta=delta, m=m, bound=bound, h0=h0, volume=h.volume
    )


def is_castelnuovo(p: Polytope) -> CastelnuovoVerdict:
    """Castelnuovo test via the h*-shape characterization.

    A normalized volume of 1 means the polytope is a unimodular simplex,
    which is Castelnuovo by convention (its pair is projective space with
    the hyperplane bundle); the shape conditions are not consulted there.
    """
    h = hstar(p)
    if h.volume == 1:
        return CastelnuovoVerdict(True, ROUTE_VOLUME_ONE, {"volume_one": True})
    s = degree(p)
    c = h.coeffs
    spanning = is_spanning(p)
    tail = c[1] >= c[s]
    flat = all(c[1] == c[j] for j in range(2, s))
    return CastelnuovoVerdict(
        spanning and tail and flat,
        ROUTE_HSTAR,
        {"spanning": spanning, "tail": tail, "flat": flat},
    )


def is_castelnuovo_direct(p: Polytope) -> CastelnuovoVerdict:
    """Castelnuovo test by attainment of the sectional-genus upper bound.

    Independent route: spanning (birationality), h0 >= n+2, and genus equal
    to the bound, all computed through GenusData.
    """
    h = hstar(p)
    if h.volume == 1:
        return CastelnuovoVerdict(True, ROUTE_VOLUME_ONE, {"volume_one": True})
    g = genus_data(h)
    spanning = is_spanning(p)
    h0_ok = g.h0 >= p.dim + 2
    attained = g.bound is not None and g.genus == g.bound
    return CastelnuovoVerdict(
        spanning and h0_ok and attained,
        ROUTE_DIRECT,
        {"spanning": spanning, "h0_at_least_n_plus_2": h0_ok, "bound_attained": attained},
    )


def audit_bounds(p: Polytope) -> dict:
    """Check the known h*-inequalities on one polytope.

    * interior lower bound: with an interior lattice point,
      h*_1 <= h*_j for 2 <= j <= n-1;
    * spanning lower bound: when spanning, h*_1 <= h*_j for 2 <= j <= s-1;
    * spanning volume bound: when spanning and s >= 1,
      Vol >= 1 + (s-1) h*_1 + h*_s, with equality iff the interior
      coefficients are flat. (For s = 0 the polytope is a unimodular
      simplex and the formula does not apply.)

    Returns a JSON-friendly dict with applicability flags; inapplicable
    checks report holds = None.
    """
    h = hstar(p)
    c = h.coeffs
    n = p.dim
    s = degree(p)
    spanning = is_spanning(p)
    has_interior = p.interior_lattice_count(1) > 0

    hibi = {"applicable": has_interior, "holds": None}
    if has_interior:
        hibi["holds"] = all(c[1] <= c[j] for j in range(2, n))

    hkn = {"applicable": spanning, "holds": None}
    if spanning:
        hkn["holds"] = all(c[1] <= c[j] for j in range(2, s))

    vol = {
        "applicable": spanning and s >= 1,
        "holds": None,
        "equality": None,
        "flat": None,
        "equality_iff_flat": None,
    }
    if vol["applicable"]:
        rhs = 1 + (s - 1) * c[1] + c[s]
        vol["holds"] = h.volume >= rhs
        vol["equality"] = h.volume == rhs
        vol["flat"] = all(c[1] == c[j] for j in range(2, s))
        vol["equality_iff_flat"] = vol["equality"] == vol["flat"]

    return {"hibi": hibi, "hkn": hkn, "volume": vol}


def audit_castelnuovo_implies_idp(p: Polytope, kmax: int | None = None) -> str:
    """Every Castelnuovo polytope must be IDP; returns pass/fail/inapplicable."""
    if not is_castelnuovo(p).verdict:
        return "inapplicable"
    verdict = idp_check(p, kmax)
    return "pass" if verdict.is_idp_certified else "fail"


def audit_degree_two_idp(p: Polytope) -> str:
    """Degree-2 polytopes with h*_1 >= h*_2 must be IDP, with no spanning
    hypothesis; returns pass/fail/inapplicable."""
    h = hstar(p)
    if degree(p) != 2 or h.coeffs[1] < h.coeffs[2]:
        return "inapplicable"
    return "pass" if idp_check(p).is_idp_certified else "fail"


def audit_interior_flatness(p: Polytope) -> dict:
    """For polytopes with interior lattice points, Castelnuovo must coincide
    with flatness of h*_2..h*_{n-1} at h*_1, and h*_1 >= h*_n must hold."""
    n = p.dim
    if p.interior_lattice_count(1) == 0:
        return {"applicable": False, "holds": None, "tail_holds": None}
    c = hstar(p).coeffs
    flat = all(c[1] == c[j] for j in range(2, n))
    castel = is_castelnuovo(p).verdict
    return {
        "applicable": True,
        "holds": castel == flat,
        "tail_holds": c[1] >= c[n],
    }
