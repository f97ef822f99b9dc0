"""Spanningness, IDP, sectional genus data, and the Castelnuovo property.

P is spanning when the differences of its lattice points generate Z^n. Their
n x n Hermite basis is triangular, so it generates Z^n exactly when every
pivot is 1, and then its invariant factors are n ones with no Smith normal
form; otherwise the SNF of the basis gives them.

A unimodular triangulation of P certifies IDP for every dilate at once
(Bruns and Gubeladze, Polytopes, Rings, and K-Theory, chapter 2), so the IDP
check reads the pulling triangulation first, whenever its depth reaches the
dilates that the triangulation reads, and runs the lookup below only when a
simplex has volume above 1. The lookup checks dilate by dilate: every
lattice point t of kP must be t = s + y with s in (k-1)P and y in P. Points
get integer keys in one row-major box that holds kP - P, so
key(t - y) = key(t) - key(y), and each y in P looks up the points of kP not
yet covered in the sorted keys of (k-1)P at once. Each dilate's points come
in lexicographic order, which is key order in a row-major box, so the keys
come sorted. The box's size is their bound under the one overflow rule of
``geometry``.

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
from math import prod

import numpy as np

from .exact_linalg import IntMatrix, hermite_basis, snf
from .ehrhart import HStarVector, _reach, degree, hstar
from .errors import BudgetExceeded
from .geometry import LatticePoint, Polytope, _exact_dtype, memo
from .triangulation import is_unimodular, pulling_triangulation

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
    """True iff the lattice points of P affinely generate Z^n: the invariant
    factors from :func:`spanning_invariant_factors` are n ones."""
    return [x for x in spanning_invariant_factors(p) if x != 0] == [1] * p.dim


@memo
def spanning_invariant_factors(p: Polytope) -> tuple[int, ...]:
    """Invariant factors of the lattice generated by the differences of P's
    lattice points from the lexicographically smallest one (chosen for
    determinism): the Smith normal form of its n x n Hermite basis, or n
    ones when that basis has every pivot 1."""
    pts = p._points(1)
    # the first point is the smallest; a difference of two points of P is
    # at most the widest side of its box, within the scan's int64 bound
    basis = hermite_basis((pts[1:] - pts[0]).tolist())
    if len(basis) == p.dim and all(b[i] == 1 for i, b in enumerate(basis)):
        # triangular with unit diagonal: determinant 1, so it spans Z^n
        return (1,) * p.dim
    return snf(IntMatrix.from_rows(basis)).d


def idp_check(p: Polytope, kmax: int | None = None) -> IdpVerdict:
    """Decide the integer decomposition property up to dilate ``kmax``.

    For k = 2..kmax it checks that every lattice point of kP is a sum of a
    point of (k-1)P and a point of P: at once when the pulling triangulation
    is unimodular, or else by one keyed lookup per point of P (see
    :func:`_idp_up_to`). The witness of a failure is the lexicographically
    smallest point of the first kP that is not such a sum. The default kmax = max(2, n-1) makes a clean pass a full
    certificate: once (k+1)P = kP + P holds for all k up to n-1 it holds
    for all k (Ewald-Wessels / Bruns-Gubeladze-Trung), and the smaller
    dilates were checked directly.
    """
    if kmax is not None and kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    return _idp_up_to(p, _idp_depth(p, kmax))


def _idp_depth(p: Polytope, kmax: int | None = None) -> int:
    """The depth that :func:`idp_check` checks to: ``kmax``, or by default
    max(2, n-1), the depth that certifies IDP."""
    return max(2, p.dim - 1) if kmax is None else kmax


@memo
def _idp_up_to(p: Polytope, k_top: int) -> IdpVerdict:
    """:func:`idp_check` to the resolved depth ``k_top``.

    A unimodular triangulation of P certifies IDP, every dilate at once
    (Bruns and Gubeladze, Polytopes, Rings, and K-Theory, chapter 2): a
    point of kP lies in k times one of its unimodular simplices, and a
    lattice point of a dilate of a unimodular simplex is a sum of k of its
    vertices. The pulling triangulation reads P and the counts of the
    dilates 1..K that h* reads (K = ``ehrhart._reach``), so it is read only
    when k_top >= K, where the lookup below would read all of those too,
    and its certificate gives the verdict that the lookup would: no
    counterexample up to k_top. Otherwise the lookup runs.

    P is translated so that its box is [0, w]; kP then lies in [0, k w] and
    each t - y with t in kP and y in P in [-w, k w], the box of kP - P,
    which also holds (k-1)P. A point x gets the key sum x_i * stride_i with
    the row-major strides of that box: its index in the box less the
    origin's, so key(t - y) = key(t) - key(y) and key order is lexicographic
    order on the box. The points come in lexicographic order, so their keys
    come sorted, and each y in P looks up the keys of kP not yet covered,
    less key(y), among those of (k-1)P in one ``searchsorted``.
    A key, each term x_i * stride_i and partial sum of it, and each
    difference key(t) - key(y) lie strictly between minus and plus the
    box's size, which also ends the lookup table: it is the pass's bound.
    """
    status = STATUS_CERTIFIED if k_top >= _idp_depth(p) else STATUS_PARTIAL
    try:
        if k_top >= _reach(p.dim) and is_unimodular(pulling_triangulation(p)):
            return IdpVerdict(status, kmax_checked=k_top)
    except BudgetExceeded:
        # the lookup reads all that the triangulation read, so it refuses
        # too, as it did without the certificate, or finds a counterexample
        # on the way
        pass
    lo = [min(c) for c in zip(*p.vertices)]
    w = [max(c) - m for c, m in zip(zip(*p.vertices), lo)]

    def translated(k):
        # as Python ints, so huge coordinates never meet int64
        return p._points(k).astype(object) - np.array([k * m for m in lo], dtype=object)

    ground = translated(1)
    prev = ground
    for k in range(2, k_top + 1):
        target = translated(k)
        widths = [(k + 1) * x + 1 for x in w]
        dtype = _exact_dtype(prod(widths))
        stride = np.array([prod(widths[i + 1 :]) for i in range(p.dim)], dtype=dtype)
        # the box's size, above every key, ends the table so that a lookup
        # past the last key of (k-1)P reads a value that matches nothing
        table = np.append(prev.astype(dtype) @ stride, prod(widths))
        keys = target.astype(dtype) @ stride
        left = keys
        for shift in ground.astype(dtype) @ stride:
            want = left - shift
            left = left[table[table.searchsorted(want)] != want]
            if not len(left):
                break
        if len(left):
            row = target[np.argmax(keys == left[0])]
            witness = tuple(c + k * m for c, m in zip(row, lo))
            return IdpVerdict(STATUS_COUNTEREXAMPLE, kmax_checked=k, witness=(k, witness))
        prev = target
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


def audit_castelnuovo_implies_idp(p: Polytope) -> str:
    """Every Castelnuovo polytope must be IDP; returns pass/fail/inapplicable."""
    if not is_castelnuovo(p).verdict:
        return "inapplicable"
    return "pass" if idp_check(p).is_idp_certified else "fail"


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
