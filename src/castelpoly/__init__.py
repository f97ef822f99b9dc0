"""Exact-arithmetic lattice polytope invariants and the Castelnuovo property."""

from .classification import (
    CastelnuovoVerdict,
    GenusData,
    IdpVerdict,
    audit_bounds,
    audit_castelnuovo_implies_idp,
    genus_data,
    idp_check,
    is_castelnuovo,
    is_castelnuovo_direct,
    is_spanning,
    spanning_invariant_factors,
)
from .ehrhart import (
    EhrhartProfile,
    HStarVector,
    degree,
    ehrhart_eval,
    ehrhart_profile,
    hstar,
    normalized_volume,
)
from .exact_linalg import IntMatrix, SnfResult, det, rank, snf
from .geometry import Facet, LatticePoint, Polytope, build_polytope
from .report import build_report, render_text
from .triangulation import (
    HVector,
    Triangulation,
    betke_mcmullen_check,
    h_vector,
    is_unimodular,
    pulling_triangulation,
)

__all__ = [
    "CastelnuovoVerdict",
    "EhrhartProfile",
    "Facet",
    "GenusData",
    "HStarVector",
    "HVector",
    "IdpVerdict",
    "IntMatrix",
    "LatticePoint",
    "Polytope",
    "SnfResult",
    "Triangulation",
    "audit_bounds",
    "audit_castelnuovo_implies_idp",
    "betke_mcmullen_check",
    "build_polytope",
    "build_report",
    "degree",
    "det",
    "ehrhart_eval",
    "ehrhart_profile",
    "genus_data",
    "h_vector",
    "hstar",
    "idp_check",
    "is_castelnuovo",
    "is_castelnuovo_direct",
    "is_spanning",
    "is_unimodular",
    "normalized_volume",
    "pulling_triangulation",
    "rank",
    "render_text",
    "snf",
    "spanning_invariant_factors",
]

__version__ = "0.1.0"
