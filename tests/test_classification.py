from math import prod

import pytest
from hypothesis import given, settings

import castelpoly.classification as classification
from castelpoly.classification import (
    ROUTE_DIRECT,
    ROUTE_HSTAR,
    ROUTE_VOLUME_ONE,
    STATUS_CERTIFIED,
    STATUS_COUNTEREXAMPLE,
    STATUS_PARTIAL,
    IdpVerdict,
    audit_bounds,
    audit_castelnuovo_implies_idp,
    audit_degree_two_idp,
    audit_interior_flatness,
    genus_data,
    idp_check,
    is_castelnuovo,
    is_castelnuovo_direct,
    is_spanning,
    spanning_invariant_factors,
)
from castelpoly.ehrhart import HStarVector, hstar
from castelpoly.errors import NotFullDimensional
from castelpoly.exact_linalg import IntMatrix, snf
from castelpoly.geometry import build_polytope
from castelpoly.registry import family_vertices, square_2x2_vertices

from conftest import (
    ROUTES,
    exact_route,
    nonspanning_dim4,
    oracle_clouds,
    reflexive_simplex_3,
    spanning_non_idp_family,
    square_2x2,
    standard_simplex,
    unit_cube,
)


def test_spanning_standard_simplex():
    for n in (1, 2, 4):
        assert is_spanning(standard_simplex(n))


def test_spanning_nonspanning_dim4():
    p = nonspanning_dim4()
    assert not is_spanning(p)
    assert spanning_invariant_factors(p) == (1, 1, 1, 2)


def test_spanning_family():
    assert is_spanning(spanning_non_idp_family(1))
    assert is_spanning(spanning_non_idp_family(2))


def test_spanning_base_point_independent():
    # the verdict may not depend on which lattice point anchors the differences
    p = nonspanning_dim4()
    pts = sorted(p.lattice_points(1))
    for base in pts:
        rows = [
            tuple(x - b for x, b in zip(q, base)) for q in pts if q != base
        ]
        factors = tuple(x for x in snf(IntMatrix.from_rows(rows)).d if x != 0)
        assert factors == (1, 1, 1, 2)


def full_matrix_factors(p):
    """Oracle: the Smith normal form of all the lattice-point differences."""
    pts = sorted(p.lattice_points(1))
    rows = [tuple(x - b for x, b in zip(q, pts[0])) for q in pts[1:]]
    return snf(IntMatrix.from_rows(rows)).d


@settings(max_examples=200, deadline=None)
@given(cloud=oracle_clouds)
def test_spanning_matches_full_matrix_snf(cloud):
    try:
        p = build_polytope(cloud)
    except NotFullDimensional:
        return
    assert spanning_invariant_factors(p) == full_matrix_factors(p)


@pytest.mark.parametrize(
    "make",
    [
        nonspanning_dim4,
        lambda: unit_cube(6),
        lambda: build_polytope([tuple(4 * int(i == j) for j in range(4)) for i in range(5)]),
        lambda: spanning_non_idp_family(2),
        lambda: build_polytope([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]),
    ],
)
def test_spanning_matches_full_matrix_snf_examples(make):
    p = make()
    assert spanning_invariant_factors(p) == full_matrix_factors(p)


def test_idp_cube():
    v = idp_check(unit_cube(3))
    assert v.status == STATUS_CERTIFIED
    assert v.witness is None


def test_idp_family_counterexamples():
    v1 = idp_check(spanning_non_idp_family(1))
    assert v1.status == STATUS_COUNTEREXAMPLE
    assert v1.witness == (2, (1, 1, 1))

    v2 = idp_check(spanning_non_idp_family(2))
    assert v2.status == STATUS_COUNTEREXAMPLE
    assert v2.witness == (3, (1, 1, 1, 1, 1))


def test_idp_witness_reverifies():
    p = spanning_non_idp_family(1)
    k, w = idp_check(p).witness
    assert w in p.lattice_points(k)
    ground = p.lattice_points(1)
    prev = p.lattice_points(k - 1)
    sums = {tuple(a + b for a, b in zip(x, y)) for x in prev for y in ground}
    assert w not in sums


def sumset_idp(p, k_top):
    """Oracle: :func:`idp_check` to depth ``k_top`` by building the whole
    sumset (k-1)P + P and taking the smallest point of kP outside it."""
    ground = p.lattice_points(1)
    prev = ground
    for k in range(2, k_top + 1):
        target = p.lattice_points(k)
        sumset = {tuple(a + b for a, b in zip(x, y)) for x in prev for y in ground}
        missing = target - sumset
        if missing:
            return IdpVerdict(STATUS_COUNTEREXAMPLE, kmax_checked=k, witness=(k, min(missing)))
        prev = target
    status = STATUS_CERTIFIED if k_top >= max(2, p.dim - 1) else STATUS_PARTIAL
    return IdpVerdict(status, kmax_checked=k_top)


def assert_idp_matches_oracle(p):
    for kmax in (None, 2):
        expected = sumset_idp(p, max(2, p.dim - 1) if kmax is None else kmax)
        assert idp_check(p, kmax) == expected


# the IDP lookups on either route, the scans that feed them on int64
@ROUTES
@settings(max_examples=100, deadline=None)
@given(cloud=oracle_clouds)
def test_idp_matches_sumset_oracle(python_ints, cloud):
    try:
        p = build_polytope(cloud)
    except NotFullDimensional:
        return
    with exact_route(python_ints, classification):
        assert_idp_matches_oracle(p)


# a non-IDP 3-simplex: 2P holds (1, 1, 1), which is no sum of two of its
# four vertices, its only lattice points
EMPTY_SIMPLEX_3 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)]
# the pyramid over it: the witness (1, 1, 1, 2) lies on the top of 2P's box
EMPTY_PYRAMID_4 = [(0, 0, 0, 0)] + [v + (1,) for v in EMPTY_SIMPLEX_3]


@ROUTES
@pytest.mark.parametrize(
    "points",
    [EMPTY_SIMPLEX_3, EMPTY_PYRAMID_4, family_vertices(1), square_2x2_vertices()],
    ids=["empty-simplex-3", "empty-pyramid-4", "family-a1", "square-2x2"],
)
def test_idp_matches_sumset_oracle_on_fixed_cases(python_ints, points):
    with exact_route(python_ints, classification):
        assert_idp_matches_oracle(build_polytope(points))


def test_idp_beyond_int64_is_exact():
    # shifted by 2^70, the points stay exact and the witness moves with them
    shift = (2**70, -(2**66), 5)
    p = build_polytope([tuple(x + s for x, s in zip(v, shift)) for v in EMPTY_SIMPLEX_3])
    assert_idp_matches_oracle(p)
    assert idp_check(p).witness == (2, tuple(1 + 2 * s for s in shift))
    # sheared by x += 2^60 z, the box of 2P - P has more than 2^63 cells, so
    # the keys run on Python ints
    q = build_polytope([(x + 2**60 * z, y, z) for x, y, z in EMPTY_SIMPLEX_3])
    assert classification._exact_dtype(prod(3 * w + 1 for w in (2**61 + 1, 1, 2))) is object
    assert_idp_matches_oracle(q)
    assert idp_check(q).witness == (2, (1 + 2**60, 1, 1))


def test_idp_partial_status():
    p = build_polytope(
        [(0, 0, 0, 0, 0)]
        + [tuple(int(i == j) for j in range(5)) for i in range(5)]
    )
    v = idp_check(p, kmax=2)
    assert v.status in (STATUS_PARTIAL, STATUS_COUNTEREXAMPLE)
    assert v.kmax_checked == 2


@pytest.mark.parametrize("kmax", [0, -3])
def test_idp_refuses_kmax_below_one(kmax):
    with pytest.raises(ValueError, match=f"kmax must be >= 1, got {kmax}"):
        idp_check(spanning_non_idp_family(1), kmax)


def test_genus_data_values():
    g = genus_data(HStarVector(4, (1, 1, 1, 1, 0)))
    assert (g.genus, g.delta, g.m, g.bound) == (3, 2, 3, 3)
    assert g.h0 == 1 + 5
    assert g.volume == 4

    g = genus_data(HStarVector(2, (1, 6, 1)))
    assert (g.genus, g.delta, g.m, g.bound) == (1, 1, 1, 1)

    g = genus_data(HStarVector(3, (1, 0, 0, 0)))
    assert g.genus == 0
    assert g.delta == 0
    assert g.m is None
    assert g.bound is None


def test_genus_data_family():
    g = genus_data(HStarVector(3, (1, 1, 2, 0)))
    assert g.s == 2
    assert g.genus == 2
    assert g.m == 3
    assert g.bound == 3  # 3*2 - 3*1


def test_castelnuovo_square():
    v = is_castelnuovo(square_2x2())
    assert v.verdict and v.route == ROUTE_HSTAR
    assert v.reasons == {"spanning": True, "tail": True, "flat": True}
    d = is_castelnuovo_direct(square_2x2())
    assert d.verdict and d.route == ROUTE_DIRECT


def test_castelnuovo_reflexive_simplex():
    assert is_castelnuovo(reflexive_simplex_3()).verdict
    assert is_castelnuovo_direct(reflexive_simplex_3()).verdict


def test_castelnuovo_nonspanning_dim4_false_despite_flat_hstar():
    p = nonspanning_dim4()
    v = is_castelnuovo(p)
    assert not v.verdict
    assert v.reasons["spanning"] is False
    assert v.reasons["flat"] is True and v.reasons["tail"] is True
    assert not is_castelnuovo_direct(p).verdict


def test_castelnuovo_family_false_by_tail():
    p = spanning_non_idp_family(1)
    v = is_castelnuovo(p)
    assert not v.verdict
    assert v.reasons["tail"] is False
    assert not is_castelnuovo_direct(p).verdict


def test_castelnuovo_convention_volume_one():
    for n in (1, 3, 5):
        v = is_castelnuovo(standard_simplex(n))
        assert v.verdict and v.route == ROUTE_VOLUME_ONE
        d = is_castelnuovo_direct(standard_simplex(n))
        assert d.verdict and d.route == ROUTE_VOLUME_ONE


def test_castelnuovo_empty_simplex_not_unimodular():
    # lattice points = vertices, volume 2: both routes must say no
    p = build_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
    assert hstar(p).coeffs == (1, 0, 1, 0)
    assert not is_castelnuovo(p).verdict
    assert not is_castelnuovo_direct(p).verdict


def test_audit_bounds_reflexive_simplex():
    rep = audit_bounds(reflexive_simplex_3())
    assert rep["hibi"] == {"applicable": True, "holds": True}
    assert rep["hkn"] == {"applicable": True, "holds": True}
    assert rep["volume"]["applicable"]
    assert rep["volume"]["holds"] and rep["volume"]["equality"]
    assert rep["volume"]["flat"] and rep["volume"]["equality_iff_flat"]


def test_audit_bounds_family_a1():
    rep = audit_bounds(spanning_non_idp_family(1))
    assert rep["hibi"]["applicable"] is False
    assert rep["hkn"] == {"applicable": True, "holds": True}
    # volume 4 against 1 + 1*1 + 2 = 4: equality, and the flat range is empty
    assert rep["volume"]["equality"] and rep["volume"]["flat"]
    assert rep["volume"]["equality_iff_flat"]


def test_audit_bounds_nonspanning_vacuous():
    rep = audit_bounds(nonspanning_dim4())
    assert rep["hibi"]["applicable"] is False
    assert rep["hkn"]["applicable"] is False
    assert rep["volume"]["applicable"] is False


def test_audit_castelnuovo_implies_idp():
    assert audit_castelnuovo_implies_idp(square_2x2()) == "pass"
    assert audit_castelnuovo_implies_idp(standard_simplex(4)) == "pass"
    assert audit_castelnuovo_implies_idp(spanning_non_idp_family(1)) == "inapplicable"


def test_audit_degree_two_idp():
    assert audit_degree_two_idp(square_2x2()) == "pass"
    # degree 2 but h*_1 = 1 < 2 = h*_2: inapplicable
    assert audit_degree_two_idp(spanning_non_idp_family(1)) == "inapplicable"
    assert audit_degree_two_idp(standard_simplex(3)) == "inapplicable"


def test_audit_interior_flatness():
    rep = audit_interior_flatness(reflexive_simplex_3())
    assert rep == {"applicable": True, "holds": True, "tail_holds": True}
    assert audit_interior_flatness(spanning_non_idp_family(1))["applicable"] is False


def test_routes_agree_on_handpicked_polytopes():
    makers = [
        lambda: standard_simplex(2),
        lambda: standard_simplex(4),
        square_2x2,
        lambda: unit_cube(2),
        lambda: unit_cube(3),
        reflexive_simplex_3,
        nonspanning_dim4,
        lambda: spanning_non_idp_family(1),
        lambda: build_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)]),
        lambda: build_polytope([(0,), (5,)]),
    ]
    for maker in makers:
        p = maker()
        assert is_castelnuovo(p).verdict == is_castelnuovo_direct(p).verdict
