from math import comb

import pytest
from hypothesis import given, settings

from castelpoly.ehrhart import (
    EhrhartProfile,
    HStarVector,
    degree,
    ehrhart_eval,
    ehrhart_profile,
    hstar,
    normalized_volume,
)
from castelpoly.errors import CrossCheckMismatch, InvariantViolation, NotFullDimensional
from castelpoly.geometry import build_polytope

from conftest import (
    cross_polytope,
    hull_clouds,
    nonspanning_dim4,
    reflexive_simplex_3,
    spanning_non_idp_family,
    square_2x2,
    standard_simplex,
    unit_cube,
)


def hstar_oracle(p):
    """Oracle for hstar: the convolution of the closed counts L(0..n) alone,
    with h*_1 = |P cap Z^n| - (n+1) and h*_n = interior count of P checked."""
    n = p.dim
    counts = ehrhart_profile(p, n).counts
    coeffs = tuple(
        sum((-1) ** j * comb(n + 1, j) * counts[i - j] for j in range(i + 1))
        for i in range(n + 1)
    )
    h = HStarVector(n, coeffs)
    if h.coeffs[1] != counts[1] - (n + 1):
        raise InvariantViolation("h*_1 does not match the lattice point count")
    if h.coeffs[n] != p.interior_lattice_count(1):
        raise InvariantViolation("h*_n does not match the interior point count")
    return h


# h* from the dilates up to K = floor((n+2)/2) by reciprocity, against the
# convolution of L(0..n); each side builds its own polytope, so each walks
# its own dilates
@settings(max_examples=200, deadline=None)
@given(cloud=hull_clouds(dims=6))
def test_hstar_matches_convolution_oracle(cloud):
    try:
        p = build_polytope(cloud)
    except NotFullDimensional:
        return
    expected = hstar_oracle(build_polytope(cloud))
    assert hstar(p) == expected
    assert degree(p) == expected.degree


# an interior count off by one moves h*_(n+1-K), one of the coefficients that
# both halves give, so the overlap check must refuse it: n = 4 overlaps in
# h*_2..h*_3, n = 3 in h*_2 alone
@pytest.mark.parametrize(
    "maker, top", [(nonspanning_dim4, 3), (lambda: unit_cube(3), 2)], ids=["dim4", "dim3"]
)
def test_overlap_check_refuses_a_corrupt_interior_count(maker, top):
    p = maker()
    p.count_dilates(range(1, top + 1))
    closed, interior = p._memo[("Polytope._counts", top)]
    p._memo[("Polytope._counts", top)] = (closed, interior + 1)
    with pytest.raises(CrossCheckMismatch, match=r"h\*_2"):
        hstar(p)


@pytest.mark.parametrize("n", range(1, 6))
def test_hstar_standard_simplex(n):
    h = hstar(standard_simplex(n))
    assert h.coeffs == (1,) + (0,) * n
    assert degree(standard_simplex(n)) == 0
    assert normalized_volume(standard_simplex(n)) == 1


def test_hstar_nonspanning_dim4():
    p = nonspanning_dim4()
    assert hstar(p).coeffs == (1, 1, 1, 1, 0)
    assert degree(p) == 3
    assert normalized_volume(p) == 4


@pytest.mark.parametrize(
    "a,expected",
    [(1, (1, 1, 2, 0)), (2, (1, 1, 1, 2, 0, 0)), (4, (1, 1, 1, 1, 1, 2, 0, 0, 0, 0))],
)
def test_hstar_family(a, expected):
    p = spanning_non_idp_family(a)
    assert hstar(p).coeffs == expected
    assert degree(p) == a + 1


def test_hstar_square_2x2():
    # L(k) = (2k+1)^2; convolution by hand gives (1, 6, 1)
    p = square_2x2()
    assert hstar(p).coeffs == (1, 6, 1)
    assert normalized_volume(p) == 8
    assert degree(p) == 2


def test_hstar_cube():
    assert hstar(unit_cube(3)).coeffs == (1, 4, 1, 0)


def test_hstar_cross_polytope_dim7():
    # h* reads the dilates up to 4P: the box walk of 4P would take
    # 9^6 = 531,441 fibers; the walk over the projections takes the lattice
    # points of 4 times the 6-cross-polytope
    p = cross_polytope(7)
    assert hstar(p).coeffs == tuple(comb(7, i) for i in range(8))
    assert degree(p) == 7


def test_hstar_cross_polytope_dim8():
    # h* reads the dilates up to 5P, whose box walk takes 11^7 = 19,487,171
    # fibers, within the default budget; the convolution of L(0..8) would
    # need 7P, whose 15^7 = 170,859,375 fibers are beyond it
    p = cross_polytope(8)
    assert hstar(p).coeffs == tuple(comb(8, i) for i in range(9))
    assert degree(p) == 8


def test_hstar_reflexive_simplex():
    assert hstar(reflexive_simplex_3()).coeffs == (1, 1, 1, 1)


def test_profile_counts():
    p = square_2x2()
    prof = ehrhart_profile(p, 3)
    assert prof.counts == (1, 9, 25, 49)
    with pytest.raises(InvariantViolation):
        EhrhartProfile((2, 3))
    with pytest.raises(InvariantViolation):
        EhrhartProfile((1, 3, 2))


def test_profile_refuses_negative_kmax():
    p = square_2x2()
    assert ehrhart_profile(p, 0).counts == (1,)
    with pytest.raises(ValueError, match="kmax must be >= 0, got -1"):
        ehrhart_profile(p, -1)


def test_ehrhart_eval_basics():
    h = HStarVector(2, (1, 1, 0))
    assert ehrhart_eval(h, 0) == 1
    assert ehrhart_eval(h, 3) == 16
    assert ehrhart_eval(HStarVector(4, (1, 1, 1, 1, 0)), 0) == 1


def test_ehrhart_eval_matches_direct_count_dim4():
    p = nonspanning_dim4()
    h = hstar(p)
    assert ehrhart_eval(h, 5) == p.lattice_count(5)


@pytest.mark.parametrize(
    "maker",
    [
        lambda: standard_simplex(2),
        lambda: standard_simplex(3),
        square_2x2,
        lambda: unit_cube(3),
        reflexive_simplex_3,
        lambda: spanning_non_idp_family(1),
    ],
)
def test_round_trip_beyond_fit_window(maker):
    # h* only sees the dilates up to K = floor((n+2)/2); checking k <= 2n
    # validates it against counts it never saw
    p = maker()
    h = hstar(p)
    for k in range(2 * p.dim + 1):
        assert ehrhart_eval(h, k) == p.lattice_count(k)


def test_hstar_vector_invariants():
    with pytest.raises(InvariantViolation):
        HStarVector(2, (2, 0, 0))
    with pytest.raises(InvariantViolation):
        HStarVector(2, (1, -1, 0))
    with pytest.raises(InvariantViolation):
        HStarVector(2, (1, 0))
    h = HStarVector(3, (1, 0, 2, 0))
    assert h.degree == 2
    assert h.volume == 3
