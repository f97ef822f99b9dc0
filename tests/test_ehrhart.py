from math import comb

import pytest

from castelpoly.ehrhart import (
    EhrhartProfile,
    HStarVector,
    degree,
    ehrhart_eval,
    ehrhart_profile,
    hstar,
    normalized_volume,
)
from castelpoly.errors import InvariantViolation

from conftest import (
    cross_polytope,
    nonspanning_dim4,
    reflexive_simplex_3,
    spanning_non_idp_family,
    square_2x2,
    standard_simplex,
    unit_cube,
)


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
    [(1, (1, 1, 2, 0)), (2, (1, 1, 1, 2, 0, 0))],
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
    # the box walk of 7P would take 15^6 = 11,390,625 fibers; the walk over
    # the projections takes the lattice points of 7 times the 6-cross-polytope
    p = cross_polytope(7)
    assert hstar(p).coeffs == tuple(comb(7, i) for i in range(8))
    assert degree(p) == 7


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
    # the convolution only sees k <= n; checking k <= 2n validates it
    # against counts it never saw
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
