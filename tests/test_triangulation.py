import pytest
from hypothesis import given, settings

from castelpoly.ehrhart import hstar, normalized_volume
from castelpoly.errors import NotFullDimensional
from castelpoly.geometry import _dot, build_polytope
from castelpoly.triangulation import (
    betke_mcmullen_check,
    h_vector,
    is_unimodular,
    pulling_triangulation,
)

from conftest import (
    brute_force_facets,
    nonspanning_dim4,
    oracle_clouds,
    reflexive_simplex_3,
    spanning_non_idp_family,
    square_2x2,
    standard_simplex,
    unit_cube,
    unit_square,
)


def test_simplex_is_its_own_triangulation():
    t = pulling_triangulation(standard_simplex(3))
    assert len(t.maximal_simplices) == 1
    assert t.maximal_simplices[0] == (0, 1, 2, 3)
    assert is_unimodular(t)


def test_square_splits_into_two_triangles():
    t = pulling_triangulation(unit_square())
    assert len(t.maximal_simplices) == 2
    assert sum(t.simplex_volume(s) for s in t.maximal_simplices) == 2
    assert is_unimodular(t)


def test_cube_triangulation_unimodular_volume_six():
    p = unit_cube(3)
    t = pulling_triangulation(p)
    assert sum(t.simplex_volume(s) for s in t.maximal_simplices) == 6
    assert is_unimodular(t)


def test_reflexive_simplex_pulls_through_origin():
    p = reflexive_simplex_3()
    t = pulling_triangulation(p)
    assert len(t.maximal_simplices) == 4
    origin = t.points.index((0, 0, 0))
    assert all(origin in s for s in t.maximal_simplices)
    assert is_unimodular(t)


def test_not_unimodular_empty_simplex():
    p = build_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
    t = pulling_triangulation(p)
    assert len(t.maximal_simplices) == 1
    assert not is_unimodular(t)


def test_h_vector_single_simplex():
    t = pulling_triangulation(standard_simplex(3))
    hv = h_vector(t)
    assert hv.h == (1, 0, 0, 0, 0)
    assert hv.f == (1, 4, 6, 4, 1)


def test_h_vector_unit_square():
    hv = h_vector(pulling_triangulation(unit_square()))
    assert hv.f == (1, 4, 5, 2)
    assert hv.h == (1, 1, 0, 0)


def test_h_vector_cube():
    hv = h_vector(pulling_triangulation(unit_cube(3)))
    assert hv.h[1] == 4  # 8 vertices - 3 - 1
    assert hv.h == (1, 4, 1, 0, 0)
    assert sum(hv.h) == len(pulling_triangulation(unit_cube(3)).maximal_simplices)


def test_triangulation_uses_all_lattice_points():
    for maker in (square_2x2, reflexive_simplex_3, lambda: unit_cube(3)):
        p = maker()
        t = pulling_triangulation(p)
        used = {i for s in t.maximal_simplices for i in s}
        assert used == set(range(len(t.points)))
        assert frozenset(t.points) == p.lattice_points(1)


def test_volume_partition():
    for maker in (
        lambda: standard_simplex(4),
        square_2x2,
        nonspanning_dim4,
        lambda: spanning_non_idp_family(1),
        lambda: unit_cube(3),
    ):
        p = maker()
        t = pulling_triangulation(p)
        assert sum(t.simplex_volume(s) for s in t.maximal_simplices) == normalized_volume(p)


def test_betke_mcmullen_positive_cases():
    for maker in (lambda: unit_cube(3), reflexive_simplex_3, square_2x2):
        rep = betke_mcmullen_check(maker())
        assert rep["unimodular"] and rep["matches"] and rep["consistent"]


def test_betke_mcmullen_cube_values():
    rep = betke_mcmullen_check(unit_cube(3))
    assert rep["h_triangulation"] == [1, 4, 1, 0, 0]
    assert rep["hstar"] == [1, 4, 1, 0]


def test_betke_mcmullen_negative_case():
    p = build_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
    rep = betke_mcmullen_check(p)
    assert not rep["unimodular"]
    assert rep["h_triangulation"][:4] == [1, 0, 0, 0]
    assert rep["hstar"] == [1, 0, 1, 0]
    assert not rep["matches"]
    assert rep["consistent"]


def test_betke_mcmullen_consistent_on_nonspanning_dim4():
    assert betke_mcmullen_check(nonspanning_dim4())["consistent"]


def test_flat_interior_hstar_gives_unimodular_triangulation():
    # with an interior point and h*_1 = h*_j for 2 <= j <= n-1 a unimodular
    # triangulation must exist, and pulling should find one
    for maker in (reflexive_simplex_3, square_2x2):
        p = maker()
        h = hstar(p).coeffs
        assert p.interior_lattice_count(1) > 0
        assert all(h[1] == h[j] for j in range(2, p.dim))
        assert is_unimodular(pulling_triangulation(p))


def pulling_oracle(p):
    """Oracle: pull the lattice points one at a time in lexicographic order.
    Each point is tested against every cell, and each cell's facets are
    recomputed from its vertices by brute force. Returns (points, maximal
    simplices), the simplices as sorted tuples of indices into points."""
    n = p.dim
    points = tuple(sorted(p.lattice_points(1)))
    index = {pt: i for i, pt in enumerate(points)}
    cells = [tuple(index[v] for v in p.vertices)]
    for pid, pt in enumerate(points):
        new_cells = []
        for cell in cells:
            facets = brute_force_facets([points[i] for i in cell], n)
            if any(_dot(a, pt) > b for a, b in facets):
                new_cells.append(cell)
                continue
            for a, b in facets:
                if _dot(a, pt) < b:
                    on = tuple(i for i in cell if _dot(a, points[i]) == b)
                    new_cells.append(tuple(sorted(on + (pid,))))
        cells = new_cells
    return points, tuple(sorted(cells))


def cross_polytope(n):
    return build_polytope(
        [tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    )


@pytest.mark.parametrize(
    "maker",
    [lambda: unit_cube(4), lambda: cross_polytope(4), lambda: build_polytope([(0,), (3,)])],
    ids=["4-cube", "4-cross-polytope", "segment"],
)
def test_pulling_matches_oracle_on_non_simplex_cells(maker):
    p = maker()
    t = pulling_triangulation(p)
    assert (t.points, t.maximal_simplices) == pulling_oracle(p)


@settings(max_examples=100, deadline=None)
@given(cloud=oracle_clouds)
def test_pulling_matches_oracle(cloud):
    try:
        p = build_polytope(cloud)
    except NotFullDimensional:
        return
    t = pulling_triangulation(p)
    assert (t.points, t.maximal_simplices) == pulling_oracle(p)
