import itertools
from math import comb

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from castelpoly.ehrhart import hstar, normalized_volume
from castelpoly.errors import InvariantViolation, NotFullDimensional
from castelpoly.exact_linalg import det
import castelpoly.triangulation as triangulation
from castelpoly.geometry import _INT64_MAX, _dot, _ridge_pencils, build_polytope
from castelpoly.triangulation import (
    HVector,
    Triangulation,
    _volumes,
    betke_mcmullen_check,
    h_vector,
    is_unimodular,
    pulling_triangulation,
)

from conftest import (
    brute_force_facets,
    cross_polytope,
    exact_route,
    frozenset_ridge_pencils,
    hull_clouds,
    nonspanning_dim4,
    oracle_clouds,
    reflexive_simplex_3,
    spanning_non_idp_family,
    square_2x2,
    standard_simplex,
    unit_cube,
    unit_square,
)


# the triangulation's array passes as they come, and all on Python ints
BACKENDS = pytest.mark.parametrize("python_ints", [False, True], ids=["int64", "object"])


def volume_oracle(vertices):
    """Oracle: normalized volume |det of edge vectors| of one simplex."""
    base = vertices[0]
    return abs(det([tuple(x - b for x, b in zip(q, base)) for q in vertices[1:]]))


def recomputed_volumes(t):
    """The oracle volume of each maximal simplex, from ``t.points``."""
    return tuple(volume_oracle([t.points[i] for i in s]) for s in t.maximal_simplices)


def h_vector_oracle(t):
    """Oracle: the f-vector by closing the maximal simplices under taking
    faces, in one set of index tuples, and the h-vector from it."""
    d = t.dim + 1
    faces = set()
    for simplex in t.maximal_simplices:
        for r in range(1, d + 1):
            faces.update(itertools.combinations(simplex, r))
    f = [1] + [0] * d
    for face in faces:
        f[len(face)] += 1
    h = tuple(
        sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    )
    return HVector(f=tuple(f), h=h)


def test_simplex_is_its_own_triangulation():
    t = pulling_triangulation(standard_simplex(3))
    assert len(t.maximal_simplices) == 1
    assert t.maximal_simplices[0] == (0, 1, 2, 3)
    assert is_unimodular(t)


def test_square_splits_into_two_triangles():
    t = pulling_triangulation(unit_square())
    assert len(t.maximal_simplices) == 2
    assert recomputed_volumes(t) == t.volumes
    assert sum(t.volumes) == 2
    assert is_unimodular(t)


def test_cube_triangulation_unimodular_volume_six():
    p = unit_cube(3)
    t = pulling_triangulation(p)
    assert recomputed_volumes(t) == t.volumes
    assert sum(t.volumes) == 6
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
        assert recomputed_volumes(t) == t.volumes
        assert sum(t.volumes) == normalized_volume(p)


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


@settings(max_examples=100, deadline=None)
@given(cloud=oracle_clouds)
def test_pulling_matches_oracle(cloud):
    try:
        p = build_polytope(cloud)
    except NotFullDimensional:
        return
    t = pulling_triangulation(p)
    assert (t.points, t.maximal_simplices) == pulling_oracle(p)


def cone_oracle(p):
    """Oracle: the pulling loop that tests every later point against every
    inequality of every cone q * G by a dot product, and builds every cone's
    facets, simplex cones included. Returns (points, maximal simplices,
    volumes) as :func:`pulling_triangulation` does."""
    n = p.dim
    points = tuple(sorted(p.lattice_points(1)))
    index = {pt: i for i, pt in enumerate(points)}
    corner = [index[v] for v in p.vertices]
    root = [(f.normal, f.offset, frozenset(corner[i] for i in f.vertices)) for f in p.facets]
    stack = [(root, range(len(points)))]
    cells = []
    while stack:
        facets, held = stack.pop()
        corners = frozenset().union(*(on for _, _, on in facets))
        if len(facets) == n + 1:
            held = [i for i in held if i not in corners]
        if not held:
            cells.append(tuple(sorted(corners)))
            continue
        q = points[held[0]]
        later = held[1:]
        slack = [b - _dot(a, q) for a, b, _ in facets]
        for g, s in enumerate(slack):
            if s == 0:
                continue
            pencils = frozenset_ridge_pencils(facets, slack, g, range(len(facets)), held[0])
            cone = [facets[g], *(f for _, _, f in pencils)]
            inside = [i for i in later if all(_dot(a, points[i]) <= b for a, b, _ in cone)]
            stack.append((cone, inside))
    simplices = tuple(sorted(cells))
    return points, simplices, tuple(volume_oracle([points[i] for i in s]) for s in simplices)


def facet_pulling(p):
    """Oracle: the pulling loop in which every cell carries its facets, simplex
    cells included, and every point its slacks against them. Returns (points,
    maximal simplices, volumes) as :func:`pulling_triangulation` does."""
    n = p.dim
    points = tuple(sorted(p.lattice_points(1)))
    index = {pt: i for i, pt in enumerate(points)}
    corner = [index[v] for v in p.vertices]
    root = [(f.normal, f.offset, frozenset(corner[i] for i in f.vertices)) for f in p.facets]
    held = [(i, tuple(b - _dot(a, x) for a, b, _ in root)) for i, x in enumerate(points)]
    stack = [(root, held)]
    cells = []
    while stack:
        facets, held = stack.pop()
        (iq, s), later = held[0], held[1:]
        up = [g for g, sg in enumerate(s) if sg > 0]
        inside = {g: [] for g in up}
        for x in later:
            sigma = x[1]
            exits = [up[0]]
            for h in up[1:]:
                g = exits[0]
                c = sigma[h] * s[g] - sigma[g] * s[h]
                if c < 0:
                    exits = [h]
                elif c == 0:
                    exits.append(h)
            for g in exits:
                inside[g].append(x)
        for g in up:
            on = facets[g][2]
            if len(on) == n:
                inside[g] = [x for x in inside[g] if x[0] not in on]
                if not inside[g]:
                    cells.append(tuple(sorted(on | {iq})))
                    continue
            pencils = list(frozenset_ridge_pencils(facets, s, g, range(len(facets)), iq))
            cone = [facets[g], *(f for _, _, f in pencils)]
            inherited = [
                (i, (sigma[g], *((s[g] * sigma[h] - s[h] * sigma[g]) // d for h, d, _ in pencils)))
                for i, sigma in inside[g]
            ]
            stack.append((cone, inherited))
    simplices = tuple(sorted(cells))
    return points, simplices, tuple(volume_oracle([points[i] for i in s]) for s in simplices)


def dilated_triangle():
    """3 x the standard triangle: a cone over its long edge is a simplex that
    holds points other than its corners."""
    return build_polytope([(0, 0), (3, 0), (0, 3)])


def dilated_cube(n):
    return build_polytope(list(itertools.product((0, 2), repeat=n)))


@pytest.mark.parametrize(
    "maker",
    [
        lambda: unit_cube(4),
        lambda: cross_polytope(4),
        lambda: build_polytope([(0,), (3,)]),
        dilated_triangle,
        lambda: dilated_cube(3),
        lambda: spanning_non_idp_family(2),
    ],
    ids=["4-cube", "4-cross-polytope", "segment", "3-triangle", "2x-3-cube", "family-a2"],
)
def test_pulling_matches_oracle_on_non_simplex_cells(maker):
    p = maker()
    t = pulling_triangulation(p)
    assert (t.points, t.maximal_simplices) == pulling_oracle(p)
    assert (t.points, t.maximal_simplices, t.volumes) == cone_oracle(p)
    assert (t.points, t.maximal_simplices, t.volumes) == facet_pulling(p)


def test_dilated_triangle_pulls_past_its_simplex_cones():
    t = pulling_triangulation(dilated_triangle())
    assert len(t.points) == 10
    assert t.volumes == (1,) * 9


# hull clouds put many points on shared boundary hyperplanes, so rays from q
# often leave a cell through a ridge and the point lies in several cones;
# a failing example is reported as found, since shrinking it through the
# brute-force oracle takes minutes
@settings(max_examples=300, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(cloud=hull_clouds())
def test_pulling_matches_cone_oracle(cloud):
    try:
        p = build_polytope(cloud)
    except NotFullDimensional:
        return
    t = pulling_triangulation(p)
    assert (t.points, t.maximal_simplices, t.volumes) == cone_oracle(p)


@settings(max_examples=200, deadline=None)
@given(cloud=hull_clouds())
def test_pulling_matches_facet_pulling(cloud):
    try:
        p = build_polytope(cloud)
    except NotFullDimensional:
        return
    t = pulling_triangulation(p)
    assert (t.points, t.maximal_simplices, t.volumes) == facet_pulling(p)


@pytest.mark.parametrize(
    "maker", [lambda: unit_cube(4), lambda: dilated_cube(3)], ids=["4-cube", "2x-3-cube"]
)
def test_inherited_slacks_are_the_facet_slacks(monkeypatch, maker):
    # every facet cell pulls q with the slacks b - a.q of its facets, although
    # only the root evaluates a facet at a point
    p = maker()
    points = tuple(sorted(p.lattice_points(1)))
    pulled = []

    def spy(facets, slack, g, others, apex):
        assert list(slack) == [b - _dot(a, points[apex]) for a, b, _ in facets]
        pulled.append(apex)
        return _ridge_pencils(facets, slack, g, others, apex)

    monkeypatch.setattr(triangulation, "_ridge_pencils", spy)
    t = triangulation.pulling_triangulation(p)
    assert set(pulled) - {0}, "no cell below the root was pulled"
    assert sum(t.volumes) == normalized_volume(p)


@pytest.mark.parametrize(
    "maker",
    [square_2x2, dilated_triangle, lambda: dilated_cube(3)],
    ids=["square-2x2", "3-triangle", "2x-3-cube"],
)
def test_simplex_cells_pull_by_volume_coordinates(monkeypatch, maker):
    # in every simplex cell, each held point x, q first, has beta_j(x) the
    # determinant of the cell's homogeneous vertex matrix with vertex j
    # replaced by x, in the orientation that makes the cell's volume positive
    p = maker()
    points = tuple(sorted(p.lattice_points(1)))
    pulled = []

    def spy(verts, vol, held):
        rows = [(1, *points[v]) for v in verts]
        full = det(rows)
        assert abs(full) == vol
        for i, beta in held:
            assert i not in verts, "a simplex cell holds one of its own vertices"
            x = (1, *points[i])
            cofactors = [det(rows[:j] + [x] + rows[j + 1 :]) for j in range(len(rows))]
            assert list(beta) == [c if full > 0 else -c for c in cofactors]
            assert sum(beta) == vol
        pulled.append(held[0][0])
        return pull_simplex(verts, vol, held)

    pull_simplex = triangulation._pull_simplex
    monkeypatch.setattr(triangulation, "_pull_simplex", spy)
    t = triangulation.pulling_triangulation(p)
    assert pulled, "no simplex cell was pulled"
    assert sum(t.volumes) == normalized_volume(p)


@st.composite
def simplex_batches(draw):
    """(n, points, simplices): a few n-simplices on small points, n = 1..5,
    degenerate ones included. Small coordinates often put a zero on the
    diagonal, so elimination has to swap rows."""
    n = draw(st.integers(1, 5))
    points = draw(
        st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=n + 1, max_size=n + 5, unique=True)
    )
    simplex = st.permutations(range(len(points))).map(lambda s: tuple(sorted(s[: n + 1])))
    return n, points, draw(st.lists(simplex, min_size=1, max_size=4))


@BACKENDS
@settings(max_examples=200, deadline=None)
@given(batch=simplex_batches())
def test_volumes_match_oracle(python_ints, batch):
    n, points, simplices = batch
    expected = tuple(volume_oracle([points[i] for i in s]) for s in simplices)
    with exact_route(python_ints, triangulation):
        if 0 in expected:
            with pytest.raises(InvariantViolation, match="degenerate"):
                _volumes(points, simplices, n)
        else:
            assert _volumes(points, simplices, n) == expected


def test_volumes_beyond_int64():
    # edges of about 2^40 in dimension 4: the volumes need about 160 bits
    e = 2**40
    points = [
        (0, 0, 0, 0),
        (e + 3, 5, -7, 1),
        (11, e - 5, 13, 2),
        (-17, 19, e + 1, 23),
        (29, 31, 37, e - 7),
        (3, -e, 2, 1),
    ]
    simplices = [(0, 1, 2, 3, 4), (1, 2, 3, 4, 5)]
    expected = tuple(volume_oracle([points[i] for i in s]) for s in simplices)
    assert min(expected) > _INT64_MAX
    assert _volumes(points, simplices, 4) == expected


@pytest.mark.parametrize(
    "points",
    [
        [(0, 0), (1, 1), (2, 2)],
        [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)],
    ],
    ids=["collinear", "zero-pivot-column"],
)
def test_degenerate_simplex_raises(points):
    n = len(points[0])
    with pytest.raises(InvariantViolation, match="degenerate"):
        _volumes(points, [tuple(range(n + 1))], n)


@BACKENDS
@settings(max_examples=100, deadline=None)
@given(cloud=hull_clouds())
def test_backends_pull_the_same_triangulation(python_ints, cloud):
    # the root slacks and the volumes on either backend; each polytope is
    # built afresh because the triangulation is memoized on it
    try:
        p = build_polytope(cloud)
    except NotFullDimensional:
        return
    with exact_route(python_ints, triangulation):
        t = pulling_triangulation(p)
    assert t == pulling_triangulation(build_polytope(cloud))
    assert t.volumes == recomputed_volumes(t)


@BACKENDS
@settings(max_examples=100, deadline=None)
@given(cloud=hull_clouds())
def test_h_vector_matches_face_closure(python_ints, cloud):
    try:
        t = pulling_triangulation(build_polytope(cloud))
    except NotFullDimensional:
        return
    with exact_route(python_ints, triangulation):
        assert h_vector(t) == h_vector_oracle(t)


def test_h_vector_keys_beyond_int64():
    # m = 2048 points in dimension 5: m^6 = 2^66, so face keys are Python
    # ints; the first two simplices' keys are 2^64 apart and would meet in
    # int64
    m = 2048
    t = Triangulation(
        dim=5,
        points=tuple((i, 0, 0, 0, 0) for i in range(m)),
        maximal_simplices=((0, 1, 2, 3, 4, 1000), (0, 1, 2, 3, 4, 1512), (1, 2, 3, 4, 5, m - 1)),
        volumes=(1, 1, 1),
    )
    assert m**6 > _INT64_MAX
    hv = h_vector(t)
    assert hv.f[6] == 3
    assert hv == h_vector_oracle(t)


def test_h_vector_of_no_simplices():
    t = Triangulation(dim=2, points=((0, 0), (1, 0), (0, 1)), maximal_simplices=(), volumes=())
    assert h_vector(t) == h_vector_oracle(t) == HVector(f=(1, 0, 0, 0), h=(1, -3, 3, -1))
