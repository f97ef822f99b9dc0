import itertools
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from castelpoly import geometry
from castelpoly.errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptyInput,
    NonIntegerCoordinate,
    NotFullDimensional,
)
from castelpoly.exact_linalg import det
from castelpoly.geometry import (
    _CHUNK_ENTRIES,
    _primitive,
    _project,
    _simplex_facets,
    build_polytope,
)
from castelpoly.registry import reflexive_simplex_vertices, standard_simplex_vertices

from conftest import (
    ROUTES,
    affine_dimension,
    brute_force_hull,
    cross_polytope,
    cross_simplex_facets,
    exact_route,
    frozenset_hull,
    hull_clouds,
    nonspanning_dim4,
    oracle_clouds,
    rank_edges,
    reflexive_simplex_3,
    spanning_non_idp_family,
    standard_simplex,
    unit_cube,
    unit_square,
)


def test_build_standard_simplex_dim2():
    p = standard_simplex(2)
    assert len(p.vertices) == 3
    assert len(p.facets) == 3
    ineqs = {(f.normal, f.offset) for f in p.facets}
    assert ineqs == {((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)}


def test_build_nonspanning_dim4_all_vertices():
    p = nonspanning_dim4()
    assert p.dim == 4
    assert len(p.vertices) == 6
    assert p.discarded_points == ()


def test_build_discards_midpoint():
    p = build_polytope([(0,), (1,), (2,)])
    assert p.vertices == ((0,), (2,))
    assert p.discarded_points == ((1,),)


def test_build_errors():
    with pytest.raises(EmptyInput):
        build_polytope([])
    with pytest.raises(NotFullDimensional, match="dimension 1 < ambient 2"):
        build_polytope([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(NotFullDimensional, match="dimension 0 < ambient 2"):
        build_polytope([(3, 3), (3, 3)])
    with pytest.raises(NotFullDimensional, match="dimension 2 < ambient 3"):
        build_polytope([(0, 0, 1), (2, 0, 1), (0, 2, 1), (1, 1, 1), (2, 2, 1), (1, 0, 1)])
    with pytest.raises(DimensionMismatch):
        build_polytope([(0, 0), (1,)])


def test_build_unit_6_cube():
    p = unit_cube(6)
    assert (len(p.facets), len(p.vertices), p.discarded_points) == (12, 64, ())


def test_build_dilated_simplex_lattice_points():
    # the 35 lattice points of the 4-dilated standard 3-simplex
    points = [x for x in itertools.product(range(5), repeat=3) if sum(x) <= 4]
    p = build_polytope(points)
    assert {(f.normal, f.offset) for f in p.facets} == {
        ((-1, 0, 0), 0),
        ((0, -1, 0), 0),
        ((0, 0, -1), 0),
        ((1, 1, 1), 4),
    }
    assert p.vertices == ((0, 0, 0), (0, 0, 4), (0, 4, 0), (4, 0, 0))
    assert len(p.discarded_points) == 31


@pytest.mark.parametrize(
    "coordinate",
    [1.5, 1.0, Fraction(7, 2), Fraction(2), "2", True, None],
    ids=["float", "integral-float", "fraction", "integral-fraction", "string", "bool", "none"],
)
def test_build_refuses_non_integer_coordinates(coordinate):
    with pytest.raises(NonIntegerCoordinate, match=re.escape(repr(coordinate))):
        build_polytope([(0, 0), (coordinate, 0), (0, 1)])


def test_build_accepts_index_integers():
    p = build_polytope([(np.int64(0), np.int32(0)), (np.int64(2), 0), (0, np.uint8(1))])
    assert p.vertices == ((0, 0), (0, 1), (2, 0))
    assert all(type(c) is int for v in p.vertices for c in v)


@settings(max_examples=300, deadline=None)
@given(cloud=hull_clouds())
def test_hull_matches_brute_force_oracle(cloud):
    n = len(cloud[0])
    dim = affine_dimension(cloud)
    if dim < n:
        with pytest.raises(NotFullDimensional, match=f"dimension {dim} < ambient {n}"):
            build_polytope(cloud)
        return
    p = build_polytope(cloud)
    assert (p.facets, p.vertices, p.discarded_points) == brute_force_hull(cloud)


# the bitmask hull against its frozenset predecessor, kept as the oracle
@settings(max_examples=300, deadline=None)
@given(cloud=hull_clouds())
def test_hull_matches_frozenset_hull(cloud):
    try:
        p = build_polytope(cloud)
    except NotFullDimensional:
        return
    assert (p.facets, p.vertices, p.discarded_points) == frozenset_hull(cloud)


def test_hull_of_the_doubled_cross_polytope():
    # the 41 lattice points of 2 times the 4-cross-polytope: two facets whose
    # signs differ in two places share an edge with 3 = n - 1 lattice points,
    # and only the third-facet check tells that edge from a ridge
    cloud = [x for x in itertools.product(range(-2, 3), repeat=4) if sum(map(abs, x)) <= 2]
    assert len(cloud) == 41
    p = build_polytope(cloud)
    signs = itertools.product((-1, 1), repeat=4)
    assert sorted((f.normal, f.offset) for f in p.facets) == [(s, 2) for s in signs]
    assert (p.facets, p.vertices, p.discarded_points) == frozenset_hull(cloud)


@st.composite
def simplices(draw):
    """n + 1 affinely independent points in dimension 1-5, in drawn order."""
    n = draw(st.integers(1, 5))
    coord = st.integers(-6, 6)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 1, unique=True))
    assume(affine_dimension(pts) == n)
    return pts


@settings(max_examples=300, deadline=None)
@given(pts=simplices())
def test_simplex_facets_match_cross_products(pts):
    # one elimination of [V | I] against n minors per facet, primitive and
    # pointing away from the vertex opposite
    simplex = list(range(len(pts)))
    got = [
        (a, b, frozenset(i for i in simplex if on >> i & 1))
        for a, b, on in _simplex_facets(pts, simplex)
    ]
    assert got == cross_simplex_facets(pts, simplex)


def sorted_insertion(points, simplex):
    """The hull's former insertion order: the points outside the starting
    simplex by index."""
    inside = set(simplex)
    return [i for i in range(len(points)) if i not in inside]


@settings(max_examples=300, deadline=None)
@given(cloud=hull_clouds())
def test_hull_matches_sorted_insertion_oracle(cloud):
    try:
        p = build_polytope(cloud)
    except NotFullDimensional:
        return
    with mock.patch.object(geometry, "_farthest_first", sorted_insertion):
        q = build_polytope(cloud)
    assert (p.facets, p.vertices, p.discarded_points) == (q.facets, q.vertices, q.discarded_points)


def test_every_vertex_on_every_facet_weakly(square):
    for f in square.facets:
        assert all(f.value(v) <= f.offset for v in square.vertices)
        on = [v for v in square.vertices if f.value(v) == f.offset]
        assert len(on) >= square.dim


def test_lattice_points_square(square):
    assert len(square.lattice_points(1)) == 4
    assert len(square.lattice_points(2)) == 9
    assert square.lattice_count(2) == 9


def test_lattice_points_nonspanning_dim4():
    p = nonspanning_dim4()
    assert p.lattice_points(1) == frozenset(p.vertices)


def test_lattice_points_family_a1():
    p = spanning_non_idp_family(1)
    assert p.lattice_points(1) == frozenset(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 2, 3), (0, 0, -1)]
    )


def test_interior_points_simplex():
    p = standard_simplex(2)
    assert p.interior_lattice_points(2) == frozenset()
    assert p.interior_lattice_points(3) == frozenset([(1, 1)])
    assert p.interior_lattice_count(3) == 1


def test_interior_point_reflexive_simplex():
    p = reflexive_simplex_3()
    assert p.interior_lattice_points(1) == frozenset([(0, 0, 0)])


def test_budget_exceeded():
    p = build_polytope(list(itertools.product((0, 1), repeat=3)), budget=10)
    # the box of 100P has 101^3 cells; the scan walks 101^2 fibers of it
    with pytest.raises(BudgetExceeded, match="needs 10201 fibers, budget is 10"):
        p.lattice_points(100)
    assert build_polytope(p.vertices, budget=10201).lattice_count(100) == 101**3


@pytest.mark.parametrize(
    "points, needed",
    [([(0,), (10**6,)], 10**6 + 1), ([(0, 0), (1, 0), (0, 10**6)], 10**6 + 2)],
    ids=["segment", "long-triangle"],
)
def test_collect_beyond_budget_is_refused(points, needed):
    # the box walk has one or two fibers, so only the points collected along
    # the widest axis can exceed the budget; counts do not collect
    p = build_polytope(points, budget=1000)
    refusal = f"^dilate scan needs {needed} points, budget is 1000$"
    with pytest.raises(BudgetExceeded, match=refusal):
        p._points(1)
    with pytest.raises(BudgetExceeded, match=f"needs {needed} points"):
        p.lattice_points(1)
    assert p.lattice_count(1) == needed
    assert build_polytope(points, budget=needed)._points(1).shape == (needed, len(points[0]))


def test_a_walk_collects_only_the_dilates_within_the_budget(monkeypatch):
    # P's 4 points fit the budget and 2P's 9 do not: the walk counts both and
    # collects P, and asking for 2P's points refuses without another walk
    p = build_polytope(list(itertools.product((0, 1), repeat=2)), budget=5)
    p.count_dilates([1, 2], [1, 2])
    walks = []
    monkeypatch.setattr(geometry.Polytope, "_scan", lambda self, ks, collect: walks.append(ks))
    assert p._points(1).shape == (4, 2)
    with pytest.raises(BudgetExceeded, match="^dilate scan needs 9 points, budget is 5$"):
        p._points(2)
    assert p.lattice_count(2) == 9
    assert walks == []


def test_interior_count_of_zeroth_dilate():
    p = standard_simplex(2)
    assert p.lattice_count(0) == 1
    assert p.interior_lattice_count(0) == 0
    assert p.lattice_points(0) == frozenset([(0, 0)])
    assert p._points(0).tolist() == [[0, 0]]
    assert p.interior_lattice_points(0) == frozenset()


@pytest.mark.parametrize(
    "accessor",
    ["lattice_count", "interior_lattice_count", "lattice_points", "interior_lattice_points"],
)
def test_negative_dilate_is_refused(accessor):
    p = standard_simplex(2)
    with pytest.raises(ValueError, match=r"^dilation factor must be >= 0$"):
        getattr(p, accessor)(-1)
    assert p._memo == {}


def test_python_scan_agrees_with_numpy():
    p = build_polytope([(0, 0), (3, 1), (1, 4), (-2, -1)])
    fast = {k: p.lattice_points(k) for k in (1, 2, 3)}
    q = build_polytope([(0, 0), (3, 1), (1, 4), (-2, -1)])
    with exact_route(True, geometry):
        for k in (1, 2, 3):
            assert q.lattice_points(k) == fast[k]
            assert q.interior_lattice_count(k) == p.interior_lattice_count(k)


def test_scan_beyond_int64_is_exact():
    # the shift puts k b and the slacks r far beyond int64, so the scan
    # runs on Python ints; kP is k times the shift plus k times the triangle
    tri = [(0, 0), (3, 0), (0, 3)]
    shift = (2**70, -(2**66))
    p = build_polytope(tri)
    q = build_polytope([(x + shift[0], y + shift[1]) for x, y in tri])
    assert geometry._exact_dtype(q._walk_bound(1)) is object
    for k in (1, 2, 3):
        moved = sorted([x + k * shift[0], y + k * shift[1]] for x, y in p.lattice_points(k))
        assert q._points(k).dtype == object
        assert q._points(k).tolist() == moved
        assert q.lattice_points(k) == frozenset(map(tuple, moved))
        assert q.interior_lattice_count(k) == p.interior_lattice_count(k)


def box_scan(p, k):
    """Oracle: test every cell of the integer bounding box of kP against
    every facet. Returns (closed count, interior count, points), the points
    as an array in the box's row-major order, which is lexicographic."""
    los = [min(k * v[i] for v in p.vertices) for i in range(p.dim)]
    his = [max(k * v[i] for v in p.vertices) for i in range(p.dim)]
    cells = np.stack(
        np.meshgrid(*[np.arange(lo, hi + 1) for lo, hi in zip(los, his)], indexing="ij"),
        axis=-1,
    ).reshape(-1, p.dim)
    vals = cells @ np.array([f.normal for f in p.facets]).T
    kb = np.array([k * f.offset for f in p.facets])
    closed = np.all(vals <= kb, axis=1)
    interior = np.all(vals < kb, axis=1)
    return int(closed.sum()), int(interior.sum()), cells[closed]


def assert_scan(got, expected, python_ints):
    """A collecting scan gives the oracle's counts and the same points in the
    same order, on the route that the test asks for: these small clouds walk
    on int64 unless they are sent to Python ints."""
    assert len(got) == len(expected)
    for (closed, interior, points), (want_closed, want_interior, want) in zip(got, expected):
        assert (closed, interior) == (want_closed, want_interior)
        assert points.dtype == (object if python_ints else np.int64)
        assert points.tolist() == want.tolist()


@ROUTES
@settings(max_examples=100, deadline=None)
@given(cloud=oracle_clouds)
def test_fiber_scan_matches_box_oracle(python_ints, cloud):
    try:
        p = build_polytope(cloud)
    except NotFullDimensional:
        return
    ks = list(range(1, 2 * p.dim + 1))
    expected = [box_scan(p, k) for k in ks]
    with exact_route(python_ints, geometry):
        # one batched walk for every dilate, P too, over the projections
        p.count_dilates(ks)
        assert [(p.lattice_count(k), p.interior_lattice_count(k)) for k in ks] == [
            e[:2] for e in expected
        ]
        # P alone takes the whole chain too, also when it only counts
        assert p._scan([1], ()) == [(*expected[0][:2], None)]
        assert_scan(p._scan(ks[1:], ks[1:]), expected[1:], python_ints)
        for k, e in zip(ks, expected):
            assert_scan(p._scan([k], [k]), [e], python_ints)


def level_facets(level):
    """The (normal, offset) of a walk level's facets, with the normal on the
    walk's coordinates up to the level's axis."""
    zero = len(level.runs) - level.nneg - level.npos
    signs = [-1] * level.nneg + [0] * zero + [1] * level.npos
    return sorted(
        ((*(-a for a in row[1:]), sign * div), row[0])
        for (start, end), sign, (div,) in zip(level.runs, signs, level.div.tolist())
        for row in level.homogeneous[start:end].tolist()
    )


def shadow_facets(p, axes):
    """Oracle: the facets of the hull of P's vertices projected on ``axes``,
    each with the indices of the vertices of P that project into it."""
    shadow = [tuple(v[i] for i in axes) for v in p.vertices]
    return sorted(
        (f.normal, f.offset, frozenset(i for i, x in enumerate(shadow) if f.value(x) == f.offset))
        for f in build_polytope(shadow).facets
    )


# the ridge route of the projection chain against the hull of the projected
# vertices: the facets that every level of the walk reads, and the vertex
# sets that each projection step hands on
@settings(max_examples=300, deadline=None)
@given(cloud=st.one_of(hull_clouds(), oracle_clouds))
def test_projection_levels_match_hull_oracle(cloud):
    try:
        p = build_polytope(cloud)
    except NotFullDimensional:
        return
    plan = p._scan_plan()
    levels = plan.levels
    assert [level.axis for level in levels] == plan.order[len(plan.order) - len(levels) :]
    for level in levels:
        axes = plan.order[: plan.order.index(level.axis) + 1]
        assert level_facets(level) == [f[:2] for f in shadow_facets(p, axes)]
    axes = list(range(p.dim))
    facets = [(f.normal, f.offset, sum(1 << i for i in f.vertices)) for f in p.facets]
    for axis in plan.order[:1:-1]:
        facets = _project(facets, axes.index(axis))
        axes.remove(axis)
        vertices = range(len(p.vertices))
        sets = [(a, b, frozenset(i for i in vertices if on >> i & 1)) for a, b, on in facets]
        assert sorted(sets) == shadow_facets(p, axes)


def test_walk_chunks_stay_within_bound(monkeypatch):
    seen = []
    real = geometry._fiber_intervals

    def spy(r, *args):
        seen.append(r.size)
        return real(r, *args)

    monkeypatch.setattr(geometry, "_fiber_intervals", spy)
    cross_polytope(7).count_dilates(range(1, 8))
    assert len(seen) > 7 and max(seen) <= _CHUNK_ENTRIES


# every walk, P's alone too, starts from P_1: the rows (k, x) for the
# integers x of [k lo, k hi], the side of P's box on the first coordinate of
# the walk order
@pytest.mark.parametrize("collect", [False, True], ids=["count", "collect"])
def test_every_walk_starts_from_one_coordinate(monkeypatch, collect):
    starts = []
    real = geometry._start_rows

    def spy(ks, *args):
        rows = list(real(ks, *args))
        starts.append((tuple(ks), np.concatenate(rows).tolist()))
        return iter(rows)

    monkeypatch.setattr(geometry, "_start_rows", spy)
    p = nonspanning_dim4()
    plan = p._scan_plan()
    lo, hi = plan.los[plan.order[0]], plan.his[plan.order[0]]
    batches = ([1], [1, 2, 3, 4], [2], [3, 4])
    for ks in batches:
        p._scan(ks, ks if collect else ())
    assert starts == [
        (tuple(ks), [[k, x] for k in ks for x in range(k * lo, k * hi + 1)]) for ks in batches
    ]


SQUARE_PYRAMID = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)]


# the edges that the smoothness oracle reads, on known counts: in dimension
# 1 the segment is its own one edge, which no facet cuts out
@pytest.mark.parametrize(
    "points, edges",
    [
        (list(itertools.product((0, 1), repeat=2)), 4),
        (standard_simplex_vertices(3), 6),
        ([(0,), (1,)], 1),
        ([(0,), (3,)], 1),
        (SQUARE_PYRAMID, 8),
        (list(itertools.product((0, 1), repeat=6)), 192),
    ],
    ids=["square", "3-simplex", "segment-1", "segment-3", "square-pyramid", "6-cube"],
)
def test_edges_square_and_simplex(points, edges):
    assert len(rank_edges(build_polytope(points))) == edges


def brute_force_edges(p):
    """Oracle: a pair is an edge iff some facet subset cuts out exactly it.

    Faces of a polytope are intersections with facet hyperplanes; a face whose
    vertex set is exactly a pair is a segment, i.e. an edge.
    """
    out = set()
    facets = p.facets
    for r in range(1, len(facets) + 1):
        for sub in itertools.combinations(facets, r):
            on = [
                v
                for v in p.vertices
                if all(f.value(v) == f.offset for f in sub)
            ]
            if len(on) == 2:
                out.add(tuple(sorted(on)))
    return out


def test_edges_against_face_oracle():
    for p in (nonspanning_dim4(), unit_cube(3), reflexive_simplex_3()):
        assert set(rank_edges(p)) == brute_force_edges(p)


def edge_smooth(p):
    """Oracle: P is simple, and the primitive edge directions at every vertex
    form a lattice basis (determinant +-1)."""
    incident = {v: [] for v in p.vertices}
    for u, v in rank_edges(p):
        incident[u].append(v)
        incident[v].append(u)
    for v, nbrs in incident.items():
        if len(nbrs) != p.dim:
            return False
        dirs = [_primitive(tuple(a - b for a, b in zip(w, v)))[0] for w in nbrs]
        if abs(det(dirs)) != 1:
            return False
    return True


# the triangle's vertex (0, 1) sees primitive directions (0, -1) and (2, -1),
# of determinant 2; the pyramid's apex lies on four edges in dimension 3; the
# reflexive 3-simplex is simple, but the facet normals at each vertex have
# determinant 16
@pytest.mark.parametrize(
    "points, smooth",
    [
        (standard_simplex_vertices(4), True),
        (list(itertools.product((0, 1), repeat=3)), True),
        ([(0, 0), (2, 0), (0, 1)], False),
        ([(0,), (1,)], True),
        ([(0,), (3,)], True),
        (SQUARE_PYRAMID, False),
        (list(itertools.product((0, 1), repeat=6)), True),
        ([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)], True),
        (list(itertools.product((0, 2), repeat=2)), True),
        ([(0, 0), (3, 0), (0, 3)], True),
        (reflexive_simplex_vertices(), False),
    ],
    ids=[
        "4-simplex", "3-cube", "triangle", "segment-1", "segment-3", "square-pyramid",
        "6-cube", "hexagon", "2x-square", "3x-triangle", "reflexive-3-simplex",
    ],
)
def test_is_smooth(points, smooth):
    p = build_polytope(points)
    assert p.is_smooth() is smooth
    assert edge_smooth(p) is smooth


@settings(max_examples=300, deadline=None)
@given(cloud=st.one_of(hull_clouds(), oracle_clouds))
def test_is_smooth_matches_edge_oracle(cloud):
    try:
        p = build_polytope(cloud)
    except NotFullDimensional:
        return
    assert p.is_smooth() is edge_smooth(p)


def membership_oracle(p, x, k):
    """Exact convex-combination feasibility via Caratheodory and Cramer's
    rule: x is in kP iff some n+1 vertices with det(A) != 0, where A has the
    columns (v, 1), carry (x, k) with nonnegative coefficients, that is iff
    every det(A_i), with column i of A replaced by (x, k), is 0 or has the
    sign of det(A)."""
    n = p.dim
    target = list(x) + [k]
    for sub in itertools.combinations(p.vertices, n + 1):
        cols = [list(v) + [1] for v in sub]
        d = det(list(map(list, zip(*cols))))
        if d == 0:
            continue
        minors = [
            det(list(map(list, zip(*(cols[:i] + [target] + cols[i + 1 :])))))
            for i in range(n + 1)
        ]
        if all(m * d >= 0 for m in minors):
            return True
    return False


@pytest.mark.parametrize(
    "maker", [unit_square, lambda: standard_simplex(2), reflexive_simplex_3]
)
def test_lattice_points_match_barycentric_oracle(maker):
    p = maker()
    for k in (1, 2):
        pts = p.lattice_points(k)
        los = [min(k * v[i] for v in p.vertices) for i in range(p.dim)]
        his = [max(k * v[i] for v in p.vertices) for i in range(p.dim)]
        for x in itertools.product(*[range(lo, hi + 1) for lo, hi in zip(los, his)]):
            assert (x in pts) == membership_oracle(p, x, k)


point_clouds = st.integers(2, 3).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(-3, 3)] * n), min_size=n + 1, max_size=n + 4
    )
)


@settings(max_examples=60, deadline=None)
@given(point_clouds)
def test_random_polytope_invariants(cloud):
    try:
        p = build_polytope(cloud)
    except NotFullDimensional:
        return
    n = p.dim
    # facet validity: all vertices weakly inside, contact sets span hyperplanes
    for f in p.facets:
        vals = [f.value(v) for v in p.vertices]
        assert all(v <= f.offset for v in vals)
        assert vals.count(f.offset) >= n
    assert len(p.lattice_points(1)) >= n + 1
    counts = [p.lattice_count(k) for k in (1, 2, 3)]
    assert counts == sorted(counts)
    inter = p.interior_lattice_points(2)
    closed = p.lattice_points(2)
    assert inter <= closed
    boundary = {x for x in closed if not all(f.value(x) < 2 * f.offset for f in p.facets)}
    if boundary:
        assert inter < closed
    # vertices are lattice points of the first dilate
    assert frozenset(p.vertices) <= p.lattice_points(1)
