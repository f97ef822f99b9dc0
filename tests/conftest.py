"""Shared polytope builders for the test suite, on the registry's vertex data."""

import itertools
from contextlib import nullcontext
from math import gcd
from unittest import mock

import pytest
from hypothesis import strategies as st

from castelpoly import geometry
from castelpoly.exact_linalg import IntMatrix, det, rank
from castelpoly.geometry import (
    Facet,
    _dot,
    _farthest_first,
    _primitive,
    _starting_simplex,
    build_polytope,
)
from castelpoly.registry import (
    family_vertices,
    nonspanning_dim4_vertices,
    reflexive_simplex_vertices,
    square_2x2_vertices,
    standard_simplex_vertices,
)


def exact_route(python_ints, module=None):
    """The one switch between the two routes of the exact array passes: a
    context in which every pass runs on Python ints, as beyond the int64
    bound, or only the passes of ``module``; a null context when
    ``python_ints`` is false. ``geometry._exact_dtype`` reads ``_INT64_MAX``
    when it is called and no bound is negative, so one patch of it reaches
    every pass."""
    if not python_ints:
        return nullcontext()
    if module is None:
        return mock.patch.object(geometry, "_INT64_MAX", -1)
    return mock.patch.object(module, "_exact_dtype", lambda bound: object)


# the two routes, as the parameter ``python_ints`` of a test
ROUTES = pytest.mark.parametrize("python_ints", [False, True], ids=["int64", "python-ints"])


def standard_simplex(n):
    return build_polytope(standard_simplex_vertices(n))


def unit_cube(n):
    return build_polytope(list(itertools.product((0, 1), repeat=n)))


def cross_polytope(n):
    """conv(+-e_1, ..., +-e_n): reflexive, with h* = (C(n, i))."""
    return build_polytope([tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)])


def unit_square():
    return unit_cube(2)


def square_2x2():
    return build_polytope(square_2x2_vertices())


def reflexive_simplex_3():
    return build_polytope(reflexive_simplex_vertices())


def nonspanning_dim4():
    """Six vertices in dimension 4; flat h* but lattice points only span an
    index-2 sublattice (the last coordinate is always even)."""
    return build_polytope(nonspanning_dim4_vertices())


def spanning_non_idp_family(a):
    """Spanning polytopes in dimension 2a+1 that are not IDP."""
    return build_polytope(family_vertices(a))


# point clouds of dimension 1-4 for the differential tests against the
# oracles, in coordinate ranges small enough that the box oracle of the dilate
# scan stays below 17^4 cells up to k = 2n; dimensions 5 and 6 serve the h*
# oracle alone, which counts the dilates up to k = n
ORACLE_RANGES = {1: (-4, 4), 2: (-2, 3), 3: (-1, 2), 4: (0, 2), 5: (-1, 1), 6: (-1, 1)}
oracle_clouds = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(*ORACLE_RANGES[n])] * n),
        min_size=n + 1,
        max_size=n + 3,
    )
)


def _cross(diffs, n):
    """Integer normal to the hyperplane spanned by n-1 difference vectors.

    Generalized cross product: entry j is (-1)^j times the minor with
    column j deleted. All zeros means the vectors are dependent.
    """
    if n == 1:
        return (1,)
    normal = []
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in diffs]
        normal.append((-1) ** j * det(minor))
    return tuple(normal)


def cross_simplex_facets(points, simplex):
    """Oracle for the starting simplex of the hull: the facet opposite each
    vertex in turn as (primitive normal, offset, frozenset of the other
    vertices), the normal from n minors by :func:`_cross` and oriented away
    from the vertex."""
    n = len(points[0])
    facets = []
    for i in simplex:
        others = [j for j in simplex if j != i]
        base = points[others[0]]
        diffs = [tuple(x - b for x, b in zip(points[j], base)) for j in others[1:]]
        normal, _ = _primitive(_cross(diffs, n))
        offset = _dot(normal, base)
        if _dot(normal, points[i]) > offset:
            normal, offset = tuple(-x for x in normal), -offset
        facets.append((normal, offset, frozenset(others)))
    return facets


def frozenset_ridge_pencils(facets, slack, g, others, apex=None):
    """Oracle for ``geometry._ridge_pencils`` on frozenset point sets, for
    s_g > 0: for each facet H in ``others`` that meets G in a ridge (at least
    n - 1 common points, and no third facet holds them all), the pencil
    member (s_g a_h - s_h a_g).x <= s_g b_h - s_h b_g through G & H and q,
    made primitive, with the point set G & H plus ``apex``, as (h, d,
    facet)."""
    a_g, b_g, on_g = facets[g]
    least = len(a_g) - 1
    for h in others:
        a_h, b_h, on_h = facets[h]
        ridge = on_g & on_h
        if h == g or len(ridge) < least or any(
            ridge <= on for i, (_, _, on) in enumerate(facets) if i != g and i != h
        ):
            continue
        normal, d = _primitive(
            tuple(slack[g] * x - slack[h] * y for x, y in zip(a_h, a_g))
        )
        yield h, d, (
            normal,
            (slack[g] * b_h - slack[h] * b_g) // d,
            ridge if apex is None else ridge | {apex},
        )


def frozenset_beneath_beyond(points, simplex):
    """Oracle for ``geometry._beneath_beyond`` on frozenset point sets: the
    same insertion order, each new facet from the pencil of a kept facet H
    with s_H > 0 and a facet G that q sees."""
    facets = cross_simplex_facets(points, simplex)
    for iq in _farthest_first(points, simplex):
        q = points[iq]
        slack = [b - _dot(a, q) for a, b, _ in facets]
        visible = [g for g, s in enumerate(slack) if s < 0]
        kept = [
            (a, b, on | {iq}) if s == 0 else (a, b, on)
            for (a, b, on), s in zip(facets, slack)
            if s >= 0
        ]
        if visible:
            for h, s in enumerate(slack):
                if s > 0:
                    kept.extend(
                        f for _, _, f in frozenset_ridge_pencils(facets, slack, h, visible, iq)
                    )
        facets = kept
    return facets


def frozenset_hull(points):
    """Oracle for build_polytope on full-dimensional points: (facets,
    vertices, discarded points) from :func:`frozenset_beneath_beyond`, a
    point being a vertex when the point sets of the facets through it meet
    in it alone."""
    unique = sorted(set(map(tuple, points)))
    facets = frozenset_beneath_beyond(unique, _starting_simplex(unique))
    sets = [on for _, _, on in facets]
    universe = frozenset(range(len(unique)))

    def is_vertex(i):
        through = [s for s in sets if i in s]
        return (frozenset.intersection(*through) if through else universe) == {i}

    kept = [i for i in range(len(unique)) if is_vertex(i)]
    position = {i: k for k, i in enumerate(kept)}
    return (
        tuple(
            sorted(
                Facet(a, b, frozenset(position[i] for i in on if i in position))
                for a, b, on in facets
            )
        ),
        tuple(unique[i] for i in kept),
        tuple(q for i, q in enumerate(unique) if i not in position),
    )


def brute_force_facets(points, n):
    """Oracle: all facets of conv(points) as (normal, offset), assuming the
    points affinely span R^n. Tries every n-subset spanning a hyperplane and
    keeps the inequality when all points lie weakly on one side; any
    supporting hyperplane through n affinely independent points is a facet
    hyperplane."""
    seen = set()
    for subset in itertools.combinations(points, n):
        base = subset[0]
        normal = _cross([tuple(x - b for x, b in zip(q, base)) for q in subset[1:]], n)
        if not any(normal):
            continue
        offset = _dot(normal, base)
        values = [_dot(normal, q) for q in points]
        if max(values) > offset and min(values) < offset:
            continue
        if max(values) > offset:
            normal, offset = tuple(-x for x in normal), -offset
        normal, g = _primitive(normal)
        seen.add((normal, offset // g))
    return sorted(seen)


def affine_dimension(points):
    """Dimension of the affine hull of the points, by one exact rank."""
    diffs = [tuple(x - b for x, b in zip(q, points[0])) for q in points[1:]]
    return rank(IntMatrix.from_rows(diffs)) if diffs else 0


def brute_force_hull(points):
    """Oracle for build_polytope: (facets, vertices, discarded points) of the
    distinct full-dimensional points. A point is a vertex when the normals of
    the facets through it have rank n; each facet holds the indices of the
    vertices on it, found by evaluating its inequality at every vertex."""
    unique = sorted(set(map(tuple, points)))
    n = len(unique[0])
    facets = brute_force_facets(unique, n)
    vertices, discarded = [], []
    for q in unique:
        active = [a for a, b in facets if _dot(a, q) == b]
        vertex = len(active) >= n and rank(IntMatrix.from_rows(active)) == n
        (vertices if vertex else discarded).append(q)
    facets = [
        Facet(a, b, frozenset(i for i, v in enumerate(vertices) if _dot(a, v) == b))
        for a, b in facets
    ]
    return tuple(facets), tuple(vertices), tuple(discarded)


def rank_edges(p):
    """Oracle: the vertex pairs whose common facets have normals of rank
    n - 1. The smallest face holding two vertices is the meet of the facets
    through both, so the rank says the pair spans a 1-dimensional face; in
    dimension 1 the two vertices of the segment are its one edge."""
    n = p.dim
    out = []
    for u, v in itertools.combinations(p.vertices, 2):
        common = [f.normal for f in p.facets if f.value(u) == f.offset == f.value(v)]
        if n == 1 or (len(common) >= n - 1 and rank(IntMatrix.from_rows(common)) == n - 1):
            out.append((u, v))
    return tuple(out)


def _lattice_segment(a, b):
    """The lattice points strictly between a and b."""
    g = 0
    for x, y in zip(a, b):
        g = gcd(g, y - x)
    return [tuple(x + (y - x) * j // g for x, y in zip(a, b)) for j in range(1, g)]


@st.composite
def hull_clouds(draw, dims=4):
    """Point clouds of dimension 1 to ``dims`` (at most 6) in the oracle
    ranges, in shuffled order, with duplicates, with coordinates biased to
    the ends of the range so that many points share a boundary hyperplane,
    and with the lattice points on a few segments between drawn points,
    which are collinear."""
    n = draw(st.integers(1, dims))
    lo, hi = ORACLE_RANGES[n]
    coord = st.one_of(st.sampled_from((lo, hi)), st.integers(lo, hi))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 6))
    ends = st.sampled_from(pts)
    for a, b in draw(st.lists(st.tuples(ends, ends), max_size=3)):
        pts += _lattice_segment(a, b)
    pts += draw(st.lists(ends, max_size=3))
    return draw(st.permutations(pts))


@pytest.fixture
def square():
    return unit_square()
