"""Pulling triangulations, f/h-vectors, unimodularity, and the h* criterion.

The triangulation is built by pulling the lattice points one at a time in
lexicographic order: each point refines every cell containing it into cones
over the cell's facets that miss the point. Pulling every point guarantees
the final cells are simplices and every lattice point is used as a vertex,
which is what the unimodularity criterion needs.

A cell is its list of facets a.x <= b, each with the indices of the cell's
vertices on it; P with its stored facets is the first cell. Each cell carries
the later lattice points, in pull order, that lie in it, and pulls the first
of them, q. The cone q * G over a facet G with slack s_G = b_G - a_G.q > 0
has the facet G and, for every other facet H that meets G in a ridge, the
member (s_G a_H - s_H a_G).x <= s_G b_H - s_H b_G of the pencil of
hyperplanes through G & H that passes through q, with vertices (G & H) + {q}.
Two facets meet in a ridge when no third facet holds all their common
vertices; in dimension 1 the two end points meet in the empty ridge. So the
facets of every cell follow from its parent's without a hull search, by the
same step (:func:`geometry._ridge_pencils`) as the beneath-beyond hull of P.
A cell with n + 1 facets is a simplex, and pulling one of its own vertices
would rebuild it, so it holds no point that is one of its vertices. A cell
with no point left to pull is a simplex of the triangulation, whose vertices
are those of its facets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .ehrhart import hstar, normalized_volume
from .errors import InvariantViolation
from .exact_linalg import det
from .geometry import LatticePoint, Polytope, _dot, _ridge_pencils, memo


def _volume(vertices) -> int:
    """Normalized volume |det of edge vectors| of a simplex."""
    base = vertices[0]
    return abs(det([tuple(x - b for x, b in zip(q, base)) for q in vertices[1:]]))


@dataclass(frozen=True)
class Triangulation:
    """Simplicial decomposition of a polytope on (a subset of) its lattice
    points; maximal simplices are (n+1)-tuples of indices into ``points``,
    and ``volumes`` holds their normalized volumes in the same order."""

    dim: int
    points: tuple[LatticePoint, ...]
    maximal_simplices: tuple[tuple[int, ...], ...]
    volumes: tuple[int, ...]

    def simplex_points(self, simplex):
        return tuple(self.points[i] for i in simplex)

    def simplex_volume(self, simplex) -> int:
        """Normalized volume of one maximal simplex."""
        return _volume(self.simplex_points(simplex))


@dataclass(frozen=True)
class HVector:
    """f-vector (f_{-1}..f_n) and h-vector (h_0..h_{n+1}) of a triangulation."""

    f: tuple[int, ...]
    h: tuple[int, ...]


@memo
def pulling_triangulation(p: Polytope) -> Triangulation:
    """Deterministic pulling triangulation on all lattice points of P."""
    n = p.dim
    points = tuple(sorted(p.lattice_points(1)))
    index = {pt: i for i, pt in enumerate(points)}

    # a cell's facets: (normal, offset, indices of the cell's vertices on it)
    corner = [index[v] for v in p.vertices]
    root = [(f.normal, f.offset, frozenset(corner[i] for i in f.vertices)) for f in p.facets]
    stack = [(root, range(len(points)))]
    cells = []
    while stack:
        facets, held = stack.pop()
        corners = frozenset().union(*(on for _, _, on in facets))
        if len(facets) == n + 1:
            # a simplex: pulling one of its own vertices rebuilds it
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
            cone = [facets[g], *_ridge_pencils(facets, slack, g, range(len(facets)), held[0])]
            inside = [
                i for i in later if all(_dot(a, points[i]) <= b for a, b, _ in cone)
            ]
            stack.append((cone, inside))

    if any(len(c) != n + 1 for c in cells):
        raise InvariantViolation("pulling left a non-simplex cell")
    if len(set(cells)) != len(cells):
        raise InvariantViolation("pulling produced duplicate cells")
    simplices = tuple(sorted(cells))
    volumes = tuple(_volume([points[i] for i in s]) for s in simplices)
    if sum(volumes) != normalized_volume(p):
        raise InvariantViolation(
            "triangulation volumes do not add up to the normalized volume"
        )
    return Triangulation(n, points, simplices, volumes)


def h_vector(t: Triangulation) -> HVector:
    """f-vector by face closure and h-vector by the coefficient identity
    sum_i f_{i-1} (x-1)^{d-i} = sum_i h_i x^{d-i} with d = dim + 1."""
    d = t.dim + 1
    faces: set[tuple[int, ...]] = set()
    for simplex in t.maximal_simplices:
        for r in range(1, d + 1):
            faces.update(itertools.combinations(simplex, r))
    f = [1] + [0] * d  # f[i] = number of faces with i vertices; f[0] is the empty face
    for face in faces:
        f[len(face)] += 1
    h = tuple(
        sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    )
    return HVector(f=tuple(f), h=h)


def is_unimodular(t: Triangulation) -> bool:
    """True iff every maximal simplex has normalized volume 1."""
    return all(v == 1 for v in t.volumes)


def betke_mcmullen_check(p: Polytope) -> dict:
    """Cross-validate: the pulling triangulation is unimodular exactly when
    its h-vector (truncated to h_0..h_n) equals the h*-vector."""
    t = pulling_triangulation(p)
    hv = h_vector(t)
    hs = hstar(p)
    unimodular = is_unimodular(t)
    matches = hv.h[: p.dim + 1] == hs.coeffs
    return {
        "unimodular": unimodular,
        "h_triangulation": list(hv.h),
        "hstar": list(hs.coeffs),
        "matches": matches,
        "consistent": unimodular == matches,
    }
