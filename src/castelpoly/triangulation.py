"""Pulling triangulations, f/h-vectors, unimodularity, and the h* criterion.

The triangulation is built by pulling the lattice points one at a time in
lexicographic order: each point refines every cell containing it into cones
over the cell's facets that miss the point. Pulling every point guarantees
the final cells are simplices and every lattice point is used as a vertex,
which is what the unimodularity criterion needs.

A cell is its list of facets a.x <= b, each with the indices of the cell's
vertices on it; P with its stored facets is the first cell. Each cell carries
the later lattice points, in pull order, that lie in it, each with its slacks
sigma = b - a.x against the cell's facets, and pulls the first of them, q,
whose slacks are s. The cone q * G over a facet G with s_G > 0 has the facet
G and, for every other facet H that meets G in a ridge, the member
(s_G a_H - s_H a_G).x <= s_G b_H - s_H b_G of the pencil of hyperplanes
through G & H that passes through q, divided by the gcd d of its normal,
with vertices (G & H) + {q}. Two facets meet in a ridge when no third facet
holds all their common vertices; in dimension 1 the two end points meet in
the empty ridge. So the facets of every cell follow from its parent's
without a hull search, by the same step (:func:`geometry._ridge_pencils`) as
the beneath-beyond hull of P. Three rules decide the rest:

* Inherited slacks. Only P's facets are evaluated at points. A point's
  slacks in the cone q * G are sigma_G and, for the pencil facet of H,
  (s_G sigma_H - s_H sigma_G) / d, an exact division.
* Ray exit. A later point x lies in the cone q * G exactly when G attains
  the least sigma_G(x) / s_G over the facets with s_G > 0: the ray from q
  through x leaves the cell through G. Ratios are compared by
  cross-multiplication, and a tie puts x in every cone that attains it.
* Leaf cones. A cone over a facet G with n vertices is a simplex, and
  pulling one of its own vertices would rebuild it, so G's vertices leave
  its points when it is formed. A simplex cone with no point left is a
  maximal simplex at once, and its facets are never built.

This is the only rule that closes a cell: every cell on the stack holds a
point and pulls the first one.
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

    # a cell's facets: (normal, offset, indices of the cell's vertices on it),
    # and its later points: (index, slacks b - a.x against those facets)
    corner = [index[v] for v in p.vertices]
    root = [(f.normal, f.offset, frozenset(corner[i] for i in f.vertices)) for f in p.facets]
    held = [(i, tuple(b - _dot(a, x) for a, b, _ in root)) for i, x in enumerate(points)]
    stack = [(root, held)]
    cells = []
    while stack:
        facets, held = stack.pop()
        if not held:
            raise InvariantViolation("pulling popped a cell with no point to pull")
        (iq, s), later = held[0], held[1:]
        up = [g for g, sg in enumerate(s) if sg > 0]
        inside = {g: [] for g in up}
        for x in later:
            # the facets G of least sigma_G(x) / s_G, through which the ray
            # from q through x leaves the cell, are those of the cones q * G
            # that hold x
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
                # a simplex cone: pulling one of its own vertices rebuilds it
                inside[g] = [x for x in inside[g] if x[0] not in on]
                if not inside[g]:
                    cells.append(tuple(sorted(on | {iq})))
                    continue
            pencils = list(_ridge_pencils(facets, s, g, range(len(facets)), iq))
            cone = [facets[g], *(f for _, _, f in pencils)]
            # the pencil facet's slack is (s_G sigma_H - s_H sigma_G) / d
            inherited = [
                (i, (sigma[g], *((s[g] * sigma[h] - s[h] * sigma[g]) // d for h, d, _ in pencils)))
                for i, sigma in inside[g]
            ]
            stack.append((cone, inherited))

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
