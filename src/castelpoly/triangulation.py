"""Pulling triangulations, f/h-vectors, unimodularity, and the h* criterion.

The triangulation is built by pulling the lattice points one at a time in
lexicographic order: each point refines every cell containing it into cones
over the cell's facets that miss the point. Pulling every point guarantees
the final cells are simplices and every lattice point is used as a vertex,
which is what the unimodularity criterion needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .ehrhart import hstar, normalized_volume
from .errors import InvariantViolation
from .exact_linalg import det
from .geometry import LatticePoint, Polytope, _dot, _facets_of_points, memo


@dataclass(frozen=True)
class Triangulation:
    """Simplicial decomposition of a polytope on (a subset of) its lattice
    points; maximal simplices are (n+1)-tuples of indices into ``points``."""

    dim: int
    points: tuple[LatticePoint, ...]
    maximal_simplices: tuple[tuple[int, ...], ...]

    def simplex_points(self, simplex):
        return tuple(self.points[i] for i in simplex)

    def simplex_volume(self, simplex) -> int:
        """Normalized volume |det of edge vectors| of one maximal simplex."""
        pts = self.simplex_points(simplex)
        base = pts[0]
        rows = [tuple(x - b for x, b in zip(q, base)) for q in pts[1:]]
        return abs(det(rows))


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

    facet_cache: dict[tuple[int, ...], list] = {}

    def cell_facets(cell):
        """Facets of a cell, each as (normal, offset, vertex index tuple)."""
        got = facet_cache.get(cell)
        if got is None:
            coords = [points[i] for i in cell]
            got = []
            for f in _facets_of_points(coords, n):
                on = tuple(i for i in cell if f.value(points[i]) == f.offset)
                got.append((f.normal, f.offset, on))
            facet_cache[cell] = got
        return got

    cells = [tuple(index[v] for v in p.vertices)]
    for pid, pt in enumerate(points):
        new_cells = []
        for cell in cells:
            facets = cell_facets(cell)
            if any(_dot(a, pt) > b for a, b, _ in facets):
                new_cells.append(cell)
                continue
            for a, b, on in facets:
                if _dot(a, pt) == b:
                    continue
                new_cells.append(tuple(sorted(on + (pid,))))
        cells = new_cells

    if any(len(c) != n + 1 for c in cells):
        raise InvariantViolation("pulling left a non-simplex cell")
    if len(set(cells)) != len(cells):
        raise InvariantViolation("pulling produced duplicate cells")
    t = Triangulation(n, points, tuple(sorted(cells)))
    covered = sum(t.simplex_volume(s) for s in t.maximal_simplices)
    if covered != normalized_volume(p):
        raise InvariantViolation(
            "triangulation volumes do not add up to the normalized volume"
        )
    return t


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
    return all(t.simplex_volume(s) == 1 for s in t.maximal_simplices)


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
