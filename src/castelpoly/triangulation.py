"""Pulling triangulations, f/h-vectors, unimodularity, and the h* criterion.

The triangulation is built by pulling the lattice points one at a time in
lexicographic order: each point refines every cell containing it into cones
over the cell's facets that miss the point. Pulling every point guarantees
the final cells are simplices and every lattice point is used as a vertex,
which is what the unimodularity criterion needs.

A facet cell is its list of facets a.x <= b, each with the cell's vertices
on it as a bitmask, sum 2^i over their indices i in the sorted lattice
points of P; P with its stored facets is the first cell. Each cell carries
the later lattice points, in pull order, that lie in it, and pulls the
first of them, q. In a facet cell each point carries its slacks
sigma = b - a.x against the cell's facets, and q's slacks are s. The cone
q * G over a facet G with s_G > 0 has the facet G and, for every other facet
H that meets G in a ridge, the member
(s_G a_H - s_H a_G).x <= s_G b_H - s_H b_G of the pencil of hyperplanes
through G & H that passes through q, divided by the gcd d of its normal,
with vertices (G & H) + {q}, the AND of the masks with q's bit set. Two
facets meet in a ridge when the AND of their masks holds at least n - 1
vertices and no third facet's mask holds all of it; in dimension 1 the two
end points meet in the empty ridge. So the facets of every cell follow from its
parent's without a hull search, by the same step
(:func:`geometry._ridge_pencils`) as the beneath-beyond hull of P. A facet
whose mask holds n vertices bounds a simplex cone. Four rules decide the
rest:

* Inherited slacks. Only P's facets are evaluated at points, and, when a
  simplex cell is formed, each of its facets at the opposite vertex. A
  point's slacks in the cone q * G are sigma_G and, for the pencil facet of
  H, (s_G sigma_H - s_H sigma_G) / d, an exact division.
* Ray exit. A later point x lies in the cone q * G exactly when G attains
  the least sigma_G(x) / s_G over the facets with s_G > 0: the ray from q
  through x leaves the cell through G. Ratios are compared by
  cross-multiplication, and a tie puts x in every cone that attains it.
* Leaf cones. A cone over a facet G with n vertices is a simplex, and
  pulling one of its own vertices would rebuild it, so G's vertices leave
  its points when it is formed. A simplex cone with no point left is a
  maximal simplex at once, and its facets are never built.
* Simplex cells. A simplex cone that keeps points drops its facets. With
  vertices v_0..v_n and normalized volume V, each point x carries its volume
  coordinates beta_j(x) = V lambda_j(x), lambda the barycentric coordinates:
  by Cramer's rule the determinant with v_j replaced by x, an integer, and
  the beta_j add up to V. When the cone is formed, beta_j = sigma_j V / h_j,
  with h_j the slack of v_j against the facet opposite it. Since
  sigma_j = h_j lambda_j, the ray exit compares beta_i(x) / beta_i(q) over
  the i with beta_i(q) > 0. Cone i replaces v_i by q, has volume beta_i(q),
  and gives x the coordinates beta_i(x) and, for j != i,
  (beta_i(q) beta_j(x) - beta_j(q) beta_i(x)) / V, an exact division;
  every point's coordinates are checked to add up to the cone's volume. A
  point is never a vertex of its simplex cell, so no filter is needed, and
  a cone that gets no point is a maximal simplex.

Empty simplex cones are the only cells that close: every cell on the stack
holds a point and pulls the first one.

The work around the pulling loop has no dependency from one item to the
next and runs as one array pass each: the root slacks are one matrix
product, the volumes of all maximal simplices one batched fraction-free
Bareiss elimination (Bareiss, Math. Comp. 22, 1968), and the faces of each
size in :func:`h_vector` one count of distinct integer keys. Each pass has
its bound under the one overflow rule of ``geometry``:

* slacks: max over the facets of |b| + max|x_i| * sum |a_i|;
* volumes: 2 n^n W^(2n), W the widest side of the points' box;
* face keys: m^(n+1), m the number of points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .ehrhart import hstar, normalized_volume
from .errors import InvariantViolation
from .exact_linalg import det
from .geometry import (
    LatticePoint,
    Polytope,
    _bits,
    _dot,
    _exact_dtype,
    _mask,
    _ridge_pencils,
    memo,
)


def _volumes(points, simplices, n) -> tuple[int, ...]:
    """Normalized volumes |det| of the edge matrices of the n-simplices
    ``simplices`` (tuples of n+1 indices into the rows of ``points``), by
    one fraction-free Bareiss elimination over all of them at once.

    Each matrix swaps in its own pivot row. Every intermediate is a minor of
    an edge matrix, so with W the widest side of the points' box it is at
    most H = (sqrt(n) W)^n by Hadamard's inequality, and a numerator at most
    2 H^2, so 2 n^n W^(2n) is the pass's bound. Raises
    :class:`InvariantViolation` on a degenerate simplex or an inexact
    division.
    """
    pts = np.array(points, dtype=object)
    lo = pts.min(axis=0)
    width = max(pts.max(axis=0) - lo)
    dtype = _exact_dtype(2 * n**n * width ** (2 * n))
    pts = (pts - lo).astype(dtype)
    idx = np.array(simplices, dtype=np.intp).reshape(-1, n + 1)
    a = pts[idx[:, 1:]] - pts[idx[:, :1]]
    prev = 1
    for k in range(n - 1):
        nonzero = a[:, k:, k] != 0
        if not nonzero.any(axis=1).all():
            raise InvariantViolation("a simplex of the triangulation is degenerate")
        pivot_row = k + nonzero.argmax(axis=1)
        swap = np.flatnonzero(pivot_row != k)
        a[swap, k], a[swap, pivot_row[swap]] = a[swap, pivot_row[swap]], a[swap, k]
        pivot = a[:, k, k][:, None, None]
        num = a[:, k + 1 :, k + 1 :] * pivot - a[:, k + 1 :, k : k + 1] * a[:, k : k + 1, k + 1 :]
        if (num % prev).any():
            raise InvariantViolation("Bareiss division was not exact")
        a[:, k + 1 :, k + 1 :] = num // prev
        prev = pivot
    last = a[:, n - 1, n - 1]
    if (last == 0).any():
        raise InvariantViolation("a simplex of the triangulation is degenerate")
    return tuple(np.abs(last).tolist())


def _root_slacks(p: Polytope, points) -> list[list[int]]:
    """Slacks b - a.x of every row x of the integer array ``points`` against
    every facet of P, in one matrix product. Each partial sum of a.x is at
    most max|x_i| * sum |a_i|, so the pass's bound is the largest |b| plus
    that over the facets."""
    # |x_i| is convex, so its largest value over P is taken at a vertex
    reach = max(abs(c) for v in p.vertices for c in v)
    bound = max(abs(f.offset) + reach * sum(map(abs, f.normal)) for f in p.facets)
    dtype = _exact_dtype(bound)
    normals = np.array([f.normal for f in p.facets], dtype=dtype)
    offsets = np.array([f.offset for f in p.facets], dtype=dtype)
    return (offsets - points.astype(dtype) @ normals.T).tolist()


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


def _ray_exit_split(held):
    """The first held point q of a cell, as (index, slacks s), and for each
    facet g with s_g > 0 the later points in the cone q * G: those whose
    slacks sigma reach the least sigma_g / s_g there, compared by
    cross-multiplication, as the ray from q through them leaves the cell
    through G. Volume coordinates serve as slacks too."""
    (iq, s), later = held[0], held[1:]
    inside = {g: [] for g, sg in enumerate(s) if sg > 0}
    up = list(inside)
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
    return iq, s, inside


def _simplex_entry(points, on, iq, s_g, pencils, inherited):
    """The simplex cone q * G over a facet G with the n vertices of the mask
    ``on``, as (vertices, volume V, points with their volume coordinates
    beta).

    The cone's facets are G and the ``pencils`` through G's ridges, against
    which the points have the ``inherited`` slacks sigma; its vertex j is
    the one off its facet j: q for G, and for the pencil of H the vertex of
    G off H. Then beta_j = sigma_j * (V / h_j), with h_j the slack of
    vertex j.
    """
    if len(pencils) != on.bit_count():
        raise InvariantViolation("a simplex cone does not have a facet per ridge")
    verts = [iq]
    heights = [s_g]
    for _, _, (normal, offset, ridge) in pencils:
        (w,) = _bits(on & ~ridge)
        verts.append(w)
        heights.append(offset - _dot(normal, points[w]))
    q = points[iq]
    vol = abs(det([tuple(x - y for x, y in zip(points[w], q)) for w in verts[1:]]))
    if any(vol % h for h in heights):
        raise InvariantViolation("a simplex cone's volume is not a multiple of its heights")
    scale = [vol // h for h in heights]
    held = []
    for i, sigma in inherited:
        beta = [x * c for x, c in zip(sigma, scale)]
        if sum(beta) != vol:
            raise InvariantViolation("volume coordinates do not add up to the cell's volume")
        held.append((i, beta))
    return tuple(verts), vol, held


def _pull_simplex(verts, vol, held):
    """Pull the first held point q of a simplex cell: the cones (vertices,
    volume, points with their volume coordinates) over the facets that miss
    q, i.e. one for each i with beta_i(q) > 0. Cone i replaces vertex i by q
    and has volume beta_i(q)."""
    iq, bq, inside = _ray_exit_split(held)
    cones = []
    for i, members in inside.items():
        bi = bq[i]
        pulled = []
        for j, beta in members:
            b = beta[i]
            # Cramer's rule makes the division exact; the i-th term is 0
            new = [(bi * y - z * b) // vol for y, z in zip(beta, bq)]
            new[i] = b
            if sum(new) != bi:
                raise InvariantViolation("volume coordinates do not add up to the cell's volume")
            pulled.append((j, new))
        cones.append((verts[:i] + (iq,) + verts[i + 1 :], bi, pulled))
    return cones


@memo
def pulling_triangulation(p: Polytope) -> Triangulation:
    """Deterministic pulling triangulation on all lattice points of P."""
    n = p.dim
    array = p._points(1)
    points = tuple(map(tuple, array.tolist()))
    index = {pt: i for i, pt in enumerate(points)}

    # a facet cell's facets: (normal, offset, mask of the cell's vertices on
    # it), and its later points: (index, slacks b - a.x against those facets)
    corner = [index[v] for v in p.vertices]
    root = [(f.normal, f.offset, _mask(corner[i] for i in f.vertices)) for f in p.facets]
    held = [(i, tuple(s)) for i, s in enumerate(_root_slacks(p, array))]
    stack = [(root, held)]
    # a simplex cell: (vertices, volume, later points with their volume
    # coordinates)
    simplex_cells = []
    cells = []
    while stack:
        facets, held = stack.pop()
        if not held:
            raise InvariantViolation("pulling popped a cell with no point to pull")
        iq, s, inside = _ray_exit_split(held)
        for g, members in inside.items():
            on = facets[g][2]
            simplex = on.bit_count() == n
            if simplex:
                # a simplex cone: pulling one of its own vertices rebuilds it
                members = [x for x in members if not on >> x[0] & 1]
                if not members:
                    cells.append(tuple(_bits(on | 1 << iq)))
                    continue
            pencils = list(_ridge_pencils(facets, s, g, range(len(facets)), iq))
            # the pencil facet's slack is (s_G sigma_H - s_H sigma_G) / d
            inherited = [
                (i, (sigma[g], *((s[g] * sigma[h] - s[h] * sigma[g]) // d for h, d, _ in pencils)))
                for i, sigma in members
            ]
            if simplex:
                simplex_cells.append(_simplex_entry(points, on, iq, s[g], pencils, inherited))
            else:
                stack.append(([facets[g], *(f for _, _, f in pencils)], inherited))
    while simplex_cells:
        for cone in _pull_simplex(*simplex_cells.pop()):
            if cone[2]:
                simplex_cells.append(cone)
            else:
                cells.append(tuple(sorted(cone[0])))

    if any(len(c) != n + 1 for c in cells):
        raise InvariantViolation("pulling left a non-simplex cell")
    if len(set(cells)) != len(cells):
        raise InvariantViolation("pulling produced duplicate cells")
    simplices = tuple(sorted(cells))
    volumes = _volumes(array, simplices, n)
    if sum(volumes) != normalized_volume(p):
        raise InvariantViolation(
            "triangulation volumes do not add up to the normalized volume"
        )
    return Triangulation(n, points, simplices, volumes)


def h_vector(t: Triangulation) -> HVector:
    """f-vector by face keys and h-vector by the coefficient identity
    sum_i f_{i-1} (x-1)^{d-i} = sum_i h_i x^{d-i} with d = dim + 1.

    The r-subsets of the sorted maximal simplices are the faces with r
    vertices; the subset idx_0 < ... < idx_{r-1} of indices into m points
    gets the key sum_j idx_j m^j, and f_{r-1} is the number of distinct
    keys, counted in one sort. Keys are below m^d, the pass's bound.
    """
    d = t.dim + 1
    m = len(t.points)
    dtype = _exact_dtype(m**d)
    simplices = np.array(t.maximal_simplices, dtype=dtype).reshape(-1, d)
    weights = np.array([m**j for j in range(d)], dtype=dtype)
    f = [1]  # f[i] = number of faces with i vertices; f[0] is the empty face
    for r in range(1, d + 1):
        subsets = simplices[:, list(itertools.combinations(range(d), r))]
        keys = np.sort(subsets @ weights[:r], axis=None)
        # each distinct key starts a run of equal keys in sorted order
        f.append(int(keys.size > 0) + int(np.count_nonzero(keys[1:] != keys[:-1])))
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
