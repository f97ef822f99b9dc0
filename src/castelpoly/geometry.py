"""Lattice polytope kernel: validated construction, facets, membership,
dilate enumeration, edges, smoothness.

A polytope is built from integer points only and must be full-dimensional in
its ambient space. Its facets come from an integer beneath-beyond hull: a
greedy starting simplex, then one point at a time, with each facet carrying
the input points on it. The polytope's facets keep these sets, cut down to
its vertices. A point set is a face's vertex set when it equals the meet of
the facets through it (all points, when there are none): a point is a
vertex when those facets meet in it alone, and two vertices span an edge
when they meet in the pair. P is smooth when every vertex lies on exactly n
facets and their normals form a lattice basis (Cox, Little and Schenck,
Toric Varieties, section 2.4), which the same sets tell. The
ridge-and-pencil step that adds the facets through a new point is shared
with the pulling triangulation, which refines cells the same way.

Dilate scans go fiber by fiber. Along the widest axis j of the bounding box
of kP, each line through an integer point x' of the box of the other
coordinates meets kP in an integer interval of x_j. Each facet a.x <= k b
bounds it by an exact floor division of the slack r = k b - a'.x' by a_j, and
the bounds from r - 1 give the interior. The scan budget counts these fibers.
The box of kP is k times the box of P, so the axis and everything else that
does not depend on k is worked out once per polytope.

The arithmetic is int64 numpy when no intermediate can overflow, and Python
ints otherwise, so results are exact on every path. Let B be the largest
|k b| + sum over i != j of |a_i| * max |x_i| on the box. It bounds |r| and
every partial sum of a'.x', so r - 1, the floor quotients and their
negations stay within B + 1, and an interval length hi - lo + 1 within
2B + 3. A non-empty interval holds points of kP only, so the lengths summed
over one chunk of fibers are at most the chunk size times the box width
along j; the collected x_j lie in the box. Int64 is used when these bounds
are at most 2^63 - 1.
"""

from __future__ import annotations

import functools
import itertools
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import NamedTuple

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptyInput,
    NonIntegerCoordinate,
    NotFullDimensional,
)
from .exact_linalg import det, hermite_insert

LatticePoint = tuple[int, ...]

DEFAULT_BUDGET = 10**8

_INT64_MAX = 2**63 - 1
# entries of the fibers-by-facets array of one chunk of a dilate scan
_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True, order=True)
class Facet:
    """Supporting inequality normal . x <= offset with primitive normal, and
    the indices of the vertices on it in the polytope's sorted ``vertices``."""

    normal: tuple[int, ...]
    offset: int
    vertices: frozenset[int]

    def value(self, x):
        return sum(a * c for a, c in zip(self.normal, x))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _primitive(vec):
    g = gcd(*vec)
    return tuple(x // g for x in vec), g


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


def _is_face(members, sets, universe):
    """Whether ``members`` is a face's vertex set: the meet of the facet point
    sets in ``sets`` that hold it, or ``universe`` if none does, equals it."""
    through = [s for s in sets if members <= s]
    return (frozenset.intersection(*through) if through else universe) == members


def _starting_simplex(points):
    """Indices of affinely independent points, taken greedily in order, as
    many as the affine dimension of the points plus one."""
    base = points[0]
    chosen = [0]
    basis = []
    for i in range(1, len(points)):
        if hermite_insert(basis, [x - b for x, b in zip(points[i], base)]):
            chosen.append(i)
            if len(basis) == len(base):
                break
    return chosen


def _ridge_pencils(facets, slack, g, others, apex):
    """The hyperplanes through q and the ridges that the facet g shares with
    the facets in ``others``.

    ``facets`` holds (normal a, offset b, set of point indices on it), and
    ``slack`` the slacks s = b - a.q of a point q, with s_g > 0. G and H meet
    in a ridge when no third facet holds all their common points; in
    dimension 1 the two end points meet in the empty ridge. For each such H,
    yields the member (s_g a_h - s_h a_g).x <= s_g b_h - s_h b_g of the
    pencil of hyperplanes through G & H that passes through q, made
    primitive, with G on its inner side and the point set (G & H) + {apex},
    where ``apex`` is the index of q. Each comes as (h, d, facet), where d is
    the gcd that making the normal primitive divided out.
    """
    a_g, b_g, on_g = facets[g]
    # a ridge spans n - 2 dimensions, so it holds at least n - 1 points
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
        # q lies on the hyperplane, so d divides the offset
        yield h, d, (normal, (slack[g] * b_h - slack[h] * b_g) // d, ridge | {apex})


def _beneath_beyond(points, simplex):
    """Facets of conv(points) as (primitive normal, offset, indices of the
    points on it), by the beneath-beyond method (Joswig, "Beneath-and-Beyond
    Revisited", 2003) in integer arithmetic.

    The hull starts as the full-dimensional ``simplex``; the other points
    are added in order. With slacks s = b - a.q, the facets with s < 0 see q
    and are dropped, the facets with s = 0 gain q, and every ridge between a
    dropped facet G and a kept facet H with s_H > 0 spans a new facet with q
    (see :func:`_ridge_pencils`). On points of the old hull that facet is a
    positive combination of G and H, so the old points on it are exactly
    those on G & H, and every point set stays complete.
    """
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
    start = set(simplex)
    for iq, q in enumerate(points):
        if iq in start:
            continue
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
                    kept.extend(f for _, _, f in _ridge_pencils(facets, slack, h, visible, iq))
        facets = kept
    return facets


def _grid(lo, widths, start, stop, dtype):
    """Coordinates of the row-major indices start..stop-1 of the box with
    lower corner ``lo`` and the given widths, one row per index."""
    idx = np.arange(start, stop).astype(dtype, copy=False)
    x = np.empty((stop - start, len(widths)), dtype=dtype)
    for c in range(len(widths) - 1, -1, -1):
        x[:, c] = idx % widths[c] + lo[c]
        idx = idx // widths[c]
    return x


def _fiber_intervals(r, runs, div, nneg, npos):
    """Each fiber's interval of x_j in kP and in its interior.

    ``r`` holds the facet slacks, one row per facet and one column per fiber.
    ``runs`` gives the (start, end) rows of the facets that share a_j, in
    increasing a_j: ``nneg`` negative, at most one zero, ``npos`` positive;
    ``div`` holds |a_j| per run (1 for a_j = 0). Floor division by a
    positive number is monotone, so a run's bound comes from its smallest
    slack. Returns the first x_j of each closed interval, and the closed and
    interior lengths (0 where empty) as the two rows of one array.
    """
    q = np.empty((2, len(runs), r.shape[1]), dtype=r.dtype)
    for i, (start, end) in enumerate(runs):
        r[start:end].min(axis=0, out=q[0, i])
    np.subtract(q[0], 1, out=q[1])
    q //= div
    first = -q[:, :nneg].min(axis=1)
    length = np.maximum(q[:, len(runs) - npos :].min(axis=1) - first + 1, 0)
    if nneg + npos < len(runs):
        # the run with a_j = 0 needs slack >= 0, and >= 1 for the interior
        length = np.where(q[:, nneg] >= 0, length, 0)
    return first[0], length


class _ScanPlan(NamedTuple):
    """What :meth:`Polytope._scan` needs of P for every dilate: the corners
    of P's bounding box, its widest axis j and the other axes; the facets
    sorted by a_j, as the row runs of equal a_j with ``nneg`` negative and
    ``npos`` positive values; the fibers per chunk; the facet normals without
    a_j, the offsets and |a_j| per run (1 for a_j = 0), as Python ints; and
    P's share of the bound B of :meth:`Polytope._int64_safe`."""

    los: list[int]
    his: list[int]
    axis: int
    rest: list[int]
    runs: list[tuple[int, int]]
    nneg: int
    npos: int
    chunk: int
    normals: np.ndarray
    offsets: np.ndarray
    div: np.ndarray
    bound: int


def memo(fn):
    """Memoize ``fn(p, *args)`` in the memo dict of the polytope ``p``, keyed
    by fn's qualified name and the positional arguments ``args``."""

    @functools.wraps(fn)
    def cached(p, *args):
        key = (fn.__qualname__, *args)
        table = p._memo
        if key not in table:
            table[key] = fn(p, *args)
        return table[key]

    return cached


class Polytope:
    """Immutable full-dimensional lattice polytope: its sorted vertices and
    its facets, each with the indices of the vertices on it.

    Use :func:`build_polytope`, which also fixes ``budget``, the cap on the
    fibers of one dilate scan; invariants are memoized per polytope.
    """

    __slots__ = ("dim", "vertices", "facets", "discarded_points", "budget", "_memo")

    def __init__(self, dim, vertices, facets, discarded_points=()):
        self.dim = dim
        # sorted by the caller: the facets' vertex indices refer to this order
        self.vertices = tuple(vertices)
        self.facets = tuple(sorted(facets))
        self.discarded_points = tuple(sorted(discarded_points))
        self.budget = DEFAULT_BUDGET
        self._memo: dict = {}

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, facets={len(self.facets)})"

    @property
    def had_nonvertex_input(self) -> bool:
        return bool(self.discarded_points)

    # -- membership ---------------------------------------------------------

    def contains(self, x, mode: str = "closed") -> bool:
        """Exact membership test; x may have int or Fraction coordinates."""
        if len(x) != self.dim:
            raise DimensionMismatch(
                f"point has length {len(x)}, ambient dimension is {self.dim}"
            )
        if mode not in ("closed", "interior"):
            raise ValueError("mode must be 'closed' or 'interior'")
        xs = tuple(Fraction(c) if not isinstance(c, int) else c for c in x)
        for f in self.facets:
            v = f.value(xs)
            if mode == "closed":
                if v > f.offset:
                    return False
            else:
                if v >= f.offset:
                    return False
        return True

    # -- dilate scans --------------------------------------------------------

    @memo
    def _scan_plan(self) -> _ScanPlan:
        """The part of every dilate scan that does not depend on k.

        kP's box is k times P's box, so its widest axis, and with it the
        facet runs and the normals, are the same for every k; each int64
        bound of :meth:`_int64_safe` is affine in k.
        """
        los = [min(v[i] for v in self.vertices) for i in range(self.dim)]
        his = [max(v[i] for v in self.vertices) for i in range(self.dim)]
        axis = max(range(self.dim), key=lambda i: his[i] - los[i])
        rest = [i for i in range(self.dim) if i != axis]
        facets = sorted(self.facets, key=lambda f: f.normal[axis])
        column = [f.normal[axis] for f in facets]
        values = sorted(set(column))
        return _ScanPlan(
            los=los,
            his=his,
            axis=axis,
            rest=rest,
            runs=[(bisect_left(column, aj), bisect_right(column, aj)) for aj in values],
            nneg=bisect_left(values, 0),
            npos=len(values) - bisect_right(values, 0),
            chunk=max(1, _CHUNK_ENTRIES // len(facets)),
            normals=np.array([[f.normal[i] for i in rest] for f in facets], dtype=object),
            offsets=np.array([[f.offset] for f in facets], dtype=object),
            div=np.array([[abs(aj) or 1] for aj in values], dtype=object),
            bound=max(
                abs(f.offset)
                + sum(abs(f.normal[i]) * max(abs(los[i]), abs(his[i])) for i in rest)
                for f in facets
            ),
        )

    def _int64_safe(self, k) -> bool:
        """Whether every intermediate of the fiber scan of kP fits in int64
        (see the module docstring for the bounds); B is k times the plan's
        ``bound``."""
        plan = self._scan_plan()
        lo, hi = plan.los[plan.axis], plan.his[plan.axis]
        reach = k * max(abs(lo), abs(hi))
        width = k * (hi - lo) + 1
        return max(2 * k * plan.bound + 3, reach, plan.chunk * width) <= _INT64_MAX

    def _scan(self, k, collect: bool):
        """Count, and optionally collect, the lattice points of kP by fibers.

        Along the widest axis j of kP's bounding box, each line through a
        point x' of the box of the other coordinates meets kP in an integer
        interval of x_j. A facet a.x <= k b gives a_j x_j <= r with
        r = k b - a'.x': x_j <= floor(r / a_j) if a_j > 0,
        x_j >= -floor(r / -a_j) if a_j < 0, and r >= 0 if a_j = 0. On
        integers a.x < k b means a.x <= k b - 1, so the same bounds on r - 1
        give the interior count in the same pass. The arithmetic is int64
        when :meth:`_int64_safe` allows it and Python ints otherwise. Raises
        :class:`BudgetExceeded` beyond ``budget`` fibers.

        Returns (closed_count, interior_count, points or None).
        """
        if k < 1:
            raise ValueError("dilation factor must be >= 1")
        n = self.dim
        plan = self._scan_plan()
        axis, rest, chunk = plan.axis, plan.rest, plan.chunk
        lo = [k * plan.los[i] for i in rest]
        widths = [k * (plan.his[i] - plan.los[i]) + 1 for i in rest]
        fibers = prod(widths)
        if fibers > self.budget:
            raise BudgetExceeded(fibers, self.budget)
        dtype = np.int64 if self._int64_safe(k) else object
        a = plan.normals.astype(dtype, copy=False)
        kb = (k * plan.offsets).astype(dtype, copy=False)
        div = plan.div.astype(dtype, copy=False)
        # Fibers run in row-major order. The trailing coordinates that fit in
        # a chunk form a block whose share of the slacks is computed once;
        # each chunk adds the share of a run of leading coordinates.
        split = n - 1
        block = 1
        while split > 0 and block * widths[split - 1] <= chunk:
            split -= 1
            block *= widths[split]
        inner = _grid(lo[split:], widths[split:], 0, block, dtype)
        inner_slack = kb - a[:, split:] @ inner.T
        leading = prod(widths[:split])
        per_chunk = max(1, chunk // block)
        closed = 0
        interior = 0
        pts: set[LatticePoint] = set()
        for start in range(0, leading, per_chunk):
            outer = _grid(lo[:split], widths[:split], start, min(start + per_chunk, leading), dtype)
            r = inner_slack[:, None, :] - (a[:, :split] @ outer.T)[:, :, None]
            r = r.reshape(len(a), -1)
            first, lengths = _fiber_intervals(r, plan.runs, div, plan.nneg, plan.npos)
            sums = lengths.sum(axis=1)
            closed += int(sums[0])
            interior += int(sums[1])
            if collect:
                hit = np.flatnonzero(lengths[0])
                reps = lengths[0, hit].astype(np.int64)
                ends = np.cumsum(reps)
                offsets = np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - reps, reps)
                rows = np.empty((len(offsets), n), dtype=dtype)
                rows[:, axis] = np.repeat(first[hit], reps) + offsets
                rows[:, rest[:split]] = np.repeat(outer[hit // block], reps, axis=0)
                rows[:, rest[split:]] = np.repeat(inner[hit % block], reps, axis=0)
                pts.update(map(tuple, rows.tolist()))
        return closed, interior, frozenset(pts) if collect else None

    @memo
    def _counts(self, k):
        """(closed, interior) lattice-point counts of kP."""
        closed, interior, _ = self._scan(k, collect=False)
        return closed, interior

    def lattice_count(self, k: int) -> int:
        """|kP intersect Z^n| without materializing the point set."""
        if k == 0:
            return 1
        return self._counts(k)[0]

    def interior_lattice_count(self, k: int) -> int:
        """Lattice points in the interior of kP; the interior of 0P is empty."""
        if k == 0:
            return 0
        return self._counts(k)[1]

    @memo
    def lattice_points(self, k: int) -> frozenset[LatticePoint]:
        """The integer points of the dilate kP; 0P is the origin."""
        if k == 0:
            return frozenset([(0,) * self.dim])
        closed, interior, pts = self._scan(k, collect=True)
        # the collecting scan also counted, so later counts of kP need no scan
        self._memo.setdefault(("Polytope._counts", k), (closed, interior))
        return pts

    def interior_lattice_points(self, k: int) -> frozenset[LatticePoint]:
        """Integer points strictly inside kP (filtered from the closed set)."""
        pts = self.lattice_points(k)
        return frozenset(
            p
            for p in pts
            if all(f.value(p) < k * f.offset for f in self.facets)
        )

    # -- combinatorics -------------------------------------------------------

    @memo
    def edges(self) -> tuple[tuple[LatticePoint, LatticePoint], ...]:
        """Vertex pairs that span a 1-dimensional face: the facets through
        both meet in exactly the pair (see :func:`_is_face`)."""
        v = self.vertices
        sets = [f.vertices for f in self.facets]
        universe = frozenset(range(len(v)))
        pairs = itertools.combinations(range(len(v)), 2)
        return tuple((v[i], v[j]) for i, j in pairs if _is_face({i, j}, sets, universe))

    def is_smooth(self) -> bool:
        """Whether the toric variety of P is smooth: every vertex lies on
        exactly n facets, and their normals form a lattice basis
        (determinant +-1)."""
        at_vertex: list[list[tuple[int, ...]]] = [[] for _ in self.vertices]
        for f in self.facets:
            for i in f.vertices:
                at_vertex[i].append(f.normal)
        return all(len(normals) == self.dim and abs(det(normals)) == 1 for normals in at_vertex)


def _coordinate(c) -> int:
    """An integer coordinate as a Python int; anything else is refused."""
    if not isinstance(c, bool):
        try:
            return operator.index(c)
        except TypeError:
            pass
    raise NonIntegerCoordinate(f"coordinate {c!r} is not an integer")


def build_polytope(points, budget: int = DEFAULT_BUDGET) -> Polytope:
    """Validate points, compute the facets, and classify vertices.

    Coordinates must be integers (``int`` or anything ``operator.index``
    accepts, but not ``bool``). Non-vertex input points (convex combinations
    of the others) are discarded but reported on the result; degenerate
    input is a hard error because every downstream invariant assumes full
    dimension. A dilate scan of the result beyond ``budget`` fibers raises
    :class:`BudgetExceeded`.
    """
    pts = [tuple(_coordinate(c) for c in p) for p in points]
    if not pts:
        raise EmptyInput("no points given")
    n = len(pts[0])
    if n == 0:
        raise EmptyInput("points must have at least one coordinate")
    if any(len(p) != n for p in pts):
        raise DimensionMismatch("all points must share one length")
    unique = sorted(set(pts))
    simplex = _starting_simplex(unique)
    if len(simplex) <= n:
        raise NotFullDimensional(
            f"affine hull has dimension {len(simplex) - 1} < ambient {n}"
        )
    facets = _beneath_beyond(unique, simplex)
    sets = [on for _, _, on in facets]
    universe = frozenset(range(len(unique)))
    kept = [i for i in range(len(unique)) if _is_face({i}, sets, universe)]
    position = {i: k for k, i in enumerate(kept)}
    p = Polytope(
        n,
        [unique[i] for i in kept],
        [Facet(a, b, frozenset(position[i] for i in on if i in position)) for a, b, on in facets],
        [q for i, q in enumerate(unique) if i not in position],
    )
    p.budget = budget
    return p
