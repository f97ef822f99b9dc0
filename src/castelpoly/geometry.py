"""Lattice polytope kernel: validated construction, facets, membership,
dilate enumeration, edges, smoothness.

A polytope is built from integer points only and must be full-dimensional in
its ambient space. Facets are found by brute force over vertex subsets, which
is exact and entirely adequate at this scale (<= ~20 vertices, dimension <= 7).
Dilate scans run on int64 numpy arrays when a precomputed bound shows the
arithmetic cannot overflow, and fall back to pure Python big ints otherwise,
so results are exact on every path.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, prod

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptyInput,
    NotFullDimensional,
    SubsetCapExceeded,
)
from .exact_linalg import IntMatrix, det, rank

LatticePoint = tuple[int, ...]

DEFAULT_BUDGET = 10**8
DEFAULT_SUBSET_CAP = 10**6

# int64 dot products are provably safe below this; see _numpy_safe.
_INT64_SAFE = 2**62


@dataclass(frozen=True, order=True)
class Facet:
    """Supporting inequality normal . x <= offset with primitive normal."""

    normal: tuple[int, ...]
    offset: int

    def value(self, x):
        return sum(a * c for a, c in zip(self.normal, x))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    return tuple(x // g for x in vec), g


def _affine_rank(points) -> int:
    """Dimension of the affine hull of the given points."""
    if len(points) < 2:
        return 0
    base = points[0]
    diffs = [tuple(x - b for x, b in zip(p, base)) for p in points[1:]]
    return rank(IntMatrix.from_rows(diffs))


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


def _facets_of_points(points, n):
    """All facets of conv(points), assuming the points affinely span R^n.

    Tries every n-subset spanning a hyperplane and keeps the inequality when
    all points lie weakly on one side. Any supporting hyperplane whose contact
    set contains n affinely independent points is a facet hyperplane, so this
    enumeration is complete and irredundant after deduplication.
    """
    m = len(points)
    if comb(m, n) > DEFAULT_SUBSET_CAP:
        raise SubsetCapExceeded(
            f"facet enumeration over C({m},{n}) vertex subsets exceeds the cap {DEFAULT_SUBSET_CAP}"
        )
    seen = {}
    for subset in itertools.combinations(range(m), n):
        base = points[subset[0]]
        diffs = [
            tuple(x - b for x, b in zip(points[i], base)) for i in subset[1:]
        ]
        normal = _cross(diffs, n)
        if all(x == 0 for x in normal):
            continue
        offset = _dot(normal, base)
        below = above = False
        for p in points:
            v = _dot(normal, p)
            if v > offset:
                above = True
            elif v < offset:
                below = True
            if above and below:
                break
        if above and below:
            continue
        if above:
            normal = tuple(-x for x in normal)
            offset = -offset
        normal, g = _primitive(normal)
        offset //= g  # offset = normal . base, so g divides it
        seen[(normal, offset)] = Facet(normal, offset)
    return sorted(seen.values())


def memo(fn):
    """Memoize ``fn(p, ...)`` in the memo dict of the polytope ``p``, keyed by
    fn's qualified name and its other arguments with defaults filled in."""
    sig = inspect.signature(fn)
    arity = len(sig.parameters)

    @functools.wraps(fn)
    def cached(*args, **kwargs):
        if kwargs or len(args) != arity:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        key = (fn.__qualname__, *args[1:])
        table = args[0]._memo
        if key not in table:
            table[key] = fn(*args)
        return table[key]

    return cached


class Polytope:
    """Immutable full-dimensional lattice polytope (vertices + facets).

    Use :func:`build_polytope`, which also fixes ``budget``, the cap on the
    bounding-box cells of one dilate scan; invariants are memoized per polytope.
    """

    __slots__ = ("dim", "vertices", "facets", "discarded_points", "budget", "_memo")

    def __init__(self, dim, vertices, facets, discarded_points=()):
        self.dim = dim
        self.vertices = tuple(sorted(vertices))
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

    def _box(self, k):
        los = [min(k * v[i] for v in self.vertices) for i in range(self.dim)]
        his = [max(k * v[i] for v in self.vertices) for i in range(self.dim)]
        return los, his

    def _numpy_safe(self, k, los, his):
        kb_max = max(abs(k * f.offset) for f in self.facets)
        dot_max = max(
            sum(abs(a) * max(abs(lo), abs(hi)) for a, lo, hi in zip(f.normal, los, his))
            for f in self.facets
        )
        return kb_max < _INT64_SAFE and dot_max < _INT64_SAFE

    def _scan(self, k, collect: bool):
        """One pass over the integer bounding box of kP.

        Returns (closed_count, interior_count, points or None). The interior
        tallies come for free from the same facet values.
        """
        if k < 1:
            raise ValueError("dilation factor must be >= 1")
        los, his = self._box(k)
        widths = [hi - lo + 1 for lo, hi in zip(los, his)]
        total = prod(widths)
        if total > self.budget:
            raise BudgetExceeded(total, self.budget)
        normals = [f.normal for f in self.facets]
        offsets = [k * f.offset for f in self.facets]
        if total < _INT64_SAFE and self._numpy_safe(k, los, his):
            return self._scan_numpy(los, widths, total, normals, offsets, collect)
        return self._scan_python(los, his, normals, offsets, collect)

    def _scan_numpy(self, los, widths, total, normals, offsets, collect):
        a = np.array(normals, dtype=np.int64).T  # n x F
        b = np.array(offsets, dtype=np.int64)
        lo = np.array(los, dtype=np.int64)
        w = np.array(widths, dtype=np.int64)
        n = self.dim
        closed = 0
        interior = 0
        pts: list[LatticePoint] = []
        chunk = 1 << 20
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            coords = np.empty((idx.shape[0], n), dtype=np.int64)
            rem = idx
            for i in range(n - 1, -1, -1):
                rem, cur = np.divmod(rem, w[i])
                coords[:, i] = cur + lo[i]
            vals = coords @ a
            closed_mask = np.all(vals <= b, axis=1)
            closed += int(closed_mask.sum())
            interior += int(np.all(vals < b, axis=1).sum())
            if collect and closed_mask.any():
                pts.extend(tuple(row) for row in coords[closed_mask].tolist())
        return closed, interior, frozenset(pts) if collect else None

    def _scan_python(self, los, his, normals, offsets, collect):
        closed = 0
        interior = 0
        pts = []
        ranges = [range(lo, hi + 1) for lo, hi in zip(los, his)]
        for x in itertools.product(*ranges):
            inside = True
            strict = True
            for a, b in zip(normals, offsets):
                v = _dot(a, x)
                if v > b:
                    inside = False
                    strict = False
                    break
                if v == b:
                    strict = False
            if inside:
                closed += 1
                if collect:
                    pts.append(x)
            if strict:
                interior += 1
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
        return self._counts(k)[1]

    @memo
    def lattice_points(self, k: int) -> frozenset[LatticePoint]:
        """The integer points of the dilate kP."""
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

    def active_facets(self, x) -> tuple[Facet, ...]:
        return tuple(f for f in self.facets if f.value(x) == f.offset)

    @memo
    def edges(self) -> tuple[tuple[LatticePoint, LatticePoint], ...]:
        """Vertex pairs whose common active facet normals have rank n-1.

        For a polytope the smallest face containing two vertices is the
        intersection of the facets containing both, so that rank condition
        says the pair spans a 1-dimensional face.
        """
        n = self.dim
        out = []
        active = {v: self.active_facets(v) for v in self.vertices}
        for u, v in itertools.combinations(self.vertices, 2):
            common = [f.normal for f in active[u] if f.value(v) == f.offset]
            if len(common) < n - 1:
                continue
            if n == 1 or rank(IntMatrix.from_rows(common)) == n - 1:
                out.append((u, v))
        return tuple(out)

    def is_smooth(self) -> bool:
        """Simple with primitive edge directions forming a lattice basis at
        every vertex (determinant +-1)."""
        n = self.dim
        incident: dict[LatticePoint, list[LatticePoint]] = {v: [] for v in self.vertices}
        for u, v in self.edges():
            incident[u].append(v)
            incident[v].append(u)
        for v, nbrs in incident.items():
            if len(nbrs) != n:
                return False
            dirs = []
            for w in nbrs:
                d = tuple(a - b for a, b in zip(w, v))
                dirs.append(_primitive(d)[0])
            if abs(det(dirs)) != 1:
                return False
        return True


def build_polytope(points, budget: int = DEFAULT_BUDGET) -> Polytope:
    """Validate points, enumerate facets, and classify vertices.

    Non-vertex input points (convex combinations of the others) are discarded
    but reported on the result; degenerate input is a hard error because every
    downstream invariant assumes full dimension. A dilate scan of the result
    beyond ``budget`` bounding-box cells raises :class:`BudgetExceeded`.
    """
    pts = [tuple(int(c) for c in p) for p in points]
    if not pts:
        raise EmptyInput("no points given")
    n = len(pts[0])
    if n == 0:
        raise EmptyInput("points must have at least one coordinate")
    if any(len(p) != n for p in pts):
        raise DimensionMismatch("all points must share one length")
    unique = sorted(set(pts))
    if _affine_rank(unique) < n:
        raise NotFullDimensional(
            f"affine hull has dimension {_affine_rank(unique)} < ambient {n}"
        )
    facets = _facets_of_points(unique, n)
    vertices = []
    discarded = []
    for p in unique:
        active = [f.normal for f in facets if f.value(p) == f.offset]
        if len(active) >= n and rank(IntMatrix.from_rows(active)) == n:
            vertices.append(p)
        else:
            discarded.append(p)
    p = Polytope(n, vertices, facets, discarded)
    p.budget = budget
    return p
