"""Lattice polytope kernel: validated construction, facets, dilate
enumeration, smoothness.

A polytope is built from integer points only and must be full-dimensional in
its ambient space. Its facets come from an integer beneath-beyond hull: a
greedy starting simplex, then one point at a time, farthest from the
simplex's centroid first, with each facet carrying the input points on it as
a bitmask, sum 2^i over their indices i in the sorted distinct input points.
The starting simplex's facets are the columns of adj(V), V the matrix of its
homogenized vertex rows (1, v), from one fraction-free elimination. A new
point q adds, for each facet G that it sees and each ridge that G shares
with a facet H that it does not, the member of the pencil through the ridge
and q, computed from G's side: multiplied by sign(s_G), s the slacks of q,
it keeps G on its inner side whatever the sign. The polytope's facets keep
the point sets, cut down to its vertices, as frozensets of vertex indices.
A point set is a face's vertex set when it equals the meet, the AND of the
masks of the facets through it (all points, when there are none): a point
is a vertex when those facets meet in it alone. P is smooth when every
vertex lies on exactly n facets and their normals form a lattice basis (Cox,
Little and Schenck, Toric Varieties, section 2.4), which the same sets tell.
The ridge-and-pencil step is shared with the pulling triangulation, which
refines cells the same way, and with the projections of the dilate scans.

Dilate scans walk a chain of coordinate projections P = P_n -> ... -> P_1,
each dropping the widest remaining axis of P's box; the walk adds the axes
back in the reverse order. It keeps rows (k, x'), x' a lattice point of
kP_m, and extends each by the integer interval of the next coordinate c
over x' in kP_{m+1}: each facet a.x <= k b of P_{m+1} bounds it by an exact
floor division of the slack r = k b - a'.x' by a_c. The last level is P
itself, along the widest axis, where the bounds from r - 1 also give the
interior. The facets of P_m come from those of P_{m+1} by Fourier-Motzkin
elimination without its redundant rows (Schrijver, Theory of Linear and
Integer Programming, section 12.2): the facets with a_c = 0, and for each
ridge of a facet with a_c > 0 and one with a_c < 0, the pencil member
through it parallel to axis c. Each keeps the vertices of P that project
into it, so the hull's ridge test holds at every level. The projections of
kP are k times those of P, so the chain, and everything else that does not
depend on k, is worked out once per polytope, and one walk serves all the
dilates of a request, each row labelled with its k. Every walk takes the
whole chain, from P_1, the interval of P's first coordinate in the walk
order (from no coordinate when n = 1). The scan budget counts, per dilate,
the fibers of the box of kP over the coordinates other than the widest (a
measure of kP's size: no walk walks that box), and the points of each
dilate that a walk collects, summed from its last level's interval lengths
before it expands them.

A walk counts every dilate of its request and collects a chosen subset of
them: it copies the last level's rows (k, x') of each collected dilate, with
their intervals, out of the walk's arrays, so that no view keeps a chunk of
the other dilates alive. Once the walk is done, it expands the rows of each
collected dilate that holds at most ``budget`` points and sorts them
lexicographically in the standard coordinates. Each dilate's points are
then one (N, n) array in that order, of the walk's dtype, which the
spanning, IDP and pulling steps read as it is; ``lattice_points`` builds
the public frozenset from it on demand. :meth:`Polytope.count_dilates` is
the one path to a walk: the counts, the points and the batched requests of
h*, the corpus audit and the report all go through it.

One rule keeps every array pass exact: a pass proves a bound on all it
computes, and :func:`_exact_dtype` runs it on int64 numpy when the bound is
at most 2^63 - 1 and on Python ints otherwise. The passes are the dilate
walk, the IDP keys and the triangulation's root slacks, simplex volumes and
face keys; each states its bound beside its code. Projected normals grow, so
each level of the walk has its own: let B be the largest |a_c| and |b| + sum
over the earlier coordinates i of |a_i| * max |x_i| over the level's facets,
x ranging over P's box. Every max |x_i| is at least 1 on a full-dimensional
P, so B bounds the level's arrays, and kB bounds |r| and every partial sum
of (k, x') . (b, -a'), so r - 1, the floor quotients and their negations
stay within kB + 1, and an interval length within 2kB + 3. A non-empty
interval lies in the box of kP, so its length is at most kW + 1, with W the
widest side of P's box. The running sums of the lengths over a chunk of at
most R rows, which place the new rows and sum the counts per k, are at most
R(kW + 1), and a new coordinate, the first point of its interval plus its
offset, stays within k max |x_i| + R(kW + 1). The largest of these bounds
over the levels of a walk is its bound (:meth:`Polytope._walk_bound`).
"""

from __future__ import annotations

import functools
import itertools
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import gcd, prod
from operator import mul
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


def _exact_dtype(bound):
    """The dtype of an array pass whose every value is at most ``bound`` in
    absolute value: int64 when the bound fits, Python ints otherwise. The
    one comparison with int64's range; it reads ``_INT64_MAX`` when called."""
    return np.int64 if bound <= _INT64_MAX else object


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


def _mask(indices):
    """The bitmask sum 2^i over the ``indices``."""
    return sum(map((1).__lshift__, indices))


def _bits(mask):
    """The indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _through(masks, size):
    """For each of ``size`` points, the masks in ``masks`` that hold it."""
    through = [[] for _ in range(size)]
    for on in masks:
        for i in _bits(on):
            through[i].append(on)
    return through


def _meet(masks, members, universe):
    """The meet of the point sets in ``masks`` that hold all of ``members``,
    or ``universe`` if none does: ``members`` is a face's point set when the
    meet equals it."""
    for on in masks:
        if on & members == members:
            universe &= on
    return universe


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


def _simplex_facets(points, simplex):
    """The facets of the full-dimensional simplex on the points ``simplex``,
    the one opposite each vertex in turn, as (primitive normal, offset, mask
    of the other vertices).

    V holds the rows (1, v) of the vertices, and one fraction-free
    Gauss-Jordan elimination of [V | I] (Bareiss, Math. Comp. 22, 1968)
    turns it into [d I | E] with V E = d I, d = +-det V its last pivot: E is
    adj(V) up to sign. Every entry on the way is a minor of [V | I] up to
    sign, so each division is exact. So column j of E is the affine functional that
    vanishes on every vertex but v_j, where it takes the value d; its
    linear part, made primitive and pointing away from v_j, is the normal
    of the facet opposite v_j.
    """
    m = len(simplex)
    a = [[1, *points[v], *(int(r == j) for j in range(m))] for r, v in enumerate(simplex)]
    prev = 1
    for k in range(m):
        p = next(r for r in range(k, m) if a[r][k])
        a[k], a[p] = a[p], a[k]
        pivot, row = a[k][k], a[k]
        for r in range(m):
            if r != k:
                f = a[r][k]
                a[r] = [(pivot * x - f * y) // prev for x, y in zip(a[r], row)]
        prev = pivot
    # orient each functional to be positive at its vertex: the facet is
    # normal . x <= offset with normal = -sign(d) times the linear part
    sign = 1 if prev > 0 else -1
    everything = _mask(simplex)
    facets = []
    for j, v in enumerate(simplex):
        normal, g = _primitive([-sign * row[m + j] for row in a[1:]])
        facets.append((normal, sign * a[0][m + j] // g, everything ^ 1 << v))
    return facets


def _ridge_pencils(facets, slack, g, others, apex=None):
    """The hyperplanes through q and the ridges that the facet g shares with
    the facets in ``others``.

    ``facets`` holds (normal a, offset b, bitmask of the point indices on
    it), and ``slack`` the slacks s = b - a.q of a point q, with s_g != 0. G
    and H meet in a ridge when they share at least n - 1 points and no third
    facet holds all of them; in dimension 1 the two end points meet in the
    empty ridge. For each such H, yields the member
    sign(s_g) (s_g a_h - s_h a_g).x <= sign(s_g) (s_g b_h - s_h b_g) of the
    pencil of hyperplanes through G & H that passes through q, made
    primitive, with G on its inner side for either sign of s_g, and the
    point set G & H, plus ``apex``, the index of q, when it is given. Each
    comes as (h, d, facet), where d is the gcd that making the normal
    primitive divided out. The slacks may also be those of a point at
    infinity, a direction u, with s = -a.u: the pencil member is then the
    hyperplane through G & H parallel to u.
    """
    a_g, b_g, on_g = facets[g]
    sign = 1 if slack[g] > 0 else -1
    s_g = sign * slack[g]
    # a ridge spans n - 2 dimensions, so it holds at least n - 1 points
    least = len(a_g) - 1
    top = 0 if apex is None else 1 << apex
    for h in [h for h in others if (on_g & facets[h][2]).bit_count() >= least]:
        a_h, b_h, on_h = facets[h]
        ridge = on_g & on_h
        # G and H hold it, and a third facet that does makes it a smaller face
        if h == g or len([on for _, _, on in facets if ridge & on == ridge]) > 2:
            continue
        s_h = sign * slack[h]
        normal, d = _primitive([s_g * x - s_h * y for x, y in zip(a_h, a_g)])
        # a lattice point on the hyperplane (q, or a point of the ridge)
        # makes d divide the offset
        yield h, d, (normal, (s_g * b_h - s_h * b_g) // d, ridge | top)


def _farthest_first(points, simplex):
    """The indices of the points outside ``simplex``, farthest from its
    centroid first and by index among equals. With m simplex points summing
    to t, the key |m q - t|^2 is m^2 times the squared distance of q to the
    centroid, an integer."""
    m = len(simplex)
    total = [sum(c) for c in zip(*(points[i] for i in simplex))]
    inside = set(simplex)
    return sorted(
        (i for i in range(len(points)) if i not in inside),
        key=lambda i: (-sum((m * x - t) ** 2 for x, t in zip(points[i], total)), i),
    )


def _beneath_beyond(points, simplex):
    """Facets of conv(points) as (primitive normal, offset, bitmask of the
    indices of the points on it), by the beneath-beyond method (Joswig,
    "Beneath-and-Beyond Revisited", 2003) in integer arithmetic.

    The hull starts as the full-dimensional ``simplex`` (see
    :func:`_simplex_facets`); the other points are added farthest first
    (see :func:`_farthest_first`), so that the points beyond the hull come
    early and the later ones mostly see no facet and change nothing. With
    slacks s = b - a.q, the facets with s < 0 see q and are dropped, the
    facets with s = 0 gain q, and every ridge between a dropped facet G and
    a kept facet H with s_H > 0 spans a new facet with q (see
    :func:`_ridge_pencils`, from G's side). On points of the old hull that
    facet is a positive combination of G and H, so the old points on it are
    exactly those on G & H, and every point set stays complete, whatever
    the order.
    """
    facets = _simplex_facets(points, simplex)
    for iq in _farthest_first(points, simplex):
        q = points[iq]
        slack = [b - sum(map(mul, a, q)) for a, b, _ in facets]
        if min(slack) > 0:
            continue
        bit = 1 << iq
        kept = [
            (a, b, on | bit) if s == 0 else (a, b, on)
            for (a, b, on), s in zip(facets, slack)
            if s >= 0
        ]
        ahead = [h for h, s in enumerate(slack) if s > 0]
        for g, s in enumerate(slack):
            if s < 0:
                kept.extend(f for _, _, f in _ridge_pencils(facets, slack, g, ahead, iq))
        facets = kept
    return facets


def _start_rows(ks, span, cap, dtype):
    """The rows that a walk starts from, as arrays of at most ``cap`` rows:
    (k, x) for each k of ``ks`` and each integer x of [k lo, k hi], the
    dilate of ``span`` = (lo, hi), k and then x ascending; or (k) alone
    when ``span`` is None."""
    parts, size = [], 0
    for k in ks:
        total = k * (span[1] - span[0]) + 1 if span else 1
        done = 0
        while done < total:
            stop = min(total, done + cap - size)
            part = np.empty((stop - done, 2 if span else 1), dtype=dtype)
            part[:, 0] = k
            if span:
                # an index plus the first point, which stays exact on Python ints
                part[:, 1] = np.arange(done, stop).astype(dtype, copy=False) + k * span[0]
            parts.append(part)
            size += stop - done
            done = stop
            if size == cap:
                yield np.concatenate(parts)
                parts, size = [], 0
    if parts:
        yield np.concatenate(parts)


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


def _expand(rows, first, lengths, cap):
    """Each row followed by each x of its interval first..first+length-1 as
    one more column, in row order, as arrays of at most ``cap`` rows."""
    lengths = lengths.astype(np.int64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    # the t-th new row extends row i, with starts[i] <= t < ends[i], by
    # first[i] + t - starts[i]
    base = first - starts
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, cap):
        stop = min(start + cap, total)
        if stop - start == total:
            parent = np.repeat(np.arange(len(lengths)), lengths)
        else:
            # the rows whose new rows meet start..stop-1, and how many of them
            lo, hi = np.searchsorted(ends, [start, stop - 1], side="right")
            some = slice(lo, hi + 1)
            counts = np.minimum(ends[some], stop) - np.maximum(starts[some], start)
            parent = np.repeat(np.arange(lo, hi + 1), counts)
        out = np.empty((stop - start, rows.shape[1] + 1), dtype=rows.dtype)
        out[:, :-1] = rows[parent]
        out[:, -1] = base[parent] + np.arange(start, stop)
        yield out


def _project(facets, c):
    """The facets of the projection that drops the coordinate at position
    ``c``, from the facets (normal, offset, bitmask of vertex indices) of a
    polytope Q.

    This is Fourier-Motzkin elimination without its redundant rows
    (Schrijver, Theory of Linear and Integer Programming, section 12.2). A
    facet with a_c = 0 projects to a facet with the same point set. A facet
    G with a_c > 0 and a facet H with a_c < 0 that meet in a ridge give the
    facet a_c^G H - a_c^H G, made primitive: the pencil member through
    G & H parallel to axis c (see :func:`_ridge_pencils`, with the slacks
    a_c of the direction -e_c). Every other pair meets in a smaller face
    and gives a redundant row. The point sets hold the vertices of P that
    project into each facet, so the ridge test stays exact at every level.
    """
    column = [a[c] for a, _, _ in facets]
    lower = [h for h, s in enumerate(column) if s < 0]
    out = [f for f, s in zip(facets, column) if s == 0]
    for g, s in enumerate(column):
        if s > 0:
            out.extend(f for _, _, f in _ridge_pencils(facets, column, g, lower))
    return [(a[:c] + a[c + 1 :], b, on) for a, b, on in out]


class _Level(NamedTuple):
    """One level of a scan walk: the facets of a coordinate projection P_m,
    which extend each point x' of the previous projection by the interval
    of the coordinate ``axis`` over it. The facets are sorted by a_axis, as
    the row runs of equal a_axis with ``nneg`` negative and ``npos``
    positive values; ``homogeneous`` holds the rows (b, -a') with a' the
    normal on the walk's earlier coordinates, so that it maps a row (k, x')
    to the slacks k b - a'.x'; ``div`` holds |a_axis| per run (1 for
    a_axis = 0), each of the dtype its bound allows; ``rows`` is the walk
    rows per chunk, and ``bound`` is max |a_axis| or, if larger,
    max |b| + sum |a_i| max |x_i| over the facets, x' ranging over P's box."""

    axis: int
    runs: list[tuple[int, int]]
    nneg: int
    npos: int
    homogeneous: np.ndarray
    div: np.ndarray
    rows: int
    bound: int


def _level(facets, axes, axis, prefix, los, his):
    """The :class:`_Level` that adds ``axis`` to the walk coordinates
    ``prefix``, from the facets of the projection on ``axes``; ``los`` and
    ``his`` are the corners of P's box."""
    at = {i: p for p, i in enumerate(axes)}
    c = at[axis]
    facets = sorted(facets, key=lambda f: f[0][c])
    column = [a[c] for a, _, _ in facets]
    values = sorted(set(column))
    earlier = [at[i] for i in prefix]
    rows = [[b, *(-a[i] for i in earlier)] for a, b, _ in facets]
    divs = [abs(v) or 1 for v in values]
    reach = [1, *(max(abs(los[i]), abs(his[i])) for i in prefix)]
    bound = max(max(sum(map(mul, map(abs, row), reach)) for row in rows), max(divs))
    dtype = _exact_dtype(bound)
    return _Level(
        axis=axis,
        runs=[(bisect_left(column, v), bisect_right(column, v)) for v in values],
        nneg=bisect_left(values, 0),
        npos=len(values) - bisect_right(values, 0),
        homogeneous=np.array(rows, dtype=dtype),
        div=np.array(divs, dtype=dtype)[:, None],
        rows=max(1, _CHUNK_ENTRIES // len(facets)),
        bound=bound,
    )


class _ScanPlan(NamedTuple):
    """What :meth:`Polytope._scan` needs of P for every dilate: the corners
    of P's bounding box, with the largest |x_i| on it and its widest side;
    the walk's coordinate ``order``; and the ``levels`` of the projections
    P_2, ..., P_{n-1} and of P = P_n itself, in walk order, the level of
    P_m adding the m-th coordinate of the order to the ones before it."""

    los: list[int]
    his: list[int]
    reach: int
    width: int
    order: list[int]
    levels: list[_Level]


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


def _dilation(k):
    """k, refused before it reaches a memo when negative; 0P is the origin."""
    if k < 0:
        raise ValueError("dilation factor must be >= 0")
    return k


class Polytope:
    """Immutable full-dimensional lattice polytope: its sorted vertices and
    its facets, each with the indices of the vertices on it.

    Use :func:`build_polytope`, which also fixes ``budget``, the cap on each
    dilate's box fibers (see :meth:`_box_fibers`) and on the points that a
    scan collects; invariants are memoized per polytope.
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

    # -- dilate scans --------------------------------------------------------

    @memo
    def _scan_plan(self) -> _ScanPlan:
        """The part of every dilate scan that does not depend on k.

        The projections of kP are k times those of P, so the walk order, the
        facet runs and the normals are the same for every k; the walk's
        bound (:meth:`_walk_bound`) is affine in k. The chain of
        projections drops the widest remaining axis of P's box at each step,
        the first of equals, and the walk adds the axes in the reverse
        order: its last level is the fiber step along the widest axis.
        """
        n = self.dim
        los = [min(v[i] for v in self.vertices) for i in range(n)]
        his = [max(v[i] for v in self.vertices) for i in range(n)]
        dropped = sorted(range(n), key=lambda i: los[i] - his[i])
        order = dropped[::-1]
        facets = [(f.normal, f.offset, _mask(f.vertices)) for f in self.facets]
        levels = [_level(facets, range(n), order[-1], order[:-1], los, his)]
        axes = list(range(n))
        for m in range(n - 1, 1, -1):
            facets = _project(facets, axes.index(order[m]))
            axes.remove(order[m])
            levels.append(_level(facets, axes, order[m - 1], order[: m - 1], los, his))
        return _ScanPlan(
            los=los,
            his=his,
            reach=max(max(abs(lo), abs(hi)) for lo, hi in zip(los, his)),
            width=max(hi - lo for lo, hi in zip(los, his)),
            order=order,
            levels=levels[::-1],
        )

    def _box_fibers(self, k) -> int:
        """The fibers of the box of kP over the coordinates other than the
        widest: the unit of the scan budget, a box that no walk walks."""
        plan = self._scan_plan()
        return prod(k * (plan.his[i] - plan.los[i]) + 1 for i in plan.order[:-1])

    def _walk_bound(self, k) -> int:
        """The bound of the walk of the dilates up to kP (see the module
        docstring)."""
        plan = self._scan_plan()
        bound = max(level.bound for level in plan.levels)
        rows = max(level.rows for level in plan.levels)
        return max(2 * k * bound + 3, k * plan.reach + rows * (k * plan.width + 1))

    def _scan(self, ks, collect):
        """Count the lattice points of the dilates kP for the ascending
        ``ks`` in one walk, and collect those of the dilates in ``collect``.

        The walk keeps rows (k, x'): the integer points x' of the projections
        of kP on the first coordinates of the plan's order. It starts from
        P_1, the interval of the first coordinate, or from no coordinate
        when n = 1, and each level of the plan extends every row by the
        integer interval of its next coordinate over x'. A facet
        a.x <= k b of the level's projection gives a_c x_c <= r with
        r = k b - a'.x': x_c <= floor(r / a_c) if a_c > 0,
        x_c >= -floor(r / -a_c) if a_c < 0, and r >= 0 if a_c = 0. The last
        level is P itself: its intervals, summed per k, are the counts, and
        on integers a.x < k b means a.x <= k b - 1, so the same bounds on
        r - 1 give the interior counts in the same pass. The dtype is
        :func:`_exact_dtype` of :meth:`_walk_bound`. The caller keeps every
        k within the budget of box fibers (see :meth:`_box_fibers`). The
        last level's rows of a collected dilate, with their intervals, are
        copied out of the walk's arrays, and expanded once the walk is done
        only when the dilate holds at most ``budget`` points.

        Returns (closed_count, interior_count, points or None) per k, the
        points as an (N, n) array in lexicographic order, of the walk's dtype.
        """
        if ks[0] < 1:
            raise ValueError("dilation factor must be >= 1")
        plan = self._scan_plan()
        axis = plan.order[0]
        span = (plan.los[axis], plan.his[axis]) if self.dim > 1 else None
        dtype = _exact_dtype(self._walk_bound(ks[-1]))
        steps = [
            (level, level.homogeneous.astype(dtype, copy=False), level.div.astype(dtype, copy=False))
            for level in plan.levels
        ]
        labels = np.array(ks, dtype=dtype)
        closed = [0] * len(ks)
        interior = [0] * len(ks)
        # per collected k, the last level's rows (k, x') with their
        # intervals of the last coordinate, which expand to the rows (k, x)
        kept = {i: [] for i, k in enumerate(ks) if k in collect}

        def extend(depth, rows):
            # at most level.rows rows: _start_rows and _expand cap them so
            level, homogeneous, div = steps[depth]
            r = homogeneous @ rows.T
            first, lengths = _fiber_intervals(r, level.runs, div, level.nneg, level.npos)
            if depth + 1 < len(steps):
                for more in _expand(rows, first, lengths[0], steps[depth + 1][0].rows):
                    extend(depth + 1, more)
                return
            # rows run in ascending k; sum the lengths up to each k's end
            ends = np.searchsorted(rows[:, 0], labels, side="right")
            totals = np.zeros((2, len(rows) + 1), dtype=dtype)
            np.cumsum(lengths, axis=1, out=totals[:, 1:])
            running = totals[:, ends].tolist()
            for i in range(len(ks)):
                closed[i] += running[0][i] - (running[0][i - 1] if i else 0)
                interior[i] += running[1][i] - (running[1][i - 1] if i else 0)
            if kept:
                bounds = [0, *ends.tolist()]
                for i, chunks in kept.items():
                    if bounds[i] < bounds[i + 1]:
                        # copies, so that no view keeps the walk's arrays alive
                        part = slice(bounds[i], bounds[i + 1])
                        chunks.append((rows[part].copy(), first[part].copy(), lengths[0, part].copy()))

        for rows in _start_rows(ks, span, steps[0][0].rows, dtype):
            extend(0, rows)
        points = [None] * len(ks)
        # sort each dilate's points by x_0, ..., x_{n-1} (lexsort's last key
        # is its first); column 0 holds k
        columns = [plan.order.index(i) + 1 for i in range(self.dim)]
        for i, chunks in kept.items():
            if closed[i] <= self.budget:
                rows = np.concatenate([x for chunk in chunks for x in _expand(*chunk, steps[-1][0].rows)])
                order = np.lexsort([rows[:, c] for c in columns[::-1]])
                points[i] = rows[order[:, None], columns]
        return list(zip(closed, interior, points))

    def count_dilates(self, ks, collect=()) -> None:
        """Count the dilates kP for the k >= 1 in ``ks``, and collect those
        in ``collect``, that are not counted or collected yet, all in one
        walk. The walk stops before the first dilate over the budget of box
        fibers, and collects a dilate only when it holds at most ``budget``
        points; what it leaves out raises :class:`BudgetExceeded` only when
        it is asked for."""
        table = self._memo
        # a dilate counted before over the points budget is not walked again
        want = {
            k
            for k in collect
            if k >= 1
            and ("Polytope._points", k) not in table
            and table.get(("Polytope._counts", k), (0,))[0] <= self.budget
        }
        todo = want.union(k for k in ks if k >= 1 and ("Polytope._counts", k) not in table)
        todo = list(itertools.takewhile(lambda k: self._box_fibers(k) <= self.budget, sorted(todo)))
        if todo:
            for k, (closed, interior, points) in zip(todo, self._scan(todo, want)):
                table[("Polytope._counts", k)] = (closed, interior)
                if points is not None:
                    points.flags.writeable = False
                    table[("Polytope._points", k)] = points

    def _refuse(self, k):
        """Raise the :class:`BudgetExceeded` that keeps kP from a walk: its
        box fibers, or else its points."""
        fibers = self._box_fibers(k)
        if fibers > self.budget:
            raise BudgetExceeded(fibers, self.budget)
        raise BudgetExceeded(self.lattice_count(k), self.budget, "points")

    @memo
    def _counts(self, k):
        """(closed, interior) lattice-point counts of kP; 0P is the origin."""
        if k == 0:
            return 1, 0
        self.count_dilates([k])
        if ("Polytope._counts", k) not in self._memo:
            self._refuse(k)
        return self._memo[("Polytope._counts", k)]

    def lattice_count(self, k: int) -> int:
        """|kP intersect Z^n| without materializing the point set."""
        return self._counts(_dilation(k))[0]

    def interior_lattice_count(self, k: int) -> int:
        """Lattice points in the interior of kP; the interior of 0P is empty."""
        return self._counts(_dilation(k))[1]

    @memo
    def _points(self, k: int) -> np.ndarray:
        """The integer points of the dilate kP as a read-only (N, n) array
        in lexicographic order, of the dtype of its walk (see :meth:`_scan`).
        0P is the origin. The walk that collects kP also counts it."""
        if k == 0:
            pts = np.zeros((1, self.dim), dtype=np.int64)
            pts.flags.writeable = False
            return pts
        self.count_dilates([k], [k])
        if ("Polytope._points", k) not in self._memo:
            self._refuse(k)
        return self._memo[("Polytope._points", k)]

    def lattice_points(self, k: int) -> frozenset[LatticePoint]:
        """The integer points of the dilate kP; 0P is the origin."""
        return frozenset(map(tuple, self._points(_dilation(k)).tolist()))

    def interior_lattice_points(self, k: int) -> frozenset[LatticePoint]:
        """Integer points strictly inside kP (filtered from the closed set)."""
        pts = self.lattice_points(k)
        return frozenset(
            p
            for p in pts
            if all(f.value(p) < k * f.offset for f in self.facets)
        )

    # -- combinatorics -------------------------------------------------------

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
    dimension. A dilate scan of the result that reaches a dilate of more
    than ``budget`` box fibers, or collects more than ``budget`` points,
    raises :class:`BudgetExceeded`.
    """
    pts = [tuple(map(_coordinate, p)) for p in points]
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
    universe = (1 << len(unique)) - 1
    through = _through([on for _, _, on in facets], len(unique))
    kept = [i for i in range(len(unique)) if _meet(through[i], 1 << i, universe) == 1 << i]
    position = {i: k for k, i in enumerate(kept)}
    p = Polytope(
        n,
        [unique[i] for i in kept],
        [
            Facet(a, b, frozenset(position[i] for i in _bits(on) if i in position))
            for a, b, on in facets
        ],
        [q for i, q in enumerate(unique) if i not in position],
    )
    p.budget = budget
    return p
