"""Exact integer linear algebra.

Everything here runs on Python's arbitrary-precision integers; there is no
floating point anywhere in this module. There is one elimination, the
Hermite insertion of rows into an echelon lattice basis (which also gives
the rank), beside the Bareiss determinant and the verified Smith normal
form. Matrices are small (ambient dimension <= ~8), so simple exact
algorithms win over clever ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation


@dataclass(frozen=True)
class IntMatrix:
    """Immutable row-major integer matrix."""

    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        ent = tuple(tuple(int(x) for x in row) for row in rows)
        if not ent or not ent[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(ent[0])
        if any(len(r) != width for r in ent):
            raise ValueError("ragged rows")
        return cls(ent)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form U*M*V = diag(d) with unimodular U, V.

    The invariant factors d are nonnegative and each divides the next
    (zeros trail). Verified on construction by :func:`snf`.
    """

    d: tuple[int, ...]
    u: IntMatrix
    v: IntMatrix


def _matmul(a, b):
    rows_b = len(b)
    cols_b = len(b[0])
    return [
        [sum(ra[k] * b[k][j] for k in range(rows_b)) for j in range(cols_b)]
        for ra in a
    ]


def _ident(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det(m) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination).

    Accepts an IntMatrix or any sequence of equal-length integer rows.
    """
    rows = m.entries if isinstance(m, IntMatrix) else m
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                q, r = divmod(num, prev)
                if r:
                    raise InvariantViolation("Bareiss division was not exact")
                a[i][j] = q
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def hermite_insert(basis: list[list[int]], row) -> bool:
    """Add an integer row to the lattice that ``basis`` generates.

    ``basis`` is a list of rows in echelon form: the first nonzero column
    (pivot) of each row lies strictly right of the one above, and every
    pivot is positive. It is updated in place and stays in that form, with
    at most as many rows as columns. Where the row r and a basis row b share
    the pivot column c, the pair (b, r) is replaced by (x*b + y*r,
    (b_c/g)*r - (r_c/g)*b) with g = gcd(b_c, r_c) = x*b_c + y*r_c: a 2x2
    transform of determinant 1, so the lattice is unchanged, and the new r
    is zero in column c. A row left over with a pivot of its own joins the
    basis. Returns True iff the basis gained a row, that is iff ``row`` is
    not in the rational span of the basis (Cohen, GTM 138, section 2.4).
    """
    r = list(map(int, row))
    i = 0  # the first basis row whose pivot is not left of column c
    for c in range(len(r)):
        shared = i < len(basis) and basis[i][c] != 0
        if r[c] == 0:
            i += shared
            continue
        if not shared:
            basis.insert(i, r if r[c] > 0 else [-v for v in r])
            return True
        b = basis[i]
        q, rem = divmod(r[c], b[c])
        if rem == 0:
            r = [v - q * u for u, v in zip(b, r)]
        else:
            g, x, y = _xgcd(b[c], r[c])
            bc, rc = b[c] // g, r[c] // g
            basis[i] = [x * u + y * v for u, v in zip(b, r)]
            r = [bc * v - rc * u for u, v in zip(b, r)]
        i += 1
    return False


def hermite_basis(rows) -> list[list[int]]:
    """Echelon basis of the lattice the integer rows generate, built by
    :func:`hermite_insert`; its row count is the rank of the rows.

    The insertion stops once the basis has a row per column and every pivot
    is 1: it then generates Z^n, every later row reduces to zero and leaves
    the basis unchanged."""
    basis: list[list[int]] = []
    for row in rows:
        hermite_insert(basis, row)
        if len(basis) == len(row) and all(b[i] == 1 for i, b in enumerate(basis)):
            break
    return basis


def rank(m: IntMatrix) -> int:
    """Exact rank over the rationals."""
    return len(hermite_basis(m.entries))


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form by elementary row/column reduction.

    Pivot = entry of minimal nonzero absolute value in the remaining block.
    The returned transforms satisfy u*m*v = diag(d) exactly; this identity,
    the divisibility chain, and |det| = 1 of both transforms are verified
    before returning.
    """
    a = [list(row) for row in m.entries]
    nr, nc = m.rows, m.cols
    u = _ident(nr)
    v = _ident(nc)
    size = min(nr, nc)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < size:
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        if a[t][t] < 0:
            negate_row(t)

        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if a[i][t] != 0:
                    dirty = True  # remainder is smaller than the pivot
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Row t and column t are clear; enforce d_t | (remaining block).
        bad_row = None
        for i in range(t + 1, nr):
            if any(a[i][j] % a[t][t] for j in range(t + 1, nc)):
                bad_row = i
                break
        if bad_row is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad_row])]
            u[t] = [x + y for x, y in zip(u[t], u[bad_row])]
            continue
        t += 1

    d = tuple(a[i][i] for i in range(size))
    result = SnfResult(
        d=d,
        u=IntMatrix.from_rows(u),
        v=IntMatrix.from_rows(v),
    )
    _verify_snf(m, result)
    return result


def _verify_snf(m: IntMatrix, res: SnfResult) -> None:
    d, u, v = res.d, res.u, res.v
    if any(x < 0 for x in d):
        raise InvariantViolation("negative invariant factor")
    for x, y in zip(d, d[1:]):
        if x == 0 and y != 0:
            raise InvariantViolation("zero invariant factor before a nonzero one")
        if x != 0 and y % x != 0:
            raise InvariantViolation("invariant factors do not form a divisibility chain")
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        raise InvariantViolation("SNF transform is not unimodular")
    prod = _matmul(_matmul([list(r) for r in u.entries], [list(r) for r in m.entries]),
                   [list(r) for r in v.entries])
    for i in range(m.rows):
        for j in range(m.cols):
            expect = d[i] if i == j and i < len(d) else 0
            if prod[i][j] != expect:
                raise InvariantViolation("U*M*V does not reproduce diag(d)")
