import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from castelpoly.exact_linalg import IntMatrix, det, hermite_basis, hermite_insert, rank, snf


def mat(rows):
    return IntMatrix.from_rows(rows)


small_matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-5, 5), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def test_snf_identity():
    res = snf(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert res.d == (1, 1, 1)


def test_snf_diag_2_3():
    # 2x + 3y = 1 is solvable, so the first factor is 1; the determinant
    # magnitude 6 forces the second.
    res = snf(mat([[2, 0], [0, 3]]))
    assert res.d == (1, 6)


def test_snf_nonspanning_difference_matrix():
    # Difference vectors of the 4-dimensional non-spanning polytope: the
    # last coordinate of every integer combination is even.
    rows = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [1, 1, 0, 2],
        [1, 0, -1, 0],
    ]
    res = snf(mat(rows))
    assert res.d == (1, 1, 1, 2)


def test_snf_zero_matrix():
    res = snf(mat([[0, 0], [0, 0]]))
    assert res.d == (0, 0)
    assert rank(mat([[0, 0], [0, 0]])) == 0


def test_rank_examples():
    assert rank(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert rank(mat([[1, 0, 0], [0, 1, 0], [1, 1, 0]])) == 2


def test_det_known():
    assert det(mat([[1, 2], [3, 4]])) == -2
    assert det(mat([[2, 0], [0, 3]])) == 6
    assert det([[0, 1], [1, 0]]) == -1


@settings(max_examples=200)
@given(small_matrices)
def test_snf_reconstructs_and_counts_rank(rows):
    m = mat(rows)
    res = snf(m)  # snf verifies U*M*V = diag(d) and unimodularity itself
    nonzero = [x for x in res.d if x != 0]
    assert len(nonzero) == rank(m)
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0


@settings(max_examples=100)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_snf_preserves_determinant_magnitude(rows):
    m = mat(rows)
    d = det(m)
    prod = math.prod(x for x in snf(m).d if x != 0)
    if d != 0:
        assert prod == abs(d)


@settings(max_examples=100)
@given(small_matrices)
def test_rank_matches_fraction_gauss(rows):
    # Independent oracle: plain Gaussian elimination over Fraction.
    a = [[Fraction(x) for x in row] for row in rows]
    nr, nc = len(a), len(a[0])
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nr):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    assert rank(mat(rows)) == r


def reduce_against(basis, row):
    """What is left of ``row`` after subtracting integer multiples of the
    echelon basis rows, pivot by pivot; zero iff the row is in their lattice."""
    row = list(row)
    for b in basis:
        c = next(j for j, x in enumerate(b) if x)
        q, rem = divmod(row[c], b[c])
        if rem:
            return row
        row = [x - q * y for x, y in zip(row, b)]
    return row


def test_hermite_basis_examples():
    assert hermite_basis([[0, 0], [0, 0]]) == []
    assert hermite_basis([[2, 0], [3, 0]]) == [[1, 0]]
    assert hermite_basis([[2, 1], [4, 0]]) == [[2, 1], [0, 2]]
    # 2 and 3 in the first column meet in their gcd: -1*(2, 1) + 1*(3, 0)
    # and the remainder 2*(3, 0) - 3*(2, 1), whose sign is then flipped
    assert hermite_basis([[2, 1], [3, 0]]) == [[1, -1], [0, 3]]


@settings(max_examples=200)
@given(small_matrices)
def test_hermite_basis_generates_the_row_lattice(rows):
    basis = hermite_basis(rows)
    pivots = [next(j for j, x in enumerate(b) if x) for b in basis]
    assert pivots == sorted(set(pivots))
    assert all(b[c] > 0 for b, c in zip(basis, pivots))
    for row in rows:
        assert not any(reduce_against(basis, row))
    factors = [x for x in snf(mat(rows)).d if x != 0]
    assert len(basis) == rank(mat(rows)) == len(factors)
    if basis:
        # same rank, rows inside the basis lattice, same invariant factors:
        # the two lattices are equal
        assert [x for x in snf(mat(basis)).d if x != 0] == factors


def full_insertion(rows):
    """Oracle for hermite_basis: every row inserted, with no early exit."""
    basis = []
    for row in rows:
        hermite_insert(basis, row)
    return basis


# up to four rows per column, so that many bases reach Z^n with rows to spare
tall_matrices = st.integers(1, 5).flatmap(
    lambda c: st.lists(
        st.lists(st.integers(-3, 3), min_size=c, max_size=c), min_size=1, max_size=4 * c
    )
)


@settings(max_examples=300)
@given(st.one_of(small_matrices, tall_matrices))
def test_hermite_basis_matches_full_insertion(rows):
    assert hermite_basis(rows) == full_insertion(rows)


def test_from_rows_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
