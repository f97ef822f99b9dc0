"""Shared polytope builders for the test suite, on the registry's vertex data."""

import itertools

import pytest
from hypothesis import strategies as st

from castelpoly.geometry import build_polytope
from castelpoly.registry import (
    family_vertices,
    nonspanning_dim4_vertices,
    reflexive_simplex_vertices,
    square_2x2_vertices,
    standard_simplex_vertices,
)


def standard_simplex(n):
    return build_polytope(standard_simplex_vertices(n))


def unit_cube(n):
    return build_polytope(list(itertools.product((0, 1), repeat=n)))


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
# scan stays below 17^4 cells up to k = 2n
ORACLE_RANGES = {1: (-4, 4), 2: (-2, 3), 3: (-1, 2), 4: (0, 2)}
oracle_clouds = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(*ORACLE_RANGES[n])] * n),
        min_size=n + 1,
        max_size=n + 3,
    )
)


@pytest.fixture
def square():
    return unit_square()
