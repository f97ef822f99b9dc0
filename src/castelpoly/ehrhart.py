"""h*-vector, degree, and normalized volume from exact dilate counts.

The h*-vector is obtained by multiplying the lattice-point generating series
by (1-t)^(n+1) and truncating at degree n, i.e. a binomial convolution of the
counts L(0..n). No interpolation and no rational arithmetic: the counting
function of a lattice polytope makes every step integer-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import CrossCheckMismatch, InvariantViolation
from .geometry import Polytope, memo


@dataclass(frozen=True)
class HStarVector:
    """Coefficients h*_0..h*_n of the h*-polynomial of an n-polytope."""

    dim: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.dim + 1:
            raise InvariantViolation("h*-vector must have n+1 entries")
        if self.coeffs[0] != 1:
            raise InvariantViolation("h*_0 must be 1")
        if any(c < 0 for c in self.coeffs):
            raise InvariantViolation("h*-coefficients must be nonnegative")

    @property
    def degree(self) -> int:
        """Largest index with a nonzero coefficient."""
        return max(i for i, c in enumerate(self.coeffs) if c != 0)

    @property
    def volume(self) -> int:
        """Normalized volume: the coefficient sum."""
        return sum(self.coeffs)


@dataclass(frozen=True)
class EhrhartProfile:
    """Counts L(0), L(1), ..., L(K) of the dilates."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts or self.counts[0] != 1:
            raise InvariantViolation("profile must start with L(0) = 1")
        if any(b < a or b <= 0 for a, b in zip(self.counts, self.counts[1:])):
            raise InvariantViolation("counts must be positive and nondecreasing")


def ehrhart_profile(p: Polytope, kmax: int | None = None) -> EhrhartProfile:
    """Count the first kmax dilates (default: the ambient dimension) in one
    walk."""
    kmax = p.dim if kmax is None else kmax
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    p.count_dilates(range(1, kmax + 1))
    return EhrhartProfile(tuple(p.lattice_count(k) for k in range(kmax + 1)))


@memo
def hstar(p: Polytope) -> HStarVector:
    """The h*-vector of p, with its defining identities verified.

    Postconditions checked before returning: h*_0 = 1, nonnegativity,
    h*_1 = |P cap Z^n| - (n+1), and h*_n = interior count of P itself.
    A failure here is an implementation bug, not bad input.
    """
    n = p.dim
    counts = ehrhart_profile(p, n).counts
    coeffs = tuple(
        sum((-1) ** j * comb(n + 1, j) * counts[i - j] for j in range(i + 1))
        for i in range(n + 1)
    )
    h = HStarVector(n, coeffs)  # constructor checks h*_0 and nonnegativity
    if h.coeffs[1] != counts[1] - (n + 1):
        raise InvariantViolation("h*_1 does not match the lattice point count")
    if h.coeffs[n] != p.interior_lattice_count(1):
        raise InvariantViolation("h*_n does not match the interior point count")
    return h


@memo
def degree(p: Polytope) -> int:
    """deg(P), computed from the h*-support and independently from the first
    dilate with an interior lattice point; the two routes must agree."""
    s = hstar(p).degree
    n = p.dim
    first_interior = next(
        (k for k in range(1, n + 2) if p.interior_lattice_count(k) > 0),
        None,
    )
    if first_interior is None:
        raise CrossCheckMismatch(
            "no interior lattice point up to dilate n+1; impossible for a "
            "full-dimensional polytope"
        )
    if s != n + 1 - first_interior:
        raise CrossCheckMismatch(
            f"h*-support gives degree {s} but the first interior dilate "
            f"{first_interior} gives {n + 1 - first_interior}"
        )
    return s


def normalized_volume(p: Polytope) -> int:
    """n! times the Euclidean volume: the h*-coefficient sum."""
    return hstar(p).volume


def ehrhart_eval(h: HStarVector, k: int) -> int:
    """Predicted |kP cap Z^n| from the h*-vector alone."""
    if k < 0:
        raise ValueError("dilation factor must be >= 0")
    n = h.dim
    return sum(c * comb(n + k - i, n) for i, c in enumerate(h.coeffs) if c)
