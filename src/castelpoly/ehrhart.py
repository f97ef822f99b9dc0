"""h*-vector, degree, and normalized volume from exact dilate counts.

Multiplying the lattice-point generating series sum_k L(k) t^k by
(1-t)^(n+1) gives the h*-polynomial, so the closed counts L(0..K) give
h*_0..h*_K by a binomial convolution. Ehrhart-Macdonald reciprocity
(Stanley 1974; Beck and Robins, Computing the Continuous Discretely, ch. 4)
gives the other end: sum_{k>=1} L°(k) t^k = t^(n+1) h*(1/t) / (1-t)^(n+1),
L° the interior counts, so the same convolution of L°(1..K) gives
h*_n..h*_(n+1-K). With K = floor((n+2)/2) the two halves overlap in
2K - n >= 1 coefficients, which must agree, and one walk of the dilates
1..K serves the whole vector: kP for k up to about n/2 instead of n. No
interpolation and no rational arithmetic: the counting function of a
lattice polytope makes every step integer-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import CrossCheckMismatch, InvariantViolation
from .geometry import Polytope, _dilation, memo


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


def _reach(n: int) -> int:
    """K = floor((n+2)/2), the largest dilate that h* of an n-polytope reads:
    the closed counts up to K give h*_0..h*_K and the interior ones
    h*_(n+1-K)..h*_n, which overlap in 2K - n >= 1 coefficients."""
    return (n + 2) // 2


@memo
def hstar(p: Polytope) -> HStarVector:
    """The h*-vector of p from one walk of the dilates 1..K (see
    :func:`_reach`), with its defining identities verified.

    h*_i = sum_j (-1)^j C(n+1, j) L(i-j) for i <= K, and by reciprocity
    h*_(n+1-j) = sum_{i<j} (-1)^i C(n+1, i) L°(j-i) for 1 <= j <= K, so
    h*_n = L°(1) by construction. Postconditions checked before returning:
    the 2K - n coefficients that both sums give agree (else
    :class:`CrossCheckMismatch`), h*_0 = 1, nonnegativity, and
    h*_1 = |P cap Z^n| - (n+1). A failure here is an implementation bug,
    not bad input.
    """
    n = p.dim
    top = _reach(n)
    counts = ehrhart_profile(p, top).counts
    interior = [p.interior_lattice_count(k) for k in range(top + 1)]
    low = [
        sum((-1) ** j * comb(n + 1, j) * counts[i - j] for j in range(i + 1))
        for i in range(top + 1)
    ]
    # h*_(n+1-top), ..., h*_n
    high = [
        sum((-1) ** i * comb(n + 1, i) * interior[j - i] for i in range(j))
        for j in range(top, 0, -1)
    ]
    seam = n + 1 - top
    if low[seam:] != high[: top + 1 - seam]:
        raise CrossCheckMismatch(
            f"h*_{seam}..h*_{top} from the closed counts are {tuple(low[seam:])} "
            f"but the interior counts give {tuple(high[: top + 1 - seam])}"
        )
    h = HStarVector(n, (*low[:seam], *high))  # checks h*_0 and nonnegativity
    if h.coeffs[1] != counts[1] - (n + 1):
        raise InvariantViolation("h*_1 does not match the lattice point count")
    return h


@memo
def degree(p: Polytope) -> int:
    """deg(P), computed from the h*-support and independently from the first
    dilate with an interior lattice point; the two routes must agree.

    By reciprocity the first interior dilate is n + 1 - deg(P), s = deg h*.
    The dilates K+1..n+1-s that h* did not read are counted in one walk;
    there are none when one of 1..K has an interior point, since h* then
    reads the first one off its interior counts."""
    s = hstar(p).degree
    n = p.dim
    p.count_dilates(range(_reach(n) + 1, n + 2 - s))
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
    _dilation(k)
    n = h.dim
    return sum(c * comb(n + k - i, n) for i, c in enumerate(h.coeffs) if c)
