"""Exception types shared across the package."""


class CastelpolyError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(CastelpolyError):
    """No points were supplied."""


class DimensionMismatch(CastelpolyError):
    """A vector's length does not match the ambient dimension."""


class NonIntegerCoordinate(CastelpolyError):
    """A coordinate of an input point is not an integer."""


class NotFullDimensional(CastelpolyError):
    """The affine hull of the input points is a proper subspace.

    Everything downstream (h*-vector, spanning test, genus formulas) assumes a
    full-dimensional polytope; projecting to the affine hull would change the
    ambient lattice, so degenerate input is rejected instead of repaired.
    """


class BudgetExceeded(CastelpolyError):
    """A dilate scan would exceed the configured budget: ``needed`` of
    ``unit``, the box fibers of a dilate or the points it collects."""

    def __init__(self, needed: int, budget: int, unit: str = "fibers"):
        self.needed = needed
        self.budget = budget
        super().__init__(f"dilate scan needs {needed} {unit}, budget is {budget}")


class InvariantViolation(CastelpolyError):
    """An internal consistency check failed; this signals a bug, not bad input."""


class CrossCheckMismatch(InvariantViolation):
    """Two independent computations of the same quantity disagree."""


class UnknownExample(CastelpolyError):
    """Requested example registry entry does not exist."""


class PolytopeFileError(CastelpolyError):
    """A polytope input file could not be parsed."""
