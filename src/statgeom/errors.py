"""Exception types shared by all statgeom modules."""

__all__ = [
    "StatgeomError",
    "ValidationError",
    "NumericalError",
    "ParseError",
    "DimensionMismatchError",
    "DomainError",
    "BoundaryError",
    "ZeroVectorError",
    "SingularError",
    "DegenerateError",
    "ScanFailureError",
]


class StatgeomError(Exception):
    """Base class for all statgeom errors."""


class ValidationError(StatgeomError):
    """Input fails a structural precondition (shape, normalization, domain)."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible shapes."""


class DomainError(ValidationError):
    """A scalar function was evaluated outside its domain."""


class BoundaryError(DomainError):
    """Operation undefined on the boundary (zero probability or eigenvalue)."""


class ZeroVectorError(DomainError):
    """A nonzero vector was required."""


class NumericalError(StatgeomError):
    """Computation failed for numerical rather than structural reasons."""


class SingularError(NumericalError):
    """A matrix that must be invertible is singular to working precision."""


class DegenerateError(NumericalError):
    """Inputs coincide where a construction needs them distinct."""


class ScanFailureError(NumericalError):
    """Fewer boundary contacts were verified than the dimension requires."""


class ParseError(ValidationError):
    """An input file does not parse as the expected JSON format."""
