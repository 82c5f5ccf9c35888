"""Exception hierarchy.

Validation errors (bad geometry, bad case input) and numerical failures
(folded element maps, ill-conditioning, failed eigensolves) are kept apart so
callers can map them to distinct exit codes.
"""


class QuadplateError(Exception):
    """Base class for all package errors."""


class ValidationError(QuadplateError):
    """Invalid input: geometry, mesh, or case description."""


class DegenerateGeometryError(ValidationError):
    """Geometry that cannot be meshed or mapped (zero area, bad indices, ...)."""


class InvalidCaseError(ValidationError):
    """Malformed or inconsistent case description."""


class NumericalError(QuadplateError):
    """Numerical failure: folded element map, ill-conditioned system, ..."""

