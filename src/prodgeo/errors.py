"""Semantic exception hierarchy.

Every error raised by the library derives from ProdGeoError.  Errors that
arise while evaluating at a concrete point carry the offending point in
the ``point`` attribute when it is known.
"""

from __future__ import annotations


class ProdGeoError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class ExpressionError(ProdGeoError):
    """Malformed expression tree or unparseable serialized form."""


class ParameterViolation(ProdGeoError):
    """A family parameter or configuration record violates its constraints."""


class ArityMismatch(ProdGeoError):
    """Wrong number of variables, inputs or coordinates."""


class EmptyInnerList(ProdGeoError):
    """A composite function was requested with no inner factors."""


class DomainViolation(ProdGeoError):
    """Evaluation left the valid domain (non-positive argument to ln or a
    real power, division by zero, overflow, or non-positive output)."""


class StencilOutOfDomain(ProdGeoError):
    """A finite-difference stencil would leave the positive orthant."""


class StructureMissing(ProdGeoError):
    """An operation required outer/inner structure the spec does not carry."""


class DegenerateOuter(ProdGeoError):
    """The outer function has zero derivative at the evaluated argument."""


class ZeroMarginalProduct(ProdGeoError):
    """A first partial derivative is numerically zero where a ratio of
    marginal products is required."""


class DegenerateDenominator(ProdGeoError):
    """The substitution-elasticity denominator is numerically zero
    (perfect substitutes)."""


class SingularAllenDeterminant(ProdGeoError):
    """The bordered determinant is numerically zero."""


#: Errors that indicate malformed input rather than a failed evaluation.
INPUT_ERRORS = (ExpressionError, ParameterViolation, ArityMismatch, EmptyInnerList)

#: Errors raised while evaluating at concrete points.
EVALUATION_ERRORS = (
    DomainViolation,
    StencilOutOfDomain,
    StructureMissing,
    DegenerateOuter,
    ZeroMarginalProduct,
    DegenerateDenominator,
    SingularAllenDeterminant,
)
