"""Semantic exception hierarchy.

Every error raised by the library derives from ProdGeoError, through one
of two bases: InputError for malformed input (exit code 2 of the command
line) and EvaluationError for an evaluation that failed (exit code 3).
Errors that arise while evaluating at a concrete point carry the
offending point in the ``point`` attribute when it is known.
"""

from __future__ import annotations


class ProdGeoError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class InputError(ProdGeoError):
    """Malformed input: a spec, parameter, flag or file that cannot be used."""


class EvaluationError(ProdGeoError):
    """An evaluation at concrete points failed."""


class ExpressionError(InputError):
    """Malformed expression tree or unparseable serialized form."""


class ParameterViolation(InputError):
    """A family parameter or configuration record violates its constraints."""


class ArityMismatch(InputError):
    """Wrong number of variables, inputs or coordinates."""


class EmptyInnerList(InputError):
    """A composite function was requested with no inner factors."""


class DomainViolation(EvaluationError):
    """Evaluation left the valid domain (non-positive argument to ln or a
    real power, division by zero, overflow, or non-positive output)."""


class StencilOutOfDomain(EvaluationError):
    """A finite-difference stencil would leave the positive orthant."""


class StructureMissing(EvaluationError):
    """An operation required outer/inner structure the spec does not carry."""


class DegenerateOuter(EvaluationError):
    """The outer function has zero derivative at the evaluated argument."""


class ZeroMarginalProduct(EvaluationError):
    """A first partial derivative is numerically zero where a ratio of
    marginal products is required."""


class DegenerateDenominator(EvaluationError):
    """The substitution-elasticity denominator is numerically zero
    (perfect substitutes)."""


class SingularAllenDeterminant(EvaluationError):
    """The bordered determinant is numerically zero."""

