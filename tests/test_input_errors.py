"""Bad calls of the library API, one case each, that no other test makes:
each raises its error class with its message."""

import re

import numpy as np
import pytest

from prodgeo.catalog import FunctionSpec, build_family, build_quasi_product, evaluate
from prodgeo.classifier import SampleGrid, classify, default_grid
from prodgeo.economics import allen_elasticity
from prodgeo.errors import ArityMismatch, DomainViolation, ExpressionError, ParameterViolation
from prodgeo.expr import Add, Const, Pow, Var, product_chain, sum_chain
from prodgeo.geometry import quasi_product_hessian_det
from prodgeo.jets import jet, univariate_jet
from prodgeo.linalg import det_pivoted

COBB_DOUGLAS = build_family("cobb_douglas", {"A": 1.0, "k": (0.4, 0.6)})
ACMS = {"A": 1.0, "k": (1.0, 1.0), "rho": 0.5, "gamma": 1.0}
SPILLMAN = {"A": 1.0, "a": (1.0, 1.0)}
TRANSCENDENTAL = {"A": 1.0, "a": (1.0, 1.0), "b": (1.0, 1.0)}


def _build(family, params, **changes):
    return lambda: build_family(family, {**params, **changes})


CASES = [
    ("product_chain_of_nothing", lambda: product_chain([]), ExpressionError, "product_chain needs at least one factor"),
    ("sum_chain_of_nothing", lambda: sum_chain([]), ExpressionError, "sum_chain needs at least one term"),
    ("acms_zero_A", _build("acms", ACMS, A=0.0), ParameterViolation, "acms: A must be nonzero"),
    ("acms_zero_weight", _build("acms", ACMS, k=(1.0, 0.0)), ParameterViolation,
     "acms: every weight k_i must be nonzero"),
    ("acms_zero_rho", _build("acms", ACMS, rho=0.0), ParameterViolation, "acms: rho must be nonzero"),
    ("spillman_zero_A", _build("spillman_mitscherlich", SPILLMAN, A=0.0), ParameterViolation,
     "spillman_mitscherlich: A must be positive, got 0.0"),
    ("spillman_zero_rate", _build("spillman_mitscherlich", SPILLMAN, a=(1.0, 0.0)), ParameterViolation,
     "spillman_mitscherlich: every rate a_i must be positive"),
    ("transcendental_zero_A", _build("transcendental", TRANSCENDENTAL, A=0.0), ParameterViolation,
     "transcendental: A must be positive, got 0.0"),
    ("transcendental_lengths", _build("transcendental", TRANSCENDENTAL, b=(1.0, 1.0, 1.0)), ParameterViolation,
     "transcendental: a and b must have the same length"),
    ("transcendental_both_vanish", _build("transcendental", TRANSCENDENTAL, a=(1.0, 0.0), b=(1.0, 0.0)),
     ParameterViolation, "transcendental: a_i and b_i must not both vanish"),
    ("missing_parameter", lambda: build_family("cobb_douglas", {"A": 1.0}), ParameterViolation,
     "cobb_douglas: missing parameter 'k'"),
    ("scalar_for_a_vector", lambda: build_family("cobb_douglas", {"A": 1.0, "k": 0.5}), ParameterViolation,
     "cobb_douglas: parameter 'k' must be a vector"),
    ("unknown_family", lambda: build_family("leontief", {}), ParameterViolation, "unknown family 'leontief'"),
    ("inner_factor_not_an_expression", lambda: build_quasi_product(Var(0), [Var(0), 2.0]), ExpressionError,
     "inner factor 1 must be an expression, got 2.0"),
    ("grid_without_axes", lambda: SampleGrid(box=()), ParameterViolation, "grid box must have at least one axis"),
    ("verdict_of_a_missing_property", lambda: classify(COBB_DOUGLAS, default_grid(2)).property("no_such_property"),
     KeyError, "no_such_property"),
    ("allen_of_one_input", lambda: allen_elasticity(jet(COBB_DOUGLAS, (1.0, 2.0)), (1.0, 2.0), 1, 1), IndexError,
     "substitution elasticity needs two distinct inputs"),
    ("det_of_a_non_square_matrix", lambda: det_pivoted(np.zeros((2, 3))), ValueError,
     "matrix must be square, got shape (2, 3)"),
    ("univariate_jet_of_two_variables", lambda: univariate_jet(Add(Var(0), Var(1)), 1.0), ArityMismatch,
     "expression uses 2 variables, expected one"),
    ("quasi_product_non_positive_inner",
     lambda: quasi_product_hessian_det(build_quasi_product(Var(0), [Var(0) - Const(1.0), Var(1)]), (0.5, 1.0)),
     DomainViolation, "inner factor 1 is non-positive (-0.5) at (0.5, 1.0)"),
    ("evaluate_real_power_overflow", lambda: evaluate(FunctionSpec(2, Pow(Var(0), 2.5) + Var(1)), (1e200, 1.0)),
     DomainViolation, "power overflow: 1e+200 ** 2.5"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_input_error_raises_its_class_and_message(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
