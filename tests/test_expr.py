"""Expression tree construction, evaluation and serialization."""

import json
import math
import re

import pytest

from prodgeo.catalog import FunctionSpec, build_quasi_product
from prodgeo.errors import DomainViolation, ExpressionError
from prodgeo.expr import (
    MAX_DEPTH,
    Add,
    Const,
    Div,
    Exp,
    Ln,
    Mul,
    Neg,
    Pow,
    Var,
    compiled,
    eval_expr,
    eval_value,
    expr_from_obj,
    expr_to_obj,
    product_chain,
    substitute,
    sum_chain,
    variables,
)


def test_operator_sugar_builds_expected_nodes():
    x, y = Var(0), Var(1)
    assert x + y == Add(x, y)
    assert x - y == Add(x, Neg(y))
    assert 2 * x == Mul(Const(2.0), x)
    assert x / y == Div(x, y)
    assert x**0.5 == Pow(x, 0.5)
    assert -x == Neg(x)
    assert 1 - x == Add(Const(1.0), Neg(x))


def test_eval_basic_arithmetic():
    x, y = Var(0), Var(1)
    e = (x + y) * (x - y)
    assert eval_expr(e, [3.0, 2.0]) == 5.0
    assert eval_expr(Div(x, y), [3.0, 2.0]) == 1.5
    assert eval_expr(Exp(Const(0.0)), []) == 1.0
    assert eval_expr(Ln(Const(math.e)), []) == pytest.approx(1.0, rel=1e-15)


def test_integer_power_by_repeated_multiplication():
    x = Var(0)
    # negative bases are fine for integer exponents
    assert eval_expr(Pow(x - 3.0, 2.0), [1.0]) == 4.0
    assert eval_expr(Pow(x, 3.0), [2.0]) == 8.0
    assert eval_expr(Pow(x, -2.0), [2.0]) == 0.25
    assert eval_expr(Pow(x, 0.0), [5.0]) == 1.0


def test_real_power_requires_positive_base():
    with pytest.raises(DomainViolation):
        eval_expr(Pow(Var(0), 0.5), [-1.0])
    with pytest.raises(DomainViolation):
        eval_expr(Pow(Var(0), 0.5), [0.0])
    assert eval_expr(Pow(Var(0), 0.5), [4.0]) == 2.0


def test_domain_errors():
    with pytest.raises(DomainViolation):
        eval_expr(Ln(Var(0)), [0.0])
    with pytest.raises(DomainViolation):
        eval_expr(Div(Const(1.0), Var(0)), [0.0])
    with pytest.raises(DomainViolation):
        eval_expr(Exp(Const(1000.0)), [])
    with pytest.raises(DomainViolation):
        eval_value(Var(0) - 2.0, [1.0])  # non-positive output


def test_construction_validation():
    with pytest.raises(ExpressionError):
        Pow(Var(0), math.inf)
    with pytest.raises(ExpressionError):
        Const(math.nan)
    with pytest.raises(ExpressionError):
        Var(-1)
    with pytest.raises(ExpressionError, match="constant must be finite, got an integer beyond the float range"):
        Const(10**400)
    with pytest.raises(ExpressionError, match="power exponent must be finite, got an integer beyond the float range"):
        Pow(Var(0), 10**400)


def test_variables_and_substitute():
    e = Mul(Pow(Var(0), 2.0), Exp(Var(2)))
    assert variables(e) == frozenset({0, 2})
    swapped = substitute(e, {0: Var(2), 2: Var(0)})
    assert variables(swapped) == frozenset({0, 2})
    assert eval_expr(swapped, [1.0, 0.0, 3.0]) == eval_expr(e, [3.0, 0.0, 1.0])


def test_substitute_keeps_a_shared_subtree_shared():
    e = Var(0) + 1.0
    rewritten = substitute(Add(e, e), {0: Var(1)})
    assert rewritten.left is rewritten.right and rewritten.left == Var(1) + 1.0


def test_serialization_round_trip_is_structural_identity():
    e = Div(Mul(Const(0.1), Pow(Var(0), 1.0 / 3.0)), Add(Ln(Var(1)), Neg(Exp(Var(0)))))
    obj = expr_to_obj(e)
    assert expr_from_obj(obj) == e
    # through actual JSON text, numeric literals survive bit for bit
    assert expr_from_obj(json.loads(json.dumps(obj))) == e


def test_serialization_preserves_extreme_literals():
    for value in (5e-324, 1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0, -2.2250738585072014e-308):
        e = Mul(Const(value), Var(0))
        assert expr_from_obj(json.loads(json.dumps(expr_to_obj(e)))) == e


def test_serialization_rejects_malformed_nodes():
    with pytest.raises(ExpressionError):
        expr_from_obj(["nope", 1])
    with pytest.raises(ExpressionError):
        expr_from_obj(["add", ["const", 1.0]])
    with pytest.raises(ExpressionError):
        expr_from_obj(["var", "zero"])
    with pytest.raises(ExpressionError):
        expr_from_obj([])


@pytest.mark.parametrize(
    "obj, message",
    [
        (["var", True], "var payload must be an int, got True"),
        (["var", False], "var payload must be an int, got False"),
        (["const", True], "const payload must be a number, got True"),
        (["pow", ["var", 0], True], "pow exponent must be a number, got True"),
    ],
)
def test_serialization_rejects_booleans_as_numbers(obj, message):
    # JSON true is Python's True, an int equal to 1: ["var", true] would mean x2.
    with pytest.raises(ExpressionError, match=f"^{re.escape(message)}$"):
        expr_from_obj(json.loads(json.dumps(obj)))


def test_serialization_keeps_integer_payloads():
    assert expr_from_obj(["var", 1]) == Var(1)
    assert expr_from_obj(["const", 1]) == Const(1.0)
    assert expr_from_obj(["pow", ["var", 0], 2]) == Pow(Var(0), 2)


def test_product_chain_left_associates():
    xs = [Var(0), Var(1), Var(2)]
    assert product_chain(xs) == Mul(Mul(Var(0), Var(1)), Var(2))
    assert sum_chain(xs) == Add(Add(Var(0), Var(1)), Var(2))


def test_depth_bound_is_checked_without_recursion():
    deep = sum_chain([Var(0)] * 1500)
    for make in (
        lambda: FunctionSpec(2, deep * Var(1)),
        lambda: build_quasi_product(deep, [Var(0), Var(0)]),
        lambda: expr_from_obj(json.loads('["neg", ' * 500 + '["var", 0]' + "]" * 500)),
    ):
        with pytest.raises(ExpressionError, match="deeper than 200"):
            make()
    # a subtree shared by both operands at every level: 2^100 paths,
    # compiled once per distinct subtree
    shared = Var(0)
    for _ in range(100):
        shared = shared + shared
    compiled(shared)
    compiled(sum_chain([Var(0)] * MAX_DEPTH))
    with pytest.raises(ExpressionError):
        compiled(sum_chain([Var(0)] * (MAX_DEPTH + 1)))
