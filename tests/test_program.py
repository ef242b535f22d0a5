"""Compiled programs against the recursive tree walk they replace."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import prodgeo.jets
from prodgeo.catalog import FunctionSpec, spec_from_json, spec_to_json
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
    _div_scalar,
    _exp_scalar,
    _ln_scalar,
    _pow_scalar,
    compiled,
    eval_expr,
    expr_from_obj,
    expr_to_obj,
    sum_chain,
)
from prodgeo.jets import Jet2, jet


def walk(e, xs):
    """The recursive evaluator that compiled programs replace: the reference."""
    match e:
        case Const(value=c):
            return c
        case Var(index=i):
            if i >= len(xs):
                raise ExpressionError(f"variable x{i + 1} out of range for {len(xs)} inputs")
            return xs[i]
        case Neg(child=a):
            return -walk(a, xs)
        case Add(left=a, right=b):
            return walk(a, xs) + walk(b, xs)
        case Mul(left=a, right=b):
            return walk(a, xs) * walk(b, xs)
        case Div(left=a, right=b):
            return _div_scalar(walk(a, xs), walk(b, xs))
        case Pow(base=a, exponent=c):
            return _pow_scalar(walk(a, xs), c)
        case Exp(child=a):
            return _exp_scalar(walk(a, xs))
        case Ln(child=a):
            return _ln_scalar(walk(a, xs))
    raise ExpressionError(f"unknown node {e!r}")


def _outcome(evaluate, e, xs):
    """Every bit of the result, zero signs included, or the error's type and message."""
    try:
        with np.errstate(all="ignore"):
            v = evaluate(e, xs)
    except Exception as error:
        return type(error), str(error)
    if isinstance(v, Jet2):
        return v.s, *(np.asarray(a, dtype=float).tobytes() for a in (v.f, v.g, v.h))
    return type(v), np.float64(v).tobytes()


N = 2
EXPONENTS = [0.0, -0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, 1.5, -0.5]


def _copy(e):
    """A structurally equal tree that shares no node with ``e``."""
    return expr_from_obj(expr_to_obj(e))


def trees():
    """Small trees over N inputs that share subtrees, as one object and as
    equal copies, between binary and between unary readers, hold signed
    zeros, as siblings too, and powers of every kind, and may fail: in
    the domain of ln, a real power or a quotient, by overflow, or by
    reading the input x3 of two; failing leaves make two failing siblings
    common, so that the order of failures counts."""
    variables = st.builds(Var, st.sampled_from([0, 1] * 4 + [N]))
    constants = st.builds(Const, st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-3.0, 3.0)))
    failing = st.sampled_from(
        [Ln(Const(-1.0)), Pow(Const(-2.0), 0.5), Div(Const(1.0), Const(0.0)), Exp(Const(800.0))]
    )
    leaves = st.one_of(variables, variables, constants, constants, failing)
    unary = st.one_of(st.sampled_from([Neg, Exp, Ln]), st.sampled_from(EXPONENTS).map(lambda c: lambda a: Pow(a, c)))

    def extend(t):
        return st.one_of(
            st.builds(Add, t, t),
            st.builds(Mul, t, t),
            st.builds(Div, t, t),
            st.builds(Neg, t),
            st.builds(Exp, t),
            st.builds(Ln, t),
            st.builds(Pow, t, st.sampled_from(EXPONENTS)),
            st.builds(lambda e, c: Div(e, Add(Const(c), e)), t, st.floats(0.1, 2.0)),
            st.builds(lambda e, op: op(e, _copy(e)), t, st.sampled_from([Add, Mul, Div])),
            st.builds(lambda e, z: Add(Mul(e, Const(z)), Mul(e, Const(-z))), t, st.sampled_from([0.0, -0.0])),
            # e read by two unary operations, as one object or equal copies
            st.builds(lambda e, u, v, copy: Add(u(e), v(_copy(e) if copy else e)), t, unary, unary, st.booleans()),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(
    trees(),
    st.lists(st.floats(-2.0, 2.0), min_size=N, max_size=N),
    st.lists(st.floats(0.2, 2.0), min_size=N * 3, max_size=N * 3),
)
def test_compiled_program_equals_the_tree_walk_bitwise(e, values, grid):
    point = [Jet2.seed(x, i) for i, x in enumerate(values[::-1])]
    coords = np.reshape(grid, (N, 3))
    on_grid = [Jet2.seed(x, i) for i, x in enumerate(coords)]
    for xs in (values, point, on_grid):
        assert _outcome(eval_expr, e, xs) == _outcome(walk, e, xs)
    # a second run of the same program, on a structurally equal copy's own program too
    assert _outcome(eval_expr, e, on_grid) == _outcome(eval_expr, _copy(e), on_grid) == _outcome(walk, e, on_grid)


def test_equal_subtrees_run_once_per_jet(monkeypatch):
    # e / (c + e) with e a real power; the JSON round trip makes the two
    # occurrences of e equal copies rather than one object
    e = Pow(Add(Var(0), Mul(Const(2.0), Var(1))), 0.5)
    spec = spec_from_json(spec_to_json(FunctionSpec(2, Div(e, Add(Const(1.5), e)))))
    assert spec.body.left is not spec.body.right.right
    calls = []
    real_power = Jet2.pow_real
    monkeypatch.setattr(prodgeo.jets.Jet2, "pow_real", lambda self, c: calls.append(c) or real_power(self, c))
    for p in ((1.0, 2.0), (0.5, 0.7)):
        calls.clear()
        j = jet(spec, p)
        assert calls == [0.5]
        assert j.value == walk(spec.body, list(p))


def test_a_register_read_by_two_unary_operations_lives_until_the_second():
    e = Add(Var(0), Const(1.0))
    for tree in (Add(Exp(e), Ln(e)), Add(Neg(e), Pow(_copy(e), 0.5))):
        for x in (0.5, 2.0):
            assert _outcome(eval_expr, tree, [x]) == _outcome(walk, tree, [x])


def test_signed_zero_constants_keep_their_registers():
    for a, b in ((0.0, -0.0), (-0.0, 0.0)):
        assert math.copysign(1.0, eval_expr(Add(Const(-0.0), Const(b)), [])) == math.copysign(1.0, b)
        assert math.copysign(1.0, eval_expr(Mul(Var(0), Const(a)) + Mul(Var(0), Const(b)), [1.0])) == 1.0
        assert math.copysign(1.0, eval_expr(Add(Mul(Const(a), Var(0)), Mul(Const(a), Var(0))), [1.0])) == math.copysign(1.0, a)


def test_the_first_failing_node_of_the_walk_fails_first():
    with pytest.raises(DomainViolation, match="ln of non-positive value -1.0"):
        eval_expr(Add(Ln(Const(-1.0)), Var(5)), [1.0])
    with pytest.raises(ExpressionError, match="variable x6 out of range for 1 inputs"):
        eval_expr(Add(Var(5), Ln(Const(-1.0))), [1.0])
    # a failing constant subtree fails when run, not when compiled
    program = compiled(Ln(Const(-1.0)))
    with pytest.raises(DomainViolation):
        program.run([])


def test_a_tree_is_compiled_once_with_its_support_and_depth():
    e = Div(Pow(Var(2), 0.5), Add(Const(1.0), Pow(Var(2), 0.5))) + Var(0)
    assert compiled(e) is compiled(e)
    assert (compiled(e).support, compiled(e).depth) == ((0, 2), 5)
    spec = FunctionSpec(3, e)
    assert compiled(spec.body) is compiled(e)


def test_the_depth_of_a_shared_subtree_counts_on_its_deepest_path():
    shared = sum_chain([Var(0)] * (MAX_DEPTH - 50))
    assert compiled(shared).depth == MAX_DEPTH - 50
    shallow_then_deep = Add(shared, Neg(shared))
    assert compiled(shallow_then_deep).depth == MAX_DEPTH - 48
    deeper = shared
    for _ in range(49):
        deeper = Neg(deeper)
    assert compiled(Add(shared, deeper)).depth == MAX_DEPTH
    with pytest.raises(ExpressionError, match=f"deeper than {MAX_DEPTH}"):
        compiled(Add(shared, Neg(deeper)))
