"""Family constructors, evaluation contract, validation, JSON form."""

import copy
import json
import math
import os
import pickle
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from prodgeo.catalog import (
    FunctionSpec,
    Point,
    build_family,
    build_quasi_product,
    evaluate,
    spec_from_json,
    spec_to_json,
    validate,
)
from prodgeo.classifier import catalog_fixtures
from prodgeo.errors import (
    ArityMismatch,
    DomainViolation,
    EmptyInnerList,
    ExpressionError,
    ParameterViolation,
)
from prodgeo.expr import Add, Const, Exp, Ln, Mul, Pow, Var, eval_expr, product_chain, sum_chain
from prodgeo.jets import _POINT_BLOCK, jet, propagate, univariate_jet


# ---------------------------------------------------------------------------
# build_family / evaluate
# ---------------------------------------------------------------------------

def test_cobb_douglas_evaluation():
    spec = build_family("cobb_douglas", {"A": 1.0, "k": [0.5, 0.5]})
    assert evaluate(spec, (4.0, 9.0)) == pytest.approx(6.0, rel=1e-15)
    assert evaluate(spec, (1.0, 1.0)) == pytest.approx(1.0, rel=1e-15)


def test_acms_evaluation():
    spec = build_family("acms", {"A": 1.0, "k": [1.0, 1.0], "rho": 2.0, "gamma": 2.0})
    assert evaluate(spec, (3.0, 4.0)) == pytest.approx(25.0, rel=1e-15)


def test_spillman_evaluation():
    spec = build_family("spillman_mitscherlich", {"A": 2.0, "a": [1.0, 1.0]})
    expected = 2.0 * (1.0 - math.exp(-1.0)) ** 2
    assert evaluate(spec, (1.0, 1.0)) == pytest.approx(expected, rel=1e-15)


def test_transcendental_collapses_to_cobb_douglas_when_b_is_zero():
    tr = build_family("transcendental", {"A": 1.4, "a": [1.0, 1.0], "b": [0.0, 0.0]})
    cd = build_family("cobb_douglas", {"A": 1.4, "k": [1.0, 1.0]})
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = tuple(0.5 + 1.5 * rng.random(2))
        assert evaluate(tr, p) == evaluate(cd, p)


def test_parameter_constraints():
    with pytest.raises(ParameterViolation):
        build_family("cobb_douglas", {"A": 0.0, "k": [0.5, 0.5]})
    with pytest.raises(ParameterViolation):
        build_family("cobb_douglas", {"A": 1.0, "k": [0.5, 0.0]})
    with pytest.raises(ParameterViolation):
        build_family("acms", {"A": 1.0, "k": [1.0, 1.0], "rho": 0.0, "gamma": 1.0})
    with pytest.raises(ParameterViolation):
        build_family("spillman_mitscherlich", {"A": 1.0, "a": [1.0, -1.0]})
    with pytest.raises(ParameterViolation):
        build_family("transcendental", {"A": 1.0, "a": [0.0, 1.0], "b": [0.0, 1.0]})
    with pytest.raises(ParameterViolation):
        build_family("cobb_douglas", {"A": 1.0, "k": [0.5]})  # single input
    with pytest.raises(ParameterViolation):
        build_family("unknown_family", {})


def test_unknown_parameter_names_are_rejected():
    with pytest.raises(ParameterViolation, match="cobb_douglas: unknown parameter 'zzz'"):
        build_family("cobb_douglas", {"A": 1.0, "k": (0.4, 0.6), "zzz": 3.0})
    with pytest.raises(ParameterViolation, match="product: unknown parameter 'outer'"):
        build_family("product", {"inners": (Var(0), Var(0)), "outer": Var(0)})
    # the documents spec_to_json writes carry only the known names
    spec = build_family("acms", {"A": 1.0, "k": (1.0, 0.5), "rho": 2.0, "gamma": 1.0})
    again = spec_from_json(spec_to_json(spec))
    assert build_family(again.family, again.params) == spec


def test_evaluate_requires_positive_orthant():
    spec = build_family("cobb_douglas", {"A": 1.0, "k": [0.5, 0.5]})
    with pytest.raises(DomainViolation):
        evaluate(spec, (4.0, 0.0))
    with pytest.raises(DomainViolation):
        evaluate(spec, (-1.0, 1.0))
    with pytest.raises(ArityMismatch):
        evaluate(spec, (1.0, 1.0, 1.0))


def test_evaluate_attaches_the_point_to_its_domain_violation():
    with pytest.raises(DomainViolation, match=r"^non-positive output -1\.0$") as exc:
        evaluate(FunctionSpec(2, Var(0) - Var(1)), (1.0, 2.0))
    assert exc.value.point == Point((1.0, 2.0))


def test_evaluate_rejects_a_non_finite_output():
    with pytest.raises(DomainViolation, match="non-finite output inf"):
        evaluate(FunctionSpec(2, Const(1e300) * Var(0) * Var(1)), (1e10, 1e10))


def test_point_validation():
    with pytest.raises(DomainViolation):
        Point((1.0, 0.0))
    with pytest.raises(DomainViolation):
        Point((1.0, math.inf))
    assert tuple(Point.of(1, 2)) == (1.0, 2.0)


# ---------------------------------------------------------------------------
# build_quasi_product
# ---------------------------------------------------------------------------

def test_quasi_product_identity_outer_gives_plain_product():
    spec = build_quasi_product(Var(0), [Var(0), Var(0)])
    assert evaluate(spec, (3.0, 5.0)) == 15.0


def test_quasi_product_log_exp_cancellation():
    spec = build_quasi_product(Ln(Var(0)), [Exp(Var(0)), Exp(Var(0))])
    for p in [(0.5, 0.5), (1.0, 2.0), (1.7, 0.9)]:
        assert evaluate(spec, p) == pytest.approx(p[0] + p[1], rel=1e-14)


def test_quasi_product_sqrt_of_triple_product():
    spec = build_quasi_product(Pow(Var(0), 0.5), [Var(0), Var(0), Var(0)])
    assert evaluate(spec, (1.0, 4.0, 9.0)) == pytest.approx(6.0, rel=1e-15)


def test_quasi_product_structural_identity_is_bit_exact():
    outer = Mul(Const(1.3), Pow(Var(0), 0.7))
    inners = [Pow(Var(0), 0.4), Exp(Mul(Const(-0.3), Var(0))), Mul(Const(2.0), Var(0))]
    spec = build_quasi_product(outer, inners)
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = tuple(0.5 + 1.5 * rng.random(3))
        u = 1.0
        for g, x in zip(inners, p):
            u = u * eval_expr(g, [x])
        assert evaluate(spec, p) == eval_expr(outer, [u])


def test_quasi_product_arity_errors():
    with pytest.raises(EmptyInnerList):
        build_quasi_product(Var(0), [])
    with pytest.raises(ArityMismatch):
        build_quasi_product(Var(0), [Var(0)])
    with pytest.raises(ArityMismatch):
        build_quasi_product(Var(0), [Var(0), Var(0) + Var(1)])
    with pytest.raises(ArityMismatch):
        build_quasi_product(Var(0) + Var(1), [Var(0), Var(0)])
    with pytest.raises(ArityMismatch):
        build_quasi_product(Const(2.0), [Var(0), Var(0)])


def test_function_spec_rejects_inconsistent_composition():
    with pytest.raises(ExpressionError):
        FunctionSpec(
            n=2,
            body=Var(0) + Var(1),
            outer=Var(0),
            inners=(Var(0), Var(1)),
        )


def test_function_spec_rejects_a_body_that_differs_from_its_composition_in_one_constant():
    with pytest.raises(ExpressionError, match=r"^body is not the composition of outer and inners$"):
        FunctionSpec(2, Mul(Const(2.0), Mul(Var(0), Var(1))), outer=Mul(Const(3.0), Var(0)), inners=(Var(0), Var(1)))


def test_a_quasi_product_of_a_shared_subtree_builds_in_time_linear_in_its_distinct_nodes():
    # 60 doublings of one subtree: 62 distinct nodes on 2^60 paths.  A walk
    # per path would not finish, so the build runs in a child under a timeout.
    import prodgeo

    code = (
        "import time\n"
        "from prodgeo.catalog import build_quasi_product\n"
        "from prodgeo.expr import Add, Var\n"
        "e = Var(0) + 1.0\n"
        "for _ in range(60):\n"
        "    e = Add(e, e)\n"
        "start = time.perf_counter()\n"
        "spec = build_quasi_product(e, [Var(0), Var(0)])\n"
        "print(spec.n, time.perf_counter() - start)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(prodgeo.__file__)))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=5, check=True)
    n, seconds = child.stdout.split()
    assert n == "2" and float(seconds) < 1.0


def test_quasi_product_families_and_outer_variable():
    outer, inners = Pow(Var(0), 0.5), [Var(0), Var(1)]
    spec = build_family("quasi_product", {"outer": outer, "inners": inners})
    assert spec == build_quasi_product(outer, inners) and spec.family == "quasi_product"
    with pytest.raises(ParameterViolation, match=r"^quasi_product: need parameters 'outer' and 'inners'$"):
        build_family("quasi_product", {"outer": outer})
    with pytest.raises(ParameterViolation, match=r"^product: missing parameter 'inners'$"):
        build_family("product", {})
    # an outer written in another variable, and inners on other inputs, move onto x1 and their slots
    moved = build_quasi_product(Pow(Var(3), 0.5), [Var(0), Var(5)])
    assert moved.body == spec.body and moved.outer == outer and moved.inners == tuple(inners)
    with pytest.raises(ExpressionError, match=r"^outer must be an expression, got 0\.5$"):
        build_quasi_product(0.5, inners)


def test_function_spec_input_checks():
    body = Mul(Var(0), Var(1))
    with pytest.raises(ParameterViolation, match=r"^a production function needs n >= 2 inputs, got 1$"):
        FunctionSpec(1, Var(0))
    with pytest.raises(ExpressionError, match=r"^outer and inners must be given together$"):
        FunctionSpec(2, body, outer=Var(0))
    with pytest.raises(ArityMismatch, match=r"^1 inner factors for 2 inputs$"):
        FunctionSpec(2, body, outer=Var(0), inners=(Var(0),))
    with pytest.raises(ExpressionError, match=r"^inner factor 0 must depend on x1 only$"):
        FunctionSpec(2, Mul(Var(1), Var(1)), outer=Var(0), inners=(Var(1), Var(1)))


def test_spec_params_are_read_only():
    # The fixture specs are shared by every catalog_fixtures() call of the process.
    from prodgeo.classifier import verify_catalog

    spec = catalog_fixtures()[2].spec
    text, report = spec_to_json(spec), verify_catalog()
    assert repr(spec.params) == "{'A': 1.3, 'k': (0.4, 0.6)}" and spec.params == {"A": 1.3, "k": (0.4, 0.6)}
    writes = [
        lambda p: p.__setitem__("A", 99.0),
        lambda p: p.__delitem__("A"),
        lambda p: p.update(A=99.0),
        lambda p: p.setdefault("B", 1.0),
        lambda p: p.pop("A"),
        lambda p: p.popitem(),
        lambda p: p.clear(),
        lambda p: p.__ior__({"A": 99.0}),
    ]
    for write in writes:
        with pytest.raises(TypeError, match="read-only"):
            write(spec.params)
    assert spec_to_json(catalog_fixtures()[2].spec) == text
    assert verify_catalog() == report
    # a copy is built whole, and read-only too
    for copied in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert copied == spec and type(copied.params) is type(spec.params)


# ---------------------------------------------------------------------------
# homogeneity probe
# ---------------------------------------------------------------------------

def test_cobb_douglas_homogeneity():
    spec = build_family("cobb_douglas", {"A": 1.7, "k": [0.3, 0.9, -0.4]})
    degree = 0.3 + 0.9 - 0.4
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = tuple(0.5 + 1.5 * rng.random(3))
        base = evaluate(spec, p)
        for t in (0.5, 2.0, 3.0):
            scaled = evaluate(spec, tuple(t * x for x in p))
            assert scaled == pytest.approx(t**degree * base, rel=1e-12)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_clean_cobb_douglas():
    spec = build_family("cobb_douglas", {"A": 1.0, "k": [0.5, 0.5]})
    assert validate(spec, [(0.5, 2.0), (0.5, 2.0)]) == []


def test_validate_flags_stationary_slice():
    body = Pow(Var(0) - 1.0, 2.0) + Var(1)
    spec = FunctionSpec(2, body)
    findings = validate(spec, [(0.5, 2.0), (0.5, 2.0)])
    assert any(d.code == "zero_partial" and d.axis == 0 and d.point[0] == 1.0 for d in findings)
    assert all(d.code != "zero_partial" or d.axis == 0 for d in findings)


def test_validate_flags_transcendental_turning_point():
    spec = build_family("transcendental", {"A": 1.0, "a": [1.0, 1.0], "b": [-1.0, 0.0]})
    findings = validate(spec, [(0.5, 2.0), (0.5, 2.0)])
    hits = [d for d in findings if d.code == "zero_partial" and d.axis == 0]
    assert hits and all(d.point[0] == 1.0 for d in hits)


def test_validate_lists_findings_in_mesh_order():
    # x1 x2 <= 1 on a corner of the box spanning several samples of both
    # axes; the last axis varies fastest, so the points come sorted.
    findings = validate(FunctionSpec(2, Var(0) * Var(1) - 1), [(0.5, 2.0), (0.25, 3.0)])
    points = [d.point.coords for d in findings]
    assert len({p[0] for p in points}) > 1 and len({p[1] for p in points}) > 1
    assert points == sorted(points)


def test_validate_composition_diagnostics():
    # inner derivative vanishes where (x - 1)^2 + 0.5 turns around
    turning = Pow(Var(0) - 1.0, 2.0) + Const(0.5)
    spec = build_quasi_product(Var(0), [turning, Var(0)])
    findings = validate(spec, [(0.5, 2.0), (0.5, 2.0)])
    assert any(d.code == "zero_inner_derivative" and d.axis == 0 for d in findings)
    # outer derivative vanishes where u = x1 x2 crosses 2 for F = (u - 2)^2 + 1
    outer = Pow(Var(0) - 2.0, 2.0) + Const(1.0)
    spec2 = build_quasi_product(outer, [Var(0), Var(0)])
    findings2 = validate(spec2, [(0.5, 2.0), (0.5, 2.0)])
    assert any(d.code == "zero_outer_derivative" for d in findings2)


def test_validate_region_checks():
    spec = build_family("cobb_douglas", {"A": 1.0, "k": [0.5, 0.5]})
    with pytest.raises(ParameterViolation):
        validate(spec, [(0.5, 2.0)])
    with pytest.raises(ParameterViolation):
        validate(spec, [(0.0, 2.0), (0.5, 2.0)])
    with pytest.raises(ParameterViolation):
        validate(spec, [(2.0, 0.5), (0.5, 2.0)])
    # hi / lo overflows: the mesh would hold x = inf
    with pytest.raises(ParameterViolation, match="finite hi / lo"):
        validate(spec, [(1e-300, 1e300), (0.5, 2.0)])


def _per_point_error(spec, coords) -> str:
    with pytest.raises(DomainViolation) as e:
        propagate(spec, coords)
    return str(e.value)


def test_validate_reports_evaluation_errors_exactly_at_failing_points():
    # real power of a negative base where x1 > 1.5
    spec = FunctionSpec(2, Pow(Const(1.5) - Var(0), 0.5) + Var(1))
    findings = validate(spec, [(0.5, 2.0), (0.5, 2.0)])
    axis = [0.5 * 4.0 ** (i / 4) for i in range(5)]
    assert [d.point.coords for d in findings] == [(2.0, x2) for x2 in axis]
    for d in findings:
        assert (d.code, d.axis, d.value) == ("evaluation_error", None, None)
        assert d.message == _per_point_error(spec, d.point.coords)


def test_validate_failing_points_in_a_later_block():
    # 5^6 = 15,625 mesh points, evaluated in blocks of 1,500; x1 varies
    # slowest, so x1 = 2 (points 12,500 on) fails only in the last three
    # blocks, the first of which also holds clean points.
    spec = FunctionSpec(6, sum_chain([Pow(Const(1.5) - Var(0), 0.5)] + [Var(i) for i in range(1, 6)]))
    findings = validate(spec, [(0.5, 2.0)] * 6)
    assert len(findings) == 5**5
    assert all(d.code == "evaluation_error" and d.point[0] == 2.0 for d in findings)
    for d in findings[:: 5**4]:
        assert d.message == _per_point_error(spec, d.point.coords)


def test_validate_evaluates_a_clean_mesh_once_per_block(monkeypatch):
    import prodgeo.catalog

    calls = []

    def counting(spec, coords):
        calls.append(np.shape(coords))
        return propagate(spec, coords)

    monkeypatch.setattr(prodgeo.catalog, "propagate", counting)
    spec = build_family("cobb_douglas", {"A": 1.0, "k": [0.1] * 6})
    assert validate(spec, [(0.5, 2.0)] * 6) == []
    assert calls == [(6, _POINT_BLOCK)] * 10 + [(6, 15_625 - 10 * _POINT_BLOCK)]


def test_validate_inner_failure_is_a_body_failure():
    # The body is outer(g1 * g2) node for node, so where g1 fails the body
    # fails with the same message, and nothing else is reported there.
    inner = Pow(Const(1.5) - Var(0), 0.5)
    spec = build_quasi_product(Var(0), [inner, Var(0)])
    findings = validate(spec, [(0.5, 2.0), (0.5, 2.0)])
    failing = [d for d in findings if d.point[0] > 1.5]
    assert len(failing) == 5
    for d in failing:
        assert (d.code, d.axis) == ("evaluation_error", None)
        with pytest.raises(DomainViolation) as e:
            univariate_jet(inner, d.point[0])
        assert d.message == str(e.value)


def test_validate_flags_non_finite_outputs_and_partials():
    # A * A - A * A with A = exp(700 x1): inf - inf where A * A overflows
    a = Exp(Mul(Const(700.0), Var(0)))
    spec = FunctionSpec(2, Var(1) + (a * a - a * a))
    findings = [d for d in validate(spec, [(0.5, 2.0), (0.5, 2.0)]) if d.point == Point((1.0, 1.0))]
    assert [(d.code, d.axis) for d in findings] == [
        ("nonpositive_output", None),
        ("zero_partial", 0),  # NaN
        ("zero_partial", 1),  # 1.0, flagged because |grad f| is not finite
    ]
    assert math.isnan(findings[1].value) and findings[2].value == 1.0


def test_validate_reports_an_overflowing_gradient_norm_as_one_evaluation_error():
    # Every partial of 1e200 x1 x2 is finite on the box, but |grad f|^2 overflows.
    spec = build_family("cobb_douglas", {"A": 1e200, "k": [1.0, 1.0]})
    findings = validate(spec, [(0.5, 2.0)] * 2)
    assert len(findings) == 25
    for d in findings:
        assert (d.code, d.axis, d.value) == ("evaluation_error", None, None)
        with pytest.raises(DomainViolation) as e:
            jet(spec, d.point).gradient_sq
        assert d.message == str(e.value)


def test_validate_samples_both_ends_of_every_axis_beyond_seven_inputs():
    # 5^8 points exceed the cap, so each axis gets 4; 511 - x1 x2 ... x8 is
    # non-positive only at the far corner, where x1 = 4 and the rest are 2.
    spec = FunctionSpec(8, Const(511.0) - product_chain([Var(i) for i in range(8)]))
    findings = validate(spec, [(0.5, 4.0)] + [(0.5, 2.0)] * 7)
    assert [(d.code, d.point.coords, d.value) for d in findings] == [
        ("nonpositive_output", (4.0,) + (2.0,) * 7, -1.0)
    ]


def test_validate_rejects_more_than_sixteen_axes():
    with pytest.raises(ParameterViolation, match="17 axes"):
        validate(FunctionSpec(17, Var(0)), [(0.5, 2.0)] * 17)


def test_validate_zero_partial_is_scale_free():
    findings = validate(build_family("cobb_douglas", {"A": 1e-13, "k": [0.4, 0.6]}), [(0.5, 2.0)] * 2)
    assert [d for d in findings if d.code == "zero_partial"] == []


#: (spec, the zero_inner/zero_outer findings over [0.5, 2]^2 by code).
#: Both tests compare an elasticity, x g' / g or u F' / F, with 1e-12.
ZERO_PART_CASES = {
    # F' = A is tiny but F = A u: elasticity 1
    "cobb_douglas_tiny_A": (build_family("cobb_douglas", {"A": 1e-13, "k": (0.4, 0.6)}), {}),
    # g' is tiny but g = 1e-13 x^0.4 too: elasticity 0.4
    "tiny_inner": (build_quasi_product(Var(0), [Mul(Const(1e-13), Pow(Var(0), 0.4)), Pow(Var(0), 0.6)]), {}),
    # F' = 2 (u - 1) vanishes at the 5 points where x1 x2 = 1
    "turning_outer": (
        build_quasi_product(Pow(Var(0) - 1.0, 2.0) + Const(1.0), [Var(0), Var(0)]),
        {"zero_outer_derivative": 5},
    ),
    # elasticity exactly 1e-12: rounding puts 15 of the 25 points on or below it
    "borderline_inner": (
        build_quasi_product(Var(0), [Mul(Const(1e13), Pow(Var(0), 1e-12)), Var(0)]),
        {"zero_inner_derivative": 15},
    ),
}


@pytest.mark.parametrize("spec, counts", ZERO_PART_CASES.values(), ids=ZERO_PART_CASES.keys())
def test_validate_inner_and_outer_zero_tests_are_scale_free(spec, counts):
    findings = validate(spec, [(0.5, 2.0)] * 2)
    zero_parts = [d for d in findings if d.code in ("zero_inner_derivative", "zero_outer_derivative")]
    assert Counter(d.code for d in zero_parts) == counts
    for d in zero_parts:
        if d.code == "zero_outer_derivative":
            assert d.point[0] * d.point[1] == pytest.approx(1.0)


def test_validate_zero_tests_skip_overflowed_values():
    """Where F(u) = u^3 overflows, F'(u) = 3 u^2 is finite: the elasticity
    u F' / F is inf / inf, and the point has a nonpositive_output finding,
    not a zero_outer_derivative one."""
    spec = build_quasi_product(Pow(Var(0), 3.0), [Pow(Var(0), 60.0)] * 2)
    findings = validate(spec, [(0.5, 200.0)] * 2)
    assert Counter(d.code for d in findings) == {"zero_partial": 30, "nonpositive_output": 15, "evaluation_error": 4}


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec",
    [
        build_family("cobb_douglas", {"A": 0.1, "k": (1.0 / 3.0, 2.0 / 7.0)}),
        build_family("acms", {"A": 1.1, "k": (0.3, 0.7), "rho": -0.5, "gamma": 1.0}),
        build_family("spillman_mitscherlich", {"A": 2.0, "a": (0.9, 1.1)}),
        build_family("transcendental", {"A": 1.0, "a": (0.5, 0.0), "b": (0.1, 0.7)}),
        build_quasi_product(Pow(Var(0), 0.5), [Pow(Var(0), 1.0 / 3.0), Exp(Var(0))]),
    ],
)
def test_spec_json_round_trip(spec):
    text = spec_to_json(spec)
    again = spec_from_json(text)
    assert again == spec
    # serialize -> parse -> serialize is byte-identical (numeric literals exact)
    assert spec_to_json(again) == text


@pytest.mark.parametrize(
    "field, message",
    [
        ({"n": True}, "field 'n' must be an int, got True"),
        ({"params": {"A": True}}, "parameter 'A' must be a number or a list of numbers, got True"),
        ({"params": {"k": [0.5, False]}}, "parameter 'k' must be a number or a list of numbers, got [0.5, False]"),
        ({"body": ["mul", ["var", 0], ["var", True]]}, "var payload must be an int, got True"),
    ],
)
def test_spec_json_rejects_booleans_as_numbers(field, message):
    doc = {"n": 2, "family": "custom", "body": ["mul", ["var", 0], ["var", 1]], **field}
    with pytest.raises(ExpressionError, match=f"^{re.escape(message)}$"):
        spec_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "text, message",
    [
        ('"nan"', "parameter 'A' must be a number or a list of numbers, got 'nan'"),
        ('"1e999"', "parameter 'A' must be a number or a list of numbers, got '1e999'"),
        ('" 2.5 "', "parameter 'A' must be a number or a list of numbers, got ' 2.5 '"),
        ('[0.5, "0.7"]', "parameter 'A' must be a number or a list of numbers, got [0.5, '0.7']"),
        ("NaN", "parameter 'A' must be finite, got nan"),
        ("[0.5, -Infinity]", "parameter 'A' must be finite, got [0.5, -inf]"),
        ("1e999", "parameter 'A' must be finite, got inf"),
    ],
)
def test_spec_json_params_are_finite_json_numbers(text, message):
    doc = '{"n": 2, "family": "custom", "body": ["add", ["var", 0], ["var", 1]], "params": {"A": %s}}' % text
    with pytest.raises(ExpressionError, match=f"^{re.escape(message)}$"):
        spec_from_json(doc)


def test_spec_json_of_an_accepted_spec_is_strict_json():
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    doc = {"n": 2, "family": "custom", "body": ["add", ["var", 0], ["var", 1]], "params": {"A": 2.5, "k": [1, -0.5]}}
    specs = [spec_from_json(json.dumps(doc))] + [fx.spec for fx in catalog_fixtures()]
    for spec in specs:
        assert spec_from_json(spec_to_json(spec)) == spec
        json.loads(spec_to_json(spec), parse_constant=reject)


def test_spec_json_keeps_integer_numbers():
    doc = {"n": 2, "family": "custom", "body": ["mul", ["var", 0], ["var", 1]], "params": {"A": 2, "k": [1, 3]}}
    spec = spec_from_json(json.dumps(doc))
    assert spec.n == 2 and spec.body == Mul(Var(0), Var(1))
    assert spec.params == {"A": 2.0, "k": (1.0, 3.0)}


def test_spec_json_rejects_bad_documents():
    with pytest.raises(ExpressionError):
        spec_from_json("not json at all {")
    # integers beyond the float range, and past int()'s digit limit where one applies
    for params in ({"A": 10**400}, {"k": [1, 10**400]}):
        with pytest.raises(ExpressionError, match="has an integer beyond the float range"):
            spec_from_json(json.dumps({"n": 2, "family": "custom", "body": ["var", 0], "params": params}))
    with pytest.raises(ExpressionError):
        spec_from_json('{"n": 2, "family": "custom", "body": ["const", 1' + "0" * 5000 + "]}")
    with pytest.raises(ExpressionError):
        spec_from_json(json.dumps({"family": "custom", "body": ["var", 0]}))
    with pytest.raises(ExpressionError):
        spec_from_json(json.dumps({"n": 2, "family": "custom", "body": ["var", 5]}))
    with pytest.raises(ExpressionError, match=r"^spec document must be an object, got \[1, 2\]$"):
        spec_from_json("[1, 2]")
    with pytest.raises(ExpressionError, match=r"^field 'family' must be a string, got 3$"):
        spec_from_json(json.dumps({"n": 2, "family": 3, "body": ["var", 0]}))
