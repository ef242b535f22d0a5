"""Property tests: a grid evaluated at once gives, bit for bit, the
numbers of a loop over its points."""

import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from prodgeo.catalog import Diagnostic, FunctionSpec, Point, _axis_samples, build_family, build_quasi_product, validate
from prodgeo.classifier import SampleGrid, estimate_sigma
from prodgeo.economics import ZERO_MARGINAL_RTOL, hicks_elasticity
from prodgeo.errors import DomainViolation, ProdGeoError
from prodgeo.expr import Add, Const, Div, Exp, Ln, Mul, Neg, Pow, Var, variables
from prodgeo.jets import grid_jet, jet, propagate, univariate_jet
from prodgeo.reports import geometry_report, grid_reports

positive = st.floats(0.2, 2.0)
signed = st.floats(-1.5, 1.5).filter(lambda v: abs(v) > 0.05)


@st.composite
def specs(draw):
    n = draw(st.integers(2, 3))
    family = draw(st.sampled_from(["cobb_douglas", "acms", "spillman_mitscherlich", "transcendental"]))
    vec = lambda s: tuple(draw(st.lists(s, min_size=n, max_size=n)))  # noqa: E731
    if family == "cobb_douglas":
        params = {"A": draw(positive), "k": vec(positive)}
    elif family == "acms":
        params = {"A": draw(positive), "k": vec(positive), "rho": draw(signed), "gamma": draw(positive)}
    elif family == "spillman_mitscherlich":
        params = {"A": draw(positive), "a": vec(positive)}
    else:
        params = {"A": draw(positive), "a": vec(positive), "b": vec(st.floats(-0.5, 0.5))}
    return build_family(family, params)


@st.composite
def specs_and_grids(draw):
    spec = draw(specs())
    lo = draw(st.floats(0.1, 1.0))
    ratio = draw(st.floats(1.5, 5.0))
    grid = SampleGrid(
        box=((lo, lo * ratio),) * spec.n,
        points_per_axis=3,
        seed=draw(st.integers(0, 2**16)),
        jitter_points=8,
    )
    return spec, grid


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=50, deadline=None)
@given(specs_and_grids())
def test_grid_jet_equals_pointwise_jets(case):
    spec, grid = case
    points = grid.points()
    try:
        singles = [jet(spec, p) for p in points]
    except ProdGeoError as e:
        with pytest.raises(type(e)):
            grid_jet(spec, np.array([p.coords for p in points]).T.copy())
        return
    batch = grid_jet(spec, np.array([p.coords for p in points]).T.copy())
    for k, one in enumerate(singles):
        assert _bits(batch.value[k]) == _bits(one.value)
        assert _bits(batch.gradient[:, k]) == _bits(one.gradient)
        assert _bits(batch.hessian[:, :, k]) == _bits(one.hessian)


@settings(max_examples=50, deadline=None)
@given(specs_and_grids())
def test_estimate_sigma_equals_pointwise_hicks_loop(case):
    spec, grid = case
    n = spec.n
    try:
        values = [
            hicks_elasticity(jet(spec, p), p, i, k)
            for p in grid.points()
            for i in range(n)
            for k in range(i + 1, n)
        ]
    except ProdGeoError as e:
        with pytest.raises(type(e)):
            estimate_sigma(spec, grid)
        return
    assert estimate_sigma(spec, grid) == (sum(values) / len(values), max(values) - min(values))


@settings(max_examples=30, deadline=None)
@given(specs_and_grids())
def test_grid_reports_equal_pointwise_reports(case):
    spec, grid = case
    points = grid.points()
    try:
        singles = [geometry_report(spec, p) for p in points]
    except ProdGeoError as e:
        with pytest.raises(type(e)):
            grid_reports(spec, grid)
        return
    for row, one in zip(grid_reports(spec, grid), singles, strict=True):
        for name in one.__dataclass_fields__:
            got, want = getattr(row, name), getattr(one, name)
            assert got == want if name == "point" else _bits(got) == _bits(want)


def _reference_validate(spec, region):
    """validate() as a loop over its mesh: scalar jets at each point, and
    each inner factor and the outer function evaluated on their own."""
    axes = [_axis_samples(lo, hi, 5) for lo, hi in region]
    findings = []
    for coords in itertools.product(*axes):
        point = Point(coords)
        try:
            out = propagate(spec, coords)
        except DomainViolation as e:
            findings.append(Diagnostic(point, "evaluation_error", str(e)))
            continue
        value, gradient = out.f, out.g
        if not np.all(np.isfinite(gradient)):
            g_sq = math.inf
        elif math.isinf(g_sq := float(gradient @ gradient)):
            largest = float(np.max(np.abs(gradient)))
            findings.append(Diagnostic(point, "evaluation_error", f"|grad f|^2 overflows (largest |partial| {largest!r})"))
            continue
        if not math.isfinite(value) or value <= 0.0:
            findings.append(Diagnostic(point, "nonpositive_output", f"f = {value!r}", value=float(value)))
        for i in range(spec.n):
            gi = float(gradient[i])
            if not math.isfinite(gi) or abs(gi) <= ZERO_MARGINAL_RTOL * math.sqrt(g_sq):
                findings.append(Diagnostic(point, "zero_partial", f"df/dx{i + 1} = {gi!r}", axis=i, value=gi))
        if not spec.has_composition:
            continue
        u, ok = 1.0, True
        for i, g in enumerate(spec.inners):
            try:
                gv, gd, _ = univariate_jet(g, point[i])
            except DomainViolation as e:
                findings.append(Diagnostic(point, "evaluation_error", str(e), axis=i))
                ok = False
                continue
            if gv <= 0.0:
                findings.append(Diagnostic(point, "inner_nonpositive", f"g{i + 1} = {gv!r}", axis=i, value=gv))
                ok = False
            if abs(point[i] * gd) <= ZERO_MARGINAL_RTOL * abs(gv):
                findings.append(Diagnostic(point, "zero_inner_derivative", f"g{i + 1}' = {gd!r}", axis=i, value=gd))
            u *= gv
        if ok:
            try:
                fv, fd1, _ = univariate_jet(spec.outer, u)
            except DomainViolation as e:
                findings.append(Diagnostic(point, "evaluation_error", str(e)))
                continue
            if abs(u * fd1) <= ZERO_MARGINAL_RTOL * abs(fv):
                findings.append(Diagnostic(point, "zero_outer_derivative", f"F' = {fd1!r}", value=fd1))
    return findings


def trees(variable):
    """Small expression trees over ``variable``, including partial
    functions (ln, real powers, quotients) that fail on part of a box."""
    leaves = st.one_of(variable, st.builds(Const, st.floats(-2.0, 2.0)))
    return st.recursive(
        leaves,
        lambda t: st.one_of(
            st.builds(Add, t, t),
            st.builds(Mul, t, t),
            st.builds(Div, t, t),
            st.builds(Neg, t),
            st.builds(Ln, t),
            st.builds(Pow, t, st.sampled_from([0.5, 1.5, -1.0, 2.0, 3.0])),
            st.builds(lambda a, c: Exp(Mul(Const(c), a)), t, st.floats(-3.0, 3.0)),
        ),
        max_leaves=6,
    )


@st.composite
def validate_cases(draw):
    n = draw(st.integers(2, 3))
    if draw(st.booleans()):
        spec = FunctionSpec(n, draw(trees(st.builds(Var, st.integers(0, n - 1)))))
    else:
        one = trees(st.just(Var(0))).filter(variables)
        spec = build_quasi_product(draw(one), [draw(one) for _ in range(n)])
    lo = draw(st.floats(0.1, 1.0))
    return spec, [(lo, lo * draw(st.floats(1.5, 5.0)))] * n


@settings(max_examples=100, deadline=None)
@given(validate_cases())
def test_validate_equals_per_point_loop(case):
    spec, region = case
    with np.errstate(all="ignore"):
        want = _reference_validate(spec, region)
    assert repr(validate(spec, region)) == repr(want)
