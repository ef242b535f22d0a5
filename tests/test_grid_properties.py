"""Property tests: a grid evaluated at once gives, bit for bit, the
numbers of a loop over its points."""

import itertools
import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from prodgeo.catalog import Diagnostic, FunctionSpec, Point, build_family, build_quasi_product, validate
from prodgeo.classifier import SampleGrid, TolerancePolicy, _bound, _largest, _mean_spread, _smallest, estimate_sigma
from prodgeo.economics import ZERO_MARGINAL_RTOL, hicks_elasticity
from prodgeo.errors import DomainViolation, ProdGeoError
from prodgeo.expr import Add, Const, Div, Exp, Ln, Mul, Neg, Pow, Var, eval_expr, variables
from prodgeo.jets import Jet2, grid_jet, jet, propagate, univariate_jet
from prodgeo.reports import geometry_report, report_table

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


special = st.sampled_from([math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.lists(st.lists(special | st.floats(), min_size=m, max_size=m), min_size=1)))
def test_mean_spread_equals_the_list_reduction(rows):
    # sum() of floats adds one after another from 0 up to Python 3.11.  A
    # NaN's sign is not part of the result: no output shows it, and Python
    # and numpy keep different operands of NaN + NaN.
    flat = [x for row in rows for x in row]
    total = 0
    for x in flat:
        total += x
    mean, spread = _mean_spread(np.array(rows))
    assert (type(mean), type(spread)) == (float, float)
    unsigned_nan = lambda xs: _bits([math.nan if math.isnan(x) else x for x in xs])  # noqa: E731
    assert unsigned_nan([mean, spread]) == unsigned_nan([total / len(flat), max(flat) - min(flat)])


def _scan(column, better, start):
    """The first entry of ``column`` that ``better`` prefers to every
    earlier one and to ``start``, and its index (None for ``start``), by a
    loop over the points with strict comparisons: NaN is never preferred."""
    best, witness = start, None
    for k, x in enumerate(column.tolist()):
        if better(x, best):
            best, witness = x, k
    return best, witness


@settings(max_examples=300, deadline=None)
@given(st.lists(special | st.floats(), min_size=1, max_size=24), st.floats(1e-30, 1.0), st.floats(1e-30, 1.0))
def test_column_reductions_equal_a_scan_over_the_points(entries, zero_abs, zero_rel):
    column = np.array(entries)
    tol = TolerancePolicy(zero_abs=zero_abs, zero_rel=zero_rel)
    for got, want in (
        (_largest(column), _scan(column, lambda x, best: x > best, -math.inf)),
        (_smallest(column), _scan(column, lambda x, best: x < best, math.inf)),
    ):
        assert type(got[0]) is float and _bits(got[0]) == _bits(want[0]) and got[1] == want[1]
    largest_noise, _ = _scan(column, lambda x, best: x > best, 0.0)
    assert _bits(_bound(tol, column)) == _bits(tol.zero_abs + tol.zero_rel * largest_noise)


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
def test_report_table_equals_pointwise_reports(report_cells, case):
    spec, grid = case
    points = grid.points()
    try:
        singles = [geometry_report(spec, p) for p in points]
    except ProdGeoError as e:
        with pytest.raises(type(e)):
            report_table(spec, grid)
        return
    for row, one in zip(report_table(spec, grid), singles, strict=True):
        assert row[: spec.n].tolist() == list(one.point.coords)
        assert _bits(row) == _bits(report_cells(one))


def _reference_validate(spec, region):
    """validate() as a loop over its mesh: scalar jets at each point, and
    each inner factor and the outer function evaluated on their own, over
    the documented mesh: 5 log-uniform samples per axis, endpoints included."""
    axes = [[lo * (hi / lo) ** (i / 4) for i in range(5)] for lo, hi in region]
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
            if math.isfinite(gv) and abs(point[i] * gd) <= ZERO_MARGINAL_RTOL * abs(gv):
                findings.append(Diagnostic(point, "zero_inner_derivative", f"g{i + 1}' = {gd!r}", axis=i, value=gd))
            u *= gv
        if ok:
            try:
                fv, fd1, _ = univariate_jet(spec.outer, u)
            except DomainViolation as e:
                findings.append(Diagnostic(point, "evaluation_error", str(e)))
                continue
            if math.isfinite(fv) and abs(u * fd1) <= ZERO_MARGINAL_RTOL * abs(fv):
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
    lows = [draw(st.floats(0.1, 1.0)) for _ in range(n)]
    return spec, [(lo, lo * draw(st.floats(1.5, 5.0))) for lo in lows]


@settings(max_examples=100, deadline=None)
@given(validate_cases())
def test_validate_equals_per_point_loop(case):
    spec, region = case
    with np.errstate(all="ignore"):
        want = _reference_validate(spec, region)
    assert list(map(repr, validate(spec, region))) == list(map(repr, want))


class DenseJet(Jet2):
    """The jet rules with a gradient row and packed Hessian rows for every
    input at every node: the reference for the support-aware ``Jet2``.
    The transcendental primitives are ``Jet2``'s, through ``_chain``."""

    def __init__(self, f, g, h):
        self.f, self.g, self.h = f, g, h

    @classmethod
    def seed(cls, x, index, n):
        shape = np.shape(x)
        g = np.zeros((n,) + shape)
        g[index] = 1.0
        return cls(x if shape else float(x), g, np.zeros((n * (n + 1) // 2,) + shape))

    def __neg__(self):
        return DenseJet(-self.f, -self.g, -self.h)

    def __add__(self, other):
        if isinstance(other, DenseJet):
            return DenseJet(self.f + other.f, self.g + other.g, self.h + other.h)
        return DenseJet(self.f + other, self.g, self.h)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, DenseJet):
            return DenseJet(
                self.f * other.f,
                self.f * other.g + other.f * self.g,
                self.f * other.h
                + other.f * self.h
                + _dense_outer(self.g, other.g)
                + _dense_outer(other.g, self.g),
            )
        return DenseJet(self.f * other, self.g * other, self.h * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DenseJet):
            if np.any(other.f == 0.0):
                raise DomainViolation("division by zero")
            q = self.f / other.f
            gq = (self.g - q * other.g) / other.f
            hq = (self.h - q * other.h - _dense_outer(gq, other.g) - _dense_outer(other.g, gq)) / other.f
            return DenseJet(q, gq, hq)
        if other == 0.0:
            raise DomainViolation("division by zero")
        return DenseJet(self.f / other, self.g / other, self.h / other)

    def __rtruediv__(self, other):
        if np.any(self.f == 0.0):
            raise DomainViolation("division by zero")
        q = other / self.f
        gq = -q * self.g / self.f
        hq = (-q * self.h - _dense_outer(gq, self.g) - _dense_outer(self.g, gq)) / self.f
        return DenseJet(q, gq, hq)

    def _chain(self, value, d1, d2):
        return DenseJet(value, d1 * self.g, d1 * self.h + d2 * _dense_outer(self.g, self.g))


def _dense_outer(a, b):
    rows, cols = np.triu_indices(len(a))
    return a[rows] * b[cols]


def _dense_propagate(spec, coords):
    """``propagate`` with dense jets."""
    n = spec.n
    out = eval_expr(spec.body, [DenseJet.seed(x, i, n) for i, x in enumerate(coords)])
    if isinstance(out, float):
        shape = np.shape(coords[0])
        out = DenseJet(np.full(shape, out) if shape else out, np.zeros((n,) + shape), np.zeros((n * (n + 1) // 2,) + shape))
    return out


@st.composite
def bodies_and_coords(draw):
    """A random tree over some of n inputs, and the (n, P) coordinates of a grid."""
    n = draw(st.integers(2, 4))
    used = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    spec = FunctionSpec(n, draw(trees(st.sampled_from(used).map(Var))))
    lo = draw(st.floats(0.1, 1.0))
    box = ((lo, lo * draw(st.floats(1.5, 5.0))),) * n
    return spec, SampleGrid(box, points_per_axis=3, seed=draw(st.integers(0, 99)), jitter_points=2).coords()


@settings(max_examples=200, deadline=None)
@given(bodies_and_coords())
def test_support_aware_jets_equal_dense_jets(case):
    spec, coords = case
    used = sorted(variables(spec.body))
    unused = [i for i in range(spec.n) if i not in used]
    for at in (coords, tuple(coords[:, 0].tolist())):
        with np.errstate(all="ignore"):
            try:
                want = _dense_propagate(spec, at)
            except ProdGeoError as e:
                with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
                    propagate(spec, at)
                continue
            got = propagate(spec, at)
        assert _bits(got.f) == _bits(want.f)
        # Per point: (gradient, packed Hessian) rows.
        (g, h), (dense_g, dense_h) = (
            (np.reshape(j.g, (spec.n, -1)), np.reshape(j.h, (len(j.h), -1))) for j in (got, want)
        )
        assert _bits(g[unused]) == _bits(np.zeros_like(g[unused]))
        # jet() rejects a point with a non-finite derivative: the same
        # points on both.  Elsewhere the entries agree bit for bit, except
        # that a zero may change its sign: a dense operand can hold -0.0
        # where the support-aware one embeds a structural +0.0.
        finite = np.isfinite(np.concatenate([g, h])).all(axis=0)
        assert (finite == np.isfinite(np.concatenate([dense_g, dense_h])).all(axis=0)).all()
        assert _bits(g[used][:, finite] + 0.0) == _bits(dense_g[used][:, finite] + 0.0)
        assert _bits(h[:, finite] + 0.0) == _bits(dense_h[:, finite] + 0.0)
