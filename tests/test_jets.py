"""Derivative propagation against hand values and the finite-difference
oracle, plus the chain-rule assembly cross-check for composite
functions."""

import math

import numpy as np
import pytest

from prodgeo.catalog import FunctionSpec, build_family, build_quasi_product
from prodgeo.classifier import catalog_fixtures, default_grid
from prodgeo.errors import ArityMismatch, DomainViolation, StencilOutOfDomain
from prodgeo.expr import Const, Exp, Ln, Mul, Pow, Var
from prodgeo.jets import fd_oracle, grid_jet, jet, univariate_jet

FAMILY_SPECS = [
    build_family("cobb_douglas", {"A": 1.7, "k": (0.6, -0.4)}),
    build_family("cobb_douglas", {"A": 0.9, "k": (0.5, 0.3, 0.4)}),
    build_family("acms", {"A": 1.2, "k": (1.0, 0.5), "rho": 2.0, "gamma": 1.5}),
    build_family("acms", {"A": 1.0, "k": (0.7, 0.9, 0.4), "rho": -1.0, "gamma": -1.0}),
    build_family("spillman_mitscherlich", {"A": 2.0, "a": (1.0, 0.7)}),
    build_family("spillman_mitscherlich", {"A": 1.0, "a": (1.0, 0.7, 1.3)}),
    build_family("transcendental", {"A": 1.1, "a": (0.5, 0.0), "b": (0.4, -0.6)}),
    build_family("transcendental", {"A": 1.0, "a": (0.5, 0.3, 0.2), "b": (0.2, 0.0, -0.3)}),
    build_family(
        "product",
        {"inners": (Mul(Const(1.5), Pow(Var(0), 0.7)), Exp(Mul(Const(-0.4), Var(0))))},
    ),
    build_quasi_product(
        Pow(Var(0), 0.6),
        [Pow(Var(0), 0.8), Exp(Mul(Const(0.3), Var(0))), Mul(Const(1.2), Pow(Var(0), -0.5))],
    ),
]


def test_jet_cobb_douglas_hand_values():
    spec = build_family("cobb_douglas", {"A": 1.0, "k": (0.5, 0.5)})
    j = jet(spec, (1.0, 1.0))
    assert j.value == pytest.approx(1.0, rel=1e-15)
    assert j.gradient == pytest.approx([0.5, 0.5], rel=1e-14)
    assert j.hessian == pytest.approx(np.array([[-0.25, 0.25], [0.25, -0.25]]), rel=1e-14)


def test_jet_linear_has_zero_hessian():
    spec = FunctionSpec(2, Mul(Const(2.0), Var(0)) + Mul(Const(3.0), Var(1)))
    j = jet(spec, (0.7, 1.9))
    assert np.all(j.hessian == 0.0)
    assert j.gradient == pytest.approx([2.0, 3.0], rel=1e-15)


def test_jet_exponential_hand_values():
    spec = FunctionSpec(2, Exp(Var(0) + Var(1)))
    j = jet(spec, (0.5, 0.5))
    assert j.gradient == pytest.approx([math.e, math.e], rel=1e-14)
    assert j.hessian == pytest.approx(np.full((2, 2), math.e), rel=1e-14)


def test_jet_value_matches_evaluate_exactly():
    from prodgeo.catalog import evaluate

    rng = np.random.default_rng(17)
    for spec in FAMILY_SPECS:
        for _ in range(5):
            p = tuple(0.5 + 1.5 * rng.random(spec.n))
            assert jet(spec, p).value == evaluate(spec, p)


def test_jet_hessian_is_bitwise_symmetric():
    rng = np.random.default_rng(23)
    for spec in FAMILY_SPECS:
        for _ in range(10):
            p = tuple(0.5 + 1.5 * rng.random(spec.n))
            h = jet(spec, p).hessian
            assert np.all(h == h.T)


def test_jet_propagates_domain_violation():
    spec = FunctionSpec(2, Pow(Var(0) - 1.0, 0.5) + Var(1))
    with pytest.raises(DomainViolation):
        jet(spec, (0.5, 1.0))
    with pytest.raises(ArityMismatch):
        jet(build_family("cobb_douglas", {"A": 1.0, "k": (0.5, 0.5)}), (1.0,))
    # derivative coefficients that overflow surface as domain violations
    tiny_base = FunctionSpec(2, Pow(Mul(Const(1e-300), Var(0)), 0.5) + Var(1))
    with pytest.raises(DomainViolation):
        jet(tiny_base, (1.0, 1.0))


def test_ln_of_tiny_value_is_a_domain_violation():
    """Below about 1e-162 the second derivative -1/f^2 of ln overflows."""
    spec = FunctionSpec(2, Exp(Ln(Mul(Const(1e-170), Var(0)))) + Var(1))
    with pytest.raises(DomainViolation, match="second derivative of ln") as exc:
        jet(spec, (1.0, 1.0))
    assert exc.value.point.coords == (1.0, 1.0)
    with pytest.raises(DomainViolation, match="second derivative of ln"):
        grid_jet(spec, np.array([[0.5, 1.0, 2.0], [1.0, 1.0, 1.0]]))


def test_univariate_jet():
    v, d1, d2 = univariate_jet(Pow(Var(0), 3.0), 2.0)
    assert (v, d1, d2) == (8.0, 12.0, 12.0)
    v, d1, d2 = univariate_jet(Const(5.0), 1.0)
    assert (v, d1, d2) == (5.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def test_fd_oracle_hand_hessian():
    spec = FunctionSpec(2, Mul(Mul(Var(0), Var(0)), Var(1)))
    fd = fd_oracle(spec, (1.0, 1.0), 1e-4)
    assert fd.hessian == pytest.approx(np.array([[2.0, 2.0], [2.0, 0.0]]), abs=1e-5)


def test_fd_oracle_constant_is_exact():
    spec = FunctionSpec(2, Const(5.0))
    fd = fd_oracle(spec, (1.0, 1.0), 1e-4)
    assert fd.value == 5.0
    assert np.all(fd.gradient == 0.0)
    assert np.all(fd.hessian == 0.0)


def test_fd_oracle_matches_jet_on_spillman():
    spec = build_family("spillman_mitscherlich", {"A": 1.0, "a": (1.0, 1.0)})
    j = jet(spec, (1.0, 1.0))
    fd = fd_oracle(spec, (1.0, 1.0), 1e-4)
    assert fd.gradient == pytest.approx(j.gradient, abs=1e-6)
    assert fd.hessian == pytest.approx(j.hessian, abs=1e-6)


def test_fd_oracle_stencil_guard():
    spec = build_family("cobb_douglas", {"A": 1.0, "k": (0.5, 0.5)})
    with pytest.raises(StencilOutOfDomain):
        fd_oracle(spec, (1e-5, 1.0), 1e-4)
    with pytest.raises(StencilOutOfDomain):
        fd_oracle(spec, (1.0, 1.0), -1e-4)


def test_oracle_agreement_across_catalog():
    """jet() and the finite-difference oracle agree on 100 random points
    per family: gradients to 1e-6 (1 + max|g|), Hessians to 1e-4 (1 + max|h|)."""
    rng = np.random.default_rng(99)
    for spec in FAMILY_SPECS:
        for _ in range(100):
            p = tuple(0.5 + 1.5 * rng.random(spec.n))
            ja = jet(spec, p)
            jf = fd_oracle(spec, p, 1e-4)
            gtol = 1e-6 * (1.0 + float(np.max(np.abs(ja.gradient))))
            htol = 1e-4 * (1.0 + float(np.max(np.abs(ja.hessian))))
            assert float(np.max(np.abs(ja.gradient - jf.gradient))) <= gtol
            assert float(np.max(np.abs(ja.hessian - jf.hessian))) <= htol


# ---------------------------------------------------------------------------
# chain-rule assembly for composite functions
# ---------------------------------------------------------------------------

def _assembled_jet(spec, p):
    """Hessian of F(prod g_i) assembled from univariate jets:
    f_i  = u F' g_i'/g_i
    f_ii = u^2 F'' (g_i'/g_i)^2 + u F' g_i''/g_i
    f_ij = u (u F'' + F') (g_i'/g_i)(g_j'/g_j)      (i != j)
    """
    n = spec.n
    gv = np.zeros(n)
    gd = np.zeros(n)
    gdd = np.zeros(n)
    for i, g in enumerate(spec.inners):
        gv[i], gd[i], gdd[i] = univariate_jet(g, p[i])
    u = float(np.prod(gv))
    _, f1, f2 = univariate_jet(spec.outer, u)
    r = gd / gv
    grad = u * f1 * r
    hess = np.empty((n, n))
    for i in range(n):
        hess[i, i] = u * u * f2 * r[i] * r[i] + u * f1 * gdd[i] / gv[i]
        for k in range(n):
            if k != i:
                hess[i, k] = u * (u * f2 + f1) * r[i] * r[k]
    return grad, hess


@pytest.mark.parametrize(
    "spec",
    [
        build_family("cobb_douglas", {"A": 1.3, "k": (0.4, 0.8)}),
        build_family("spillman_mitscherlich", {"A": 1.0, "a": (1.0, 0.6, 1.4)}),
        build_quasi_product(
            Pow(Var(0), 0.5), [Pow(Var(0), 0.7), Exp(Mul(Const(0.4), Var(0)))]
        ),
        build_quasi_product(
            Mul(Const(2.0), Pow(Var(0), -0.3)),
            [Exp(Mul(Const(-0.5), Var(0))), Mul(Const(1.5), Var(0)), Pow(Var(0), 1.2)],
        ),
    ],
)
def test_composition_consistency(spec):
    rng = np.random.default_rng(41)
    for _ in range(10):
        p = tuple(0.5 + 1.5 * rng.random(spec.n))
        j = jet(spec, p)
        grad, hess = _assembled_jet(spec, p)
        assert j.gradient == pytest.approx(grad, rel=1e-12)
        assert j.hessian == pytest.approx(hess, rel=1e-12)


# ---------------------------------------------------------------------------
# grid jets
# ---------------------------------------------------------------------------

def _coords(points):
    return np.array([p.coords for p in points]).T.copy()


@pytest.mark.parametrize(
    "spec",
    FAMILY_SPECS + [fx.spec for fx in catalog_fixtures()],
    ids=[f"family{i}" for i in range(len(FAMILY_SPECS))] + [fx.name for fx in catalog_fixtures()],
)
def test_grid_jet_equals_jet_at_every_point_bitwise(spec):
    points = default_grid(spec.n).points()
    grid = grid_jet(spec, _coords(points))
    assert grid.value.shape == (len(points),)
    assert grid.gradient.shape == (spec.n, len(points))
    assert grid.hessian.shape == (spec.n, spec.n, len(points))
    for k, p in enumerate(points):
        one = jet(spec, p)
        assert np.float64(grid.value[k]).tobytes() == np.float64(one.value).tobytes()
        assert grid.gradient[:, k].tobytes() == one.gradient.tobytes()
        assert grid.hessian[:, :, k].tobytes() == one.hessian.tobytes()


@pytest.mark.parametrize(
    "spec",
    FAMILY_SPECS + [fx.spec for fx in catalog_fixtures()],
    ids=[f"family{i}" for i in range(len(FAMILY_SPECS))] + [fx.name for fx in catalog_fixtures()],
)
def test_grid_reports_equal_geometry_report_at_every_point_bitwise(spec):
    from prodgeo.errors import ProdGeoError
    from prodgeo.reports import geometry_report, grid_reports

    grid = default_grid(spec.n)
    try:
        rows = grid_reports(spec, grid)
    except ProdGeoError as e:
        # Fixtures that are not valid economics everywhere: the first
        # failing point of a loop over the points raises the same error.
        for p in grid.points():
            try:
                geometry_report(spec, p)
            except ProdGeoError as direct:
                assert (type(e), e.point) == (type(direct), p)
                return
        raise
    assert len(rows) == len(grid.points())
    for row, p in zip(rows, grid.points()):
        one = geometry_report(spec, p)
        assert row.point == p
        for name in one.__dataclass_fields__:
            got, want = getattr(row, name), getattr(one, name)
            if name != "point":
                assert type(got) is type(want), name
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
                if isinstance(want, np.ndarray):
                    assert got.flags.writeable == want.flags.writeable, name


def test_grid_jet_of_constant_body_and_failures():
    coords = np.array([[0.5, 1.0], [1.5, 2.0]])
    const = grid_jet(FunctionSpec(2, Const(3.0)), coords)
    assert const.value.tolist() == [3.0, 3.0]
    assert not const.gradient.any() and not const.hessian.any()
    # A failure at one point raises for the grid, with the failing value.
    with pytest.raises(DomainViolation) as exc:
        grid_jet(FunctionSpec(2, Pow(Const(1.2) - Var(0), 0.5) + Var(1)), np.array([[0.5, 1.5, 2.0], [1.0, 1.0, 1.0]]))
    assert str(exc.value) == f"real power of non-positive base {1.2 - 1.5!r}"
    with pytest.raises(ArityMismatch):
        grid_jet(FunctionSpec(2, Var(0) + Var(1)), np.ones((3, 4)))
