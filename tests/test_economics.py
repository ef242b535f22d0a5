"""Elasticities, marginal rates of substitution and the bordered-Hessian
indicators against hand values and cross-identities."""

import math

import numpy as np
import pytest

from prodgeo.catalog import FunctionSpec, build_family, build_quasi_product
from prodgeo.economics import (
    allen_bordered_matrix,
    allen_determinant,
    allen_elasticity,
    hicks_elasticity,
    mrs,
    output_elasticity,
    substitution_sample,
)
from prodgeo.errors import (
    DegenerateDenominator,
    DomainViolation,
    ProdGeoError,
    SingularAllenDeterminant,
    ZeroMarginalProduct,
)
from prodgeo.expr import Const, Exp, Mul, Pow, Var
from prodgeo.geometry import curvature_sample
from prodgeo.jets import jet
from prodgeo.reports import geometry_report, grid_reports

SQRT_CD = build_family("cobb_douglas", {"A": 1.0, "k": (0.5, 0.5)})


# ---------------------------------------------------------------------------
# output elasticity
# ---------------------------------------------------------------------------

def test_cobb_douglas_elasticity_equals_exponent_everywhere():
    spec = build_family("cobb_douglas", {"A": 2.3, "k": (0.3, 0.7)})
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = tuple(0.5 + 1.5 * rng.random(2))
        j = jet(spec, p)
        assert output_elasticity(j, p, 0) == pytest.approx(0.3, abs=1e-13)
        assert output_elasticity(j, p, 1) == pytest.approx(0.7, abs=1e-13)


def test_transcendental_elasticity_is_affine_in_input():
    a, b = (0.5, 0.2), (0.4, -0.3)
    spec = build_family("transcendental", {"A": 1.0, "a": a, "b": b})
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = tuple(0.5 + 1.5 * rng.random(2))
        j = jet(spec, p)
        for i in range(2):
            assert output_elasticity(j, p, i) == pytest.approx(a[i] + b[i] * p[i], rel=1e-12)


def test_spillman_elasticity_hand_value():
    spec = build_family("spillman_mitscherlich", {"A": 1.0, "a": (1.0, 1.0)})
    j = jet(spec, (1.0, 1.0))
    expected = math.exp(-1.0) / (1.0 - math.exp(-1.0))
    assert output_elasticity(j, (1.0, 1.0), 0) == pytest.approx(expected, rel=1e-13)


def test_product_elasticity_ignores_other_inputs():
    """For a plain product of univariate factors, E_i depends on x_i only."""
    spec = build_quasi_product(
        Var(0),
        [Pow(Var(0), 0.6), Exp(Mul(Const(-0.4), Var(0))), Mul(Const(1.5), Pow(Var(0), 0.3))],
    )
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = list(0.5 + 1.5 * rng.random(3))
        e0 = output_elasticity(jet(spec, tuple(p)), tuple(p), 0)
        p[1], p[2] = 2.0 * p[1], 0.5 * p[2]
        e0_again = output_elasticity(jet(spec, tuple(p)), tuple(p), 0)
        assert abs(e0 - e0_again) <= 1e-12 * (1.0 + abs(e0))


# ---------------------------------------------------------------------------
# marginal rate of substitution
# ---------------------------------------------------------------------------

def test_mrs_hand_values():
    spec = build_family("cobb_douglas", {"A": 1.0, "k": (0.3, 0.7)})
    p = (1.0, 2.0)
    assert mrs(jet(spec, p), 0, 1) == pytest.approx(7.0 / 6.0, rel=1e-14)
    # symmetric function at a symmetric point
    assert mrs(jet(SQRT_CD, (1.3, 1.3)), 0, 1) == pytest.approx(1.0, rel=1e-14)


def test_mrs_proportionality_for_equal_exponents():
    spec = build_family("cobb_douglas", {"A": 2.0, "k": (0.4, 0.4)})
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = tuple(0.5 + 1.5 * rng.random(2))
        assert mrs(jet(spec, p), 0, 1) == pytest.approx(p[0] / p[1], rel=1e-13)


def test_mrs_reciprocity():
    spec = build_family("transcendental", {"A": 1.0, "a": (0.5, 0.3), "b": (0.2, 0.6)})
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = tuple(0.5 + 1.5 * rng.random(2))
        j = jet(spec, p)
        assert mrs(j, 0, 1) * mrs(j, 1, 0) == pytest.approx(1.0, rel=1e-12)


def test_mrs_zero_marginal_product():
    body = Pow(Var(0) - 1.0, 2.0) + Var(1)
    spec = FunctionSpec(2, body)
    j = jet(spec, (1.0, 1.0))
    with pytest.raises(ZeroMarginalProduct):
        mrs(j, 0, 1)


# ---------------------------------------------------------------------------
# Hicks elasticity
# ---------------------------------------------------------------------------

def test_hicks_is_one_for_any_cobb_douglas():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = 2 + int(rng.random() < 0.5)
        k = tuple((0.2 + rng.random()) * (1.0 if rng.random() < 0.8 else -1.0) for _ in range(n))
        spec = build_family("cobb_douglas", {"A": 0.5 + rng.random(), "k": k})
        p = tuple(0.5 + 1.5 * rng.random(n))
        j = jet(spec, p)
        assert hicks_elasticity(j, p, 0, 1) == pytest.approx(1.0, abs=1e-10)


def test_hicks_recovers_sigma_for_ces_type_product():
    sigma = 2.0
    c = (sigma - 1.0) / sigma
    spec = build_quasi_product(
        Var(0), [Exp(Pow(Var(0), c)), Exp(Mul(Const(0.7), Pow(Var(0), c)))]
    )
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = tuple(0.5 + 1.5 * rng.random(2))
        j = jet(spec, p)
        assert hicks_elasticity(j, p, 0, 1) == pytest.approx(sigma, rel=1e-12)


def test_hicks_symmetry_is_bitwise():
    spec = build_family("spillman_mitscherlich", {"A": 1.0, "a": (1.0, 0.6, 1.4)})
    rng = np.random.default_rng(16)
    for _ in range(20):
        p = tuple(0.5 + 1.5 * rng.random(3))
        j = jet(spec, p)
        for i in range(3):
            for k in range(i + 1, 3):
                assert hicks_elasticity(j, p, i, k) == hicks_elasticity(j, p, k, i)


def test_hicks_degenerate_for_perfect_substitutes():
    linear = FunctionSpec(2, Var(0) + Var(1))
    j = jet(linear, (1.0, 1.0))
    with pytest.raises(DegenerateDenominator):
        hicks_elasticity(j, (1.0, 1.0), 0, 1)


# ---------------------------------------------------------------------------
# Allen determinant and elasticity
# ---------------------------------------------------------------------------

def test_allen_bordered_matrix_layout():
    j = jet(SQRT_CD, (1.0, 1.0))
    b = allen_bordered_matrix(j)
    assert b[0, 0] == 0.0
    assert np.all(b[0, 1:] == j.gradient)
    assert np.all(b[1:, 0] == j.gradient)
    assert np.all(b[1:, 1:] == j.hessian)


def test_allen_determinant_hand_values():
    assert allen_determinant(jet(SQRT_CD, (1.0, 1.0))) == pytest.approx(0.25, rel=1e-14)
    paraboloid = FunctionSpec(2, Pow(Var(0), 2.0) + Pow(Var(1), 2.0))
    assert allen_determinant(jet(paraboloid, (1.0, 1.0))) == pytest.approx(-16.0, rel=1e-14)
    linear = FunctionSpec(2, Var(0) + Var(1))
    assert allen_determinant(jet(linear, (1.0, 1.0))) == 0.0


def test_allen_elasticity_hand_value_and_singularity():
    j = jet(SQRT_CD, (1.0, 1.0))
    assert allen_elasticity(j, (1.0, 1.0), 0, 1) == pytest.approx(1.0, rel=1e-12)
    linear = FunctionSpec(2, Var(0) + Var(1))
    with pytest.raises(SingularAllenDeterminant):
        allen_elasticity(jet(linear, (1.0, 1.0)), (1.0, 1.0), 0, 1)


def test_allen_is_one_for_three_input_cobb_douglas():
    spec = build_family("cobb_douglas", {"A": 1.0, "k": (0.5, 0.3, 0.4)})
    rng = np.random.default_rng(18)
    for _ in range(10):
        p = tuple(0.5 + 1.5 * rng.random(3))
        j = jet(spec, p)
        for i in range(3):
            for k in range(i + 1, 3):
                assert allen_elasticity(j, p, i, k) == pytest.approx(1.0, rel=1e-10)


def test_two_input_hicks_allen_coincidence():
    """For two inputs the Hicks and Allen elasticities are the same
    indicator; checked over 200 random fixtures and points."""
    rng = np.random.default_rng(7)

    def u(lo, hi):
        return lo + (hi - lo) * rng.random()

    def sgn():
        return 1.0 if rng.random() < 0.5 else -1.0

    def rand_spec():
        r = rng.random()
        if r < 0.2:
            return build_family(
                "cobb_douglas", {"A": u(0.5, 2), "k": (sgn() * u(0.2, 1.2), sgn() * u(0.2, 1.2))}
            )
        if r < 0.4:
            return build_family(
                "acms",
                {
                    "A": u(0.5, 2),
                    "k": (u(0.3, 1.5), u(0.3, 1.5)),
                    "rho": sgn() * u(0.3, 2.0),
                    "gamma": sgn() * u(0.3, 1.5),
                },
            )
        if r < 0.6:
            return build_family("spillman_mitscherlich", {"A": u(0.5, 2), "a": (u(0.3, 1.5), u(0.3, 1.5))})
        if r < 0.8:
            return build_family(
                "transcendental",
                {
                    "A": u(0.5, 2),
                    "a": (u(0.1, 1.0), u(0.1, 1.0)),
                    "b": (sgn() * u(0.1, 0.8), sgn() * u(0.1, 0.8)),
                },
            )
        def inner():
            c = u(0.5, 2.0)
            if rng.random() < 0.5:
                return Mul(Const(c), Pow(Var(0), sgn() * u(0.3, 1.5)))
            return Mul(Const(c), Exp(Mul(Const(sgn() * u(0.2, 1.0)), Var(0))))

        outer = Mul(Const(u(0.5, 2.0)), Pow(Var(0), sgn() * u(0.3, 2.0)))
        return build_quasi_product(outer, [inner(), inner()])

    done = 0
    while done < 200:
        spec = rand_spec()
        p = (u(0.5, 2.0), u(0.5, 2.0))
        try:
            j = jet(spec, p)
            h12 = hicks_elasticity(j, p, 0, 1)
            a12 = allen_elasticity(j, p, 0, 1)
        except ProdGeoError:
            continue  # degenerate draw; redraw deterministically
        done += 1
        assert abs(a12 - h12) <= 1e-9 * (1.0 + abs(h12))


def test_substitution_sample_invariants():
    spec = build_family("cobb_douglas", {"A": 1.0, "k": (0.5, 0.3, 0.4)})
    p = (1.0, 1.4, 0.8)
    sample = substitution_sample(jet(spec, p), p)
    n = 3
    for i in range(n):
        assert sample.mrs[i, i] == 1.0
        assert math.isnan(sample.hicks[i, i])
        assert math.isnan(sample.allen[i, i])
        for k in range(n):
            if i != k:
                assert sample.mrs[i, k] * sample.mrs[k, i] == pytest.approx(1.0, rel=1e-12)
    assert np.all(sample.hicks[~np.isnan(sample.hicks)] == sample.hicks.T[~np.isnan(sample.hicks)])
    assert sample.elasticities == pytest.approx([0.5, 0.3, 0.4], abs=1e-13)
    # the sample shares one bordered determinant; each entry matches the public per-pair call
    assert sample.allen_determinant == allen_determinant(jet(spec, p))
    for i in range(n):
        for k in range(n):
            if i != k:
                assert allen_elasticity(jet(spec, p), p, i, k) == sample.allen[i, k]


@pytest.mark.parametrize(
    "spec",
    [
        build_family("cobb_douglas", {"A": 1.0, "k": (0.2, 0.3, 0.4)}),
        build_family("acms", {"A": 1.0, "k": (1.0, 0.5, 0.25), "rho": 0.5, "gamma": 0.9}),
        build_family("spillman_mitscherlich", {"A": 1.0, "a": (1.0, 2.0)}),
    ],
)
def test_geometry_report_is_assembled_from_the_samples(spec):
    def bits(x):
        return np.asarray(x, dtype=float).tobytes()

    p = tuple(0.7 + 0.3 * i for i in range(spec.n))
    report = geometry_report(spec, p)
    curv = curvature_sample(spec, p)
    sub = substitution_sample(jet(spec, p), p)
    assert report.value == jet(spec, p).value
    pairs = [
        (report.slope, curv.w),
        (report.gauss_kronecker, curv.gauss_kronecker),
        (report.mean_curvature, curv.mean),
        (report.sectional, curv.sectional),
        (report.elasticities, sub.elasticities),
        (report.mrs, sub.mrs),
        (report.hicks, sub.hicks),
        (report.allen, sub.allen),
        (report.allen_determinant, sub.allen_determinant),
    ]
    for got, want in pairs:
        assert bits(got) == bits(want)


@pytest.mark.parametrize(
    "spec, error",
    [
        # jet() fails only where x1 > 1.5
        (FunctionSpec(2, Pow(Const(1.5) - Var(0), 0.5) + Var(1)), DomainViolation),
        # df/dx2 = -40 exp(-40 x2) is numerically zero for larger x2 only
        (FunctionSpec(2, Var(0) + Exp(Mul(Const(-40.0), Var(1)))), ZeroMarginalProduct),
        # Hicks(1, 3) and the bordered determinant fail everywhere; the
        # determinant is checked after the first Hicks value, Hicks(1, 2)
        (FunctionSpec(3, Pow((Var(0) + Var(2)) * Var(1), 0.5)), SingularAllenDeterminant),
    ],
)
def test_grid_reports_raise_the_error_of_a_loop_over_the_points(spec, error):
    from prodgeo.classifier import default_grid

    grid = default_grid(spec.n)
    with pytest.raises(error) as exc:
        grid_reports(spec, grid)
    for p in grid.points():
        try:
            geometry_report(spec, p)
        except ProdGeoError as e:
            direct = e
            break
    assert type(direct) is error and exc.value.point == p
    assert str(exc.value) == f"{direct} at point {p.coords}"


@pytest.mark.parametrize(
    "spec",
    [
        build_family("transcendental", {"A": 1.0, "a": (0.5, 0.3, 0.2), "b": (0.2, 0.1, -0.3)}),
        build_family("acms", {"A": 1.3, "k": (1.0, 0.6), "rho": 0.5, "gamma": 0.7}),
    ],
)
def test_substitution_of_grid_jet_equals_each_point_bitwise(spec):
    from prodgeo.classifier import default_grid
    from prodgeo.jets import grid_jet

    points = default_grid(spec.n, seed=1).points()
    coords = np.array([p.coords for p in points]).T.copy()
    grid = grid_jet(spec, coords)
    n = spec.n
    indicators = [lambda j, x, i=i: output_elasticity(j, x, i) for i in range(n)]
    indicators += [lambda j, x, i=i, k=k: mrs(j, i, k) for i in range(n) for k in range(n) if i != k]
    indicators += [lambda j, x, i=i, k=k: hicks_elasticity(j, x, i, k) for i in range(n) for k in range(n) if i != k]
    for f in indicators:
        values = f(grid, coords)
        assert values.shape == (len(points),)
        for k, p in enumerate(points):
            single = f(jet(spec, p), p)
            assert type(single) is float
            assert np.float64(values[k]).tobytes() == np.float64(single).tobytes()


def test_grid_jet_zero_marginal_raises_for_the_grid():
    from prodgeo.jets import grid_jet

    # df/dx2 = -40 exp(-40 x2) is numerically zero only at the larger x2.
    spec = FunctionSpec(2, Var(0) + Exp(Mul(Const(-40.0), Var(1))))
    coords = np.array([[1.0, 1.0], [0.5, 2.0]])
    grid = grid_jet(spec, coords)
    assert math.isfinite(mrs(jet(spec, (1.0, 0.5)), 1, 0))
    with pytest.raises(ZeroMarginalProduct, match="x2"):
        mrs(grid, 1, 0)
