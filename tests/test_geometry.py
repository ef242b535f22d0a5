"""Curvature formulas against hand values, the analytic determinant
identity, and structural invariants of the curvature quantities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prodgeo.catalog import FunctionSpec, build_family, build_quasi_product
from prodgeo.classifier import catalog_fixtures
from prodgeo.errors import DegenerateDenominator, DegenerateOuter, DomainViolation, ProdGeoError, StructureMissing
from prodgeo.expr import Add, Const, Exp, Ln, Mul, Pow, Var, substitute
from prodgeo.geometry import (
    canonical_riemann_quads,
    curvature_sample,
    gauss_kronecker,
    hessian_determinant,
    mean_curvature,
    mean_curvature_of_jet,
    minimality_residual,
    plane_curvatures,
    quasi_product_hessian_det,
    riemann_component,
    sectional_curvature,
    slope_w,
)
from prodgeo.jets import jet
from prodgeo.linalg import det_pivoted
from prodgeo.reports import geometry_report

PARABOLOID = FunctionSpec(2, Pow(Var(0), 2.0) + Pow(Var(1), 2.0))
SQRT_CD = build_family("cobb_douglas", {"A": 1.0, "k": (0.5, 0.5)})


def test_slope_factor():
    assert slope_w(jet(FunctionSpec(2, Const(5.0)), (1.0, 1.0))) == 1.0
    assert slope_w(jet(SQRT_CD, (1.0, 1.0))) == pytest.approx(math.sqrt(1.5), rel=1e-15)
    linear = FunctionSpec(2, Mul(Const(3.0), Var(0)) + Mul(Const(4.0), Var(1)))
    assert slope_w(jet(linear, (1.0, 1.0))) == pytest.approx(math.sqrt(26.0), rel=1e-15)


def test_gauss_kronecker_hand_values():
    assert gauss_kronecker(jet(SQRT_CD, (1.0, 1.0))) == 0.0
    linear = FunctionSpec(2, Var(0) + Var(1))
    assert gauss_kronecker(jet(linear, (1.0, 1.0))) == 0.0
    # paraboloid at (1,1): det = 4, w^4 = 81
    assert gauss_kronecker(jet(PARABOLOID, (1.0, 1.0))) == pytest.approx(4.0 / 81.0, rel=1e-14)


def test_mean_curvature_hand_values():
    linear = FunctionSpec(2, Var(0) + Var(1))
    assert mean_curvature(linear, (1.0, 1.0)) == 0.0
    # sqrt Cobb-Douglas at (1,1): trace term -0.5/w with w = sqrt(1.5),
    # cross term zero, so H = -0.25 / sqrt(1.5); negative by the expansion
    h = mean_curvature(SQRT_CD, (1.0, 1.0))
    assert abs(h) == pytest.approx(0.25 / math.sqrt(1.5), rel=1e-13)
    assert h < 0.0
    # paraboloid at (1,1): (1/2)(4/3 - 16/27) = 10/27
    assert mean_curvature(PARABOLOID, (1.0, 1.0)) == pytest.approx(10.0 / 27.0, rel=1e-14)


def test_mean_curvature_against_divergence_finite_difference():
    """Independent check of the closed-form assembly: H is the averaged
    divergence of f_i / w, estimated here by central differences over
    jets at shifted points."""
    specs = [
        SQRT_CD,
        PARABOLOID,
        build_family("spillman_mitscherlich", {"A": 1.0, "a": (1.0, 0.7)}),
        build_family("transcendental", {"A": 1.2, "a": (0.4, 0.3), "b": (0.2, -0.1)}),
    ]
    h = 1e-5
    rng = np.random.default_rng(43)
    for spec in specs:
        for _ in range(5):
            p = np.array(0.7 + rng.random(2))

            def slope_ratio(q, i):
                jq = jet(spec, tuple(q))
                return float(jq.gradient[i]) / slope_w(jq)

            divergence = 0.0
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                divergence += (slope_ratio(p + e, i) - slope_ratio(p - e, i)) / (2.0 * h)
            assert mean_curvature(spec, tuple(p)) == pytest.approx(divergence / 2.0, abs=1e-8)


def test_cobb_douglas_return_to_scale_fixes_curvature_sign():
    """Decreasing return to scale gives positive Gauss-Kronecker
    curvature, increasing return gives negative."""
    rng = np.random.default_rng(47)
    decreasing = build_family("cobb_douglas", {"A": 1.0, "k": (0.4, 0.5)})
    increasing = build_family("cobb_douglas", {"A": 1.0, "k": (0.5, 0.6)})
    for _ in range(20):
        p = tuple(0.5 + 1.5 * rng.random(2))
        assert gauss_kronecker(jet(decreasing, p)) > 0.0
        assert gauss_kronecker(jet(increasing, p)) < 0.0


def test_minimality_residual_tracks_mean_curvature():
    rng = np.random.default_rng(31)
    for spec in (SQRT_CD, PARABOLOID, build_family("spillman_mitscherlich", {"A": 1.0, "a": (1.0, 0.7)})):
        for _ in range(10):
            p = tuple(0.5 + 1.5 * rng.random(2))
            j = jet(spec, p)
            h = mean_curvature_of_jet(j)
            residual = minimality_residual(j)
            assert residual == pytest.approx(2.0 * h * slope_w(j) ** 3, rel=1e-12)


def test_sectional_curvature_hand_values():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = tuple(0.5 + 1.5 * rng.random(2))
        assert abs(sectional_curvature(jet(SQRT_CD, p), 0, 1)) < 1e-15
    linear = FunctionSpec(2, Var(0) + Var(1))
    assert sectional_curvature(jet(linear, (1.0, 1.0)), 0, 1) == 0.0
    assert sectional_curvature(jet(PARABOLOID, (1.0, 1.0)), 0, 1) == pytest.approx(
        4.0 / 81.0, rel=1e-14
    )


def test_sectional_curvature_index_errors():
    j = jet(PARABOLOID, (1.0, 1.0))
    with pytest.raises(IndexError):
        sectional_curvature(j, 0, 0)
    with pytest.raises(IndexError):
        sectional_curvature(j, 0, 2)


def test_riemann_component_hand_values():
    j = jet(PARABOLOID, (1.0, 1.0))
    assert riemann_component(j, 0, 0, 1, 0) == 0.0
    assert riemann_component(j, 0, 1, 1, 0) == pytest.approx(4.0 / 81.0, rel=1e-14)
    with pytest.raises(IndexError):
        riemann_component(j, 0, 1, 1, 2)
    # rank-one Hessian: every component vanishes to round-off
    expsum = FunctionSpec(2, Mul(Const(1.3), Exp(Mul(Const(0.8), Var(0)) + Mul(Const(0.6), Var(1)))))
    for p in [(1.0, 1.0), (0.6, 1.7)]:
        je = jet(expsum, p)
        scale = float(np.max(np.abs(je.hessian))) ** 2
        for q in canonical_riemann_quads(2):
            assert abs(riemann_component(je, *q)) <= 1e-13 * scale


def test_riemann_antisymmetry_is_exact():
    spec = build_family("spillman_mitscherlich", {"A": 1.0, "a": (1.0, 0.7, 1.3)})
    rng = np.random.default_rng(13)
    for _ in range(5):
        p = tuple(0.5 + 1.5 * rng.random(3))
        j = jet(spec, p)
        for i, k, l, m in [(0, 1, 2, 0), (0, 2, 2, 1), (1, 2, 0, 1)]:
            r = riemann_component(j, i, k, l, m)
            assert riemann_component(j, k, i, l, m) == -r
            assert riemann_component(j, i, k, m, l) == -r


def test_canonical_quads():
    assert canonical_riemann_quads(2) == [(0, 1, 1, 0)]
    assert canonical_riemann_quads(3) == [(0, 1, 1, 0), (0, 2, 2, 0), (1, 2, 2, 1)]
    # Python ints: they key curvature_sample's riemann dict and show in its repr
    assert {type(i) for q in canonical_riemann_quads(3) for i in q} == {int}


def test_two_input_degeneracy():
    """For n = 2 the Gauss-Kronecker numerator and the sectional numerator
    are the same 2x2 determinant, computed identically."""
    rng = np.random.default_rng(19)
    spec = build_family("transcendental", {"A": 1.1, "a": (0.5, 0.3), "b": (0.2, -0.4)})
    for _ in range(20):
        p = tuple(0.5 + 1.5 * rng.random(2))
        j = jet(spec, p)
        h = j.hessian
        direct = float(h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0])
        assert hessian_determinant(j) == direct
        w2 = 1.0 + float(j.gradient @ j.gradient)
        assert gauss_kronecker(j) == pytest.approx(direct / w2**2, rel=1e-15)


def test_permutation_equivariance_of_curvature():
    spec = build_family("transcendental", {"A": 1.0, "a": (0.7, 0.2, 0.4), "b": (0.1, -0.3, 0.5)})
    perm = (2, 0, 1)  # permuted(y) = f(y[2], y[0], y[1])
    permuted = FunctionSpec(3, substitute(spec.body, {i: Var(perm[i]) for i in range(3)}))
    rng = np.random.default_rng(29)
    for _ in range(10):
        p = tuple(0.5 + 1.5 * rng.random(3))
        y = [0.0] * 3
        for i in range(3):
            y[perm[i]] = p[i]
        k1 = gauss_kronecker(jet(spec, p))
        k2 = gauss_kronecker(jet(permuted, tuple(y)))
        assert k2 == pytest.approx(k1, rel=1e-12, abs=1e-15)


def test_flatness_implies_vanishing_sectional():
    """Wherever all canonical components vanish, the sectional curvatures
    vanish too (same minors, different normalizer)."""
    specs = [
        build_quasi_product(Mul(Const(1.5), Var(0)), [Exp(Var(0)), Exp(Mul(Const(-0.4), Var(0)))]),
        build_quasi_product(Pow(Var(0), 0.5), [Var(0), Var(0), Var(0)]),
    ]
    rng = np.random.default_rng(37)
    for spec in specs:
        for _ in range(10):
            p = tuple(0.5 + 1.5 * rng.random(spec.n))
            j = jet(spec, p)
            scale = 1.0 + float(np.max(np.abs(j.hessian))) ** 2
            if all(abs(riemann_component(j, *q)) <= 1e-12 * scale for q in canonical_riemann_quads(spec.n)):
                for i in range(spec.n):
                    for k in range(i + 1, spec.n):
                        assert abs(sectional_curvature(j, i, k)) <= 1e-12 * scale


def test_curvature_sample_contents():
    sample = curvature_sample(SQRT_CD, (1.0, 1.0), extra_quads=[(0, 1, 0, 1)])
    assert sample.w == pytest.approx(math.sqrt(1.5), rel=1e-15)
    assert sample.gauss_kronecker == 0.0
    assert math.isnan(sample.sectional[0, 0])
    assert sample.sectional[0, 1] == sample.sectional[1, 0]
    assert set(sample.riemann) == {(0, 1, 1, 0), (0, 1, 0, 1)}
    assert sample.riemann[(0, 1, 0, 1)] == -sample.riemann[(0, 1, 1, 0)]


@pytest.mark.parametrize(
    "name",
    [
        f"{family}_{n}in"
        for n in (2, 3)
        for family in (
            "exp_of_linear",
            "squared_exponential_product",
            "transcendental_two_pure_exponentials",
            "transcendental_flat_exponential",
        )
    ],
)
def test_curvature_sample_computes_no_substitution_indicator(name):
    # Two pure exponential factors make straight isoquants: the Hicks
    # denominator vanishes, so only a record with substitution cells raises.
    spec = next(fx.spec for fx in catalog_fixtures() if fx.name == name)
    p = tuple(0.8 + 0.15 * i for i in range(spec.n))
    sample = curvature_sample(spec, p)
    assert sample.point.coords == p and sample.sectional.shape == (spec.n, spec.n)
    with pytest.raises(DegenerateDenominator):
        geometry_report(spec, p)


# ---------------------------------------------------------------------------
# analytic Hessian determinant for composite functions
# ---------------------------------------------------------------------------

def test_quasi_product_det_zero_cases():
    # exponential inners make every (g'/g)' vanish
    spec = build_quasi_product(Var(0), [Exp(Mul(Const(0.7), Var(0))), Exp(Mul(Const(-1.2), Var(0)))])
    assert abs(quasi_product_hessian_det(spec, (1.3, 0.8))) < 1e-12
    # identity outer over two square roots: determinant is exactly zero
    spec2 = build_quasi_product(Var(0), [Pow(Var(0), 0.5), Pow(Var(0), 0.5)])
    assert quasi_product_hessian_det(spec2, (1.0, 1.0)) == 0.0
    assert hessian_determinant(jet(spec2, (1.0, 1.0))) == 0.0


def test_quasi_product_det_square_outer_hand_value():
    spec = build_quasi_product(Pow(Var(0), 2.0), [Var(0), Var(0)])
    assert quasi_product_hessian_det(spec, (1.0, 1.0)) == pytest.approx(-12.0, rel=1e-14)
    assert hessian_determinant(jet(spec, (1.0, 1.0))) == pytest.approx(-12.0, rel=1e-14)


def test_quasi_product_det_requires_structure():
    acms = build_family("acms", {"A": 1.0, "k": (1.0, 1.0), "rho": 2.0, "gamma": 1.0})
    with pytest.raises(StructureMissing):
        quasi_product_hessian_det(acms, (1.0, 1.0))


def test_quasi_product_det_degenerate_outer():
    # F(u) = (u - 2)^2 has F'(2) = 0; inners u = x1 x2 hit u = 2 at (1, 2)
    outer = Pow(Add(Var(0), Const(-2.0)), 2.0)
    spec = build_quasi_product(outer, [Var(0), Var(0)])
    with pytest.raises(DegenerateOuter, match=r"^outer derivative vanishes at u=2\.0$") as exc:
        quasi_product_hessian_det(spec, (1.0, 2.0))
    assert exc.value.point.coords == (1.0, 2.0)


def test_quasi_product_det_names_the_point_of_an_inner_failure():
    # (1.2 - x1)^0.5 is not real at x1 = 1.5; jet and evaluate name the point too
    from prodgeo.catalog import evaluate

    spec = build_quasi_product(Pow(Var(0), 0.5), [Pow(Const(1.2) - Var(0), 0.5), Var(0)])
    for call in (quasi_product_hessian_det, jet, evaluate):
        with pytest.raises(DomainViolation, match=r"^real power of non-positive base") as exc:
            call(spec, (1.5, 1.0))
        assert exc.value.point.coords == (1.5, 1.0)


def test_quasi_product_det_overflow_is_a_domain_violation():
    # (u F')^n = (1e200)^2 overflows at u = 1
    spec = build_family("cobb_douglas", {"A": 1e200, "k": (1.0, 1.0)})
    with pytest.raises(DomainViolation, match=r"outer slope power overflows: 1e\+200 \*\* 2 at \(1\.0, 1\.0\)") as exc:
        quasi_product_hessian_det(spec, (1.0, 1.0))
    assert exc.value.point.coords == (1.0, 1.0)


def test_quasi_product_det_overflow_of_the_product_is_a_domain_violation():
    # (u F')^n is finite, and its product with the bracket overflows.
    spec = build_family("cobb_douglas", {"A": 1e150, "k": (0.7, 0.7)})
    with pytest.raises(DomainViolation, match=r"Hessian determinant overflows: .* at \(1e-10, 1e-10\)") as exc:
        quasi_product_hessian_det(spec, (1e-10, 1e-10))
    assert exc.value.point.coords == (1e-10, 1e-10)


def test_hessian_determinant_overflow_is_infinite_without_warning():
    j = jet(build_family("cobb_douglas", {"A": 1e200, "k": (1.0, 1.0)}), (1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hessian_determinant(j) == -math.inf


def test_quasi_product_det_matches_generic_on_random_fixtures():
    rng = np.random.default_rng(20260808)

    def u(lo, hi):
        return lo + (hi - lo) * rng.random()

    def sgn():
        return 1.0 if rng.random() < 0.5 else -1.0

    def rand_inner():
        c = u(0.5, 2.0)
        if rng.random() < 0.5:
            return Mul(Const(c), Pow(Var(0), sgn() * u(0.3, 1.5)))
        return Mul(Const(c), Exp(Mul(Const(sgn() * u(0.2, 1.0)), Var(0))))

    def rand_outer():
        if rng.random() < 0.5:
            return Mul(Const(u(0.5, 2.0)), Pow(Var(0), sgn() * u(0.3, 2.0)))
        return Add(Mul(Const(sgn() * u(0.5, 2.0)), Ln(Var(0))), Const(u(6.0, 12.0)))

    done = 0
    while done < 50:
        n = 2 + int(rng.random() < 0.5)
        spec = build_quasi_product(rand_outer(), [rand_inner() for _ in range(n)])
        pts = [tuple(u(0.5, 2.0) for _ in range(n)) for _ in range(20)]
        try:
            pairs = [
                (quasi_product_hessian_det(spec, p), hessian_determinant(jet(spec, p)))
                for p in pts
            ]
        except ProdGeoError:
            continue  # redraw fixtures whose output leaves the positive range
        done += 1
        for analytic, generic in pairs:
            assert abs(analytic - generic) <= 1e-9 * (1.0 + abs(generic))


# ---------------------------------------------------------------------------
# stacked determinants and grid jets
# ---------------------------------------------------------------------------

def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def test_slope_factor_overflow_is_a_domain_violation():
    # w is about 1.2e93 at this point, so w ** 5 overflows a float.
    spec = FunctionSpec(3, Pow(Var(0), -300.0) + Pow(Var(1), 2.0) + Pow(Var(2), 2.0))
    p = (0.5, 1.0, 1.0)
    with warnings.catch_warnings():
        # the sectional curvature at p overflows; the error comes first
        warnings.simplefilter("error")
        with pytest.raises(DomainViolation, match="slope factor power overflows"):
            gauss_kronecker(jet(spec, p))
        with pytest.raises(DomainViolation, match="slope factor power overflows"):
            curvature_sample(spec, p)


def test_gradient_norm_overflow_is_a_domain_violation():
    # Both partials of 1e200 x1 x2 are 1e200 at (1, 1), but |grad f|^2 is not finite.
    j = jet(build_family("cobb_douglas", {"A": 1e200, "k": (1.0, 1.0)}), (1.0, 1.0))
    assert np.all(np.isfinite(j.gradient))
    for indicator in (gauss_kronecker, slope_w, mean_curvature_of_jet, minimality_residual):
        # the Hessian determinant overflows; the error comes first
        with warnings.catch_warnings(), pytest.raises(
            DomainViolation, match=r"\|grad f\|\^2 overflows \(largest \|partial\| 1e\+200\)"
        ):
            warnings.simplefilter("error")
            indicator(j)


def test_stacked_det_pivoted_equals_each_matrix_bitwise():
    from prodgeo.linalg import det_pivoted

    rng = np.random.default_rng(5)
    row_swap = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.5], [7.0, 8.5, 10.0]])
    zero_column = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 6.0]])
    # Two row swaps, then a zero pivot in the last column.
    late_zero_pivot = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]])
    cases = {
        3: [row_swap, zero_column, late_zero_pivot, rng.standard_normal((3, 3))],
        1: [np.array([[-2.5]]), np.array([[0.0]])],
        2: [np.array([[0.1, 0.7], [0.3, 0.2]]), np.array([[1.0, 2.0], [2.0, 4.0]])],
        5: list(rng.standard_normal((6, 5, 5))),
    }
    for m, matrices in cases.items():
        stack = np.array(matrices)
        dets = det_pivoted(stack)
        assert dets.shape == (len(matrices),)
        for a, d in zip(matrices, dets):
            assert _bits(d) == _bits(det_pivoted(a)), (m, a)
    assert det_pivoted(row_swap) != 0.0
    assert _bits(det_pivoted(np.array(cases[3]))[1:3]) == _bits([0.0, 0.0])


@pytest.mark.parametrize("spec", [SQRT_CD, build_family("acms", {"A": 1.0, "k": (1.0, 0.5, 0.7), "rho": -1.5, "gamma": 1.2})])
def test_curvature_of_grid_jet_equals_each_point_bitwise(spec):
    from prodgeo.classifier import default_grid
    from prodgeo.jets import grid_jet

    points = default_grid(spec.n, seed=3).points()
    grid = grid_jet(spec, np.array([p.coords for p in points]).T.copy())
    n = spec.n
    indicators = [slope_w, hessian_determinant, gauss_kronecker, mean_curvature_of_jet, minimality_residual]
    indicators += [lambda j, i=i, k=k: sectional_curvature(j, i, k) for i in range(n) for k in range(n) if i != k]
    indicators += [lambda j, q=q: riemann_component(j, *q) for q in canonical_riemann_quads(n) + [(0, 1, 1, 0), (0, 1, 0, 1)]]
    for f in indicators:
        values = f(grid)
        assert values.shape == (len(points),)
        for k, p in enumerate(points):
            single = f(jet(spec, p))
            assert type(single) is float
            assert _bits(values[k]) == _bits(single)


def _det_row_by_row(a) -> np.ndarray:
    """Reference determinants of a (P, m, m) stack: partial pivoting on the
    points-first stack, eliminating one row below the pivot at a time."""
    a = np.array(a, dtype=float)
    m = a.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        if m == 1:
            return a[:, 0, 0].copy()
        if m == 2:
            return a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        rows = np.arange(len(a))
        det = np.ones(len(a))
        singular = np.zeros(len(a), dtype=bool)
        for col in range(m):
            piv = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
            singular |= a[rows, piv, col] == 0.0
            pivot_rows = a[rows, piv].copy()
            a[rows, piv] = a[:, col]
            a[:, col] = pivot_rows
            det = np.where(piv != col, -det, det)
            det *= a[:, col, col]
            pivot = np.where(singular, 1.0, a[:, col, col])
            for row in range(col + 1, m):
                factor = a[:, row, col] / pivot
                a[:, row, col:] -= factor[:, None] * a[:, col, col:]
        return np.where(singular, 0.0, det)


@st.composite
def det_stacks(draw):
    """(P, m, m) stacks with tied |pivots|, zero columns, late zero pivots,
    -0.0 and, in some, inf and NaN entries; of integers in some draws, and
    a points-last view in others."""
    m, p = draw(st.integers(1, 9)), draw(st.integers(1, 40))
    if draw(st.booleans()):
        stack = draw(arrays(np.int64, (p, m, m), elements=st.integers(-3, 3)))
    else:
        pool = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5] + ([math.inf, -math.inf, math.nan] if draw(st.booleans()) else [])
        stack = draw(arrays(np.float64, (p, m, m), elements=st.sampled_from(pool) | st.floats(-8.0, 8.0, width=16)))
    for k in draw(st.lists(st.integers(0, p - 1), max_size=3)):
        stack[k, :, draw(st.integers(0, m - 1))] = 0
    for k in draw(st.lists(st.integers(0, p - 1), max_size=3 if m > 1 else 0)):
        # the last row a multiple of the one above: a zero pivot in the last column
        stack[k, -1] = 2 * stack[k, -2]
    if draw(st.booleans()):
        stack = np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 0, -1)), -1, 0)
    return stack


def _bits_any_nan(x) -> bytes:
    """``_bits`` with every NaN as one NaN.  numpy's SIMD loops do not keep
    the operand order of ``a * b`` when both are NaN: the sign of the NaN
    that comes out depends on the length and layout of the arrays, so the
    row-by-row elimination itself gives either sign for the same matrices."""
    x = np.asarray(x, dtype=float)
    return _bits(np.where(np.isnan(x), np.nan, x))


# All-inf matrices: the elimination makes negative NaNs, which meet the
# positive NaN of the last entry when the determinant is multiplied up.
_INF_STACK_WITH_A_NAN = np.full((25, 3, 3), math.inf)
_INF_STACK_WITH_A_NAN[-1, 2, 2] = math.nan


@settings(max_examples=150, deadline=None)
@given(det_stacks())
@example(_INF_STACK_WITH_A_NAN)
def test_det_pivoted_equals_the_row_by_row_elimination_bitwise(stack):
    before = stack.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dets = det_pivoted(stack)
        single = det_pivoted(stack[0])
    assert _bits_any_nan(dets) == _bits_any_nan(_det_row_by_row(stack))
    assert type(single) is float and _bits_any_nan(single) == _bits_any_nan(dets[0])
    assert stack.dtype == before.dtype and _bits(stack) == _bits(before)


ACMS_4IN = build_family("acms", {"A": 1.2, "k": (1.0, 0.5, 0.25, 0.7), "rho": 2.0, "gamma": 1.5})


@pytest.mark.parametrize("on_grid", [False, True])
def test_pairwise_indicators_of_index_arrays_equal_each_pair_bitwise(on_grid):
    from prodgeo.classifier import default_grid
    from prodgeo.jets import grid_jet

    n = ACMS_4IN.n
    j = grid_jet(ACMS_4IN, default_grid(n, seed=2).coords()) if on_grid else jet(ACMS_4IN, (0.7, 1.3, 0.9, 1.8))
    i, k = np.triu_indices(n, 1)
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    assert list(zip(i.tolist(), k.tolist())) == pairs
    # reversed pairs and repeats are index arrays too
    for a, b in [(i, k), (k, i), (np.array([2, 0, 2]), np.array([3, 3, 3]))]:
        each_s = [sectional_curvature(j, x, y) for x, y in zip(a.tolist(), b.tolist())]
        each_r = [riemann_component(j, x, y, y, x) for x, y in zip(a.tolist(), b.tolist())]
        assert _bits(sectional_curvature(j, a, b)) == _bits(each_s)
        assert _bits(riemann_component(j, a, b, b, a)) == _bits(each_r)
        r, s = plane_curvatures(j, a, b)
        assert (_bits(r), _bits(s)) == (_bits(each_r), _bits(each_s))
    assert _bits(riemann_component(j, i, k, i, k)) == _bits([riemann_component(j, x, y, x, y) for x, y in pairs])


def test_pairwise_indicators_reject_bad_index_arrays():
    j = jet(ACMS_4IN, (0.7, 1.3, 0.9, 1.8))
    i, k = np.triu_indices(4, 1)
    for a, b in [(i, np.where(k == 3, 4, k)), (np.where(i == 1, -1, i), k)]:
        with pytest.raises(IndexError, match="out of range"):
            sectional_curvature(j, a, b)
        with pytest.raises(IndexError, match="out of range"):
            riemann_component(j, a, b, b, a)
    with pytest.raises(IndexError, match="two distinct axes"):
        sectional_curvature(j, np.array([0, 1, 2]), np.array([1, 1, 3]))
