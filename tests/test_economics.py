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
from prodgeo.reports import geometry_report, report_table

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
def test_report_table_raises_the_error_of_a_loop_over_the_points(spec, error):
    from prodgeo.classifier import default_grid

    grid = default_grid(spec.n)
    with pytest.raises(error) as exc:
        report_table(spec, grid)
    for p in grid.points():
        try:
            geometry_report(spec, p)
        except ProdGeoError as e:
            direct = e
            break
    assert type(direct) is error and exc.value.point == direct.point == p
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


HUGE_A = build_family("cobb_douglas", {"A": 1e200, "k": (1.0, 1.0)})


def test_allen_determinant_overflow_is_infinite_without_warning():
    # The pytest configuration turns RuntimeWarnings into errors.
    assert allen_determinant(jet(HUGE_A, (1.0, 1.0))) == math.inf


def test_allen_elasticity_of_an_infinite_bordered_determinant_is_a_domain_violation():
    with pytest.raises(DomainViolation, match=r"bordered determinant is not finite \(inf\)"):
        allen_elasticity(jet(HUGE_A, (1.0, 1.0)), (1.0, 1.0), 0, 1)


# ---------------------------------------------------------------------------
# index arrays
# ---------------------------------------------------------------------------

ACMS_3IN = build_family("acms", {"A": 1.3, "k": (1.0, 0.6, 0.4), "rho": 0.5, "gamma": 0.7})


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _point_or_grid(spec, on_grid):
    """A grid jet and its coordinates, or the jet and coordinates of one
    point of the same grid."""
    from prodgeo.classifier import default_grid
    from prodgeo.jets import grid_jet

    coords = default_grid(spec.n, seed=2).coords()
    if on_grid:
        return grid_jet(spec, coords), coords
    p = tuple(coords[:, 5].tolist())
    return jet(spec, p), p


@pytest.mark.parametrize("on_grid", [False, True])
def test_index_arrays_give_the_scalar_calls_bitwise(on_grid):
    j, x = _point_or_grid(ACMS_3IN, on_grid)
    i, k = np.triu_indices(3, 1)
    oi, ok = np.nonzero(~np.eye(3, dtype=bool))
    mixed = np.array([2, 0, 1, 2]), np.array([0, 1, 0, 1])
    cases = [
        (output_elasticity(j, x, np.arange(3)), [output_elasticity(j, x, a) for a in range(3)]),
        (mrs(j, oi, ok), [mrs(j, a, b) for a, b in zip(oi.tolist(), ok.tolist())]),
        (hicks_elasticity(j, x, i, k), [hicks_elasticity(j, x, a, b) for a, b in zip(i.tolist(), k.tolist())]),
        # reversed pairs, and pairs in no particular order
        (hicks_elasticity(j, x, k, i), [hicks_elasticity(j, x, b, a) for a, b in zip(i.tolist(), k.tolist())]),
        (hicks_elasticity(j, x, *mixed), [hicks_elasticity(j, x, a, b) for a, b in zip(*(m.tolist() for m in mixed))]),
    ]
    for values, singles in cases:
        assert values.shape == (len(singles),) + np.shape(j.value)
        if not on_grid:
            assert all(type(v) is float for v in singles)
        assert _bits(values) == _bits(singles)
    assert _bits(hicks_elasticity(j, x, k, i)) == _bits(hicks_elasticity(j, x, i, k))


def test_index_arrays_reject_equal_and_out_of_range_entries():
    p = (1.0, 1.2, 0.8)
    j = jet(ACMS_3IN, p)
    with pytest.raises(IndexError, match="two distinct inputs"):
        hicks_elasticity(j, p, np.array([0, 1]), np.array([1, 1]))
    for call in (
        lambda: output_elasticity(j, p, np.array([0, 3])),
        lambda: mrs(j, np.array([0, 1]), np.array([1, -1])),
        lambda: hicks_elasticity(j, p, np.array([0, 1]), np.array([1, 3])),
    ):
        with pytest.raises(IndexError, match="out of range"):
            call()


def test_marginals_are_checked_once_per_input_in_ascending_order(monkeypatch):
    import prodgeo.economics

    checked = []
    real = prodgeo.economics.zero_marginal

    def counting(gi, gradient_sq):
        checked.append(gi)
        return real(gi, gradient_sq)

    monkeypatch.setattr(prodgeo.economics, "zero_marginal", counting)
    p = (1.0, 1.2, 0.8)
    j = jet(ACMS_3IN, p)
    mrs(j, np.array([2, 0, 2]), np.array([1, 2, 0]))  # divides by the partials of x3 and x1
    hicks_elasticity(j, p, np.array([1, 0]), np.array([0, 2]))
    mrs(j, np.array([1]), np.array([0]))
    assert [_bits(g) for g in checked] == [_bits(j.gradient[i]) for i in (0, 2, 1)]

    # df/dx2 and df/dx3 are both numerically zero: the lower input is
    # named, whatever the order of the entries
    spec = FunctionSpec(3, Var(0) + Exp(Mul(Const(-40.0), Var(1))) + Exp(Mul(Const(-40.0), Var(2))))
    p = (1.0, 2.0, 2.0)
    with pytest.raises(ZeroMarginalProduct, match="x2"):
        mrs(jet(spec, p), np.array([2, 1]), np.array([0, 0]))
    with pytest.raises(ZeroMarginalProduct, match="x2"):
        hicks_elasticity(jet(spec, p), p, np.array([2, 0]), np.array([0, 1]))


@pytest.mark.parametrize("on_grid", [False, True])
def test_degenerate_hicks_names_the_first_pair_given(on_grid):
    # every Hicks denominator of a linear function is zero
    j, x = _point_or_grid(FunctionSpec(3, Var(0) + Var(1) + Var(2)), on_grid)
    with pytest.raises(DegenerateDenominator, match="for inputs 2, 3$"):
        hicks_elasticity(j, x, np.array([2, 0]), np.array([1, 1]))


@pytest.mark.parametrize("on_grid", [False, True])
def test_empty_index_arrays_give_no_values_and_check_nothing(on_grid, monkeypatch):
    import prodgeo.economics

    checked = []
    monkeypatch.setattr(prodgeo.economics, "zero_marginal", lambda *args: checked.append(args))
    j, x = _point_or_grid(ACMS_3IN, on_grid)
    empty = np.array([], dtype=int)
    for values in (output_elasticity(j, x, empty), mrs(j, empty, empty), hicks_elasticity(j, x, empty, empty)):
        assert values.shape == (0,) + np.shape(j.value)
    assert checked == []


def test_one_point_underflow_gives_what_the_grid_gives():
    # x1 * f_1 = x1 * x2 underflows to zero, so 1 / (x1 f_1) is infinite
    # and the bordered determinant is numerically zero
    from prodgeo.classifier import SampleGrid
    from prodgeo.jets import grid_jet

    spec = FunctionSpec(2, 1 + Var(0) * Var(1))
    assert math.isnan(hicks_elasticity(jet(spec, (1e-200, 1e-200)), (1e-200, 1e-200), 0, 1))
    grid = SampleGrid(((1e-200, 2e-200),) * 2, points_per_axis=2, jitter_points=0)
    coords = grid.coords()
    on_grid = hicks_elasticity(grid_jet(spec, coords), coords, 0, 1)
    for m, p in enumerate(grid.points()):
        assert _bits(hicks_elasticity(jet(spec, p), p, 0, 1)) == _bits(on_grid[m])
    with pytest.raises(SingularAllenDeterminant) as exc:
        report_table(spec, grid)
    p = exc.value.point
    message = str(exc.value).removesuffix(f" at point {p.coords}")
    for call in (lambda: geometry_report(spec, p), lambda: substitution_sample(jet(spec, p), p)):
        with pytest.raises(SingularAllenDeterminant) as at_point:
            call()
        assert str(at_point.value) == message and at_point.value.point == p


def test_one_point_overflow_raises_what_the_grid_raises():
    # exp(x1) + x2: x1 * f_1 overflows in the output elasticity, before
    # |grad f|^2 overflows in the marginal product check
    from prodgeo.classifier import SampleGrid
    from prodgeo.expr import Add
    from prodgeo.geometry import mean_curvature

    spec = FunctionSpec(2, Add(Exp(Var(0)), Var(1)))
    # each per-point call names its point
    for call in (geometry_report, curvature_sample, mean_curvature):
        with pytest.raises(DomainViolation, match=r"^\|grad f\|\^2 overflows") as exc:
            call(spec, (708.92, 1.19))
        assert exc.value.point.coords == (708.92, 1.19)
    grid = SampleGrid(((708.92, 709.0), (1.19, 1.2)), points_per_axis=2, jitter_points=0)
    with pytest.raises(DomainViolation) as exc:
        report_table(spec, grid)
    p = exc.value.point
    message = str(exc.value).removesuffix(f" at point {p.coords}")
    with pytest.raises(DomainViolation) as at_point:
        geometry_report(spec, p)
    assert type(at_point.value) is type(exc.value) and str(at_point.value) == message and at_point.value.point == p
