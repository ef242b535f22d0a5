"""Sample grids, classification verdicts and the classification fixture suite."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from prodgeo.catalog import FunctionSpec, build_family, build_quasi_product
from prodgeo.classifier import (
    CatalogFixture,
    CatalogReport,
    ExpectationResult,
    SampleGrid,
    TolerancePolicy,
    _classify_columns,
    _curvature_columns,
    _curvature_stats,
    _fixture_coords,
    _pass,
    _verdict,
    catalog_fixtures,
    classify,
    default_grid,
    estimate_sigma,
    grid_pass,
    verify_catalog,
)
from prodgeo.economics import hicks_elasticity, mrs
from prodgeo.errors import (
    DegenerateDenominator,
    DomainViolation,
    ParameterViolation,
    ProdGeoError,
    ZeroMarginalProduct,
)
from prodgeo.expr import Const, Exp, Ln, Mul, Pow, Var, sum_chain
from prodgeo.jets import _POINT_BLOCK, grid_jet, jet
from prodgeo.linalg import ordered_pairs


# ---------------------------------------------------------------------------
# SampleGrid
# ---------------------------------------------------------------------------

def test_grid_points_strictly_inside_and_deterministic():
    grid = SampleGrid(box=((0.5, 2.0), (0.3, 3.0)), points_per_axis=5, seed=42)
    pts1 = grid.points()
    pts2 = grid.points()
    assert len(pts1) == 25 + 32
    assert [p.coords for p in pts1] == [p.coords for p in pts2]
    for p in pts1:
        for (lo, hi), c in zip(grid.box, p.coords):
            assert lo < c < hi


def test_grid_seed_changes_jitter_only():
    a = SampleGrid(box=((0.5, 2.0),) * 2, points_per_axis=4, seed=0).points()
    b = SampleGrid(box=((0.5, 2.0),) * 2, points_per_axis=4, seed=1).points()
    assert [p.coords for p in a[:16]] == [p.coords for p in b[:16]]
    assert [p.coords for p in a[16:]] != [p.coords for p in b[16:]]


def test_grid_validation():
    with pytest.raises(ParameterViolation):
        SampleGrid(box=((0.0, 2.0),))
    with pytest.raises(ParameterViolation):
        SampleGrid(box=((0.5, 2.0),), points_per_axis=1)
    with pytest.raises(ParameterViolation):
        TolerancePolicy(zero_abs=0.0)


@pytest.mark.parametrize(
    "axis",
    [
        (1.0, 1.0000000000000002),  # no float strictly between the bounds
        (1.9, 1.9000000000000004),  # one float between, but no jitter draw reaches it
    ],
)
def test_grid_rejects_axis_too_narrow_to_sample(axis):
    with pytest.raises(ParameterViolation, match="too narrow"):
        SampleGrid(box=(axis, (1.0, 2.0)), jitter_points=1)
    # one step wider is accepted and samples strictly inside
    wide = (axis[0], math.nextafter(axis[1], math.inf))
    grid = SampleGrid(box=(wide, (1.0, 2.0)), points_per_axis=2, jitter_points=3)
    for p in grid.points()[4:]:
        assert wide[0] < p[0] < wide[1]


def test_grid_rejects_subnormal_bound():
    # lo * (1 + eps) rounds back to lo there, and no jitter draw lands
    # strictly between 5e-324 and 1e-323.
    with pytest.raises(ParameterViolation, match="smallest normal"):
        SampleGrid(box=((5e-324, 1e-323), (1.0, 2.0)), jitter_points=1)


def test_grid_rejects_box_whose_ratio_overflows():
    # hi / lo = inf would put x = inf into the mesh
    with pytest.raises(ParameterViolation, match="finite hi / lo"):
        SampleGrid(box=((1e-300, 1e300), (1.0, 2.0)))
    SampleGrid(box=((1e-300, 1e7), (1.0, 2.0))).points()


def _loop_coords(grid):
    """The grid built one point at a time, the reference for coords(): the
    mesh from itertools.product, then one seeded draw per jitter point,
    drawn again while it is not strictly inside the box.  Returns the
    (P, n) coordinates and the number of draws rejected."""
    k = grid.points_per_axis
    axes = [[lo * (hi / lo) ** ((i + 0.5) / k) for i in range(k)] for lo, hi in grid.box]
    rows = [list(c) for c in itertools.product(*axes)]
    rng = np.random.default_rng(grid.seed)
    lows = np.array([lo for lo, _ in grid.box])
    ratios = np.array([hi / lo for lo, hi in grid.box])
    rejected = 0
    for _ in range(grid.jitter_points):
        while True:
            coords = lows * ratios ** rng.random(grid.n)
            if all(lo < c < hi for c, (lo, hi) in zip(coords, grid.box)):
                break
            rejected += 1
        rows.append([float(c) for c in coords])
    return np.array(rows), rejected


@pytest.mark.parametrize(
    "grid, rejects",
    [
        (default_grid(2), False),
        (default_grid(3, seed=3), False),
        (default_grid(6, seed=1), False),
        (SampleGrid(box=((0.5, 2.0),), seed=2), False),
        # the narrow axis puts draws on its bounds
        (SampleGrid(box=((0.3, 3.0), (1.0, 1.0000000000000004)), points_per_axis=2, jitter_points=8), True),
    ],
    ids=["n2", "n3", "n6", "n1", "rejecting"],
)
def test_grid_coords_equal_the_point_loop_bitwise(grid, rejects):
    expected, rejected = _loop_coords(grid)
    assert (rejected > 0) == rejects
    coords = grid.coords()
    assert coords.shape == expected.T.shape
    assert coords.tobytes() == expected.T.copy().tobytes()
    assert [p.coords for p in grid.points()] == [tuple(r) for r in expected.tolist()]


@pytest.mark.parametrize("seed", [-1, 2.5, "0", None])
def test_grid_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ParameterViolation, match="seed"):
        SampleGrid(box=((0.5, 2.0),) * 2, seed=seed)


def test_grid_size_is_capped():
    # Rejected on construction, before any point is made.
    with pytest.raises(ParameterViolation, match="more than the cap of 100000"):
        SampleGrid(box=((0.5, 2.0),) * 3, points_per_axis=10**9)
    # The cap counts the jitter points too.
    SampleGrid(box=((0.5, 2.0),) * 2, points_per_axis=316, jitter_points=100_000 - 316**2)
    with pytest.raises(ParameterViolation, match="grid has 100001 points"):
        SampleGrid(box=((0.5, 2.0),) * 2, points_per_axis=316, jitter_points=100_001 - 316**2)


def test_grid_size_is_checked_before_a_box_is_built():
    # 4^100,000 is too long to print and 4^(10^21) too large to compute, or
    # to hold as a box: default_grid rejects both from n alone.
    for n in (100_000, 10**21):
        with pytest.raises(ParameterViolation, match=r"^grid has over 10\^1500 points, more than the cap of 100000$"):
            default_grid(n)
    # Nor is a size of more than 10,000 bits printed in any field.
    for counts in ({"points_per_axis": 2**10_000}, {"jitter_points": 2**10_000}):
        with pytest.raises(ParameterViolation, match=r"over 10\^1500"):
            SampleGrid(box=((0.5, 2.0),), **counts)


@pytest.mark.parametrize("name", ["zero_abs", "zero_rel", "constancy_rel"])
@pytest.mark.parametrize("value", [0.0, -1.0, -math.inf, math.nan, math.inf])
def test_tolerances_must_be_positive_and_finite(name, value):
    with pytest.raises(ParameterViolation, match=name):
        TolerancePolicy(**{name: value})


def test_default_grid_shape():
    assert default_grid(2).points_per_axis == 7
    assert default_grid(3).points_per_axis == 7
    assert default_grid(4).points_per_axis == 4
    assert default_grid(5).box == ((0.5, 2.0),) * 5


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_cobb_douglas_constant_return():
    spec = build_family("cobb_douglas", {"A": 1.0, "k": (0.4, 0.6)})
    verdict = classify(spec, default_grid(2))
    assert verdict.holds("vanishing_gk")
    assert not verdict.holds("minimal")
    # unequal exponents break proportionality of the MRS
    assert not verdict.holds("proportional_mrs")
    assert verdict.holds("constant_elasticity_x1")
    assert verdict.holds("constant_elasticity_x2")
    ces = verdict.property("ces")
    assert ces.holds and ces.estimate == pytest.approx(1.0, abs=1e-10)
    assert verdict.property("constant_elasticity_x1").estimate == pytest.approx(0.4, abs=1e-12)


def test_classify_sqrt_product():
    spec = build_quasi_product(Pow(Var(0), 0.5), [Var(0), Var(0)])
    verdict = classify(spec, default_grid(2))
    for name in ("vanishing_gk", "flat", "vanishing_sectional", "proportional_mrs"):
        assert verdict.holds(name), name
    assert not verdict.holds("minimal")


def test_classify_spillman_negative_controls():
    spec = build_family("spillman_mitscherlich", {"A": 1.0, "a": (1.0, 1.0)})
    verdict = classify(spec, default_grid(2))
    for name in ("vanishing_gk", "flat", "ces", "constant_elasticity_x1", "constant_elasticity_x2"):
        assert not verdict.holds(name), name


def test_classify_verdict_invariant_and_json():
    spec = build_family("cobb_douglas", {"A": 1.0, "k": (0.4, 0.6)})
    verdict = classify(spec, default_grid(2))
    for p in verdict.properties:
        assert p.holds == (p.worst_value <= p.threshold_used)
    doc = verdict.to_json_obj()
    assert doc["schema_version"] == "1"
    assert [p["name"] for p in doc["properties"]] == [p.name for p in verdict.properties]


def test_classify_is_deterministic():
    spec = build_family("transcendental", {"A": 1.0, "a": (0.5, 0.5), "b": (0.3, 0.1)})
    a = classify(spec, default_grid(2)).to_json_obj()
    b = classify(spec, default_grid(2)).to_json_obj()
    assert a == b


def test_classify_propagates_errors_with_point():
    linear = FunctionSpec(2, Var(0) + Var(1))
    with pytest.raises(DegenerateDenominator) as exc:
        classify(linear, default_grid(2))
    assert exc.value.point is not None

    log_spec = FunctionSpec(2, Ln(Mul(Var(0), Var(1))))  # non-positive where x1 x2 <= 1
    with pytest.raises(DomainViolation) as exc:
        classify(log_spec, default_grid(2))
    assert exc.value.point is not None

    # The grid is evaluated at once, but the error names the first
    # failing point in grid order, with jet()'s message there and the point.
    late = FunctionSpec(2, Pow(Const(1.5) - Var(0), 0.5) + Var(1))
    grid = default_grid(2)
    first_bad = next(p for p in grid.points() if p[0] > 1.5)
    assert first_bad != grid.points()[0]
    with pytest.raises(DomainViolation) as exc:
        classify(late, grid)
    with pytest.raises(DomainViolation) as direct:
        jet(late, first_bad)
    assert exc.value.point == first_bad
    assert str(exc.value) == f"{direct.value} at point {first_bad.coords}"

    # Substitution errors: the point and message of a loop over the
    # public per-point calls, in the order classify makes them.
    fixtures = {fx.name: fx for fx in catalog_fixtures()}
    cases = [
        (fixtures["transcendental_two_pure_exponentials_3in"].spec, DegenerateDenominator),
        # df/dx2 = -40 exp(-40 x2) is numerically zero for larger x2 only
        (FunctionSpec(2, Var(0) + Exp(Mul(Const(-40.0), Var(1)))), ZeroMarginalProduct),
    ]
    for spec, error in cases:
        grid = default_grid(spec.n)
        with pytest.raises(error) as exc:
            classify(spec, grid)
        point, message = _first_substitution_error(spec, grid)
        assert exc.value.point == point
        assert str(exc.value) == f"{message} at point {point.coords}"


def test_a_late_jets_failure_is_found_by_halving_the_grid(monkeypatch):
    # 1.69 - x1 is negative only at jitter points of the 4,128-point grid.
    import prodgeo.jets

    spec = FunctionSpec(6, sum_chain([Pow(Var(i), 0.5) for i in range(6)] + [Pow(Const(1.69) - Var(0), 0.5)]))
    grid = default_grid(6)
    coords = grid.coords()
    first_bad = grid.points()[int(np.flatnonzero(1.69 - coords[0] <= 0.0)[0])]
    with pytest.raises(DomainViolation) as direct:
        jet(spec, first_bad)

    calls = {"jet": 0, "propagate": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(prodgeo.jets, name, counting(name, getattr(prodgeo.jets, name)))
    with pytest.raises(DomainViolation) as exc:
        classify(spec, grid)
    assert exc.value.point == first_bad
    assert str(exc.value) == f"{direct.value} at point {first_bad.coords}"
    assert calls["jet"] == 0
    assert calls["propagate"] <= 2 * math.ceil(math.log2(coords.shape[1]))


def test_classify_maps_each_slope_power_over_the_grid_once(monkeypatch):
    # w ** (n + 2) serves K and its noise scale, w ** 3 the mean curvature
    # and its noise scale: one map of ``pow`` over the grid each.
    import prodgeo.geometry

    exponents = []

    def counting_pow(w, e):
        exponents.append(e)
        return pow(w, e)

    monkeypatch.setattr(prodgeo.geometry, "pow", counting_pow, raising=False)
    grid = default_grid(3)
    classify(build_family("acms", {"A": 1.0, "k": (0.7, 0.9, 0.4), "rho": -1.0, "gamma": -1.0}), grid)
    points = grid.coords().shape[1]
    assert sorted(exponents) == [3] * points + [5] * points


def test_classify_checks_each_marginal_product_once(monkeypatch):
    # MRS of every ordered pair and Hicks of every pair divide by the
    # partials; each input's partial is checked once per jet, in input
    # order.  The 4,128-point grid runs in three block jets.
    import prodgeo.economics
    from prodgeo.economics import hicks_elasticity, mrs, output_elasticity
    from prodgeo.jets import SecondOrderJet

    checked = []
    real = prodgeo.economics.zero_marginal

    def counting(gi, gradient_sq):
        checked.append(gi)
        return real(gi, gradient_sq)

    monkeypatch.setattr(prodgeo.economics, "zero_marginal", counting)
    spec = build_family("acms", {"A": 1.2, "k": (1.0, 0.5, 0.25, 0.7, 0.9, 0.4), "rho": 2.0, "gamma": 1.5})
    grid = default_grid(6)
    classify(spec, grid)
    gradient = grid_jet(spec, grid.coords()).gradient
    starts = range(0, gradient.shape[1], _POINT_BLOCK)
    assert len(starts) == 3 and len(checked) == 6 * len(starts)
    for b, start in enumerate(starts):
        for i in range(6):
            assert np.array_equal(checked[6 * b + i], gradient[i, start : start + _POINT_BLOCK])
    # one input: no ratio of partials, nothing to check
    checked.clear()
    one_input = SecondOrderJet(2.0, np.array([0.5]), np.array([[-0.25]]))
    elasticities = output_elasticity(one_input, (1.5,), np.arange(1))
    mrs_values = mrs(one_input, *ordered_pairs(1))
    hicks = hicks_elasticity(one_input, (1.5,), *np.triu_indices(1, 1))
    assert (len(elasticities), len(mrs_values), len(hicks), checked) == (1, 0, 0, [])


def test_classify_names_the_first_point_of_a_curvature_overflow():
    # w ** 4 overflows at every point of the grid; the error names the
    # first, with the message that the per-point reports raise.
    from prodgeo.reports import report_table

    spec = build_family("cobb_douglas", {"A": 1e100, "k": (1.0, 1.0)})
    grid = default_grid(2)
    with pytest.raises(DomainViolation) as exc:
        classify(spec, grid)
    with pytest.raises(DomainViolation) as reports:
        report_table(spec, grid)
    assert exc.value.point == grid.points()[0]
    assert str(exc.value) == str(reports.value)
    assert str(exc.value).startswith("slope factor power overflows: 7.807091821557099e+99 ** 4 at point")


#: Specs whose first failing point differs between the stages of a grid
#: pass: at the first point of the default grid w ** 4 overflows, while the
#: marginal product of x2 vanishes at later ones; and the marginal product
#: of x2 vanishes before the first point where 1.5 - x1 is negative.
ONE_PASS_CASES = {
    "slope_overflow_first": (
        FunctionSpec(2, Pow(Mul(Var(0), Var(1)), -150.0) + Var(0) + Exp(Mul(Const(-40.0), Var(1)))),
        DomainViolation,
        "slope factor power overflows: 9.825284580896037e+79 ** 4",
    ),
    "zero_marginal_first": (
        FunctionSpec(2, Pow(Const(1.5) - Var(0), 0.5) + Exp(Mul(Const(-40.0), Var(1)))),
        ZeroMarginalProduct,
        "marginal product of x2 is numerically zero (-2.245821599253149e-13)",
    ),
}


def _first_raising(fn, points):
    for p in points:
        try:
            fn(p)
        except ProdGeoError:
            return p
    raise AssertionError("no point fails")


@pytest.mark.parametrize("case", ONE_PASS_CASES.values(), ids=ONE_PASS_CASES.keys())
def test_classify_raises_the_error_of_the_reports(case):
    from prodgeo.reports import geometry_report, report_table

    spec, error, message = case
    grid = default_grid(2)
    with pytest.raises(ProdGeoError) as exc:
        classify(spec, grid)
    with pytest.raises(ProdGeoError) as reports:
        report_table(spec, grid)
    assert type(exc.value) is type(reports.value) is error
    assert exc.value.point == reports.value.point
    assert str(exc.value) == str(reports.value) == f"{message} at point {exc.value.point.coords}"
    assert exc.value.point == _first_raising(lambda p: geometry_report(spec, p), grid.points())


#: Specs that fail first in the second block of the 1,632 points of
#: ``default_grid(2, points_per_axis=40)``, at point 1,520, where x1 (the
#: slowest axis of its mesh) reaches 1.899: there the marginal product of
#: x1, 16.7 exp(-16.7 x1), vanishes, and 1.85 - x1 is negative.
LATER_BLOCK_CASES = {
    "zero_marginal": FunctionSpec(2, Exp(Mul(Const(-16.7), Var(0))) + Pow(Var(1), 0.5)),
    "jets": FunctionSpec(2, Pow(Const(1.85) - Var(0), 0.5) + Pow(Var(1), 0.5)),
}


@pytest.mark.parametrize("spec", LATER_BLOCK_CASES.values(), ids=LATER_BLOCK_CASES.keys())
def test_a_failure_first_in_a_later_block_names_the_point_of_a_per_point_loop(spec):
    from prodgeo.reports import geometry_report, report_table

    grid = default_grid(2, points_per_axis=40)
    points = grid.points()
    first = _first_raising(lambda p: geometry_report(spec, p), points)
    assert points.index(first) == 1520 > _POINT_BLOCK
    with pytest.raises(ProdGeoError) as direct:
        geometry_report(spec, first)
    for run in (classify, report_table):
        with pytest.raises(ProdGeoError) as exc:
            run(spec, grid)
        assert type(exc.value) is type(direct.value)
        assert exc.value.point == first
        assert str(exc.value) == f"{direct.value} at point {first.coords}"


def test_pass_rows_equal_one_point_rows_at_the_block_edges_bitwise(report_cells):
    # 4,128 points: more than two blocks.  Each row of the joined pass is the
    # row of a pass over its point alone.
    from prodgeo.reports import geometry_report, report_table

    spec = build_family("acms", {"A": 1.2, "k": (1.0, 0.5, 0.25, 0.7, 0.9, 0.4), "rho": 2.0, "gamma": 1.5})
    grid = default_grid(6)
    coords, points, b = grid.coords(), grid.points(), _POINT_BLOCK
    assert 2 * b < len(points)
    table = report_table(spec, grid)
    _, columns = grid_pass(spec, grid, _classify_columns)
    assert len(table) == len(columns) == len(points)
    for k in (0, b - 1, b, b + 1, 2 * b, len(points) - 1):
        assert table[k].tobytes() == report_cells(geometry_report(spec, points[k])).tobytes()
        assert columns[k].tobytes() == _pass([(spec, coords[:, k : k + 1])], _classify_columns).tobytes()


def _first_substitution_error(spec, grid):
    points = grid.points()
    jets = [jet(spec, p) for p in points]
    n = spec.n
    for p, j in zip(points, jets):
        try:
            for i in range(n):
                for k in range(n):
                    if i != k:
                        mrs(j, i, k)
            for i in range(n):
                for k in range(i + 1, n):
                    hicks_elasticity(j, p, i, k)
        except ProdGeoError as e:
            return p, str(e)
    raise AssertionError("no point fails")


def test_classify_grid_dimension_mismatch():
    spec = build_family("cobb_douglas", {"A": 1.0, "k": (0.4, 0.6)})
    with pytest.raises(ParameterViolation):
        classify(spec, default_grid(3))


# ---------------------------------------------------------------------------
# estimate_sigma
# ---------------------------------------------------------------------------

def test_estimate_sigma_for_ces_products():
    for sigma in (0.5, 2.0, 3.0):
        c = (sigma - 1.0) / sigma
        spec = build_quasi_product(
            Var(0), [Exp(Pow(Var(0), c)), Exp(Mul(Const(0.7), Pow(Var(0), c)))]
        )
        est, spread = estimate_sigma(spec, default_grid(2))
        assert est == pytest.approx(sigma, abs=1e-8)
        assert spread <= 1e-8


@pytest.mark.parametrize("rho", [2.0, -1.0, 0.5, -3.0])
@pytest.mark.parametrize("gamma", [1.0, 0.7, 2.0])
def test_estimate_sigma_acms_matches_textbook_value(rho, gamma):
    """The CES-type aggregator has substitution elasticity 1/(1 - rho),
    independent of the homogeneity degree."""
    spec = build_family("acms", {"A": 1.3, "k": (1.0, 0.6), "rho": rho, "gamma": gamma})
    est, spread = estimate_sigma(spec, default_grid(2))
    assert est == pytest.approx(1.0 / (1.0 - rho), rel=1e-12)
    assert spread <= 1e-12


def test_estimate_sigma_cobb_douglas_is_one():
    spec = build_family("cobb_douglas", {"A": 2.0, "k": (0.3, 0.7)})
    est, spread = estimate_sigma(spec, default_grid(2))
    assert est == pytest.approx(1.0, abs=1e-10)
    assert spread <= 1e-10


def test_estimate_sigma_names_the_first_failing_point():
    # exp(2000 x1 - 2000) is exactly 0 for x1 below 0.63, so every second
    # derivative vanishes there and so does the Hicks denominator; it
    # overflows for x1 above 1.36, later in grid order.
    spec = FunctionSpec(2, Var(0) + Var(1) + Exp(Mul(Const(2000.0), Var(0)) + Const(-2000.0)))
    grid = default_grid(2)
    with pytest.raises(DomainViolation, match="exp overflow") as jets:
        grid_jet(spec, grid.coords())
    assert jets.value.point != grid.points()[0]
    first = grid.points()[0]
    with pytest.raises(DegenerateDenominator) as exc:
        estimate_sigma(spec, grid)
    assert exc.value.point == first
    assert str(exc.value) == f"substitution denominator is numerically zero for inputs 1, 2 at point {first.coords}"


def test_estimate_sigma_transcendental_with_growth_terms_is_not_ces():
    spec = build_family("transcendental", {"A": 1.0, "a": (0.5, 0.5), "b": (1.0, 1.0)})
    est, spread = estimate_sigma(spec, default_grid(2))
    assert spread / abs(est) > TolerancePolicy().constancy_rel


def test_classify_single_factor_constant_elasticity():
    """A monomial factor in one input gives a constant elasticity for
    that input alone."""
    spec = build_quasi_product(Var(0), [Pow(Var(0), 0.7), Const(1.0) + Var(0)])
    verdict = classify(spec, default_grid(2))
    e1 = verdict.property("constant_elasticity_x1")
    assert e1.holds and e1.estimate == pytest.approx(0.7, abs=1e-12)
    assert not verdict.holds("constant_elasticity_x2")


def test_constancy_of_a_near_zero_mean_is_judged_by_its_absolute_spread():
    """The output elasticity k1 = 1e-10 has |mean| below zero_abs, so its
    spread is compared with zero_abs instead of spread / |mean|."""
    spec = build_family("cobb_douglas", {"A": 1.0, "k": (1e-10, 0.5)})
    e1 = classify(spec, default_grid(2)).property("constant_elasticity_x1")
    assert e1.holds
    assert e1.threshold_used == 1e-9
    assert e1.estimate == 9.999999999999999e-11


def test_classify_homothetic_power_product():
    """Any outer over a common-power product keeps the proportional MRS,
    is nowhere minimal, and is CES with unit elasticity."""
    spec = build_quasi_product(Pow(Var(0), 2.0), [Pow(Var(0), 0.7)] * 3)
    verdict = classify(spec, default_grid(3))
    assert verdict.holds("proportional_mrs")
    assert not verdict.holds("minimal")
    ces = verdict.property("ces")
    assert ces.holds and ces.estimate == pytest.approx(1.0, abs=1e-10)


def test_estimate_sigma_two_input_ratio_forms_general_parameters():
    """The two-input ratio forms are CES for general (sigma, k); the
    indicator is 0/0 on the diagonal, hence the asymmetric box."""
    from prodgeo.expr import Add, Div

    asym = SampleGrid(box=((0.5, 2.0), (0.7, 2.8)), points_per_axis=7, seed=0)
    sigma, k = 3.0, 2.0
    c = (sigma - 1.0) / sigma
    ratio = Div(Add(Pow(Var(0), c), Const(0.5)), Add(Pow(Var(1), c), Const(-0.3)))
    est, spread = estimate_sigma(FunctionSpec(2, Pow(ratio, sigma / k)), asym)
    assert est == pytest.approx(sigma, rel=1e-10) and spread <= 1e-10

    log_ratio = Div(Ln(Mul(Const(4.0), Var(0))), Ln(Mul(Const(5.0), Var(1))))
    est, spread = estimate_sigma(FunctionSpec(2, Pow(log_ratio, 1.0 / -2.0)), asym)
    assert est == pytest.approx(1.0, rel=1e-10) and spread <= 1e-10


# ---------------------------------------------------------------------------
# verify_catalog
# ---------------------------------------------------------------------------

def test_verify_catalog_all_pass():
    report = verify_catalog()
    failures = [r for r in report.results if not r.passed]
    assert report.all_passed, failures
    names = {r.fixture for r in report.results}
    assert {"sqrt_of_product_2in", "spillman_3in", "armington_constant_return_2in"} <= names


def test_verify_catalog_fixture_table_shape():
    fixtures = catalog_fixtures()
    assert {fx.spec.n for fx in fixtures} == {2, 3}
    assert len({fx.name for fx in fixtures}) == len(fixtures)
    # negative controls present
    assert any("increasing_return" in fx.name and "nonvanishing_gk" in fx.checks for fx in fixtures)
    assert any(fx.name.startswith("spillman") and "nonflat_everywhere" in fx.checks for fx in fixtures)


def test_verify_catalog_respects_tolerances():
    # an absurdly small zero tolerance must break the vanishing checks
    strict = TolerancePolicy(zero_abs=1e-30, zero_rel=1e-30)
    report = verify_catalog(strict)
    assert not report.all_passed


def test_verify_catalog_report_json():
    report = verify_catalog()
    doc = report.to_json_obj()
    assert doc["schema_version"] == "1"
    assert doc["all_passed"] is True
    assert len(doc["results"]) == len(report.results)
    first = doc["results"][0]
    assert set(first) == {"fixture", "n", "check", "passed", "observed", "bound", "witness_point"}


def test_flat_verdicts_imply_vanishing_sectional():
    """Across the whole fixture table: every produced verdict with flat
    true also has vanishing sectional curvature, and proportional MRS
    excludes minimality.  Pure-exponential fixtures are perfect
    substitutes (degenerate substitution denominator), so classify()
    legitimately refuses them and they are skipped.

    verify_catalog and classify share one curvature pass, so every
    expectation verify reports carries exactly classify's numbers."""
    expectations = {(r.fixture, r.check): r for r in verify_catalog().results}
    produced = compared = 0
    for fx in catalog_fixtures():
        try:
            verdict = classify(fx.spec, default_grid(fx.spec.n, seed=fx.seed))
        except DegenerateDenominator:
            continue
        produced += 1
        if verdict.holds("flat"):
            assert verdict.holds("vanishing_sectional"), fx.name
        if verdict.holds("proportional_mrs"):
            assert not verdict.holds("minimal"), fx.name
        for check in ("vanishing_gk", "flat", "vanishing_sectional", "nonvanishing_gk"):
            if (fx.name, check) not in expectations:
                continue
            r = expectations[fx.name, check]
            prop = verdict.property(check.removeprefix("non"))
            if check == "nonvanishing_gk":
                assert r.bound == 10.0 * prop.threshold_used, fx.name
            else:
                assert (r.observed, r.bound) == (prop.worst_value, prop.threshold_used), fx.name
                assert r.witness == prop.worst_point, fx.name
            compared += 1
    assert produced >= 10
    assert compared >= 10


def _verify_per_fixture(tol):
    """verify_catalog as one grid pass per fixture."""
    results = []
    for fx in catalog_fixtures():
        coords, columns = grid_pass(fx.spec, default_grid(fx.spec.n, seed=fx.seed), lambda j, _: _curvature_columns(j))
        curvature = _curvature_stats(columns, tol)
        for check in fx.checks:
            v = _verdict(check, *curvature[check], coords)
            results.append(
                ExpectationResult(fx.name, fx.spec.n, check, v.holds, v.worst_value, v.threshold_used, v.worst_point)
            )
    return CatalogReport(tuple(results))


@pytest.mark.parametrize("zero", [None, 1e-20, 1e-3])
def test_verify_catalog_packed_equals_one_pass_per_fixture(zero):
    tol = TolerancePolicy() if zero is None else TolerancePolicy(zero_abs=zero, zero_rel=zero)
    assert repr(verify_catalog(tol)) == repr(_verify_per_fixture(tol))


def test_verify_catalog_runs_one_curvature_pass_per_block(monkeypatch):
    # 13 fixtures of 81 points at n = 2 fill one block of at most 1,500
    # points; 13 of 375 points at n = 3 fill blocks of 4, 4, 4 and 1.
    import prodgeo.classifier

    points = []

    def counting(jets):
        columns = _curvature_columns(jets)
        points.append(len(columns))
        return columns

    monkeypatch.setattr(prodgeo.classifier, "_curvature_columns", counting)
    verify_catalog()
    assert points == [13 * 81, 4 * 375, 4 * 375, 4 * 375, 375]


def test_catalog_fixtures_are_new_lists_over_shared_fixtures():
    first, second = catalog_fixtures(), catalog_fixtures()
    assert type(first) is type(second) is list and first is not second
    assert all(a is b for a, b in zip(first, second, strict=True))


def test_a_change_to_the_returned_fixture_list_reaches_no_later_call():
    before = repr(verify_catalog())
    fixtures = catalog_fixtures()
    count = len(fixtures)
    fixtures.append(CatalogFixture("extra", build_family("cobb_douglas", {"A": 1.0, "k": (0.5, 0.6)}), ("flat",), 0))
    del fixtures[0]
    assert len(catalog_fixtures()) == count and catalog_fixtures()[0].seed == 0
    assert repr(verify_catalog()) == before


def test_a_second_verify_catalog_compiles_no_program(monkeypatch):
    import prodgeo.expr

    verify_catalog()
    built = []

    class Counting(prodgeo.expr.Program):
        __slots__ = ()

        def __init__(self, e):
            built.append(e)
            super().__init__(e)

    monkeypatch.setattr(prodgeo.expr, "Program", Counting)
    verify_catalog()
    assert built == []
    prodgeo.expr.compiled(Var(0) + Const(1.0))
    assert len(built) == 1  # the counter sees a compile


def test_the_fixture_grids_are_read_only_copies_of_the_default_grids():
    for fx in catalog_fixtures():
        coords = _fixture_coords(fx.spec.n, fx.seed)
        assert not coords.flags.writeable
        assert coords is _fixture_coords(fx.spec.n, fx.seed)
        expected = default_grid(fx.spec.n, seed=fx.seed).coords()
        assert coords.shape == expected.shape and coords.tobytes() == expected.tobytes()


def test_verify_catalog_after_other_tolerances_equals_a_fresh_process():
    import prodgeo

    for zero in (1e-20, 1e-3):
        verify_catalog(TolerancePolicy(zero_abs=zero, zero_rel=zero))
    here = repr(verify_catalog())
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(prodgeo.__file__)))
    code = "from prodgeo.classifier import verify_catalog; print(repr(verify_catalog()))"
    fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert fresh.stdout == here + "\n"


@pytest.mark.parametrize(
    "spec",
    [
        FunctionSpec(2, Pow(Const(1.5) - Var(0), 0.5) + Exp(Mul(Const(-40.0), Var(1)))),
        build_family("cobb_douglas", {"A": 1e100, "k": (1.0, 1.0)}),
    ],
    ids=["jets_fail", "slope_power_overflows"],
)
def test_verify_catalog_raises_the_error_of_the_failing_fixture_alone(monkeypatch, spec):
    # The failing fixture sits mid-block, after good fixtures of its n.
    import prodgeo.classifier

    table = catalog_fixtures()
    bad = CatalogFixture("bad", spec, ("vanishing_gk",), seed=3)
    monkeypatch.setattr(prodgeo.classifier, "catalog_fixtures", lambda: table[:3] + [bad] + table[3:])
    with pytest.raises(ProdGeoError) as packed:
        verify_catalog()
    with pytest.raises(ProdGeoError) as alone:
        grid_pass(spec, default_grid(2, seed=3), lambda j, _: _curvature_stats(_curvature_columns(j), TolerancePolicy()))
    assert type(packed.value) is type(alone.value)
    assert packed.value.point == alone.value.point is not None
    assert str(packed.value) == str(alone.value)
