"""Property tests: a grid evaluated at once gives, bit for bit, the
numbers of a loop over its points."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from prodgeo.catalog import build_family
from prodgeo.classifier import SampleGrid, estimate_sigma
from prodgeo.economics import hicks_elasticity
from prodgeo.errors import ProdGeoError
from prodgeo.jets import grid_jet, jet
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
