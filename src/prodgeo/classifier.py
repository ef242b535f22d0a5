"""Grid-based verification of classification predicates.

The classification statements for quasi-product production models are
"if and only if" statements about identities holding everywhere:
vanishing Gauss-Kronecker curvature, flatness, minimality, vanishing
sectional curvature, proportional marginal rate of substitution,
constant output elasticities and the constant-elasticity-of-substitution
property.  This module checks them the only way an executable artifact
honestly can: each identity is evaluated on a deterministic sample grid
and judged against a tolerance policy, and the sufficiency direction is
covered by negative controls that must *fail* the identity at every grid
point.

Zero tests are noise-scaled: a determinant of near-cancelling terms
loses about n digits, so the relative part of the zero tolerance is
multiplied by the natural magnitude of the terms involved (Hadamard-type
row-norm products for determinants and minors).

``verify_catalog`` runs a built-in fixture table pairing each classified
functional form with its expected verdict and reports one pass/fail
entry per expectation, with the worst witness point.

Everything here is deterministic: identical (spec, grid, tolerance)
inputs produce bit-identical verdicts, and grid generation is fixed by
(box, points_per_axis, seed).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from functools import cache
from typing import Optional

import numpy as np

from .catalog import MAX_GRID_POINTS, FunctionSpec, build_family, build_quasi_product
from .economics import hicks_elasticity, mrs, output_elasticity
from .errors import ParameterViolation, ProdGeoError
from .expr import Const, Exp, Ln, Mul, Pow, Var, sum_chain
from .geometry import (
    gauss_kronecker,
    mean_curvature_of_jet,
    plane_curvatures,
    slope_power,
    slope_w,
)
from .jets import _POINT_BLOCK, SecondOrderJet, grid_jet
from .linalg import ordered_pairs, quadratic_form, triu
from .points import Point

__all__ = [
    "SampleGrid",
    "default_grid",
    "TolerancePolicy",
    "PropertyVerdict",
    "ClassificationVerdict",
    "classify",
    "estimate_sigma",
    "CatalogFixture",
    "ExpectationResult",
    "CatalogReport",
    "verify_catalog",
]

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# Sampling and tolerances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleGrid:
    """Deterministic log-uniform sample of a positive box.

    The mesh places ``points_per_axis`` log-midpoints per axis (strictly
    inside the box) and appends ``jitter_points`` seeded log-uniform
    random points, at most MAX_GRID_POINTS in all.  Generation is a pure
    function of (box, points_per_axis, seed, jitter_points).
    """

    box: tuple[tuple[float, float], ...]
    points_per_axis: int = 7
    seed: int = 0
    jitter_points: int = 32

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        object.__setattr__(self, "box", box)
        if not box:
            raise ParameterViolation("grid box must have at least one axis")
        for lo, hi in box:
            if not (0.0 < lo < hi) or not math.isfinite(hi / lo):
                raise ParameterViolation(f"grid bounds need 0 < lo < hi and a finite hi / lo, got {(lo, hi)!r}")
            # A jitter draw lo * (hi / lo) ** u above lo is at least lo * (1 + eps)
            # (for a normal lo; below, that rounds back to lo); if that is not
            # below hi, coords() would reject draws forever.
            if lo < sys.float_info.min:
                raise ParameterViolation(f"grid bound {lo!r} is below the smallest normal float")
            if not lo * (1.0 + sys.float_info.epsilon) < hi:
                raise ParameterViolation(f"grid axis {(lo, hi)!r} is too narrow to sample")
        _check_counts(self.n, self.points_per_axis, self.seed, self.jitter_points)

    @property
    def n(self) -> int:
        return len(self.box)

    def coords(self) -> np.ndarray:
        """The (n, P) coordinates of the grid: the mesh in product order
        (the last axis varies fastest), then the jitter points."""
        k = self.points_per_axis
        axes = [[lo * (hi / lo) ** ((i + 0.5) / k) for i in range(k)] for lo, hi in self.box]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(self.n, -1)
        lows, highs = np.array(self.box).T
        rng = np.random.default_rng(self.seed)
        # A draw on the boundary is dropped and the next n numbers of the
        # stream drawn in its place; a batch of draws consumes the stream
        # in the same order as one draw at a time.
        jitter = np.empty((0, self.n))
        while len(jitter) < self.jitter_points:
            draws = lows * (highs / lows) ** rng.random((self.jitter_points - len(jitter), self.n))
            jitter = np.concatenate([jitter, draws[((lows < draws) & (draws < highs)).all(axis=1)]])
        return np.concatenate([mesh, jitter.T], axis=1)

    def points(self) -> list[Point]:
        return [Point(c) for c in self.coords().T.tolist()]


def _check_counts(n: int, points_per_axis, seed, jitter_points) -> None:
    """Check the integer fields of a SampleGrid of ``n`` axes, and its size
    against MAX_GRID_POINTS, in time independent of ``n``."""
    for name, value, least in (("points_per_axis", points_per_axis, 2), ("seed", seed, 0), ("jitter_points", jitter_points, 0)):
        if not isinstance(value, (int, np.integer)):
            raise ParameterViolation(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ParameterViolation(f"{name} must be at least {least}")
    # coords() allocates the whole grid at once.  With k >= 2, k ** n has at
    # least half of n * k.bit_length() bits, so a size past 10,000 bits is
    # far past the cap, and too long to compute or print.
    k, jitter = int(points_per_axis), int(jitter_points)
    if n * k.bit_length() > 10_000 or jitter.bit_length() > 10_000:
        raise ParameterViolation(f"grid has over 10^1500 points, more than the cap of {MAX_GRID_POINTS}")
    size = k ** n + jitter
    if size > MAX_GRID_POINTS:
        raise ParameterViolation(f"grid has {size} points, more than the cap of {MAX_GRID_POINTS}")


def default_grid(n: int, seed: int = 0, box=None, points_per_axis: Optional[int] = None) -> SampleGrid:
    """The default verification grid: box [0.5, 2]^n, 7 points per axis
    up to three inputs and 4 beyond, 32 jitter points; a ``box`` or
    ``points_per_axis`` given replaces its default.  Stays away from the
    origin, where logarithmic forms change sign.  The grid's size is
    checked before any box of ``n`` axes is built."""
    k = points_per_axis if points_per_axis is not None else 7 if n <= 3 else 4
    _check_counts(n, k, seed, SampleGrid.jitter_points)
    return SampleGrid(box=box if box is not None else ((0.5, 2.0),) * n, points_per_axis=k, seed=seed)


@dataclass(frozen=True)
class TolerancePolicy:
    """Thresholds for zero tests and constancy tests.

    ``zero_abs`` is the absolute floor; ``zero_rel`` multiplies the
    noise scale of the quantity under test; ``constancy_rel`` bounds
    (max - min) / |mean| for quantities that must be constant.
    """

    zero_abs: float = 1e-9
    zero_rel: float = 1e-9
    constancy_rel: float = 1e-6

    def __post_init__(self):
        for name in ("zero_abs", "zero_rel", "constancy_rel"):
            if getattr(self, name) <= 0.0:
                raise ParameterViolation(f"{name} must be positive")
            if not math.isfinite(getattr(self, name)):
                raise ParameterViolation(f"{name} must be finite, got {getattr(self, name)!r}")


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

class _Record:
    """A verdict record: its fields, in declaration order, are its output.
    A field's JSON key is its name, or its ``json`` metadata if it has one."""

    def to_json_obj(self) -> dict:
        return {f.metadata.get("json", f.name): _json_value(getattr(self, f.name)) for f in fields(self)}


def _json_value(v):
    """A field's value as json.dumps takes it: a Point as its coordinates, a tuple as a list."""
    if isinstance(v, _Record):
        return v.to_json_obj()
    if isinstance(v, Point):
        return list(v.coords)
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return v


@dataclass(frozen=True)
class PropertyVerdict(_Record):
    """One predicate checked over the grid.

    ``holds`` is true exactly when ``worst_value <= threshold_used``, or
    ``>=`` for a negative control (a name that starts with ``non``).
    ``estimate`` carries the grid mean for constancy-type properties
    (the sigma estimate for the CES property)."""

    name: str
    holds: bool
    worst_point: Point
    worst_value: float
    threshold_used: float
    estimate: Optional[float] = None


@dataclass(frozen=True)
class ClassificationVerdict(_Record):
    family: str
    n: int
    properties: tuple[PropertyVerdict, ...]

    def property(self, name: str) -> PropertyVerdict:
        for p in self.properties:
            if p.name == name:
                return p
        raise KeyError(name)

    def holds(self, name: str) -> bool:
        return self.property(name).holds

    def to_json_obj(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **super().to_json_obj()}


def _verdict(
    name: str, observed: float, witness: Optional[int], threshold: float, coords: np.ndarray, estimate=None
) -> PropertyVerdict:
    """The verdict ``name`` on a grid's ``observed`` value and its
    ``threshold``, by the rule of PropertyVerdict; ``witness`` is the
    index of its point in the (n, P) ``coords``, or None for no witness."""
    holds = observed >= threshold if name.startswith("non") else observed <= threshold
    point = None if witness is None else Point(tuple(coords[:, witness].tolist()))
    return PropertyVerdict(name, bool(holds), point, float(observed), float(threshold), estimate)


# ---------------------------------------------------------------------------
# Grid passes
# ---------------------------------------------------------------------------
#
# A pass evaluates per-point indicator columns block by block and joins
# them in grid order; a pass that joins the grids of several functions of
# the same n gives each grid the rows of a pass over it alone, bit for bit.
# Every reduction runs after the join, over one grid's rows: witnesses are
# first occurrences in point order, NaN is skipped, and a value that is
# nowhere defined has no witness (None), as a scan over the points with
# strict comparisons would give.

def grid_pass(spec: FunctionSpec, grid: SampleGrid, indicators):
    """The grid's (n, P) coordinates and the (P, m) per-point columns
    ``indicators(jets, coords)`` of the grid's jets, evaluated block by
    block with numpy's warnings off: a loop over the points would stop at
    the first failing one."""
    if grid.n != spec.n:
        raise ParameterViolation(f"grid has {grid.n} axes, function has {spec.n} inputs")
    coords = grid.coords()
    return coords, _pass([(spec, coords)], indicators)


def _pass(parts: list[tuple[FunctionSpec, np.ndarray]], indicators) -> np.ndarray:
    """The (P, m) columns ``indicators(jets, coords)`` of the (spec, (n,
    P)-coords) ``parts``, one row per point of the parts in order.

    The parts are walked in order in blocks of at most ``_POINT_BLOCK``
    points: consecutive parts of the same n share a block while they fit,
    and a larger part is cut.  Several blocks give their passes, joined.
    One block gives ``indicators`` of the jets of each part's own tree,
    joined along the point axis, and ``coords`` joined likewise.  If that
    raises a ProdGeoError, the same pass runs on each part alone, in
    order, and on one part, on each half of its points in grid order, down
    to the first failing point of the first failing part, whichever of the
    jets and the indicators fails there; its error names that point: each
    check fails on a set of points exactly when it fails at one of them."""
    blocks: list[list[tuple[FunctionSpec, np.ndarray]]] = []
    for spec, coords in parts:
        for start in range(0, coords.shape[1], _POINT_BLOCK):
            piece = coords[:, start : start + _POINT_BLOCK]
            block = blocks[-1] if blocks else []
            if block and block[0][0].n == spec.n and sum(x.shape[1] for _, x in block) + piece.shape[1] <= _POINT_BLOCK:
                block.append((spec, piece))
            else:
                blocks.append([(spec, piece)])
    if len(blocks) > 1:
        return np.concatenate([_pass(block, indicators) for block in blocks])
    coords = np.concatenate([x for _, x in parts], axis=1) if len(parts) > 1 else parts[0][1]
    try:
        with np.errstate(all="ignore"):
            return indicators(grid_jet(*parts[0], *parts[1:]), coords)
    except ProdGeoError as e:
        if len(parts) > 1:
            for part in parts:
                _pass([part], indicators)
        elif coords.shape[1] > 1:
            for half in np.array_split(coords, 2, axis=1):
                _pass([(parts[0][0], half)], indicators)
        else:
            e.point = Point(tuple(coords[:, 0].tolist()))
            e.args = (f"{e.args[0]} at point {e.point.coords}",) + e.args[1:]
        raise


def _largest(column: np.ndarray) -> tuple[float, Optional[int]]:
    """The largest entry of the (P,) ``column`` and the index of its first
    point, NaN skipped; (-inf, None) when no entry is above -inf."""
    k = int(np.argmax(np.where(np.isnan(column), -np.inf, column)))
    return (float(column[k]), k) if column[k] > -np.inf else (-math.inf, None)


def _smallest(column: np.ndarray) -> tuple[float, Optional[int]]:
    """The smallest entry of the (P,) ``column`` and the index of its first
    point, as ``_largest``."""
    value, k = _largest(-column)
    return -value, k


def _bound(tol: TolerancePolicy, noise: np.ndarray) -> float:
    """The zero threshold of a quantity with the (P,) noise scale
    ``noise``: the absolute floor plus the relative part times the largest
    noise, NaN skipped."""
    return tol.zero_abs + tol.zero_rel * float(np.where(np.isnan(noise), 0.0, noise).max(initial=0.0))


def _mean_spread(values: np.ndarray) -> tuple[float, float]:
    """The mean and (max - min) spread of ``values`` over the entries in
    grid order, as ``sum``, ``max`` and ``min`` give them: the sum adds one
    entry after another from 0.0, and Python finds the extremes where a NaN
    or a zero (0.0 against -0.0) makes them depend on the order."""
    flat = values.ravel()
    with np.errstate(all="ignore"):
        mean = float(np.add.accumulate(np.concatenate(([0.0], flat)))[-1]) / len(flat)
        if (np.abs(flat) > 0.0).all():
            return mean, float(flat.max() - flat.min())
    return mean, max(flat.tolist()) - min(flat.tolist())


def _curvature_columns(jets: SecondOrderJet) -> np.ndarray:
    """The (P, 8) per-point columns of the curvature checks: |K|, the largest
    |R(i,k,k,i)| over the pairs i < k, |H| and the largest |K_ik|, each
    followed by its noise scale; a largest over the pairs skips NaN."""
    n = jets.n
    g, h = jets.stacked
    w = slope_w(jets)
    i, k = triu(n, 1)
    abs_k = np.abs(gauss_kronecker(jets))
    abs_h = np.abs(mean_curvature_of_jet(jets))
    # Noise scales: a Hadamard-type bound on the quantity's terms (row
    # norm products for determinants and minors) over its normalizer.
    row_norms = np.sqrt((h * h).sum(axis=-1))
    k_noise = np.prod(row_norms, axis=-1) / slope_power(jets, n + 2)
    h_noise = (
        np.abs(np.diagonal(h, axis1=-2, axis2=-1)).sum(axis=-1) / w
        + quadratic_form(np.abs(g), np.abs(h)) / slope_power(jets, 3)
    ) / n
    r, s, r_noise, s_noise = plane_curvatures(jets, i, k, row_norms.T[i] * row_norms.T[k])
    max_r, r_noise, max_s, s_noise = (np.fmax.reduce(a) for a in (np.abs(r), r_noise, np.abs(s), s_noise))
    return np.stack([abs_k, k_noise, max_r, r_noise, abs_h, h_noise, max_s, s_noise], axis=1)


def _curvature_stats(columns: np.ndarray, tol: TolerancePolicy) -> dict[str, tuple[float, Optional[int], float]]:
    """Every curvature check over one grid's (P, 8) ``_curvature_columns``.

    Maps each curvature verdict name to its observed value, witness index
    and bound: the maximum of |quantity| against its noise-scaled zero
    threshold for the vanishing checks, and for the two negative controls
    the minimum of |K| and of each point's largest |Riemann component|
    against ten times the threshold.
    """
    abs_k, k_noise, max_r, r_noise, abs_h, h_noise, max_s, s_noise = columns.T
    k_bound, r_bound = _bound(tol, k_noise), _bound(tol, r_noise)
    return {
        "vanishing_gk": (*_largest(abs_k), k_bound),
        "flat": (*_largest(max_r), r_bound),
        "minimal": (*_largest(abs_h), _bound(tol, h_noise)),
        "vanishing_sectional": (*_largest(max_s), _bound(tol, s_noise)),
        "nonvanishing_gk": (*_smallest(abs_k), 10.0 * k_bound),
        # A point with no |R(i,k,k,i)| defined counts as flat here.
        "nonflat_everywhere": (*_smallest(np.where(np.isnan(max_r), 0.0, max_r)), 10.0 * r_bound),
    }


def _classify_columns(jets: SecondOrderJet, coords: np.ndarray) -> np.ndarray:
    """The (P, n + 1 + pairs + 8) per-point columns of classify: the n
    output elasticities, the largest |proportional-MRS deviation| over the
    ordered pairs (NaN skipped), the Hicks elasticities of the pairs i < k
    and the ``_curvature_columns``.  Substitution first: its evaluation
    errors take precedence over a curvature overflow at the same point, as
    in a report."""
    n = jets.n
    i, k = ordered_pairs(n)
    elasticities = output_elasticity(jets, coords, np.arange(n))
    # proportional MRS means MRS_ik == x_i / x_k
    mrs_dev = np.fmax.reduce(abs(mrs(jets, i, k) * coords[k] / coords[i] - 1.0))
    hicks = hicks_elasticity(jets, coords, *triu(n, 1))
    return np.column_stack([elasticities.T, mrs_dev, hicks.T, _curvature_columns(jets)])


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _constancy_verdict(
    name: str, values: np.ndarray, coords: np.ndarray, tol: TolerancePolicy
) -> PropertyVerdict:
    """Verdict on the (P, m) ``values`` being constant over the grid; the
    witness is the first point of largest deviation from the mean."""
    mean, spread = _mean_spread(values)
    deviation = np.abs(values - mean).ravel()
    worst = int(np.argmax(np.where(np.isnan(deviation), -np.inf, deviation)))
    if abs(mean) < tol.zero_abs:
        observed, threshold = spread, tol.zero_abs
    else:
        observed, threshold = spread / abs(mean), tol.constancy_rel
    return _verdict(name, observed, worst // values.shape[1], threshold, coords, estimate=mean)


def classify(spec: FunctionSpec, grid: SampleGrid, tol: Optional[TolerancePolicy] = None) -> ClassificationVerdict:
    """Evaluate every classification predicate on the grid.

    Requires the spec to be valid on the grid (``validate`` clean);
    evaluation errors propagate with the offending point attached.
    """
    tol = tol or TolerancePolicy()
    n = spec.n
    coords, columns = grid_pass(spec, grid, _classify_columns)
    curvature = _curvature_stats(columns[:, -8:], tol)
    # Every curvature check but the negative controls, in the order of _curvature_stats.
    properties = [_verdict(name, *c, coords) for name, c in curvature.items() if not name.startswith("non")]
    properties.append(_verdict("proportional_mrs", *_largest(columns[:, n]), tol.constancy_rel, coords))
    for i in range(n):
        properties.append(_constancy_verdict(f"constant_elasticity_x{i + 1}", columns[:, i : i + 1], coords, tol))
    properties.append(_constancy_verdict("ces", columns[:, n + 1 : -8], coords, tol))
    return ClassificationVerdict(family=spec.family, n=spec.n, properties=tuple(properties))


def estimate_sigma(spec: FunctionSpec, grid: SampleGrid) -> tuple[float, float]:
    """Grid mean and (max - min) spread of the Hicks elasticity over all
    input pairs; the CES property holds when spread / |mean| is within
    the constancy tolerance."""
    _, hicks = grid_pass(spec, grid, lambda j, x: hicks_elasticity(j, x, *triu(j.n, 1)).T)
    return _mean_spread(hicks)


# ---------------------------------------------------------------------------
# Built-in classification fixture suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogFixture:
    name: str
    spec: FunctionSpec
    checks: tuple[str, ...]
    seed: int


@dataclass(frozen=True)
class ExpectationResult(_Record):
    fixture: str
    n: int
    check: str
    passed: bool
    observed: float
    bound: float
    witness: Point = field(metadata={"json": "witness_point"})


@dataclass(frozen=True)
class CatalogReport(_Record):
    results: tuple[ExpectationResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json_obj(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "all_passed": self.all_passed, **super().to_json_obj()}


def _monomial(c: float) -> Pow:
    return Pow(Var(0), c)


def _exponential(c: float) -> Exp:
    return Exp(Mul(Const(c), Var(0)))


def _log_of_exp_sum(weights, rates) -> FunctionSpec:
    terms = [Mul(Const(b), Exp(Mul(Const(a), Var(i)))) for i, (b, a) in enumerate(zip(weights, rates))]
    body = Mul(Const(1.2), Ln(sum_chain(terms)))
    return FunctionSpec(n=len(weights), body=body, family="custom")


def catalog_fixtures() -> list[CatalogFixture]:
    """The classified forms and their expected grid verdicts, for two
    and three inputs each: a new list over the fixtures that every call
    shares."""
    return list(_fixture_table())


@cache
def _fixture_table() -> tuple[CatalogFixture, ...]:
    """The fixture table, built on first use and kept for the process.
    Each fixture's spec keeps its compiled program on its body."""
    fixtures: list[CatalogFixture] = []

    def add(name: str, spec: FunctionSpec, *checks: str):
        fixtures.append(CatalogFixture(name, spec, checks, seed=len(fixtures)))

    for n in (2, 3):
        tag = f"_{n}in"
        exp_rates = (0.7, -0.4, 1.1)[:n]
        add(
            "exp_of_linear" + tag,
            build_quasi_product(Mul(Const(1.5), Var(0)), [_exponential(c) for c in exp_rates]),
            "flat",
            "vanishing_gk",
        )
        # The square root of a product has constant return to scale only
        # for two inputs, so the K = 0 expectation applies there alone.
        sqrt_checks = ("flat", "vanishing_sectional") + (("vanishing_gk",) if n == 2 else ())
        add(
            "sqrt_of_product" + tag,
            build_quasi_product(Mul(Const(2.0), Pow(Var(0), 0.5)), [Var(0)] * n),
            *sqrt_checks,
        )
        cr_k = (0.4, 0.6) if n == 2 else (0.2, 0.3, 0.5)
        add(
            "cobb_douglas_constant_return" + tag,
            build_family("cobb_douglas", {"A": 1.3, "k": cr_k}),
            "vanishing_gk",
        )
        add(
            "log_outer_with_exponential_factor" + tag,
            build_quasi_product(
                Mul(Const(1.0), Ln(Var(0))),
                [_exponential(1.0)] + [_monomial(0.25)] * (n - 1),
            ),
            "vanishing_gk",
        )
        add(
            "squared_exponential_product" + tag,
            build_quasi_product(
                Pow(Var(0), 2.0),
                [Mul(Const(0.8), _exponential(0.6)), _exponential(-0.5)] + [Var(0)] * (n - 2),
            ),
            "vanishing_gk",
        )
        add(
            "armington_constant_return" + tag,
            build_family(
                "acms",
                {"A": 1.0, "k": (1.0, 0.5, 0.25)[:n], "rho": 2.0, "gamma": 1.0},
            ),
            "vanishing_gk",
        )
        add(
            "log_of_exponential_sum" + tag,
            _log_of_exp_sum((1.0, 2.0, 1.5)[:n], (0.8, -0.6, 0.5)[:n]),
            "vanishing_gk",
        )
        ir_k = (0.5, 0.6) if n == 2 else (0.4, 0.4, 0.3)
        add(
            "cobb_douglas_increasing_return" + tag,
            build_family("cobb_douglas", {"A": 1.0, "k": ir_k}),
            "nonvanishing_gk",
        )
        add(
            "spillman" + tag,
            build_family("spillman_mitscherlich", {"A": 1.0, "a": (1.0,) * n}),
            "nonvanishing_gk",
            "nonflat_everywhere",
        )
        tc_a = (0.5, 0.5) if n == 2 else (0.3, 0.3, 0.4)
        add(
            "transcendental_constant_return" + tag,
            build_family("transcendental", {"A": 1.0, "a": tc_a, "b": (0.0,) * n}),
            "vanishing_gk",
        )
        tz_a = (0.0, 0.0) if n == 2 else (0.0, 0.0, 1.0)
        tz_b = (0.8, -0.5) if n == 2 else (0.9, 0.7, 0.0)
        add(
            "transcendental_two_pure_exponentials" + tag,
            build_family("transcendental", {"A": 1.0, "a": tz_a, "b": tz_b}),
            "vanishing_gk",
        )
        add(
            "transcendental_flat_exponential" + tag,
            build_family(
                "transcendental",
                {"A": 1.0, "a": (0.0,) * n, "b": (1.0, 0.5, -0.4)[:n]},
            ),
            "flat",
        )
        add(
            "transcendental_flat_sqrt" + tag,
            build_family("transcendental", {"A": 1.0, "a": (0.5,) * n, "b": (0.0,) * n}),
            "flat",
        )
    return tuple(fixtures)


@cache
def _fixture_coords(n: int, seed: int) -> np.ndarray:
    """The read-only coordinates of ``default_grid(n, seed)``, built once
    per process: the fixture table names 26 such grids."""
    coords = default_grid(n, seed=seed).coords()
    coords.flags.writeable = False
    return coords


def verify_catalog(tol: Optional[TolerancePolicy] = None) -> CatalogReport:
    """Run every fixture expectation and report pass/fail with the worst
    witness.  Failures are report entries, never exceptions.

    All fixtures run in one curvature pass, which packs consecutive
    fixtures of the same n into its blocks: each fixture's tree gives its
    own grid jet, and each fixture's rows of the per-point columns are
    reduced alone, so every result is that of a pass over the fixture
    alone.  An evaluation error is that of the first fixture that fails
    alone, at its first failing point.  The fixtures and their grids are
    built once per process; every result is computed anew under ``tol``."""
    tol = tol or TolerancePolicy()
    parts = [(fx, _fixture_coords(fx.spec.n, fx.seed)) for fx in catalog_fixtures()]
    columns = _pass([(fx.spec, x) for fx, x in parts], lambda j, _: _curvature_columns(j))
    results, end = [], 0
    for fx, coords in parts:
        end += coords.shape[1]
        curvature = _curvature_stats(columns[end - coords.shape[1] : end], tol)
        for check in fx.checks:
            v = _verdict(check, *curvature[check], coords)
            results.append(
                ExpectationResult(fx.name, fx.spec.n, check, v.holds, v.worst_value, v.threshold_used, v.worst_point)
            )
    return CatalogReport(tuple(results))
