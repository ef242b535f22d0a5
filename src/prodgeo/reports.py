"""Per-point analysis reports, with flat renderings for CSV and JSON
output.  One field builder applies the geometry and economics formulas
to a one-point jet or to a grid jet, so a grid's reports equal the
reports of its points bit for bit.

Index labels in rendered output are 1-based (x1, x2, ...) to read
naturally; the in-process API stays 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import FunctionSpec, as_point
from .classifier import SampleGrid, grid_points
from .economics import substitution_fields
from .errors import ProdGeoError, rerun_per_point
from .geometry import gauss_kronecker, mean_curvature_of_jet, sectional_curvature, slope_w
from .jets import SecondOrderJet, grid_jet, jet
from .linalg import ordered_pairs, pairs, symmetric_matrix
from .points import Point

__all__ = ["GeometryReport", "geometry_report", "grid_reports", "report_header", "report_row", "report_json_obj"]


@dataclass(frozen=True, eq=False)
class GeometryReport:
    """Every indicator evaluated at one point."""

    point: Point
    value: float
    slope: float
    gauss_kronecker: float
    mean_curvature: float
    sectional: np.ndarray
    elasticities: np.ndarray
    mrs: np.ndarray
    hicks: np.ndarray
    allen: np.ndarray
    allen_determinant: float

    @property
    def n(self) -> int:
        return len(self.point)


def _fields(j: SecondOrderJet, x) -> dict:
    """Every GeometryReport field but the point, at the point or grid of
    ``j`` with coordinates ``x``; a grid's fields carry a leading point
    axis."""
    # Substitution first: its evaluation errors take precedence over a
    # curvature overflow at the same point.
    return dict(
        substitution_fields(j, x),
        value=j.value,
        slope=slope_w(j),
        gauss_kronecker=gauss_kronecker(j),
        mean_curvature=mean_curvature_of_jet(j),
        sectional=symmetric_matrix(j.n, [sectional_curvature(j, i, k) for i, k in pairs(j.n)]),
    )


def geometry_report(spec: FunctionSpec, p) -> GeometryReport:
    point = as_point(p)
    return GeometryReport(point=point, **_fields(jet(spec, point), point))


def grid_reports(spec: FunctionSpec, grid: SampleGrid) -> list[GeometryReport]:
    """``geometry_report`` at every point of the grid, evaluated at once.

    When any point fails, the points are re-run one at a time in grid
    order, so the first failing point raises, its error naming it.
    """
    points, coords = grid_points(spec, grid)
    try:
        # Warnings are off: a loop over the points would stop at the first failing one.
        with np.errstate(all="ignore"):
            fields = _fields(grid_jet(spec, coords), coords)
    except ProdGeoError:
        rerun_per_point(points, lambda _, p: geometry_report(spec, p))
        raise
    return [
        GeometryReport(point=p, **{name: v[k] if v.ndim > 1 else float(v[k]) for name, v in fields.items()})
        for k, p in enumerate(points)
    ]


def report_header(n: int) -> list[str]:
    cols = [f"x{i + 1}" for i in range(n)]
    cols += ["f", "w", "gauss_kronecker", "mean_curvature"]
    cols += [f"sectional_{i + 1}_{k + 1}" for i, k in pairs(n)]
    cols += [f"elasticity_x{i + 1}" for i in range(n)]
    cols += [f"mrs_{i + 1}_{k + 1}" for i, k in ordered_pairs(n)]
    cols += [f"hicks_{i + 1}_{k + 1}" for i, k in pairs(n)]
    cols += [f"allen_{i + 1}_{k + 1}" for i, k in pairs(n)]
    cols += ["allen_determinant"]
    return cols


def report_row(r: GeometryReport) -> list[float]:
    """The values of ``report_json_obj``, flattened in the order of
    ``report_header``."""
    row = []
    for v in report_json_obj(r).values():
        row += v if isinstance(v, list) else list(v.values()) if isinstance(v, dict) else [v]
    return row


def report_json_obj(r: GeometryReport) -> dict:
    n = r.n
    return {
        "point": list(r.point.coords),
        "f": r.value,
        "w": r.slope,
        "gauss_kronecker": r.gauss_kronecker,
        "mean_curvature": r.mean_curvature,
        "sectional": {f"{i + 1}_{k + 1}": float(r.sectional[i, k]) for i, k in pairs(n)},
        "elasticity": {f"x{i + 1}": float(v) for i, v in enumerate(r.elasticities)},
        "mrs": {f"{i + 1}_{k + 1}": float(r.mrs[i, k]) for i, k in ordered_pairs(n)},
        "hicks": {f"{i + 1}_{k + 1}": float(r.hicks[i, k]) for i, k in pairs(n)},
        "allen": {f"{i + 1}_{k + 1}": float(r.allen[i, k]) for i, k in pairs(n)},
        "allen_determinant": r.allen_determinant,
    }
