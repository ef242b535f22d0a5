"""Per-point analysis reports, assembled from the curvature and
substitution records of one jet, with flat renderings for CSV and JSON
output.

Index labels in rendered output are 1-based (x1, x2, ...) to read
naturally; the in-process API stays 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import FunctionSpec, as_point
from .economics import substitution_sample
from .geometry import curvature_sample_of_jet
from .jets import jet
from .points import Point

__all__ = ["GeometryReport", "geometry_report", "report_header", "report_row", "report_json_obj"]


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


def geometry_report(spec: FunctionSpec, p) -> GeometryReport:
    point = as_point(p)
    j = jet(spec, point)
    # Substitution first: its evaluation errors take precedence over a
    # curvature overflow at the same point.
    sub = substitution_sample(j, point)
    curv = curvature_sample_of_jet(j, point)
    return GeometryReport(
        point=point,
        value=j.value,
        slope=curv.w,
        gauss_kronecker=curv.gauss_kronecker,
        mean_curvature=curv.mean,
        sectional=curv.sectional,
        elasticities=sub.elasticities,
        mrs=sub.mrs,
        hicks=sub.hicks,
        allen=sub.allen,
        allen_determinant=sub.allen_determinant,
    )


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, k) for i in range(n) for k in range(i + 1, n)]


def _ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, k) for i in range(n) for k in range(n) if i != k]


def report_header(n: int) -> list[str]:
    cols = [f"x{i + 1}" for i in range(n)]
    cols += ["f", "w", "gauss_kronecker", "mean_curvature"]
    cols += [f"sectional_{i + 1}_{k + 1}" for i, k in _pairs(n)]
    cols += [f"elasticity_x{i + 1}" for i in range(n)]
    cols += [f"mrs_{i + 1}_{k + 1}" for i, k in _ordered_pairs(n)]
    cols += [f"hicks_{i + 1}_{k + 1}" for i, k in _pairs(n)]
    cols += [f"allen_{i + 1}_{k + 1}" for i, k in _pairs(n)]
    cols += ["allen_determinant"]
    return cols


def report_row(r: GeometryReport) -> list[float]:
    n = r.n
    row = list(r.point.coords)
    row += [r.value, r.slope, r.gauss_kronecker, r.mean_curvature]
    row += [float(r.sectional[i, k]) for i, k in _pairs(n)]
    row += [float(v) for v in r.elasticities]
    row += [float(r.mrs[i, k]) for i, k in _ordered_pairs(n)]
    row += [float(r.hicks[i, k]) for i, k in _pairs(n)]
    row += [float(r.allen[i, k]) for i, k in _pairs(n)]
    row += [r.allen_determinant]
    return row


def report_json_obj(r: GeometryReport) -> dict:
    n = r.n
    return {
        "point": list(r.point.coords),
        "f": r.value,
        "w": r.slope,
        "gauss_kronecker": r.gauss_kronecker,
        "mean_curvature": r.mean_curvature,
        "sectional": {f"{i + 1}_{k + 1}": float(r.sectional[i, k]) for i, k in _pairs(n)},
        "elasticity": {f"x{i + 1}": float(v) for i, v in enumerate(r.elasticities)},
        "mrs": {f"{i + 1}_{k + 1}": float(r.mrs[i, k]) for i, k in _ordered_pairs(n)},
        "hicks": {f"{i + 1}_{k + 1}": float(r.hicks[i, k]) for i, k in _pairs(n)},
        "allen": {f"{i + 1}_{k + 1}": float(r.allen[i, k]) for i, k in _pairs(n)},
        "allen_determinant": r.allen_determinant,
    }
