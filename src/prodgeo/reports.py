"""Per-point analysis reports, and a grid's reports as one table for CSV
and JSON output.  One field builder applies the geometry and economics
formulas to a one-point jet or to a grid jet, so a grid's reports equal
the reports of its points bit for bit.

Index labels in rendered output are 1-based (x1, x2, ...) to read
naturally; the in-process API stays 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .catalog import FunctionSpec, as_point
from .classifier import SampleGrid, grid_pass
from .economics import substitution_fields
from .geometry import gauss_kronecker, mean_curvature_of_jet, sectional_curvature, slope_w
from .jets import SecondOrderJet, jet
from .linalg import ordered_pairs, pairs, symmetric_matrix, triu
from .points import Point

__all__ = ["GeometryReport", "geometry_report", "grid_reports", "report_table", "report_record", "report_header"]


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
        sectional=symmetric_matrix(j.n, sectional_curvature(j, *triu(j.n, 1))),
    )


def geometry_report(spec: FunctionSpec, p) -> GeometryReport:
    point = as_point(p)
    return GeometryReport(point=point, **_fields(jet(spec, point), point))


def grid_reports(spec: FunctionSpec, grid: SampleGrid) -> list[GeometryReport]:
    """``geometry_report`` at every point of the grid, evaluated at once."""
    coords, fields = grid_pass(spec, grid, _fields)
    return [
        GeometryReport(point=Point(tuple(c)), **{name: v[k] if v.ndim > 1 else float(v[k]) for name, v in fields.items()})
        for k, c in enumerate(coords.T.tolist())
    ]


def report_table(spec: FunctionSpec, grid: SampleGrid) -> np.ndarray:
    """The reports of ``grid_reports`` as one (P, m) array, one row per
    point and one column per name of ``report_header``."""
    coords, f = grid_pass(spec, grid, _fields)
    i, k = triu(spec.n, 1)
    oi, ok = np.array(ordered_pairs(spec.n)).T
    return np.column_stack([
        coords.T, f["value"], f["slope"], f["gauss_kronecker"], f["mean_curvature"], f["sectional"][:, i, k],
        f["elasticities"], f["mrs"][:, oi, ok], f["hicks"][:, i, k], f["allen"][:, i, k], f["allen_determinant"],
    ])


def report_record(n: int, cells) -> dict:
    """One report as nested in JSON output, holding ``cells`` in the
    order of ``report_header``."""
    it = iter(cells)
    pair_labels = [f"{i + 1}_{k + 1}" for i, k in pairs(n)]
    groups = {
        "sectional": pair_labels,
        "elasticity": [f"x{i + 1}" for i in range(n)],
        "mrs": [f"{i + 1}_{k + 1}" for i, k in ordered_pairs(n)],
        "hicks": pair_labels,
        "allen": pair_labels,
    }
    record = {"point": [next(it) for _ in range(n)]}
    record.update((key, next(it)) for key in ("f", "w", "gauss_kronecker", "mean_curvature"))
    record.update((key, {label: next(it) for label in labels}) for key, labels in groups.items())
    record["allen_determinant"] = next(it)
    return record


def report_header(n: int) -> list[str]:
    """The column names of ``report_table``: x1.. for the point, then each
    record key, joined to the label of each cell in a group."""
    names = [f"x{i + 1}" for i in range(n)]
    for key, v in list(report_record(n, itertools.repeat(None)).items())[1:]:
        names += [f"{key}_{label}" for label in v] if isinstance(v, dict) else [key]
    return names
