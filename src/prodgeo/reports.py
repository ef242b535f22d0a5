"""Per-point analysis reports, and a grid's reports as one table for CSV
and JSON output.  One field builder gives every indicator as flat cells
of a one-point or a grid jet; a report builds its matrices from its
point's cells, so each row of a table equals its point's report bit for bit.

Index labels in rendered output are 1-based (x1, x2, ...) to read
naturally; the in-process API stays 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .catalog import FunctionSpec
from .classifier import SampleGrid, grid_pass
from .economics import _record_matrices, substitution_fields
from .geometry import gauss_kronecker, mean_curvature_of_jet, sectional_curvature, slope_w
from .jets import SecondOrderJet, jet
from .linalg import ordered_pairs, triu
from .points import Point, at_point

__all__ = ["GeometryReport", "geometry_report", "report_table", "report_record", "report_header"]


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
    """Every GeometryReport field but the point, as the flat cells of
    ``substitution_fields``, at the point or grid of ``j`` with coordinates
    ``x``, in the order of ``report_record``."""
    # Substitution first: its evaluation errors take precedence over a
    # curvature overflow at the same point.
    substitution = substitution_fields(j, x)
    return dict(
        value=j.value,
        slope=slope_w(j),
        gauss_kronecker=gauss_kronecker(j),
        mean_curvature=mean_curvature_of_jet(j),
        sectional=sectional_curvature(j, *triu(j.n, 1)),
        **substitution,
    )


def geometry_report(spec: FunctionSpec, p) -> GeometryReport:
    with at_point(p) as point:
        return GeometryReport(point=point, **_record_matrices(spec.n, _fields(jet(spec, point), point)))


def report_table(spec: FunctionSpec, grid: SampleGrid) -> np.ndarray:
    """``geometry_report`` at every point of the grid, evaluated in one grid
    pass, as one (P, m) array: one row per point and one column per name
    of ``report_header``."""
    return grid_pass(spec, grid, lambda j, x: np.column_stack([x.T, *(v.T for v in _fields(j, x).values())]))[1]


def report_record(n: int, cells) -> dict:
    """One report as nested in JSON output, holding ``cells`` in the
    order of ``report_header``."""
    it = iter(cells)
    pair_labels = [f"{i + 1}_{k + 1}" for i, k in zip(*triu(n, 1))]
    groups = {
        "sectional": pair_labels,
        "elasticity": [f"x{i + 1}" for i in range(n)],
        "mrs": [f"{i + 1}_{k + 1}" for i, k in zip(*ordered_pairs(n))],
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
