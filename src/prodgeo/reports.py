"""Per-point analysis reports, and a grid's reports as one table for CSV
and JSON output.

The fields of ``GeometryReport`` are the report layout, declared once:
their order is the column order, a field's JSON key is its ``json``
metadata or its name, and its ``cells`` metadata (per input, ordered pair
or pair) gives its cells and their labels; a field without it is one
cell.  ``_fields`` gives every field as flat cells of a one-point or a
grid jet, so each row of a table equals its point's report bit for bit.
A new indicator is one field here and its formula in ``_fields``.

Index labels in rendered output are 1-based (x1, x2, ...) to read
naturally; the in-process API stays 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields

import numpy as np

from .catalog import FunctionSpec
from .classifier import SampleGrid, grid_pass
from .economics import _PER_INPUT, _PER_ORDERED_PAIR, _PER_PAIR, _record, substitution_fields
from .geometry import _curvature_cells
from .jets import SecondOrderJet, jet
from .points import Point, at_point

__all__ = ["GeometryReport", "geometry_report", "report_table", "report_record", "report_header"]


@dataclass(frozen=True, eq=False)
class GeometryReport:
    """Every indicator evaluated at one point."""

    point: Point
    value: float = field(metadata={"json": "f"})
    slope: float = field(metadata={"json": "w"})
    gauss_kronecker: float
    mean_curvature: float
    sectional: np.ndarray = field(metadata={"cells": _PER_PAIR})
    elasticities: np.ndarray = field(metadata={"json": "elasticity", "cells": _PER_INPUT})
    mrs: np.ndarray = field(metadata={"cells": _PER_ORDERED_PAIR})
    hicks: np.ndarray = field(metadata={"cells": _PER_PAIR})
    allen: np.ndarray = field(metadata={"cells": _PER_PAIR})
    allen_determinant: float

    @property
    def n(self) -> int:
        return len(self.point)


def _fields(j: SecondOrderJet, x) -> dict:
    """Every GeometryReport field but the point, as flat cells keyed by
    field name, at the point or grid of ``j`` with coordinates ``x``."""
    # Substitution first: its evaluation errors take precedence over a
    # curvature overflow at the same point.
    substitution = substitution_fields(j, x)
    w, k, mean, _, sectional = _curvature_cells(j)
    return dict(value=j.value, slope=w, gauss_kronecker=k, mean_curvature=mean, sectional=sectional, **substitution)


def geometry_report(spec: FunctionSpec, p) -> GeometryReport:
    with at_point(p) as point:
        return _record(GeometryReport, point, **_fields(jet(spec, point), point))


def report_table(spec: FunctionSpec, grid: SampleGrid) -> np.ndarray:
    """``geometry_report`` at every point of the grid, evaluated in one grid
    pass, as one (P, m) array: one row per point and one column per name
    of ``report_header``."""

    def columns(j: SecondOrderJet, x) -> np.ndarray:
        cells = _fields(j, x)
        return np.column_stack([x.T, *(cells[f.name].T for f in fields(GeometryReport)[1:])])

    return grid_pass(spec, grid, columns)[1]


def _labels(index) -> list[str]:
    """The labels of cells by their index arrays: x1.. of inputs, 1_2.. of pairs."""
    return [("x" if len(index) == 1 else "") + "_".join(str(i + 1) for i in cell) for cell in zip(*index)]


def report_record(n: int, cells) -> dict:
    """One report as nested in JSON output, holding ``cells`` in the order
    of ``report_header``: a field with a cell shape as a dict by label."""
    it = iter(cells)
    record = {"point": [next(it) for _ in range(n)]}
    for f in fields(GeometryReport)[1:]:
        shape = f.metadata.get("cells")
        value = {label: next(it) for label in _labels(shape.index(n))} if shape else next(it)
        record[f.metadata.get("json", f.name)] = value
    return record


def report_header(n: int) -> list[str]:
    """The column names of ``report_table``: x1.. for the point, then each
    record key, joined to the label of each cell in a group."""
    names = [f"x{i + 1}" for i in range(n)]
    for key, v in list(report_record(n, itertools.repeat(None)).items())[1:]:
        names += [f"{key}_{label}" for label in v] if isinstance(v, dict) else [key]
    return names
