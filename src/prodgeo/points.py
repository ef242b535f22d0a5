"""Strictly positive input points, and grid stages that re-run point by
point when they fail."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, ProdGeoError

__all__ = ["Point", "as_point"]


@dataclass(frozen=True)
class Point:
    """An n-vector of strictly positive input quantities."""

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        for i, c in enumerate(coords):
            if not math.isfinite(c) or c <= 0.0:
                raise DomainViolation(
                    f"coordinate x{i + 1}={c!r} is outside the positive orthant"
                )
        object.__setattr__(self, "coords", coords)

    @classmethod
    def of(cls, *xs: float) -> "Point":
        return cls(tuple(xs))

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> float:
        return self.coords[i]


def as_point(p) -> Point:
    """Coerce a Point or any sequence of positive numbers to a Point."""
    if isinstance(p, Point):
        return p
    return Point(tuple(p))


def grid_stage(coords: np.ndarray, at_once, per_point):
    """``at_once()``, a stage evaluated at every point of the (n, P)
    ``coords`` at once, with numpy's warnings off: a loop over the points
    would stop at the first failing one.  If it raises a ProdGeoError,
    ``per_point(k, point)`` runs at each point in grid order, so that the
    first failing point raises, its error naming it."""
    try:
        with np.errstate(all="ignore"):
            return at_once()
    except ProdGeoError:
        for k, c in enumerate(coords.T.tolist()):
            point = Point(tuple(c))
            try:
                per_point(k, point)
            except ProdGeoError as e:
                if e.point is None:
                    e.point = point
                    e.args = (f"{e.args[0]} at point {tuple(point.coords)}",) + e.args[1:]
                raise
        raise
