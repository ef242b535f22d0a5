"""Strictly positive input points."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainViolation

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
