"""Strictly positive input points."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from .errors import ArityMismatch, DomainViolation, EvaluationError

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


def as_point(p, n: Optional[int] = None) -> Point:
    """Coerce a Point or any sequence of positive numbers to a Point, of
    ``n`` coordinates if given (ArityMismatch otherwise)."""
    point = p if isinstance(p, Point) else Point(tuple(p))
    if n is not None and len(point) != n:
        raise ArityMismatch(f"point has {len(point)} coordinates, function has {n} inputs")
    return point


@contextmanager
def at_point(p, n: Optional[int] = None):
    """``as_point(p, n)`` for the block, and the point of an evaluation
    error raised in the block that names none; its message stays as it is."""
    point = as_point(p, n)
    try:
        yield point
    except EvaluationError as e:
        if e.point is None:
            e.point = point
        raise
