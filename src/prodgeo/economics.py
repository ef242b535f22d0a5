"""Substitution and elasticity indicators of a production function.

All quantities are rational in the point, the gradient and the Hessian:

* output elasticity      E_i  = x_i f_i / f
* marginal rate of
  technical substitution MRS_ij = f_j / f_i
* Hicks elasticity       H_ij = (1/(x_i f_i) + 1/(x_j f_j)) /
                                (-f_ii/f_i^2 + 2 f_ij/(f_i f_j) - f_jj/f_j^2)
* Allen elasticity       A_ij = (sum_m x_m f_m)/(x_i x_j) * C_ij / D

where D is the determinant of the bordered matrix [[0, grad^T],
[grad, Hess]] and C_ij is the cofactor of the Hessian entry f_ij inside
it (the border occupies row and column 0, so the cofactor of f_ij sits
at position (i+1, j+1) with sign (-1)^(i+j)).  With this convention the
Allen and Hicks elasticities coincide for two inputs and both equal 1
for any Cobb-Douglas function, as they must.

Ratios of marginal products presuppose nowhere-zero first partials, so a
partial below 1e-12 * (1 + |grad f|) raises ZeroMarginalProduct instead
of returning a huge number; the elasticity denominator and the bordered
determinant get the same treatment.

The output elasticity, the MRS and the Hicks elasticity also take a grid
jet (see :mod:`prodgeo.jets`) with the (n, P) array of its points'
coordinates, giving one value per point; a check that fails at any
point raises.  Allen elasticities are computed one point at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominator,
    SingularAllenDeterminant,
    ZeroMarginalProduct,
)
from .jets import PointValues, SecondOrderJet
from .linalg import det_pivoted
from .points import Point, as_point

__all__ = [
    "output_elasticity",
    "mrs",
    "hicks_elasticity",
    "allen_bordered_matrix",
    "allen_determinant",
    "allen_elasticity",
    "SubstitutionSample",
    "substitution_sample",
]

ZERO_MARGINAL_RTOL = 1e-12


def _coords(p):
    """A point's coordinates, or for a grid jet the (n, P) array of its
    points' coordinates, as given."""
    return p if isinstance(p, np.ndarray) else as_point(p)


def _marginal(j: SecondOrderJet, i: int) -> PointValues:
    gi = j.gradient[i]
    zero = abs(gi) <= ZERO_MARGINAL_RTOL * (1.0 + np.sqrt(j.gradient_sq))
    if j.anywhere(zero):
        first = float(np.asarray(gi)[zero][0])
        raise ZeroMarginalProduct(f"marginal product of x{i + 1} is numerically zero ({first!r})")
    return j.unbox(gi)


def output_elasticity(j: SecondOrderJet, p, i: int) -> PointValues:
    """Percentage output response to a percentage change of input i."""
    j.check_index(i)
    x = _coords(p)
    return j.unbox(x[i] * j.gradient[i] / j.value)


def mrs(j: SecondOrderJet, i: int, k: int) -> PointValues:
    """Marginal rate of technical substitution of input k for input i."""
    j.check_index(i, k)
    return j.unbox(j.gradient[k] / _marginal(j, i))


def hicks_elasticity(j: SecondOrderJet, p, i: int, k: int) -> PointValues:
    """Hicks elasticity of substitution between inputs i and k.

    The formula is symmetric in (i, k); arguments are ordered internally
    so the returned value is identical bit for bit either way.
    """
    j.check_index(i, k)
    if i == k:
        raise IndexError("substitution elasticity needs two distinct inputs")
    i, k = (i, k) if i < k else (k, i)
    x = _coords(p)
    gi = _marginal(j, i)
    gk = _marginal(j, k)
    h = j.hessian
    numerator = 1.0 / (x[i] * gi) + 1.0 / (x[k] * gk)
    t_ii = h[i, i] / (gi * gi)
    t_ik = 2.0 * h[i, k] / (gi * gk)
    t_kk = h[k, k] / (gk * gk)
    denominator = -t_ii + t_ik - t_kk
    degenerate = abs(denominator) <= ZERO_MARGINAL_RTOL * (1.0 + abs(t_ii) + abs(t_ik) + abs(t_kk))
    if j.anywhere(degenerate):
        raise DegenerateDenominator(
            f"substitution denominator is numerically zero for inputs {i + 1}, {k + 1}"
        )
    return j.unbox(numerator / denominator)


def allen_bordered_matrix(j: SecondOrderJet) -> np.ndarray:
    """(n+1)x(n+1) matrix [[0, grad^T], [grad, Hess]]."""
    n = j.n
    b = np.zeros((n + 1, n + 1))
    b[0, 1:] = j.gradient
    b[1:, 0] = j.gradient
    b[1:, 1:] = j.hessian
    return b


def allen_determinant(j: SecondOrderJet) -> float:
    """Determinant of the bordered matrix."""
    return det_pivoted(allen_bordered_matrix(j))


def _check_bordered(b: np.ndarray, delta: float):
    scale = 1.0
    for row in b:
        scale *= math.sqrt(float(row @ row))
    if abs(delta) <= ZERO_MARGINAL_RTOL * (1.0 + scale):
        raise SingularAllenDeterminant(f"bordered determinant is numerically zero ({delta!r})")


def allen_elasticity(j: SecondOrderJet, p, i: int, k: int) -> float:
    """Allen elasticity of substitution between inputs i and k."""
    j.check_index(i, k)
    if i == k:
        raise IndexError("substitution elasticity needs two distinct inputs")
    i, k = (i, k) if i < k else (k, i)
    point = as_point(p)
    b = allen_bordered_matrix(j)
    delta = det_pivoted(b)
    _check_bordered(b, delta)
    return _allen_of_bordered(j, point, b, delta, i, k)


def _allen_of_bordered(j: SecondOrderJet, point: Point, b: np.ndarray, delta: float, i: int, k: int) -> float:
    """Allen elasticity of the pair i < k from the checked bordered matrix
    ``b`` and its determinant ``delta``."""
    minor = np.delete(np.delete(b, i + 1, axis=0), k + 1, axis=1)
    cofactor = (-1.0) ** ((i + 1) + (k + 1)) * det_pivoted(minor)
    weighted = float(np.array(point.coords) @ j.gradient)
    return weighted / (point[i] * point[k]) * cofactor / delta


@dataclass(frozen=True, eq=False)
class SubstitutionSample:
    """All substitution indicators evaluated at one point.

    ``mrs`` has ones on the diagonal; ``hicks`` and ``allen`` are
    symmetric with NaN on the diagonal (undefined for a single input).
    """

    point: Point
    elasticities: np.ndarray
    mrs: np.ndarray
    hicks: np.ndarray
    allen: np.ndarray
    allen_determinant: float


def substitution_sample(j: SecondOrderJet, p) -> SubstitutionSample:
    point = as_point(p)
    n = j.n
    elasticities = np.array([output_elasticity(j, point, i) for i in range(n)])
    mrs_m = np.ones((n, n))
    hicks_m = np.full((n, n), math.nan)
    allen_m = np.full((n, n), math.nan)
    for i in range(n):
        for k in range(n):
            if i != k:
                mrs_m[i, k] = mrs(j, i, k)
    b = allen_bordered_matrix(j)
    delta = det_pivoted(b)
    for i in range(n):
        for k in range(i + 1, n):
            hicks_m[i, k] = hicks_m[k, i] = hicks_elasticity(j, point, i, k)
            if (i, k) == (0, 1):
                # After the first Hicks value: a point where both fail
                # reports the Hicks error, as allen_elasticity per pair would.
                _check_bordered(b, delta)
            allen_m[i, k] = allen_m[k, i] = _allen_of_bordered(j, point, b, delta, i, k)
    for m in (elasticities, mrs_m, hicks_m, allen_m):
        m.setflags(write=False)
    return SubstitutionSample(
        point=point,
        elasticities=elasticities,
        mrs=mrs_m,
        hicks=hicks_m,
        allen=allen_m,
        allen_determinant=delta,
    )
