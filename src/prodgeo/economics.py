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
partial below 1e-12 * |grad f| raises ZeroMarginalProduct instead of
returning a huge number; likewise the elasticity denominator against the
sum of its terms, and the bordered determinant against the product of
its row norms.  Like the indicators, no test changes when f is
multiplied by a constant.

Every indicator also takes a grid jet (see :mod:`prodgeo.jets`) with the
(n, P) array of its points' coordinates, giving one value per point --
each the value the point's own jet gives, bit for bit; a check that
fails at any point raises.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, DomainViolation, SingularAllenDeterminant, ZeroMarginalProduct
from .jets import PointValues, SecondOrderJet
from .linalg import det_pivoted, ordered_pairs, pair_matrix, pairs, quadratic_form, symmetric_matrix
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


def zero_marginal(gi: PointValues, gradient_sq: PointValues) -> PointValues:
    """Whether the first partial ``gi`` counts as zero against |grad f|^2."""
    return abs(gi) <= ZERO_MARGINAL_RTOL * np.sqrt(gradient_sq)


def _marginal(j: SecondOrderJet, i: int) -> PointValues:
    """The first partial of input i, checked to be nonzero once per jet."""
    if i not in j.marginals:
        gi = j.gradient[i]
        zero = zero_marginal(gi, j.gradient_sq)
        if j.anywhere(zero):
            first = float(np.asarray(gi)[zero][0])
            raise ZeroMarginalProduct(f"marginal product of x{i + 1} is numerically zero ({first!r})")
        j.marginals[i] = j.unbox(gi)
    return j.marginals[i]


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
    degenerate = abs(denominator) <= ZERO_MARGINAL_RTOL * (abs(t_ii) + abs(t_ik) + abs(t_kk))
    if j.anywhere(degenerate):
        raise DegenerateDenominator(
            f"substitution denominator is numerically zero for inputs {i + 1}, {k + 1}"
        )
    return j.unbox(numerator / denominator)


def allen_bordered_matrix(j: SecondOrderJet) -> np.ndarray:
    """(n+1)x(n+1) matrix [[0, grad^T], [grad, Hess]]; for a grid jet the
    (P, n+1, n+1) stack of each point's matrix."""
    g, h = j.stacked
    b = np.zeros(g.shape[:-1] + (j.n + 1, j.n + 1))
    b[..., 0, 1:] = g
    b[..., 1:, 0] = g
    b[..., 1:, 1:] = h
    return b


def allen_determinant(j: SecondOrderJet) -> PointValues:
    """Determinant of the bordered matrix."""
    return det_pivoted(allen_bordered_matrix(j))


def _allen(j: SecondOrderJet, x) -> tuple[list[PointValues], PointValues]:
    """Allen elasticities of the pairs i < k, in order, and the bordered
    determinant, at the point or grid of ``j`` with coordinates ``x``.
    One stacked determinant gives the cofactors of all pairs."""
    n = j.n
    b = allen_bordered_matrix(j)
    delta = det_pivoted(b)
    if j.anywhere(bad := ~np.isfinite(delta)):
        raise DomainViolation(f"bordered determinant is not finite ({float(np.asarray(delta)[bad][0])!r})")
    row_norms = np.sqrt(quadratic_form(b.reshape(-1, n + 1))).reshape(b.shape[:-1])
    singular = abs(delta) <= ZERO_MARGINAL_RTOL * np.prod(row_norms, axis=-1)
    if j.anywhere(singular):
        first = float(np.asarray(delta)[singular][0])
        raise SingularAllenDeterminant(f"bordered determinant is numerically zero ({first!r})")
    # The cofactor of f_ik leaves out row i+1 and column k+1.
    at = pairs(n)
    minors = np.stack([np.delete(np.delete(b, i + 1, axis=-2), k + 1, axis=-1) for i, k in at], axis=-3)
    minor_dets = det_pivoted(minors.reshape(-1, n, n)).reshape(minors.shape[:-2])
    # x @ grad by matmul, which rounds each point as the 1-D ``@`` does.
    xs = np.ascontiguousarray(x.T) if j.is_grid else np.array(x.coords)
    weighted = (xs[..., None, :] @ j.stacked[0][..., :, None])[..., 0, 0]
    values = []
    for m, (i, k) in enumerate(at):
        cofactor = (-1.0) ** ((i + 1) + (k + 1)) * minor_dets[..., m]
        values.append(j.unbox(weighted / (x[i] * x[k]) * cofactor / delta))
    return values, delta


def allen_elasticity(j: SecondOrderJet, p, i: int, k: int) -> PointValues:
    """Allen elasticity of substitution between inputs i and k."""
    j.check_index(i, k)
    if i == k:
        raise IndexError("substitution elasticity needs two distinct inputs")
    values, _ = _allen(j, _coords(p))
    return values[pairs(j.n).index((min(i, k), max(i, k)))]


def substitution_values(j: SecondOrderJet, x) -> tuple[list, list, Iterator[PointValues]]:
    """Output elasticities per input and MRS per ordered pair, as lists,
    and an iterator over the Hicks elasticities per pair, at the point or
    grid of ``j`` with coordinates ``x``.  Checks run as the values are
    computed, in the order of a loop over the inputs at one point."""
    n = j.n
    return (
        [output_elasticity(j, x, i) for i in range(n)],
        [mrs(j, i, k) for i, k in ordered_pairs(n)],
        (hicks_elasticity(j, x, i, k) for i, k in pairs(n)),
    )


def substitution_fields(j: SecondOrderJet, x) -> dict:
    """Every field of a SubstitutionSample but the point, at the point or
    grid of ``j`` with coordinates ``x``; a grid's fields carry a leading
    point axis."""
    n = j.n
    elasticities, mrs_values, hicks = substitution_values(j, x)
    # The bordered determinant is checked after the first Hicks value: a
    # point where both fail reports the Hicks error, as a loop over the
    # pairs computing Hicks, then Allen elasticities would.
    first_hicks = next(hicks)
    allen, delta = _allen(j, x)
    elasticities = np.stack(elasticities, axis=-1)
    elasticities.setflags(write=False)
    return dict(
        elasticities=elasticities,
        mrs=pair_matrix(n, ordered_pairs(n), mrs_values, 1.0),
        hicks=symmetric_matrix(n, [first_hicks, *hicks]),
        allen=symmetric_matrix(n, allen),
        allen_determinant=delta,
    )


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
    return SubstitutionSample(point=point, **substitution_fields(j, point))
