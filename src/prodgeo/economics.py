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
fails at any point raises.  A point is computed in numpy too, with its
warnings off as on a grid, so an underflow or overflow gives what the
grid gives there, never a ZeroDivisionError or a RuntimeWarning.

``output_elasticity``, ``mrs`` and ``hicks_elasticity`` also take index
arrays (``np.arange(n)``, the ordered pairs, ``np.triu_indices(n, 1)``),
giving a leading axis of one value per entry.  Each input's marginal
product is checked once per jet, in ascending order within a call; a
degenerate Hicks denominator names the first failing pair given.

The per-point records declare their layout on their fields.  A field's
``cells`` metadata is its cell shape: per input, per ordered pair i != k
(a matrix with ones, MRS_ii, on its diagonal) or per pair i < k (mirrored,
with NaN on its diagonal: undefined for a single input).  ``_record``
builds a record from one point's flat cells, a field with a shape as its
read-only array.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegenerateDenominator, SingularAllenDeterminant, ZeroMarginalProduct
from .jets import PointValues, SecondOrderJet, _read_only, _reject
from .linalg import det_pivoted, ordered_pairs, pair_matrix, quadratic_form, symmetric_matrix, triu
from .points import Point, as_point, at_point

__all__ = [
    "output_elasticity", "mrs", "hicks_elasticity", "allen_bordered_matrix", "allen_determinant", "allen_elasticity",
    "SubstitutionSample", "substitution_sample",
]

ZERO_MARGINAL_RTOL = 1e-12


def _coords(p, i):
    """The coordinates of inputs ``i``, an index or index array, of a point
    as numpy values, or the rows ``i`` of a grid jet's (n, P) coordinates."""
    return (p if isinstance(p, np.ndarray) else np.array(as_point(p).coords))[i]


def zero_marginal(gi: PointValues, gradient_sq: PointValues) -> PointValues:
    """Whether the first partial ``gi`` counts as zero against |grad f|^2."""
    return abs(gi) <= ZERO_MARGINAL_RTOL * np.sqrt(gradient_sq)


def _check_marginals(j: SecondOrderJet, *idx) -> None:
    """Check the first partials of the inputs ``idx``, each an index or
    index array, to be nonzero: each input once per jet, in ascending order."""
    for i in sorted(set(np.concatenate([np.ravel(a) for a in idx]).tolist()) - j.marginals):
        gi = j.gradient[i]
        zero = zero_marginal(gi, j.gradient_sq)
        _reject(zero, gi, f"marginal product of x{i + 1} is numerically zero ({{!r}})", ZeroMarginalProduct)
        j.marginals.add(i)


def output_elasticity(j: SecondOrderJet, p, i) -> PointValues:
    """Percentage output response to a percentage change of input i."""
    j.check_index(i)
    with np.errstate(all="ignore"):
        return j.unbox(_coords(p, i) * j.gradient[i] / j.value)


def mrs(j: SecondOrderJet, i, k) -> PointValues:
    """Marginal rate of technical substitution of input k for input i."""
    j.check_index(i, k)
    _check_marginals(j, i)
    with np.errstate(all="ignore"):
        return j.unbox(j.gradient[k] / j.gradient[i])


def hicks_elasticity(j: SecondOrderJet, p, i, k) -> PointValues:
    """Hicks elasticity of substitution between inputs i and k.

    The formula is symmetric in (i, k); arguments are ordered internally
    so the returned value is identical bit for bit either way.
    """
    j.check_index(i, k)
    if np.equal(i, k).any():
        raise IndexError("substitution elasticity needs two distinct inputs")
    i, k = np.minimum(i, k), np.maximum(i, k)
    _check_marginals(j, i, k)
    g, h, diagonal = j.gradient, j.hessian, range(j.n)
    with np.errstate(all="ignore"):
        # 1/(x_i f_i) and f_ii/f_i^2 once per input, gathered for each pair: fewer (pairs, P) temporaries.
        reciprocal, own = 1.0 / (_coords(p, ...) * g), h[diagonal, diagonal] / (g * g)
        t_ik = 2.0 * h[i, k] / (g[i] * g[k])
        denominator = -own[i] + t_ik - own[k]
        degenerate = abs(denominator) <= ZERO_MARGINAL_RTOL * (abs(own)[i] + abs(t_ik) + abs(own)[k])
        if degenerate.any():
            at = tuple(np.argwhere(degenerate)[0][: np.ndim(i)])
            raise DegenerateDenominator(
                f"substitution denominator is numerically zero for inputs {i[at] + 1}, {k[at] + 1}"
            )
        return j.unbox((reciprocal[i] + reciprocal[k]) / denominator)


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


def _allen(j: SecondOrderJet, p) -> tuple[np.ndarray, PointValues]:
    """Allen elasticities of the pairs ``np.triu_indices(n, 1)``, with a
    leading axis of one value per pair, and the bordered determinant, at
    the point or grid of ``j`` with coordinates ``p``.  One stacked
    determinant gives the cofactors of all pairs."""
    n = j.n
    b = allen_bordered_matrix(j)
    delta = det_pivoted(b)
    _reject(~np.isfinite(delta), delta, "bordered determinant is not finite ({!r})")
    row_norms = np.sqrt(quadratic_form(b.reshape(-1, n + 1))).reshape(b.shape[:-1])
    singular = abs(delta) <= ZERO_MARGINAL_RTOL * np.prod(row_norms, axis=-1)
    _reject(singular, delta, "bordered determinant is numerically zero ({!r})", SingularAllenDeterminant)
    # The cofactor of f_ik leaves out row i+1 and column k+1, with sign (-1)^(i+k).
    i, k = triu(n, 1)
    rows, cols = (np.arange(n) + (np.arange(n) >= m[:, None] + 1) for m in (i, k))
    minors = b[..., rows[:, :, None], cols[:, None, :]]
    minor_dets = det_pivoted(minors.reshape(-1, n, n)).reshape(minors.shape[:-2])
    cofactors = ((-1.0) ** (i + k) * minor_dets).T
    # x @ grad by matmul, which rounds each point as the 1-D ``@`` does.
    x = _coords(p, ...)
    weighted = (np.ascontiguousarray(x.T)[..., None, :] @ j.stacked[0][..., :, None])[..., 0, 0]
    with np.errstate(all="ignore"):
        return weighted / (x[i] * x[k]) * cofactors / delta, delta


def allen_elasticity(j: SecondOrderJet, p, i: int, k: int) -> PointValues:
    """Allen elasticity of substitution between inputs i and k."""
    j.check_index(i, k)
    if i == k:
        raise IndexError("substitution elasticity needs two distinct inputs")
    rows, cols = triu(j.n, 1)
    return j.unbox(_allen(j, p)[0][np.flatnonzero((rows == min(i, k)) & (cols == max(i, k)))[0]])


def substitution_fields(j: SecondOrderJet, x) -> dict:
    """Every field of a SubstitutionSample but the point, at the point or
    grid of ``j`` with coordinates ``x``, as flat cells keyed by field name:
    a field with a cell shape has a leading axis of one value per cell, in
    the order of its shape's index; a grid's cells carry a point axis last."""
    n = j.n
    i, k = triu(n, 1)
    elasticities, mrs_values = output_elasticity(j, x, np.arange(n)), mrs(j, *ordered_pairs(n))
    # The bordered determinant is checked after the first Hicks pair: a
    # point where both fail reports the Hicks error, as a loop over the
    # pairs computing Hicks, then Allen elasticities would.
    first_hicks = hicks_elasticity(j, x, i[:1], k[:1])
    allen, delta = _allen(j, x)
    hicks = np.concatenate([first_hicks, hicks_elasticity(j, x, i[1:], k[1:])])
    return dict(elasticities=elasticities, mrs=mrs_values, hicks=hicks, allen=allen, allen_determinant=delta)


# A cell shape: the index arrays of its cells for n inputs, and its array at one point.
_Cells = namedtuple("_Cells", "index array")
_PER_INPUT = _Cells(lambda n: (np.arange(n),), lambda n, v: _read_only(v))
_PER_ORDERED_PAIR = _Cells(ordered_pairs, lambda n, v: pair_matrix(n, *ordered_pairs(n), v, 1.0))
_PER_PAIR = _Cells(lambda n: triu(n, 1), symmetric_matrix)


def _record(cls, point: Point, **cells):
    """The ``cls`` record of ``point`` from the flat cells of one point, one
    keyword per field: a field with a cell shape holds their array."""
    shapes = {f.name: f.metadata.get("cells") for f in fields(cls)[1:]}
    return cls(point, **{k: s.array(len(point), cells[k]) if s else cells[k] for k, s in shapes.items()})


@dataclass(frozen=True, eq=False)
class SubstitutionSample:
    """All substitution indicators evaluated at one point.

    ``mrs`` has ones on the diagonal; ``hicks`` and ``allen`` are
    symmetric with NaN on the diagonal (undefined for a single input).
    """

    point: Point
    elasticities: np.ndarray = field(metadata={"json": "elasticity", "cells": _PER_INPUT})
    mrs: np.ndarray = field(metadata={"cells": _PER_ORDERED_PAIR})
    hicks: np.ndarray = field(metadata={"cells": _PER_PAIR})
    allen: np.ndarray = field(metadata={"cells": _PER_PAIR})
    allen_determinant: float


def substitution_sample(j: SecondOrderJet, p) -> SubstitutionSample:
    with at_point(p) as point:
        return _record(SubstitutionSample, point, **substitution_fields(j, point))
