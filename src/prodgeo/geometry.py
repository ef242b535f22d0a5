"""Curvature of the graph hypersurface (x1, ..., xn, f(x)).

For a graph hypersurface all curvature quantities are rational in the
first and second derivatives of f and the slope factor
w = sqrt(1 + |grad f|^2):

* Gauss-Kronecker curvature   K      = det(Hess f) / w^(n+2)
* mean curvature              H      = (1/n) sum_i d/dx_i (f_i / w)
* sectional curvature         K_ij   = (f_ii f_jj - f_ij^2) / (w^2 (1 + f_i^2 + f_j^2))
* Riemann components          R_ijkl = (f_il f_jk - f_ik f_jl) / w^4

The mean curvature is assembled in closed form from the jet,
(1/n) [sum_i f_ii / w  -  sum_{i,j} f_i f_j f_ij / w^3],
so only second derivatives are needed.  Because every Riemann component
is a 2x2 minor of the Hessian (divided by w^4), flatness is decided by
the canonical set of independent minors.

For composite functions F(g1(x1) * ... * gn(xn)) the Hessian determinant
also has an analytic product form, implemented here from univariate jets
of F and the inner factors; it must agree with the generic determinant
and the test suite holds it to 1e-9 relative.

Every indicator takes a one-point jet, giving a float, or a grid jet
(see :mod:`prodgeo.jets`), giving one value per point -- each the value
the point's own jet gives, bit for bit.  The pairwise indicators also
take index arrays, such as the pairs ``np.triu_indices(n, 1)``, giving a
leading axis of one value per entry; R(i,k,k,i) and K_ik share one minor,
computed once by ``plane_curvatures``.  ``_curvature_cells`` gives the
curvature cells of ``curvature_sample`` and of ``reports`` in the one
order in which they raise; ``CurvatureSample`` declares its layout on its
fields, as ``economics`` describes.  Everything in this module is pure;
grids of points may be evaluated concurrently without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .catalog import FunctionSpec
from .economics import _PER_PAIR, _record
from .errors import DegenerateOuter, DomainViolation, StructureMissing
from .jets import PointValues, SecondOrderJet, _read_only, jet, univariate_jet
from .linalg import det_pivoted, quadratic_form, triu
from .points import Point, at_point

__all__ = [
    "slope_w", "slope_power", "hessian_determinant", "gauss_kronecker", "mean_curvature", "mean_curvature_of_jet",
    "minimality_residual", "plane_curvatures", "sectional_curvature", "riemann_component", "canonical_riemann_quads",
    "CurvatureSample", "curvature_sample", "quasi_product_hessian_det",
]


def slope_w(j: SecondOrderJet) -> PointValues:
    """Slope factor sqrt(1 + |grad f|^2); always >= 1."""
    return j.unbox(np.sqrt(1.0 + j.gradient_sq))


def slope_power(j: SecondOrderJet, e: int) -> PointValues:
    """w ** e, once per jet and exponent, by Python's float power mapped over
    one point at a time (numpy's vectorized power rounds differently).
    Raises DomainViolation where it overflows."""
    if e not in j.slope_powers:
        w = slope_w(j)
        try:
            power = np.fromiter(map(pow, w.tolist(), repeat(e)), float, len(w)) if j.is_grid else w**e
        except OverflowError:
            raise DomainViolation(f"slope factor power overflows: {float(np.max(w))!r} ** {e}") from None
        j.slope_powers[e] = _read_only(power) if j.is_grid else power
    return j.slope_powers[e]


def hessian_determinant(j: SecondOrderJet) -> PointValues:
    return j.unbox(det_pivoted(j.stacked[1]))


def gauss_kronecker(j: SecondOrderJet) -> PointValues:
    """det(Hess f) / w^(n+2)."""
    # The slope factor first: where it raises, the determinant may overflow.
    w_power = slope_power(j, j.n + 2)
    return j.unbox(hessian_determinant(j) / w_power)


def mean_curvature_of_jet(j: SecondOrderJet) -> PointValues:
    """(1/n) [sum_i f_ii / w - sum_{i,j} f_i f_j f_ij / w^3]."""
    g, h = j.stacked
    trace = np.trace(h, axis1=-2, axis2=-1)
    return j.unbox((trace / slope_w(j) - quadratic_form(g, h) / slope_power(j, 3)) / j.n)


def mean_curvature(spec: FunctionSpec, p) -> float:
    with at_point(p) as point:
        return mean_curvature_of_jet(jet(spec, point))


def minimality_residual(j: SecondOrderJet) -> PointValues:
    """Expanded zero-mean-curvature condition:
    sum_i f_ii + sum_{i != j} (f_i^2 f_jj - f_i f_j f_ij).

    Vanishes exactly where the mean curvature does; the two are related
    by residual = n * H * w^3.  Useful as an independent cross-check
    because it needs no square root.
    """
    g, h = j.stacked
    trace = np.trace(h, axis1=-2, axis2=-1)
    # The i == j terms of the double sum cancel pairwise, so it equals
    # |g|^2 tr(h) - g.h.g.
    return j.unbox(trace + j.gradient_sq * trace - quadratic_form(g, h))


def plane_curvatures(j: SecondOrderJet, i, k, *bounds) -> tuple[PointValues, ...]:
    """R(i, k, k, i) and K_ik, the principal minor f_ii f_kk - f_ik^2 of axes
    i and k over w^4 and over w^2 (1 + f_i^2 + f_k^2), then each of
    ``bounds`` (on the minor's terms: a noise scale) over the same two.  As
    the Hessian is mirrored bit for bit, R equals riemann_component(j, i,
    k, k, i); the minor is computed once for both."""
    j.check_index(i, k)
    if np.any(np.equal(i, k)):
        raise IndexError("sectional curvature needs two distinct axes")
    g, h = j.gradient, j.hessian
    w2 = 1.0 + j.gradient_sq
    minor = h[i, i] * h[k, k] - h[i, k] * h[i, k]
    normalizers = (w2 * w2, w2 * (1.0 + g[i] * g[i] + g[k] * g[k]))
    return tuple(j.unbox(v / d) for v in (minor, *bounds) for d in normalizers)


def sectional_curvature(j: SecondOrderJet, i, k) -> PointValues:
    """Curvature of the coordinate plane section spanned by axes i and k."""
    return plane_curvatures(j, i, k)[1]


def riemann_component(j: SecondOrderJet, i, k, l, m) -> PointValues:
    """Component R(d_i, d_k, d_l, d_m) = (f_im f_kl - f_il f_km) / w^4."""
    j.check_index(i, k, l, m)
    h = j.hessian
    w2 = 1.0 + j.gradient_sq
    return j.unbox((h[i, m] * h[k, l] - h[i, l] * h[k, m]) / (w2 * w2))


def canonical_riemann_quads(n: int) -> list[tuple[int, int, int, int]]:
    """The canonical component set {(i, j, j, i): i < j}.

    R(i, j, j, i) is the principal 2x2 Hessian minor of axes i, j over
    w^4; one component per axis pair.  These are the components the
    flatness verdict monitors, and they determine every coordinate-plane
    sectional curvature (same minors, different normalizer).
    """
    i, k = triu(n, 1)
    return [(a, b, b, a) for a, b in zip(i.tolist(), k.tolist())]


def _curvature_cells(j: SecondOrderJet) -> tuple[PointValues, ...]:
    """w, K and H, then R(i, k, k, i) and K_ik of the pairs ``triu(n, 1)``, at
    the point or grid of ``j``: the indicators that raise first, before the
    components that would overflow at the same point."""
    w, k, mean = slope_w(j), gauss_kronecker(j), mean_curvature_of_jet(j)
    return (w, k, mean, *plane_curvatures(j, *triu(j.n, 1)))


@dataclass(frozen=True, eq=False)
class CurvatureSample:
    """All curvature quantities evaluated at one point.

    ``sectional`` is an n-by-n symmetric matrix with NaN on the diagonal
    (the plane section needs two distinct axes).  ``riemann`` maps the
    canonical quadruples, plus any extra requested ones, to component
    values.
    """

    point: Point
    w: float
    gauss_kronecker: float
    mean: float
    sectional: np.ndarray = field(metadata={"cells": _PER_PAIR})
    riemann: dict[tuple[int, int, int, int], float]


def curvature_sample(spec: FunctionSpec, p, extra_quads=()) -> CurvatureSample:
    with at_point(p) as point:
        j = jet(spec, point)
        w, k, mean, riemann, sectional = _curvature_cells(j)
        riemann = dict(zip(canonical_riemann_quads(j.n), riemann.tolist()))
        riemann.update((q, riemann_component(j, *q)) for q in extra_quads)
        return _record(CurvatureSample, point, w=w, gauss_kronecker=k, mean=mean, sectional=sectional, riemann=riemann)


def quasi_product_hessian_det(spec: FunctionSpec, p) -> float:
    """Analytic Hessian determinant of F(g1(x1) * ... * gn(xn)).

    With u = prod g_i, r_i = g_i'/g_i and s_i = (g_i'/g_i)', the
    determinant equals

        (u F')^n [ prod_j s_j
                   + (1 + u F''/F') * sum_j ( r_j^2 * prod_{i != j} s_i ) ].

    Requires the outer/inner structure, F'(u) != 0 and every g_i > 0 at
    the point.  Raises DomainViolation where (u F')^n or the determinant
    overflows.
    """
    if not spec.has_composition:
        raise StructureMissing(
            f"{spec.family} spec carries no outer/inner composition structure"
        )
    with at_point(p, spec.n) as point:
        n = spec.n
        r, s, u = [], [], 1.0
        for i, g in enumerate(spec.inners):
            gv, gd, gdd = univariate_jet(g, point[i])
            if gv <= 0.0:
                raise DomainViolation(f"inner factor {i + 1} is non-positive ({gv!r}) at {point.coords}")
            r.append(gd / gv)
            s.append(gdd / gv - r[i] * r[i])
            u *= gv
        _, fd1, fd2 = univariate_jet(spec.outer, u)
        if fd1 == 0.0:
            raise DegenerateOuter(f"outer derivative vanishes at u={u!r}")
        correction = 0.0
        for jdx in range(n):
            correction += r[jdx] * r[jdx] * math.prod(s[:jdx] + s[jdx + 1 :])
        bracket = math.prod(s) + (1.0 + u * fd2 / fd1) * correction
        try:
            slope = (u * fd1) ** n
        except OverflowError:
            raise DomainViolation(f"outer slope power overflows: {u * fd1!r} ** {n} at {point.coords}") from None
        if math.isinf(det := slope * bracket) and math.isfinite(bracket):
            raise DomainViolation(f"Hessian determinant overflows: {slope!r} * {bracket!r} at {point.coords}")
        return det
