"""Exact first and second derivatives by second-order forward propagation.

Every intermediate scalar carries a value, a gradient and a dense
Hessian; arithmetic updates all three with the usual calculus rules, so
the derivatives of an expression tree are exact up to rounding -- there
is no truncation error.  The input dimension is small here (a handful of
production factors), which makes the dense n-by-n carry the simple and
fast choice.

A jet describes one point or a whole grid.  A grid jet carries a
trailing point axis -- value (P,), gradient (n, P), Hessian (n, n, P) --
so every rule broadcasts over the points unchanged and one pass over
the expression tree serves the grid (vector forward mode).  Each point
of a grid jet equals the one-point jet there bit for bit: the rules use
only elementwise IEEE arithmetic, and the transcendental primitives
apply ``math.exp``, ``math.log`` and ``math.pow`` to one float at a
time, because numpy's vectorized versions round differently.  A grid
jet that fails a check at some point raises that check's error for the
whole grid, naming no point; ``classifier.grid_pass`` searches the grid
for the first failing point.

A central finite-difference oracle with O(h^2) error is provided as an
independent cross-check; it is used by the test suite and never by the
analysis path itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Union

import numpy as np

from .errors import ArityMismatch, DomainViolation, StencilOutOfDomain
from .expr import Expr, eval_expr, eval_value, variables
from .linalg import quadratic_form
from .points import as_point

if TYPE_CHECKING:
    from .catalog import FunctionSpec

__all__ = ["Jet2", "SecondOrderJet", "jet", "grid_jet", "univariate_jet", "fd_oracle"]

#: A float at one point, or an array with one entry per point.
PointValues = Union[float, np.ndarray]


def _reject(bad, x: PointValues, message: str) -> None:
    """Raise DomainViolation if ``bad`` holds at any point, with the first
    such entry of ``x`` put into ``message``."""
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        raise DomainViolation(message.format(float(np.asarray(x)[bad][0])))


def _each(fn, f, *args):
    """``fn(f, *args)``, applied to one float at a time for a grid, so that
    every point is rounded by ``math`` exactly as on its own."""
    if isinstance(f, np.ndarray):
        return np.array([fn(x, *args) for x in f.tolist()]).T
    return fn(f, *args)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainViolation(f"exp overflow at argument {x!r}") from None


def _pow_terms(x: float, e: float) -> tuple[float, float, float]:
    """x ** e and its first and second derivatives in x."""
    try:
        return math.pow(x, e), e * math.pow(x, e - 1.0), e * (e - 1.0) * math.pow(x, e - 2.0)
    except OverflowError:
        raise DomainViolation(f"power overflow: {x!r} ** {e!r}") from None


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.outer(a, b) at one point, and at each point of a grid."""
    return a[:, None] * b[None]


class Jet2:
    """Scalar carrying (value, gradient, Hessian) through arithmetic.

    At one point ``f`` is a float, ``g`` (n,) and ``h`` (n, n); on a grid
    of P points they are (P,), (n, P) and (n, n, P).  Mixed operations
    with plain floats treat the float as a constant.  Instances are never
    mutated; every operation allocates fresh arrays.  A domain check
    raises when it fails at any point.
    """

    __slots__ = ("f", "g", "h")

    def __init__(self, f: PointValues, g: np.ndarray, h: np.ndarray):
        self.f = f
        self.g = g
        self.h = h

    @classmethod
    def seed(cls, x: PointValues, index: int, n: int) -> "Jet2":
        """The jet of input ``index`` at ``x``, a float or one value per point."""
        shape = np.shape(x)
        g = np.zeros((n,) + shape)
        g[index] = 1.0
        return cls(x if shape else float(x), g, np.zeros((n, n) + shape))

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        return Jet2(-self.f, -self.g, -self.h)

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.f + other.f, self.g + other.g, self.h + other.h)
        return Jet2(self.f + other, self.g, self.h)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.f * other.f,
                self.f * other.g + other.f * self.g,
                self.f * other.h
                + other.f * self.h
                + _outer(self.g, other.g)
                + _outer(other.g, self.g),
            )
        return Jet2(self.f * other, self.g * other, self.h * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            _reject(other.f == 0.0, other.f, "division by zero")
            q = self.f / other.f
            gq = (self.g - q * other.g) / other.f
            hq = (self.h - q * other.h - _outer(gq, other.g) - _outer(other.g, gq)) / other.f
            return Jet2(q, gq, hq)
        if other == 0.0:
            raise DomainViolation("division by zero")
        return Jet2(self.f / other, self.g / other, self.h / other)

    def __rtruediv__(self, other):
        _reject(self.f == 0.0, self.f, "division by zero")
        q = other / self.f
        gq = -q * self.g / self.f
        hq = (-q * self.h - _outer(gq, self.g) - _outer(self.g, gq)) / self.f
        return Jet2(q, gq, hq)

    # -- smooth primitives -------------------------------------------------

    def _chain(self, value: PointValues, d1: PointValues, d2: PointValues) -> "Jet2":
        return Jet2(value, d1 * self.g, d1 * self.h + d2 * _outer(self.g, self.g))

    def exp(self) -> "Jet2":
        v = _each(_exp, self.f)
        return self._chain(v, v, v)

    def ln(self) -> "Jet2":
        f = self.f
        _reject(f <= 0.0, f, "ln of non-positive value {!r}")
        f2 = f * f
        # Below about 1e-162 the square underflows and -1 / f^2 overflows.
        _reject(f2 == 0.0, f, "second derivative of ln overflows at {!r}")
        return self._chain(_each(math.log, f), 1.0 / f, -1.0 / f2)

    def pow_real(self, exponent: float) -> "Jet2":
        f = self.f
        _reject(f <= 0.0, f, "real power of non-positive base {!r}")
        v, d1, d2 = _each(_pow_terms, f, exponent)
        return self._chain(v, d1, d2)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SecondOrderJet:
    """Value, gradient and Hessian of a function at one point, or at each
    point of a grid.

    A grid jet carries a trailing point axis: value (P,), gradient
    (n, P), Hessian (n, n, P).  ``gradient[i]`` and ``hessian[i, k]`` are
    then one entry per point, so one formula serves a point and a grid.
    The Hessian is symmetric by construction: the upper triangle is
    computed and mirrored, so ``hessian[i, j]`` equals ``hessian[j, i]``
    bit for bit.
    """

    value: PointValues
    gradient: np.ndarray
    hessian: np.ndarray

    @property
    def n(self) -> int:
        return self.gradient.shape[0]

    @property
    def is_grid(self) -> bool:
        return self.gradient.ndim == 2

    def check_index(self, *idx: int) -> None:
        """Raise IndexError unless every index names an input."""
        for i in idx:
            if not 0 <= i < self.n:
                raise IndexError(f"input index {i} out of range for n={self.n}")

    def anywhere(self, mask) -> bool:
        """Whether ``mask`` holds at the point, or at any point of a grid."""
        return bool(mask.any() if self.is_grid else mask)

    def unbox(self, x) -> PointValues:
        """``x`` as a float for a one-point jet; unchanged, one entry per
        point, for a grid jet."""
        return x if self.is_grid else float(x)

    @cached_property
    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian with the point axis first, C-contiguous:
        (P, n) and (P, n, n), the layout of numpy's stacked vectors and
        matrices.  A one-point jet gives its own arrays.  Reductions over
        the last axes round each point as they round a one-point jet."""
        if not self.is_grid:
            return self.gradient, self.hessian
        return (
            _read_only(np.ascontiguousarray(self.gradient.T)),
            _read_only(np.ascontiguousarray(np.moveaxis(self.hessian, -1, 0))),
        )

    @cached_property
    def gradient_sq(self) -> PointValues:
        """|grad f|^2.  Raises DomainViolation where it overflows."""
        return gradient_norm_sq(self.stacked[0])


def gradient_norm_sq(g: np.ndarray) -> PointValues:
    """|g|^2 of one (n,) gradient, or of each row of a (P, n) stack.
    Raises DomainViolation where every partial is finite but the sum of
    their squares overflows."""
    with np.errstate(over="ignore"):
        g_sq = quadratic_form(g)
    overflow = np.isinf(g_sq)
    if overflow.any():
        largest = np.abs(g).max(axis=-1)
        _reject(overflow & np.isfinite(largest), largest, "|grad f|^2 overflows (largest |partial| {!r})")
    return g_sq


def _freeze_jet(value: PointValues, gradient: np.ndarray, hessian: np.ndarray) -> SecondOrderJet:
    _reject(~np.isfinite(value), value, "non-finite value {!r}")
    if not (np.all(np.isfinite(gradient)) and np.all(np.isfinite(hessian))):
        raise DomainViolation("non-finite derivative")
    # The upper triangle mirrored; + 0.0 turns -0.0 into 0.0, as
    # triu(h) + triu(h, 1).T does.
    sym = hessian + 0.0
    n = gradient.shape[0]
    for i in range(n):
        for k in range(i + 1, n):
            sym[k, i] = sym[i, k]
    value = _read_only(value.copy()) if isinstance(value, np.ndarray) else float(value)
    return SecondOrderJet(value, _read_only(gradient.copy()), _read_only(sym))


def _checked(out: Jet2) -> SecondOrderJet:
    """The frozen jet of a propagated body: positive, finite output."""
    _reject(out.f <= 0.0, out.f, "non-positive output {!r}")
    return _freeze_jet(out.f, out.g, out.h)


def propagate(spec: "FunctionSpec", coords) -> Jet2:
    """Evaluate ``spec.body`` on jets seeded at ``coords``, unchecked.

    ``coords`` holds n floats for one point, or n arrays with one
    coordinate per point for a grid.  A body without variables gives a
    jet with zero derivatives.
    """
    n = spec.n
    out = eval_expr(spec.body, [Jet2.seed(x, i, n) for i, x in enumerate(coords)])
    if isinstance(out, float):
        shape = np.shape(coords[0])
        f = np.full(shape, out) if shape else out
        out = Jet2(f, np.zeros((n,) + shape), np.zeros((n, n) + shape))
    return out


def jet(spec: "FunctionSpec", p) -> SecondOrderJet:
    """Exact value, gradient and Hessian of ``spec`` at ``p``.

    The value component is exactly the result of evaluating at ``p``
    (same arithmetic path); the output must be positive and finite.
    """
    point = as_point(p)
    if len(point) != spec.n:
        raise ArityMismatch(f"point has {len(point)} coordinates, function has {spec.n} inputs")
    try:
        return _checked(propagate(spec, point))
    except DomainViolation as e:
        if e.point is None:
            e.point = point
        raise


def grid_jet(spec: "FunctionSpec", coords: np.ndarray) -> SecondOrderJet:
    """``jet()`` at every point of a grid, in one pass over the tree.

    ``coords`` is (n, P): column k holds the coordinates of point k, a
    point of the positive orthant.  The result carries a trailing point
    axis and equals ``jet()`` at each point bit for bit.  Memory grows
    linearly in P.  A failure at any point raises the error of a failing
    point, without the point; ``classifier.grid_pass`` names the first.
    """
    if coords.shape[0] != spec.n:
        raise ArityMismatch(f"points have {coords.shape[0]} coordinates, function has {spec.n} inputs")
    with np.errstate(all="ignore"):
        return _checked(propagate(spec, coords))


def univariate_jet(e: Expr, x: PointValues) -> tuple[PointValues, PointValues, PointValues]:
    """(value, first, second derivative) of a one-variable expression at
    ``x``, a float, or at each entry of an array of points.

    The expression may use any single variable index; that slot is
    seeded with ``x``.
    """
    used = variables(e)
    if len(used) > 1:
        raise ArityMismatch(f"expression uses {len(used)} variables, expected one")
    xs: list = [None] * (max(used, default=0) + 1)
    xs[-1] = Jet2.seed(x, 0, 1)
    out = eval_expr(e, xs)
    shape = np.shape(x)
    if isinstance(out, float):
        out = Jet2(np.full(shape, out) if shape else out, np.zeros((1,) + shape), np.zeros((1, 1) + shape))
    return (out.f, out.g[0], out.h[0, 0]) if shape else (out.f, float(out.g[0]), float(out.h[0, 0]))


def fd_oracle(spec: "FunctionSpec", p, h: float = 1e-4) -> SecondOrderJet:
    """Central-difference gradient and Hessian, both O(h^2).

    The per-axis step is ``h * max(1, |p_i|)``.  Raises
    StencilOutOfDomain if any stencil point would leave the positive
    orthant.  Intended for cross-checking only.
    """
    point = as_point(p)
    if len(point) != spec.n:
        raise ArityMismatch(f"point has {len(point)} coordinates, function has {spec.n} inputs")
    if h <= 0.0:
        raise StencilOutOfDomain(f"step must be positive, got {h!r}")
    x = np.array(point.coords)
    n = spec.n
    steps = np.array([h * max(1.0, abs(xi)) for xi in x])
    if np.any(x - steps <= 0.0):
        raise StencilOutOfDomain(
            f"stencil with step {h!r} leaves the positive orthant at {point.coords}", point=point
        )

    def f(q: np.ndarray) -> float:
        return eval_value(spec.body, q)

    f0 = f(x)
    gradient = np.zeros(n)
    hessian = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        fp = f(x + ei)
        fm = f(x - ei)
        gradient[i] = (fp - fm) / (2.0 * steps[i])
        hessian[i, i] = (fp - 2.0 * f0 + fm) / (steps[i] * steps[i])
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = steps[i]
            ej[j] = steps[j]
            hessian[i, j] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
    return _freeze_jet(f0, gradient, hessian)
