"""Exact first and second derivatives by second-order forward propagation.

Every intermediate scalar carries a value, a gradient and a dense
Hessian; arithmetic updates all three with the usual calculus rules, so
the derivatives of an expression tree are exact up to rounding -- there
is no truncation error.  The input dimension is small here (a handful of
production factors), which makes the dense n-by-n carry the simple and
fast choice.

A central finite-difference oracle with O(h^2) error is provided as an
independent cross-check; it is used by the test suite and never by the
analysis path itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ArityMismatch, DomainViolation, StencilOutOfDomain
from .expr import Expr, eval_expr, eval_value, variables
from .points import as_point

if TYPE_CHECKING:
    from .catalog import FunctionSpec

__all__ = ["Jet2", "SecondOrderJet", "jet", "univariate_jet", "fd_oracle"]


class Jet2:
    """Scalar carrying (value, gradient, Hessian) through arithmetic.

    Mixed operations with plain floats treat the float as a constant.
    Instances are never mutated; every operation allocates fresh arrays.
    """

    __slots__ = ("f", "g", "h")

    def __init__(self, f: float, g: np.ndarray, h: np.ndarray):
        self.f = float(f)
        self.g = g
        self.h = h

    @classmethod
    def seed(cls, x: float, index: int, n: int) -> "Jet2":
        g = np.zeros(n)
        g[index] = 1.0
        return cls(float(x), g, np.zeros((n, n)))

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        return Jet2(-self.f, -self.g, -self.h)

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.f + other.f, self.g + other.g, self.h + other.h)
        return Jet2(self.f + other, self.g, self.h)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.f - other.f, self.g - other.g, self.h - other.h)
        return Jet2(self.f - other, self.g, self.h)

    def __rsub__(self, other):
        return Jet2(other - self.f, -self.g, -self.h)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.f * other.f,
                self.f * other.g + other.f * self.g,
                self.f * other.h
                + other.f * self.h
                + np.outer(self.g, other.g)
                + np.outer(other.g, self.g),
            )
        return Jet2(self.f * other, self.g * other, self.h * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            if other.f == 0.0:
                raise DomainViolation("division by zero")
            q = self.f / other.f
            gq = (self.g - q * other.g) / other.f
            hq = (
                self.h - q * other.h - np.outer(gq, other.g) - np.outer(other.g, gq)
            ) / other.f
            return Jet2(q, gq, hq)
        if other == 0.0:
            raise DomainViolation("division by zero")
        return Jet2(self.f / other, self.g / other, self.h / other)

    def __rtruediv__(self, other):
        if self.f == 0.0:
            raise DomainViolation("division by zero")
        q = other / self.f
        gq = -q * self.g / self.f
        hq = (-q * self.h - np.outer(gq, self.g) - np.outer(self.g, gq)) / self.f
        return Jet2(q, gq, hq)

    # -- smooth primitives -------------------------------------------------

    def _chain(self, value: float, d1: float, d2: float) -> "Jet2":
        return Jet2(value, d1 * self.g, d1 * self.h + d2 * np.outer(self.g, self.g))

    def exp(self) -> "Jet2":
        try:
            v = math.exp(self.f)
        except OverflowError:
            raise DomainViolation(f"exp overflow at argument {self.f!r}") from None
        return self._chain(v, v, v)

    def ln(self) -> "Jet2":
        if self.f <= 0.0:
            raise DomainViolation(f"ln of non-positive value {self.f!r}")
        return self._chain(math.log(self.f), 1.0 / self.f, -1.0 / (self.f * self.f))

    def pow_real(self, exponent: float) -> "Jet2":
        if self.f <= 0.0:
            raise DomainViolation(f"real power of non-positive base {self.f!r}")
        try:
            v = math.pow(self.f, exponent)
            d1 = exponent * math.pow(self.f, exponent - 1.0)
            d2 = exponent * (exponent - 1.0) * math.pow(self.f, exponent - 2.0)
        except OverflowError:
            raise DomainViolation(f"power overflow: {self.f!r} ** {exponent!r}") from None
        return self._chain(v, d1, d2)


@dataclass(frozen=True, eq=False)
class SecondOrderJet:
    """Value, gradient and Hessian of a function at one point.

    The Hessian is symmetric by construction: the upper triangle is
    computed and mirrored, so ``hessian[i, j]`` equals ``hessian[j, i]``
    bit for bit.
    """

    value: float
    gradient: np.ndarray
    hessian: np.ndarray

    @property
    def n(self) -> int:
        return self.gradient.shape[0]

    def check_index(self, *idx: int) -> None:
        """Raise IndexError unless every index names an input."""
        for i in idx:
            if not 0 <= i < self.n:
                raise IndexError(f"input index {i} out of range for n={self.n}")


def _freeze_jet(value: float, gradient: np.ndarray, hessian: np.ndarray) -> SecondOrderJet:
    if not math.isfinite(value):
        raise DomainViolation(f"non-finite value {value!r}")
    if not (np.all(np.isfinite(gradient)) and np.all(np.isfinite(hessian))):
        raise DomainViolation("non-finite derivative")
    sym = np.triu(hessian) + np.triu(hessian, 1).T
    gradient = gradient.copy()
    gradient.setflags(write=False)
    sym.setflags(write=False)
    return SecondOrderJet(float(value), gradient, sym)


def propagate(spec: "FunctionSpec", coords) -> Jet2:
    """Evaluate ``spec.body`` on jets seeded at ``coords``, unchecked.

    A body without variables gives a jet with zero derivatives.
    """
    n = spec.n
    out = eval_expr(spec.body, [Jet2.seed(x, i, n) for i, x in enumerate(coords)])
    if isinstance(out, float):
        out = Jet2(out, np.zeros(n), np.zeros((n, n)))
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
        out = propagate(spec, point)
        if out.f <= 0.0:
            raise DomainViolation(f"non-positive output {out.f!r}")
        return _freeze_jet(out.f, out.g, out.h)
    except DomainViolation as e:
        if e.point is None:
            e.point = point
        raise


def univariate_jet(e: Expr, x: float) -> tuple[float, float, float]:
    """(value, first, second derivative) of a one-variable expression.

    The expression may use any single variable index; that slot is
    seeded with ``x``.
    """
    used = variables(e)
    if len(used) > 1:
        raise ArityMismatch(f"expression uses {len(used)} variables, expected one")
    if not used:
        return eval_expr(e, []), 0.0, 0.0
    idx = next(iter(used))
    xs: list = [None] * (idx + 1)
    xs[idx] = Jet2.seed(float(x), 0, 1)
    out = eval_expr(e, xs)
    if isinstance(out, float):
        return out, 0.0, 0.0
    return out.f, float(out.g[0]), float(out.h[0, 0])


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
