"""Exact first and second derivatives by second-order forward propagation.

Every intermediate scalar carries a value, a gradient and the upper
triangle of its Hessian, packed in ``np.triu_indices`` order; arithmetic
updates all three with the usual calculus rules, so the derivatives of an
expression tree are exact up to rounding -- there is no truncation error.
Derivatives are carried over the scalar's support, the k inputs it depends
on; a binary operation embeds its operands into the union of their supports
and applies the dense rule there, skipping only structurally zero entries.

A jet describes one point or a whole grid.  A grid jet carries a
trailing point axis -- value (P,), gradient (k, P), packed Hessian
(k(k+1)/2, P) -- so every rule broadcasts over the points unchanged and
one pass over the expression tree serves the grid (vector forward mode).
Each point of a grid jet equals the one-point jet there bit for bit: the
rules use only elementwise IEEE arithmetic, and the transcendental
primitives map ``math.exp``, ``math.log`` and ``math.pow`` over one float
at a time, because numpy's vectorized versions round differently.  A
grid jet that fails a check at some point raises that check's error for
the whole grid, naming no point; ``classifier.grid_pass`` searches the
grid for the first failing point.

A central finite-difference oracle with O(h^2) error is provided as an
independent cross-check; it is used by the test suite and never by the
analysis path itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import repeat
from typing import TYPE_CHECKING, Union

import numpy as np

from .errors import ArityMismatch, DomainViolation, StencilOutOfDomain
from .expr import Expr, _exp_scalar, compiled, eval_expr, eval_value
from .linalg import quadratic_form, triu
from .points import as_point, at_point

if TYPE_CHECKING:
    from .catalog import FunctionSpec

__all__ = ["Jet2", "SecondOrderJet", "jet", "grid_jet", "univariate_jet", "fd_oracle"]

#: A float at one point, or an array with one entry per point.
PointValues = Union[float, np.ndarray]


def _reject(bad, x: PointValues, message: str, error=DomainViolation) -> None:
    """Raise ``error`` if ``bad`` holds at any point, with the first such entry
    of ``x`` put into ``message``.  The jet checks raise DomainViolation, and
    economics also ZeroMarginalProduct and SingularAllenDeterminant."""
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        raise error(message.format(float(np.asarray(x)[bad][0])))


#: The most points a grid pass or validate evaluates at once: larger temporaries cost more to allocate than to fill.
_POINT_BLOCK = 1500


def _each(fn, f, *args, checked=None):
    """``fn(f, *args)``, mapped over one float at a time for a grid, so that
    every point is rounded by ``math`` exactly as on its own.  Where that
    overflows, ``checked`` of each float in order raises."""
    try:
        if isinstance(f, np.ndarray):
            return np.fromiter(map(fn, f.tolist(), *map(repeat, args)), float, len(f))
        return fn(f, *args)
    except OverflowError:
        for x in np.ravel(f).tolist():
            checked(x)
        raise


def _pow_terms(x: float, e: float) -> tuple[float, float, float]:
    """x ** e and its first and second derivatives in x."""
    try:
        return math.pow(x, e), e * math.pow(x, e - 1.0), e * (e - 1.0) * math.pow(x, e - 2.0)
    except OverflowError:
        raise DomainViolation(f"power overflow: {x!r} ** {e!r}") from None


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The packed upper triangle of np.outer(a, b), at one point and at each point of a grid."""
    if len(a) == 1:
        return a * b
    rows, cols = triu(len(a))
    return a[rows] * b[cols]


_union = cache(lambda s, t: tuple(sorted({*s, *t})))


@cache
def _slots(s: tuple, u: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Where the gradient and packed Hessian rows over ``s`` sit among those over its superset ``u``."""
    rows = np.searchsorted(u, s)
    i, j = (rows[k] for k in triu(len(s)))
    return rows, i * len(u) - i * (i - 1) // 2 + j - i


class Jet2:
    """Scalar carrying (value, gradient, Hessian) through arithmetic.

    ``s`` is the support, the sorted tuple of inputs the scalar depends on.
    At one point ``f`` is a float, ``g`` (k,) and the packed upper triangle
    ``h`` (k(k+1)/2,) over the k = len(s) inputs; on a grid of P points
    they are (P,), (k, P) and (k(k+1)/2, P).  Mixed operations with plain
    floats treat the float as a constant.  Instances are never mutated;
    every operation allocates fresh arrays.  A domain check raises when it
    fails at any point.
    """

    __slots__ = ("f", "g", "h", "s")

    def __init__(self, f: PointValues, g: np.ndarray, h: np.ndarray, s: tuple[int, ...]):
        self.f = f
        self.g = g
        self.h = h
        self.s = s

    @classmethod
    def seed(cls, x: PointValues, index: int) -> "Jet2":
        """The jet of input ``index`` at ``x``, a float or one value per point."""
        shape = np.shape(x)
        return cls(x if shape else float(x), np.ones((1,) + shape), np.zeros((1,) + shape), (index,))

    def on(self, u: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """``g`` and ``h`` over ``u``, a superset of ``s``: zero in the rows of inputs outside ``s``."""
        if u == self.s:
            return self.g, self.h
        rows, packed = _slots(self.s, u)
        m, shape = len(u), self.g.shape[1:]
        g, h = np.zeros((m,) + shape), np.zeros((m * (m + 1) // 2,) + shape)
        g[rows], h[packed] = self.g, self.h
        return g, h

    def _aligned(self, other: "Jet2"):
        """The union of both supports, and ``g``, ``h`` of each operand over it."""
        if self.s == other.s:
            return self.s, self.g, self.h, other.g, other.h
        u = _union(self.s, other.s)
        return u, *self.on(u), *other.on(u)

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        return Jet2(-self.f, -self.g, -self.h, self.s)

    def __add__(self, other):
        if isinstance(other, Jet2):
            u, g, h, og, oh = self._aligned(other)
            return Jet2(self.f + other.f, g + og, h + oh, u)
        return Jet2(self.f + other, self.g, self.h, self.s)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Jet2):
            u, g, h, og, oh = self._aligned(other)
            return Jet2(
                self.f * other.f,
                self.f * og + other.f * g,
                self.f * oh + other.f * h + _outer(g, og) + _outer(og, g),
                u,
            )
        return Jet2(self.f * other, self.g * other, self.h * other, self.s)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            _reject(other.f == 0.0, other.f, "division by zero")
            u, g, h, og, oh = self._aligned(other)
            q = self.f / other.f
            gq = (g - q * og) / other.f
            hq = (h - q * oh - _outer(gq, og) - _outer(og, gq)) / other.f
            return Jet2(q, gq, hq, u)
        if other == 0.0:
            raise DomainViolation("division by zero")
        return Jet2(self.f / other, self.g / other, self.h / other, self.s)

    def __rtruediv__(self, other):
        _reject(self.f == 0.0, self.f, "division by zero")
        q = other / self.f
        gq = -q * self.g / self.f
        hq = (-q * self.h - _outer(gq, self.g) - _outer(self.g, gq)) / self.f
        return Jet2(q, gq, hq, self.s)

    # -- smooth primitives -------------------------------------------------

    def _chain(self, value: PointValues, d1: PointValues, d2: PointValues) -> "Jet2":
        return Jet2(value, d1 * self.g, d1 * self.h + d2 * _outer(self.g, self.g), self.s)

    def exp(self) -> "Jet2":
        v = _each(math.exp, self.f, checked=_exp_scalar)
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
        checked = partial(_pow_terms, e=exponent)
        v, p1, p2 = (_each(math.pow, f, e, checked=checked) for e in (exponent, exponent - 1.0, exponent - 2.0))
        return self._chain(v, exponent * p1, exponent * (exponent - 1.0) * p2)


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

    def check_index(self, *idx) -> None:
        """Raise IndexError unless every index, or entry of an index array, names an input."""
        for v in np.concatenate([np.ravel(i) for i in idx]).tolist():
            if not 0 <= v < self.n:
                raise IndexError(f"input index {v} out of range for n={self.n}")

    def unbox(self, x) -> PointValues:
        """``x`` as a float for a one-point jet; unchanged, one entry per
        point, for a grid jet, and for values of an array of indices."""
        return x if self.is_grid or np.ndim(x) else float(x)

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

    @cached_property
    def slope_powers(self) -> dict[int, PointValues]:
        """w ** e by exponent e, as ``geometry.slope_power`` has computed them."""
        return {}

    @cached_property
    def marginals(self) -> set[int]:
        """The inputs whose first partials ``economics`` has checked to be
        nonzero; the partials themselves are read from ``gradient``."""
        return set()


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
    # The packed upper triangle, mirrored; + 0.0 turns -0.0 into 0.0, as
    # triu(h) + triu(h, 1).T does.
    n = gradient.shape[0]
    sym = np.empty((n, n) + hessian.shape[1:])
    sym[triu(n)] = sym[triu(n)[::-1]] = hessian + 0.0
    value = _read_only(value.copy()) if isinstance(value, np.ndarray) else float(value)
    return SecondOrderJet(value, _read_only(gradient.copy()), _read_only(sym))


def _checked(out: Jet2) -> SecondOrderJet:
    """The frozen jet of a propagated body: positive, finite output."""
    _reject(out.f <= 0.0, out.f, "non-positive output {!r}")
    return _freeze_jet(out.f, out.g, out.h)


def propagate(spec: "FunctionSpec", coords) -> Jet2:
    """Evaluate ``spec.body`` on jets seeded at ``coords``, unchecked.

    ``coords`` holds n floats for one point, or the (n, P) array of a
    grid's coordinates, all evaluated at once.  A body without variables
    gives a jet with zero derivatives.
    """
    out = eval_expr(spec.body, [Jet2.seed(x, i) for i, x in enumerate(coords)])
    return _over_all(out, spec.n, np.shape(coords[0]))


def _joined(jets: list[Jet2]) -> Jet2:
    """Grid jets over the same inputs, joined along the point axis."""
    if len(jets) == 1:
        return jets[0]
    return Jet2(*(np.concatenate(p, axis=-1) for p in zip(*((j.f, j.g, j.h) for j in jets))), jets[0].s)


def _over_all(out: Union[Jet2, float], n: int, shape: tuple) -> Jet2:
    """``out``, a jet or a constant at points of ``shape``, over the inputs 0, ..., n - 1."""
    if isinstance(out, float):
        out = Jet2(np.full(shape, out) if shape else out, np.zeros((0,) + shape), np.zeros((0,) + shape), ())
    return out if len(out.s) == n else Jet2(out.f, *out.on(tuple(range(n))), tuple(range(n)))


def jet(spec: "FunctionSpec", p) -> SecondOrderJet:
    """Exact value, gradient and Hessian of ``spec`` at ``p``.

    The value component is exactly the result of evaluating at ``p``
    (same arithmetic path); the output must be positive and finite.
    """
    with at_point(p, spec.n) as point, np.errstate(all="ignore"):
        return _checked(propagate(spec, point))


def grid_jet(spec: "FunctionSpec", coords: np.ndarray, *more: tuple["FunctionSpec", np.ndarray]) -> SecondOrderJet:
    """``jet()`` at every point of a grid, in one pass over the tree.

    ``coords`` is (n, P): column k holds the coordinates of point k, a
    point of the positive orthant.  The result carries a trailing point
    axis and equals ``jet()`` at each point bit for bit.  Memory grows
    linearly in P.  A failure at any point raises the error of a failing
    point, without the point; ``classifier.grid_pass`` names the first.

    ``more`` holds further (spec, coords) grids with the same number of
    inputs, each propagated through its own tree; their points follow the
    first grid's in the one jet.
    """
    parts = ((spec, coords),) + more
    for s, x in parts:
        if x.shape[0] != s.n:
            raise ArityMismatch(f"points have {x.shape[0]} coordinates, function has {s.n} inputs")
    if any(s.n != spec.n for s, _ in more):
        raise ArityMismatch("grids joined into one jet need the same number of inputs")
    with np.errstate(all="ignore"):
        return _checked(_joined([propagate(s, x) for s, x in parts]))


def univariate_jet(e: Expr, x: PointValues) -> tuple[PointValues, PointValues, PointValues]:
    """(value, first, second derivative) of a one-variable expression at
    ``x``, a float, or at each entry of an array of points.

    The expression may use any single variable index; that slot is
    seeded with ``x``.
    """
    used = compiled(e).support
    if len(used) > 1:
        raise ArityMismatch(f"expression uses {len(used)} variables, expected one")
    xs: list = [None] * (max(used, default=0) + 1)
    xs[-1] = Jet2.seed(x, 0)
    shape = np.shape(x)
    out = _over_all(eval_expr(e, xs), 1, shape)
    return (out.f, out.g[0], out.h[0]) if shape else (out.f, float(out.g[0]), float(out.h[0]))


def fd_oracle(spec: "FunctionSpec", p, h: float = 1e-4) -> SecondOrderJet:
    """Central-difference gradient and Hessian, both O(h^2).

    The per-axis step is ``h * max(1, |p_i|)``.  Raises
    StencilOutOfDomain if any stencil point would leave the positive
    orthant.  Intended for cross-checking only.
    """
    point = as_point(p, spec.n)
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
    return _freeze_jet(f0, gradient, hessian[triu(n)])
