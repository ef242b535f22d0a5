"""Production-function catalog.

A FunctionSpec bundles an expression tree over inputs x1..xn with an
optional family tag and, when the function is a composition
F(g1(x1) * ... * gn(xn)), the outer and inner expressions of that
composition.  Constructors are provided for the classical families:

* generalized Cobb-Douglas          A * prod x_i^{k_i}
* generalized ACMS / Armington      A * (sum k_i x_i^rho)^{gamma/rho}
* Spillman-Mitscherlich             A * prod (1 - exp(-a_i x_i))
* transcendental                    A * prod x_i^{a_i} exp(b_i x_i)
* product                           prod g_i(x_i)
* quasi-product                     F(prod g_i(x_i))

The ACMS family is a quasi-sum inside a power, not a product, so it
carries no outer/inner structure; forcing one would only shrink the
valid domain.  All values are immutable after construction and
evaluation is pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .economics import ZERO_MARGINAL_RTOL, zero_marginal
from .errors import (
    ArityMismatch,
    DomainViolation,
    EmptyInnerList,
    ExpressionError,
    ParameterViolation,
)
from .expr import (
    Const,
    Expr,
    Exp,
    Mul,
    Pow,
    Var,
    compiled,
    eval_value,
    expr_from_obj,
    expr_to_obj,
    is_number,
    product_chain,
    substitute,
    sum_chain,
)
from .jets import _POINT_BLOCK, gradient_norm_sq, propagate, univariate_jet
from .points import Point, as_point, at_point

__all__ = [
    "FunctionSpec",
    "Point",
    "as_point",
    "FAMILIES",
    "build_family",
    "build_quasi_product",
    "evaluate",
    "validate",
    "Diagnostic",
    "spec_to_json_obj",
    "spec_from_json_obj",
    "spec_to_json",
    "spec_from_json",
]

FAMILIES = frozenset(
    {
        "cobb_douglas",
        "acms",
        "spillman_mitscherlich",
        "transcendental",
        "product",
        "quasi_product",
        "custom",
    }
)

# The points per axis validate() may sample, the most first, and the cap
# on its mesh and on a SampleGrid.
_VALIDATE_POINTS_PER_AXIS = (5, 4, 3, 2)
MAX_GRID_POINTS = 100_000


class _FrozenParams(dict):
    """A spec's parameter record: a dict, shown and compared as one, whose
    every write raises TypeError."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a spec's parameters are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):  # copy and pickle build it whole
        return _FrozenParams, (dict(self),)


@dataclass(frozen=True)
class FunctionSpec:
    """An n-input positive function as an expression tree.

    ``outer``/``inners`` are populated when the function is known to be
    the composition of a one-variable outer expression with a product of
    one-variable inner expressions; the body is then structurally equal
    to that composition.
    """

    n: int
    body: Expr
    family: str = "custom"
    params: dict = field(default_factory=dict)
    outer: Optional[Expr] = None
    inners: Optional[tuple[Expr, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "params", _FrozenParams(self.params))
        if not isinstance(self.n, int) or self.n < 2:
            raise ParameterViolation(f"a production function needs n >= 2 inputs, got {self.n!r}")
        if self.family not in FAMILIES:
            raise ParameterViolation(f"unknown family {self.family!r}")
        # Compiling rejects a tree deeper than MAX_DEPTH.  Outer and inners
        # are compiled here for their support, and their programs stay on
        # their trees for the evaluations that follow.
        body = compiled(self.body)
        parts = [compiled(e) for e in (self.outer, *(self.inners or ())) if e is not None]
        used = body.support
        if used and used[-1] >= self.n:
            raise ExpressionError(
                f"body references x{used[-1] + 1} but the function has {self.n} inputs"
            )
        if (self.outer is None) != (self.inners is None):
            raise ExpressionError("outer and inners must be given together")
        if self.inners is not None:
            inners = tuple(self.inners)
            object.__setattr__(self, "inners", inners)
            if len(inners) != self.n:
                raise ArityMismatch(f"{len(inners)} inner factors for {self.n} inputs")
            for i, g in enumerate(parts[1:]):
                if g.support != (i,):
                    raise ExpressionError(f"inner factor {i} must depend on x{i + 1} only")
            if parts[0].support != (0,):
                raise ExpressionError("outer expression must depend on exactly one variable")
            if self.body != substitute(self.outer, {0: product_chain(inners)}):
                raise ExpressionError("body is not the composition of outer and inners")

    @property
    def has_composition(self) -> bool:
        return self.outer is not None


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------

def _vector(params: dict, key: str, family: str) -> tuple[float, ...]:
    try:
        raw = params[key]
    except KeyError:
        raise ParameterViolation(f"{family}: missing parameter {key!r}") from None
    if isinstance(raw, (int, float)):
        raise ParameterViolation(f"{family}: parameter {key!r} must be a vector")
    vec = tuple(float(v) for v in raw)
    if len(vec) < 2:
        raise ParameterViolation(f"{family}: parameter {key!r} needs at least 2 entries")
    return vec


def _scalar(params: dict, key: str, family: str) -> float:
    try:
        return float(params[key])
    except KeyError:
        raise ParameterViolation(f"{family}: missing parameter {key!r}") from None


def _compose(outer: Expr, inners: tuple[Expr, ...], family: str, params: dict) -> FunctionSpec:
    body = substitute(outer, {0: product_chain(inners)})
    return FunctionSpec(
        n=len(inners), body=body, family=family, params=params, outer=outer, inners=inners
    )


def _build_cobb_douglas(params: dict) -> FunctionSpec:
    A = _scalar(params, "A", "cobb_douglas")
    k = _vector(params, "k", "cobb_douglas")
    if A <= 0.0:
        raise ParameterViolation(f"cobb_douglas: A must be positive, got {A!r}")
    if any(ki == 0.0 for ki in k):
        raise ParameterViolation("cobb_douglas: every exponent k_i must be nonzero")
    outer = Mul(Const(A), Var(0))
    inners = tuple(Pow(Var(i), ki) for i, ki in enumerate(k))
    return _compose(outer, inners, "cobb_douglas", {"A": A, "k": k})


def _build_acms(params: dict) -> FunctionSpec:
    A = _scalar(params, "A", "acms")
    k = _vector(params, "k", "acms")
    rho = _scalar(params, "rho", "acms")
    gamma = _scalar(params, "gamma", "acms")
    if A == 0.0:
        raise ParameterViolation("acms: A must be nonzero")
    if any(ki == 0.0 for ki in k):
        raise ParameterViolation("acms: every weight k_i must be nonzero")
    if rho == 0.0:
        raise ParameterViolation("acms: rho must be nonzero")
    terms = [Mul(Const(ki), Pow(Var(i), rho)) for i, ki in enumerate(k)]
    body = Mul(Const(A), Pow(sum_chain(terms), gamma / rho))
    return FunctionSpec(
        n=len(k),
        body=body,
        family="acms",
        params={"A": A, "k": k, "rho": rho, "gamma": gamma},
    )


def _build_spillman(params: dict) -> FunctionSpec:
    A = _scalar(params, "A", "spillman_mitscherlich")
    a = _vector(params, "a", "spillman_mitscherlich")
    if A <= 0.0:
        raise ParameterViolation(f"spillman_mitscherlich: A must be positive, got {A!r}")
    if any(ai <= 0.0 for ai in a):
        raise ParameterViolation("spillman_mitscherlich: every rate a_i must be positive")
    outer = Mul(Const(A), Var(0))
    inners = tuple(Const(1.0) - Exp(Mul(Const(-ai), Var(i))) for i, ai in enumerate(a))
    return _compose(outer, inners, "spillman_mitscherlich", {"A": A, "a": a})


def _build_transcendental(params: dict) -> FunctionSpec:
    A = _scalar(params, "A", "transcendental")
    a = _vector(params, "a", "transcendental")
    b = _vector(params, "b", "transcendental")
    if A <= 0.0:
        raise ParameterViolation(f"transcendental: A must be positive, got {A!r}")
    if len(a) != len(b):
        raise ParameterViolation("transcendental: a and b must have the same length")
    if any(ai == 0.0 and bi == 0.0 for ai, bi in zip(a, b)):
        raise ParameterViolation("transcendental: a_i and b_i must not both vanish")
    outer = Mul(Const(A), Var(0))
    inners = tuple(
        Mul(Pow(Var(i), ai), Exp(Mul(Const(bi), Var(i)))) for i, (ai, bi) in enumerate(zip(a, b))
    )
    return _compose(outer, inners, "transcendental", {"A": A, "a": a, "b": b})


_BUILDERS = {
    "cobb_douglas": _build_cobb_douglas,
    "acms": _build_acms,
    "spillman_mitscherlich": _build_spillman,
    "transcendental": _build_transcendental,
}


def build_family(family: str, params: dict) -> FunctionSpec:
    """Construct a catalog family from its parameter record.

    Raises ParameterViolation naming the violated constraint.
    """
    if family in _BUILDERS:
        spec = _BUILDERS[family](dict(params))
        known = spec.params  # a builder's record names every parameter it reads
    elif family == "product":
        inners = params.get("inners")
        if inners is None:
            raise ParameterViolation("product: missing parameter 'inners'")
        spec, known = build_quasi_product(Var(0), inners, family="product"), ("inners",)
    elif family == "quasi_product":
        outer = params.get("outer")
        inners = params.get("inners")
        if outer is None or inners is None:
            raise ParameterViolation("quasi_product: need parameters 'outer' and 'inners'")
        spec, known = build_quasi_product(outer, inners), ("outer", "inners")
    else:
        raise ParameterViolation(f"unknown family {family!r}")
    unknown = [key for key in params if key not in known]
    if unknown:
        raise ParameterViolation(f"{family}: unknown parameter {', '.join(map(repr, unknown))}")
    return spec


def build_quasi_product(outer: Expr, inners, family: str = "quasi_product") -> FunctionSpec:
    """Compose a one-variable outer expression with one-variable inner
    factors; inner i is applied to x_i.

    The body is built as the structural composition, so evaluating the
    spec and evaluating the parts follow the same arithmetic path.
    """
    inners = tuple(inners)
    if len(inners) == 0:
        raise EmptyInnerList("a composite production function needs inner factors")
    if len(inners) < 2:
        raise ArityMismatch("a production function needs at least 2 inputs")
    if not isinstance(outer, Expr):
        raise ExpressionError(f"outer must be an expression, got {outer!r}")
    outer_vars = compiled(outer).support
    if len(outer_vars) != 1:
        raise ArityMismatch("outer expression must use exactly one variable")
    if outer_vars != (0,):
        outer = substitute(outer, {outer_vars[0]: Var(0)})
    slotted = []
    for i, g in enumerate(inners):
        if not isinstance(g, Expr):
            raise ExpressionError(f"inner factor {i} must be an expression, got {g!r}")
        g_vars = compiled(g).support
        if len(g_vars) != 1:
            raise ArityMismatch(f"inner factor {i} must use exactly one variable")
        slotted.append(g if g_vars == (i,) else substitute(g, {g_vars[0]: Var(i)}))
    return _compose(outer, tuple(slotted), family, {})


# ---------------------------------------------------------------------------
# Evaluation and validation
# ---------------------------------------------------------------------------

def evaluate(spec: FunctionSpec, p) -> float:
    """f(p).  The output must be positive and finite; everything else is
    a DomainViolation."""
    with at_point(p, spec.n) as point:
        return eval_value(spec.body, point.coords)


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding at one sampled point."""

    point: Point
    code: str
    message: str
    axis: Optional[int] = None
    value: Optional[float] = None


def validate(spec: FunctionSpec, region) -> list[Diagnostic]:
    """Probe the spec over a box of positive bounds.

    Samples a log-uniform grid, endpoints included, with the most points
    per axis of 5, 4, 3 and 2 that keeps it within MAX_GRID_POINTS: 5 up
    to seven axes, 4 at eight, 3 at nine and ten, 2 up to 16; a region
    of more axes raises ParameterViolation.  Reports, per point:
    non-positive or failing evaluations, vanishing first partials, and
    for composite functions a vanishing outer derivative, vanishing inner
    derivatives or non-positive inner values.  The outer and inner
    derivatives vanish where their elasticities, u F'(u) / F(u) and
    x_i g_i'(x_i) / g_i(x_i), are within 1e-12 of zero.  Diagnostics are the
    output; nothing raises for a bad function, only for a bad region.
    Blocks of ``jets._POINT_BLOCK`` points are evaluated at once, and a
    block where a point fails again one point at a time.
    """
    region = [(float(lo), float(hi)) for lo, hi in region]
    if len(region) != spec.n:
        raise ParameterViolation(f"region has {len(region)} axes, function has {spec.n} inputs")
    for lo, hi in region:
        if not (0.0 < lo < hi) or not math.isfinite(hi / lo):
            raise ParameterViolation(f"region bounds need 0 < lo < hi and a finite hi / lo, got {(lo, hi)!r}")

    count = next((c for c in _VALIDATE_POINTS_PER_AXIS if c ** len(region) <= MAX_GRID_POINTS), None)
    if count is None:
        raise ParameterViolation(
            f"region has {len(region)} axes; a mesh of 2 points per axis would exceed {MAX_GRID_POINTS} points"
        )
    axes = np.array([[lo * (hi / lo) ** (i / (count - 1)) for i in range(count)] for lo, hi in region])
    rows, size = np.arange(spec.n)[:, None], count**spec.n
    findings: list[Diagnostic] = []
    for start in range(0, size, _POINT_BLOCK):
        # C order: the last axis varies fastest.
        columns = np.unravel_index(range(start, min(start + _POINT_BLOCK, size)), (count,) * spec.n)
        coords = axes[rows, np.stack(columns)]
        try:
            findings += _findings(spec, coords)
        except DomainViolation:
            for k in range(coords.shape[1]):
                try:
                    findings += _findings(spec, coords[:, k : k + 1])
                except DomainViolation as e:
                    findings.append(Diagnostic(Point(coords[:, k].tolist()), "evaluation_error", str(e)))
    return findings


def _findings(spec: FunctionSpec, coords: np.ndarray) -> list[Diagnostic]:
    """The findings at the points with coordinates ``coords`` (n, P), in
    point order; raises DomainViolation if any point fails."""
    with np.errstate(all="ignore"):
        out = propagate(spec, coords)
        f, g = out.f, np.ascontiguousarray(out.g.T)
        g_sq = np.where(np.isfinite(g).all(axis=1), gradient_norm_sq(g), math.inf)
        # (mask, code, message, axis, values): one finding where mask holds.
        checks = [(~np.isfinite(f) | (f <= 0.0), "nonpositive_output", "f = {!r}", None, f)]
        for i in range(spec.n):
            zero = ~np.isfinite(g[:, i]) | zero_marginal(g[:, i], g_sq)
            checks.append((zero, "zero_partial", f"df/dx{i + 1} = {{!r}}", i, g[:, i]))
        if spec.has_composition:
            # The parts cannot fail here: the body is outer(inner product)
            # node for node (FunctionSpec checks it), every domain check of
            # a jet reads only values, and the body evaluated at every point.
            # Unless every inner is a constant like x^0: the body then takes
            # the outer of a float, skipping the derivative checks of ln and **.
            u, regular = 1.0, True
            for i, inner in enumerate(spec.inners):
                gv, gd, _ = univariate_jet(inner, coords[i])
                zero = np.isfinite(gv) & (abs(coords[i] * gd) <= ZERO_MARGINAL_RTOL * abs(gv))
                checks.append((gv <= 0.0, "inner_nonpositive", f"g{i + 1} = {{!r}}", i, gv))
                checks.append((zero, "zero_inner_derivative", f"g{i + 1}' = {{!r}}", i, gd))
                regular &= ~(gv <= 0.0)
                u = u * gv
            fv, fd1, _ = univariate_jet(spec.outer, u)
            zero = regular & np.isfinite(fv) & (abs(u * fd1) <= ZERO_MARGINAL_RTOL * abs(fv))
            checks.append((zero, "zero_outer_derivative", "F' = {!r}", None, fd1))
    found = []
    for k in np.flatnonzero(np.any([mask for mask, *_ in checks], axis=0)):
        point = Point(coords[:, k].tolist())
        for mask, code, message, axis, values in checks:
            if mask[k]:
                v = float(values[k])
                found.append(Diagnostic(point, code, message.format(v), axis, v))
    return found


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------

def _params_to_obj(params: dict):
    out = {}
    for key, value in params.items():
        if isinstance(value, tuple):
            out[key] = [float(v) for v in value]
        else:
            out[key] = float(value)
    return out


def _params_from_obj(obj) -> dict:
    if not isinstance(obj, dict):
        raise ExpressionError(f"field 'params' must be an object, got {obj!r}")
    out = {}
    for key, value in obj.items():
        numbers = value if isinstance(value, list) else [value]
        if not all(is_number(v) for v in numbers):
            raise ExpressionError(f"parameter {key!r} must be a number or a list of numbers, got {value!r}")
        try:
            floats = tuple(map(float, numbers))
        except OverflowError:
            raise ExpressionError(f"parameter {key!r} has an integer beyond the float range") from None
        if not all(map(math.isfinite, floats)):
            raise ExpressionError(f"parameter {key!r} must be finite, got {value!r}")
        out[key] = floats if isinstance(value, list) else floats[0]
    return out


def spec_to_json_obj(spec: FunctionSpec) -> dict:
    """JSON-compatible document; numeric literals survive a round trip
    bit for bit (Python renders floats with their shortest 17-digit
    round-trip representation)."""
    return {
        "n": spec.n,
        "family": spec.family,
        "params": _params_to_obj(spec.params),
        "body": expr_to_obj(spec.body),
        "outer": expr_to_obj(spec.outer) if spec.outer is not None else None,
        "inners": [expr_to_obj(g) for g in spec.inners] if spec.inners is not None else None,
    }


def spec_from_json_obj(obj: dict) -> FunctionSpec:
    if not isinstance(obj, dict):
        raise ExpressionError(f"spec document must be an object, got {obj!r}")
    try:
        n = obj["n"]
        family = obj["family"]
        body = obj["body"]
    except KeyError as e:
        raise ExpressionError(f"spec document missing field {e.args[0]!r}") from None
    if not is_number(n, int):
        raise ExpressionError(f"field 'n' must be an int, got {n!r}")
    if not isinstance(family, str):
        raise ExpressionError(f"field 'family' must be a string, got {family!r}")
    outer = obj.get("outer")
    inners = obj.get("inners")
    if inners is not None and not isinstance(inners, list):
        raise ExpressionError(f"field 'inners' must be an array, got {inners!r}")
    return FunctionSpec(
        n=n,
        body=expr_from_obj(body),
        family=family,
        params=_params_from_obj(obj.get("params", {})),
        outer=expr_from_obj(outer) if outer is not None else None,
        inners=tuple(expr_from_obj(g) for g in inners) if inners is not None else None,
    )


def spec_to_json(spec: FunctionSpec, indent: Optional[int] = None) -> str:
    return json.dumps(spec_to_json_obj(spec), indent=indent)


def spec_from_json(text: str) -> FunctionSpec:
    try:
        obj = json.loads(text)
    except ValueError as e:
        # A JSONDecodeError, or an integer literal past the digit limit of int().
        raise ExpressionError(f"invalid spec JSON: {e}") from None
    except RecursionError:
        raise ExpressionError("invalid spec JSON: nested too deeply to decode") from None
    return spec_from_json_obj(obj)
