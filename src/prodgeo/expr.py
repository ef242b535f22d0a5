"""Expression trees for positive multivariate functions.

The node kinds cover exactly the arithmetic needed by the production
function catalog: constants, input variables, negation, sums, products,
quotients, powers with a real exponent, exp and ln.  Trees are immutable
and evaluation is pure, so expressions can be shared freely across
threads.

Evaluation is generic over the scalar type: plain floats give function
values, while jet scalars (see :mod:`prodgeo.jets`) propagate first and
second derivatives through the *identical* arithmetic path.  No
re-association or simplification ever happens, which keeps results
reproducible bit for bit.

Powers follow one domain rule: a real (non-integer) exponent requires a
strictly positive base, checked at evaluation time; integer exponents
are expanded by repeated multiplication and therefore stay smooth on the
whole real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat

from .errors import DomainViolation, ExpressionError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "Add",
    "Mul",
    "Div",
    "Pow",
    "Exp",
    "Ln",
    "const",
    "var",
    "exp",
    "ln",
    "product_chain",
    "sum_chain",
    "variables",
    "check_depth",
    "substitute",
    "eval_expr",
    "eval_value",
    "expr_to_obj",
    "expr_from_obj",
]

# Integer exponents above this bound fall back to the positive-base power
# rule instead of an absurdly long multiplication chain.
_MAX_REPEATED_POW = 512

#: The deepest tree accepted, in nodes on a path from the root.  Walks over
#: a tree recurse once per level, and comparing trees about three times,
#: so this keeps every walk far below Python's recursion limit of 1,000.
MAX_DEPTH = 200


@dataclass(frozen=True)
class Expr:
    """Base node.  Subclasses are frozen dataclasses, so structural
    equality (``==``) compares whole trees."""

    def __add__(self, other) -> "Expr":
        return Add(self, _coerce(other))

    def __radd__(self, other) -> "Expr":
        return Add(_coerce(other), self)

    def __sub__(self, other) -> "Expr":
        return Add(self, Neg(_coerce(other)))

    def __rsub__(self, other) -> "Expr":
        return Add(_coerce(other), Neg(self))

    def __mul__(self, other) -> "Expr":
        return Mul(self, _coerce(other))

    def __rmul__(self, other) -> "Expr":
        return Mul(_coerce(other), self)

    def __truediv__(self, other) -> "Expr":
        return Div(self, _coerce(other))

    def __rtruediv__(self, other) -> "Expr":
        return Div(_coerce(other), self)

    def __neg__(self) -> "Expr":
        return Neg(self)

    def __pow__(self, exponent) -> "Expr":
        return Pow(self, float(exponent))


def _finite(x, what: str) -> float:
    """``x`` as a finite float; ExpressionError names ``what`` otherwise."""
    try:
        v = float(x)
    except OverflowError:
        raise ExpressionError(f"{what} must be finite, got an integer beyond the float range") from None
    if not math.isfinite(v):
        raise ExpressionError(f"{what} must be finite, got {x!r}")
    return v


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _finite(self.value, "constant"))


@dataclass(frozen=True)
class Var(Expr):
    index: int

    def __post_init__(self):
        if not isinstance(self.index, int) or self.index < 0:
            raise ExpressionError(f"variable index must be a non-negative int, got {self.index!r}")


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float

    def __post_init__(self):
        object.__setattr__(self, "exponent", _finite(self.exponent, "power exponent"))


@dataclass(frozen=True)
class Exp(Expr):
    child: Expr


@dataclass(frozen=True)
class Ln(Expr):
    child: Expr


#: Every node class, with its serialization tag (its name in lower case),
#: its field count and its child count: the children are its leading
#: fields, typed Expr, and the rest are payloads (Const.value, Var.index,
#: Pow.exponent).
_KINDS = {
    node: (node.__name__.lower(), len(fields(node)), sum(f.type == "Expr" for f in fields(node)))
    for node in Expr.__subclasses__()
}
_NODES = {tag: node for node, (tag, _, _) in _KINDS.items()}


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise ExpressionError(f"cannot use {x!r} in an expression")


def const(value: float) -> Const:
    return Const(float(value))


def var(index: int) -> Var:
    return Var(index)


def exp(x) -> Exp:
    return Exp(_coerce(x))


def ln(x) -> Ln:
    return Ln(_coerce(x))


def product_chain(factors) -> Expr:
    """Left-associated product of the given expressions."""
    factors = list(factors)
    if not factors:
        raise ExpressionError("product_chain needs at least one factor")
    acc = factors[0]
    for f in factors[1:]:
        acc = Mul(acc, f)
    return acc


def sum_chain(terms) -> Expr:
    """Left-associated sum of the given expressions."""
    terms = list(terms)
    if not terms:
        raise ExpressionError("sum_chain needs at least one term")
    acc = terms[0]
    for t in terms[1:]:
        acc = Add(acc, t)
    return acc


def check_depth(tree) -> None:
    """Raise ExpressionError if ``tree``, an Expr or its nested-array form,
    has more than MAX_DEPTH nodes on a path from the root.  Walks level by
    level, without recursion, visiting a shared subtree once per level."""
    nodes = (Expr, list, tuple)
    level = [tree] if isinstance(tree, nodes) else []
    for _ in range(MAX_DEPTH):
        children = (vars(x).values() if isinstance(x, Expr) else x[1:] for x in level)
        level = list({id(c): c for cs in children for c in cs if isinstance(c, nodes)}.values())
        if not level:
            return
    raise ExpressionError(f"expression is deeper than {MAX_DEPTH} levels")


def _split(e: Expr) -> tuple[str, tuple, tuple]:
    """The tag of node ``e``, its children and its payloads."""
    try:
        tag, _, count = _KINDS[type(e)]
    except KeyError:
        raise ExpressionError(f"unknown node {e!r}") from None
    parts = tuple(vars(e).values())
    return tag, parts[:count], parts[count:]


def variables(e: Expr) -> frozenset[int]:
    """Set of variable indices appearing in the tree."""
    if isinstance(e, Var):
        return frozenset({e.index})
    return frozenset().union(*map(variables, _split(e)[1]))


def substitute(e: Expr, mapping: dict[int, Expr]) -> Expr:
    """Replace every Var(i) with mapping[i]; unmapped variables stay."""
    if isinstance(e, Var):
        return mapping.get(e.index, e)
    _, children, payloads = _split(e)
    return type(e)(*map(substitute, children, repeat(mapping)), *payloads) if children else e


# ---------------------------------------------------------------------------
# Evaluation (generic over floats and jet scalars)
# ---------------------------------------------------------------------------

def _exp_scalar(v):
    if isinstance(v, float):
        try:
            return math.exp(v)
        except OverflowError:
            raise DomainViolation(f"exp overflow at argument {v!r}") from None
    return v.exp()


def _ln_scalar(v):
    if isinstance(v, float):
        if v <= 0.0:
            raise DomainViolation(f"ln of non-positive value {v!r}")
        return math.log(v)
    return v.ln()


def _pow_scalar(v, exponent: float):
    if exponent.is_integer() and abs(exponent) <= _MAX_REPEATED_POW:
        m = int(exponent)
        if m == 0:
            return 1.0
        acc = v
        for _ in range(abs(m) - 1):
            acc = acc * v
        if m < 0:
            return _div_scalar(1.0, acc)
        return acc
    if isinstance(v, float):
        if v <= 0.0:
            raise DomainViolation(f"real power of non-positive base {v!r}")
        try:
            return math.pow(v, exponent)
        except OverflowError:
            raise DomainViolation(f"power overflow: {v!r} ** {exponent!r}") from None
    return v.pow_real(exponent)


def _div_scalar(num, den):
    if isinstance(den, float) and den == 0.0:
        raise DomainViolation("division by zero")
    return num / den


def eval_expr(e: Expr, xs):
    """Evaluate the tree with the given per-variable scalars.

    ``xs`` may hold plain floats or jet scalars; the arithmetic path is
    identical either way.  A tree with no variables yields a float even
    when jets are supplied.
    """
    match e:
        case Const(value=c):
            return c
        case Var(index=i):
            if i >= len(xs):
                raise ExpressionError(f"variable x{i + 1} out of range for {len(xs)} inputs")
            return xs[i]
        case Neg(child=a):
            return -eval_expr(a, xs)
        case Add(left=a, right=b):
            return eval_expr(a, xs) + eval_expr(b, xs)
        case Mul(left=a, right=b):
            return eval_expr(a, xs) * eval_expr(b, xs)
        case Div(left=a, right=b):
            return _div_scalar(eval_expr(a, xs), eval_expr(b, xs))
        case Pow(base=a, exponent=c):
            return _pow_scalar(eval_expr(a, xs), c)
        case Exp(child=a):
            return _exp_scalar(eval_expr(a, xs))
        case Ln(child=a):
            return _ln_scalar(eval_expr(a, xs))
    raise ExpressionError(f"unknown node {e!r}")


def eval_value(e: Expr, xs) -> float:
    """Evaluate with floats and enforce the positive, finite output
    contract of a production function."""
    v = eval_expr(e, [float(x) for x in xs])
    if not math.isfinite(v):
        raise DomainViolation(f"non-finite output {v!r}")
    if v <= 0.0:
        raise DomainViolation(f"non-positive output {v!r}")
    return v


# ---------------------------------------------------------------------------
# Serialization: nested prefix arrays, JSON-compatible
# ---------------------------------------------------------------------------

def expr_to_obj(e: Expr):
    """Encode as a nested prefix array, e.g. ``["mul", ["var", 0], ["const", 2.0]]``."""
    tag, children, payloads = _split(e)
    return [tag, *map(expr_to_obj, children), *payloads]


def expr_from_obj(obj) -> Expr:
    """Decode a nested prefix array produced by :func:`expr_to_obj`."""
    check_depth(obj)
    return _decode(obj)


def _decode(obj) -> Expr:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ExpressionError(f"expression node must be a non-empty array, got {obj!r}")
    tag, *args = obj
    node = _NODES.get(tag) if isinstance(tag, str) else None
    if node is None:
        raise ExpressionError(f"unknown node tag {tag!r}")
    _, arity, count = _KINDS[node]
    if len(args) != arity:
        raise ExpressionError(f"node {tag!r} expects {arity} argument(s), got {len(args)}")
    if node is Const and not isinstance(args[0], (int, float)):
        raise ExpressionError(f"const payload must be a number, got {args[0]!r}")
    if node is Var and not isinstance(args[0], int):
        raise ExpressionError(f"var payload must be an int, got {args[0]!r}")
    if node is Pow and not isinstance(args[1], (int, float)):
        raise ExpressionError(f"pow exponent must be a number, got {args[1]!r}")
    return node(*map(_decode, args[:count]), *args[count:])
