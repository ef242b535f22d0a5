"""Expression trees for positive multivariate functions.

The node kinds cover exactly the arithmetic needed by the production
function catalog: constants, input variables, negation, sums, products,
quotients, powers with a real exponent, exp and ln.  Trees are immutable
and evaluation is pure, so expressions can be shared freely across
threads.

A tree is evaluated through its program (see :class:`Program`): a flat
post-order list of instructions, compiled on the tree's first use and
kept with its root node (see :func:`compiled`).  Compilation is hash-consed: structurally
equal subtrees, whether one shared object or equal copies, become one
register, computed once per run where the tree walk first completes it.
Constants are keyed with their sign, so ``Const(0.0)`` and
``Const(-0.0)`` stay apart.  Nothing is folded, re-associated or
simplified: a run performs the walk's IEEE operations in the walk's
order, only skipping repeats of an identical subtree, so results are
reproducible bit for bit and the first failing node of the walk fails
first.

Evaluation is generic over the scalar type: plain floats give function
values, while jet scalars (see :mod:`prodgeo.jets`) propagate first and
second derivatives through the *identical* arithmetic path.  Jets are
never mutated, so one register may feed many operations.

Powers follow one domain rule: a real (non-integer) exponent requires a
strictly positive base, checked at evaluation time; integer exponents
are expanded by repeated multiplication and therefore stay smooth on the
whole real line.
"""

from __future__ import annotations

import math
import operator
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
    "product_chain",
    "sum_chain",
    "variables",
    "substitute",
    "Program",
    "compiled",
    "eval_expr",
    "eval_value",
    "expr_to_obj",
    "expr_from_obj",
    "is_number",
]

# Integer exponents above this bound fall back to the positive-base power
# rule instead of an absurdly long multiplication chain.
_MAX_REPEATED_POW = 512

#: The deepest tree accepted, in nodes on a path from the root.  Walks over
#: a tree recurse once per level, and comparing trees about three times,
#: so this keeps every walk far below Python's recursion limit of 1,000.
#: Compiling a deeper tree, or decoding a deeper array, raises ExpressionError.
MAX_DEPTH = 200


@dataclass(frozen=True)
class Expr:
    """Base node.  Subclasses are frozen dataclasses, so structural
    equality (``==``) compares whole trees.  A root node keeps its
    compiled program (see :func:`compiled`) beside its fields."""

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


def _split(e: Expr) -> tuple[str, tuple, tuple]:
    """The tag of node ``e``, its children and its payloads."""
    try:
        tag, arity, count = _KINDS[type(e)]
    except KeyError:
        raise ExpressionError(f"unknown node {e!r}") from None
    parts = tuple(vars(e).values())
    return tag, parts[:count], parts[count:arity]


def variables(e: Expr) -> frozenset[int]:
    """Set of variable indices appearing in the tree."""
    return frozenset(compiled(e).support)


def substitute(e: Expr, mapping: dict[int, Expr]) -> Expr:
    """Replace every Var(i) with mapping[i]; unmapped variables stay.  Each
    node object is rewritten once, so shared subtrees stay shared."""
    return _substitute(e, mapping, {})


def _substitute(node: Expr, mapping: dict[int, Expr], done: dict[int, Expr]) -> Expr:
    """``substitute``; ``done`` maps the id of each node rewritten so far, kept alive by the tree, to its rewrite."""
    if id(node) not in done:
        _, children, payloads = _split(node)
        new = type(node)(*map(_substitute, children, repeat(mapping), repeat(done)), *payloads) if children else node
        done[id(node)] = mapping.get(node.index, node) if isinstance(node, Var) else new
    return done[id(node)]


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


def _load(xs, i: int):
    if i >= len(xs):
        raise ExpressionError(f"variable x{i + 1} out of range for {len(xs)} inputs")
    return xs[i]


#: The operation of each node kind but Const, on its children's values and
#: then its payload: Var reads the inputs at its index.
_OPS = {
    Var: _load,
    Neg: operator.neg,
    Add: operator.add,
    Mul: operator.mul,
    Div: _div_scalar,
    Pow: _pow_scalar,
    Exp: _exp_scalar,
    Ln: _ln_scalar,
}


class Program:
    """A tree compiled to a flat post-order list of instructions.

    Compiling walks the tree once, depth first and left to right, and
    gives each structurally distinct subtree one register, in the order
    in which the walk completes its first occurrence; an operation's
    register gets its instruction there.  Constants are keyed by value and
    sign.  ``support`` is the sorted tuple of variable indices the tree
    uses and ``depth`` its nodes on the longest path from the root; a tree
    deeper than MAX_DEPTH raises ExpressionError.

    A run fills a register file: the inputs, then each register's slot,
    where a constant is stored beforehand, and payload slots for variable
    indices and exponents.  An instruction ``fn, k, a, b, dead`` sets
    slot k to fn(slot a, slot b), or to fn(slot a) when b is 0, the slot
    of the inputs, and then clears the operands it reads last (``dead & 1``
    for a, ``dead & 2`` for b).  So a run holds the values the walk held,
    and a repeated subtree's value from its first use to its last.  The
    instructions are kept in one flat list, which the garbage collector
    sees as one object.
    """

    __slots__ = ("support", "depth", "_slots", "_code", "_out")

    def __init__(self, e: Expr):
        ids: dict[int, int] = {}  # id(node) -> register, for shared objects
        registers: dict[tuple, int] = {}  # kind, child registers and payloads -> register
        heights: dict[int, int] = {}  # register -> nodes on the longest path down from it
        last: dict[int, int] = {}  # register -> the instruction that reads it last
        slots: list = [None]
        code: list = []
        support = []

        def visit(node, depth: int) -> int:
            reg = ids.get(at := id(node))
            if reg is not None:
                if depth + heights[reg] - 1 > MAX_DEPTH:
                    raise ExpressionError(f"expression is deeper than {MAX_DEPTH} levels")
                return reg
            if depth > MAX_DEPTH:
                raise ExpressionError(f"expression is deeper than {MAX_DEPTH} levels")
            kind = type(node)
            try:
                _, arity, count = _KINDS[kind]
            except KeyError:
                raise ExpressionError(f"unknown node {node!r}") from None
            parts = [*vars(node).values()]
            height = 0
            if count:
                for c in range(count):
                    r = parts[c] = visit(parts[c], depth + 1)
                    if heights[r] > height:
                        height = heights[r]
                key = (kind, *parts[:arity])
            else:
                key = (kind, parts[0], math.copysign(1.0, parts[0]))
            reg = registers.get(key)
            if reg is None:
                reg = registers[key] = len(slots)
                heights[reg] = height + 1
                if kind is Const:
                    slots.append(parts[0])
                else:
                    # The instruction of an operation; a payload goes in the next slot.
                    slots.append(None)
                    j = len(code)
                    if count == 2:
                        last[parts[0]] = last[parts[1]] = j
                        code.extend((_OPS[kind], reg, parts[0], parts[1], 0))
                    elif count:
                        last[parts[0]] = j
                        if arity > 1:
                            slots.append(parts[1])
                        code.extend((_OPS[kind], reg, parts[0], reg + 1 if arity > 1 else 0, 0))
                    else:  # a variable: the inputs and its index
                        support.append(parts[0])
                        slots.append(parts[0])
                        code.extend((_OPS[kind], reg, 0, reg + 1, 0))
            ids[at] = reg
            return reg

        try:
            self._out = visit(e, 1)
        finally:
            visit = None  # the closure refers to itself: break the cycle, so the tables go at once
        for reg, j in last.items():
            code[j + 4] |= (code[j + 2] == reg) | (code[j + 3] == reg) << 1
        self.support = tuple(sorted(support))
        self.depth = heights[self._out]
        self._slots, self._code = slots, code

    def __eq__(self, other):
        """Whether both run the same instructions on equal constants and payloads,
        as the programs of equal trees do unless their zeros' signs differ."""
        parts = operator.attrgetter("_out", "_code", "_slots")
        return isinstance(other, Program) and parts(self) == parts(other)

    def run(self, xs):
        """The tree's value for the per-variable scalars ``xs``."""
        r = self._slots.copy()
        r[0] = xs
        step = iter(self._code)
        for fn, k, a, b, dead in zip(step, step, step, step, step):
            r[k] = fn(r[a], r[b]) if b else fn(r[a])
            if dead:
                if dead & 1:
                    r[a] = None
                if dead & 2:
                    r[b] = None
        return r[self._out]


def compiled(e: Expr) -> Program:
    """The program of tree ``e``.  It is compiled on first use and kept on
    the root node, so each tree object is compiled once and its program
    lives exactly as long as the tree."""
    program = getattr(e, "_program", None)
    if program is None:
        program = Program(e)
        object.__setattr__(e, "_program", program)
    return program


def eval_expr(e: Expr, xs):
    """Evaluate the tree with the given per-variable scalars.

    ``xs`` may hold plain floats or jet scalars; the arithmetic path is
    identical either way.  A tree with no variables yields a float even
    when jets are supplied.
    """
    return compiled(e).run(xs)


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
    """Decode a nested prefix array produced by :func:`expr_to_obj`; an
    array nested deeper than MAX_DEPTH raises ExpressionError."""
    return _decode(obj, 1)


def is_number(x, kinds=(int, float)) -> bool:
    """Whether a decoded JSON value is one of ``kinds``; true and false are
    not numbers, though Python's bool is an int."""
    return isinstance(x, kinds) and not isinstance(x, bool)


def _decode(obj, depth: int) -> Expr:
    if depth > MAX_DEPTH:
        raise ExpressionError(f"expression is deeper than {MAX_DEPTH} levels")
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ExpressionError(f"expression node must be a non-empty array, got {obj!r}")
    tag, *args = obj
    node = _NODES.get(tag) if isinstance(tag, str) else None
    if node is None:
        raise ExpressionError(f"unknown node tag {tag!r}")
    _, arity, count = _KINDS[node]
    if len(args) != arity:
        raise ExpressionError(f"node {tag!r} expects {arity} argument(s), got {len(args)}")
    if node is Const and not is_number(args[0]):
        raise ExpressionError(f"const payload must be a number, got {args[0]!r}")
    if node is Var and not is_number(args[0], int):
        raise ExpressionError(f"var payload must be an int, got {args[0]!r}")
    if node is Pow and not is_number(args[1]):
        raise ExpressionError(f"pow exponent must be a number, got {args[1]!r}")
    return node(*map(_decode, args[:count], repeat(depth + 1)), *args[count:])
