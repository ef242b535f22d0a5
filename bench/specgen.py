"""Seeded stream of spec documents for the ``specs_pointwise`` workload,
and an evaluator for them that shares no code with prodgeo.

Every tree is built only from operations that are strictly increasing in
each positive argument: sums, products, positive constant factors and
shifts, quotients by a positive constant, the saturating quotient
a / (c + a), powers with a positive exponent, exp of a positive multiple
and ln(1 + a).  Leaves are input variables, and every input occurs in the
tree.  So on the box [0.5, 2]^n the function is positive and each first
partial is positive by construction; an evaluation error or a validation
finding is a real failure, never an artefact of the input.

Because every subtree is increasing in every input it uses, its value
range over the box is exactly [value at the low corner, value at the
high corner].  The generator tracks that range while it builds and
rescales any subtree whose range leaves [RANGE_LO, RANGE_HI], which keeps
every intermediate value, and so every exponent, finite and moderate.

The stream is stratified: spec ``i`` takes its size, input count and kind
from slot ``i % len(SLOTS)``, and only the tree shapes, operations and
constants come from the seed.  Every window of ``len(SLOTS)`` consecutive
specs therefore has the same mix of sizes, so op latencies from different
seeds are comparable.  No two specs of a stream are equal, so a per-spec
cache cannot turn a later op into a hit.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from prodgeo import FunctionSpec, build_quasi_product, spec_to_json
from prodgeo.expr import Add, Const, Div, Exp, Ln, Mul, Pow, Var

BOX = (0.5, 2.0)
PROBES_PER_SPEC = 8
RANGE_LO, RANGE_HI = 0.02, 50.0

# 12 target sizes, log-spaced over [20, 400] nodes, crossed with n in
# {2, 3} and with the kind: two custom trees for each composite one.
# Stepping through the product with a stride coprime to its length mixes
# sizes and kinds within short runs too.
_SIZES = tuple(round(20.0 * 20.0 ** (k / 11)) for k in range(12))
_PRODUCT = [
    (size, n, kind)
    for kind in ("custom", "custom", "composite")
    for n in (2, 3)
    for size in _SIZES
]
SLOTS = tuple(_PRODUCT[(29 * i) % len(_PRODUCT)] for i in range(len(_PRODUCT)))


@dataclass(frozen=True)
class SpecInput:
    """One op's input: a spec document and the points to probe it at."""

    index: int
    n: int
    composite: bool
    doc: str
    probes: tuple[tuple[float, ...], ...]


class _Builder:
    """Random increasing trees with tracked value ranges."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def tree(self, variables, size, lo_x, hi_x, allow_shared=True):
        """A tree over ``variables`` of about ``size`` nodes, as
        (expr, value at low corner, value at high corner)."""
        rng = self.rng
        if len(variables) == 1 and size <= 1:
            return Var(variables[0]), lo_x, hi_x
        branch = allow_shared and size >= 6 and rng.random() < 0.45
        if len(variables) > 1 or branch:
            if len(variables) > 1:
                shuffled = list(variables)
                rng.shuffle(shuffled)
                cut = rng.randint(1, len(shuffled) - 1)
                left_vars, right_vars = shuffled[:cut], shuffled[cut:]
            else:
                left_vars = right_vars = variables
            budget = max(size - 1, 2)
            left_size = max(1, round(budget * rng.uniform(0.3, 0.7)))
            a = self.tree(left_vars, left_size, lo_x, hi_x, allow_shared)
            b = self.tree(right_vars, max(1, budget - left_size), lo_x, hi_x, allow_shared)
            if rng.random() < 0.5:
                node = (Add(a[0], b[0]), a[1] + b[1], a[2] + b[2])
            else:
                node = (Mul(a[0], b[0]), a[1] * b[1], a[2] * b[2])
            return self._rescale(node)
        return self._rescale(self._unary(variables, size, lo_x, hi_x, allow_shared))

    def _unary(self, variables, size, lo_x, hi_x, allow_shared):
        rng = self.rng
        choices = ["pow_real", "pow_int", "exp", "ln1p", "scale", "shift", "quot"]
        if allow_shared and size >= 8:
            choices.append("saturate")
        op = rng.choice(choices)
        if op == "saturate":
            e, lo, hi = self.tree(variables, (size - 3) // 2, lo_x, hi_x, allow_shared)
            c = Const(hi * rng.uniform(0.5, 2.0))
            return Div(e, Add(c, e)), lo / (c.value + lo), hi / (c.value + hi)
        cost = {"ln1p": 3, "exp": 3, "scale": 2, "shift": 2, "quot": 2}.get(op, 1)
        e, lo, hi = self.tree(variables, max(1, size - cost), lo_x, hi_x, allow_shared)
        if op == "pow_int" and hi ** 3 <= RANGE_HI:
            c = float(rng.choice((2, 3)))
            return Pow(e, c), lo**c, hi**c
        if op in ("pow_real", "pow_int"):
            c = round(rng.uniform(0.3, 1.8), 3)
            return Pow(e, c), lo**c, hi**c
        if op == "exp":
            c = Const(rng.uniform(0.2, 1.5) / hi)
            return Exp(Mul(c, e)), math.exp(c.value * lo), math.exp(c.value * hi)
        if op == "ln1p":
            return Ln(Add(Const(1.0), e)), math.log1p(lo), math.log1p(hi)
        if op == "scale":
            c = Const(rng.uniform(0.5, 2.0))
            return Mul(c, e), c.value * lo, c.value * hi
        if op == "shift":
            c = Const(rng.uniform(0.1, 2.0))
            return Add(e, c), lo + c.value, hi + c.value
        c = Const(rng.uniform(0.5, 2.0))
        return Div(e, c), lo / c.value, hi / c.value

    def _rescale(self, node):
        e, lo, hi = node
        if RANGE_LO <= lo and hi <= RANGE_HI:
            return node
        spread = math.log(hi / lo)
        room = 0.8 * math.log(RANGE_HI / RANGE_LO)
        if spread > room:
            c = round(room / spread, 6)
            e, lo, hi = Pow(e, c), lo**c, hi**c
        s = Const(1.0 / math.sqrt(lo * hi))
        return Mul(s, e), s.value * lo, s.value * hi


def _spec(rng: random.Random, size: int, n: int, kind: str) -> FunctionSpec:
    builder = _Builder(rng)
    lo_x, hi_x = BOX
    if kind == "custom":
        body, _, _ = builder.tree(list(range(n)), size, lo_x, hi_x)
        return FunctionSpec(n=n, body=body, family="custom")
    outer_size = max(3, size // 8)
    inner_size = max(2, (size - outer_size) // n)
    inners = [builder.tree([0], inner_size, lo_x, hi_x) for _ in range(n)]
    u_lo = math.prod(lo for _, lo, _ in inners)
    u_hi = math.prod(hi for _, _, hi in inners)
    # The outer expression is substituted with the inner product wherever
    # its variable occurs, so it is a chain of unary operations over one
    # occurrence of that variable.
    outer, _, _ = builder.tree([0], outer_size, u_lo, u_hi, allow_shared=False)
    return build_quasi_product(outer, [g for g, _, _ in inners])


def spec_input(seed: int, index: int) -> SpecInput:
    """Spec ``index`` of the stream for ``seed``; a pure function of both."""
    rng = random.Random(f"prodgeo-bench:{seed}:{index}")
    size, n, kind = SLOTS[index % len(SLOTS)]
    spec = _spec(rng, size, n, kind)
    lo, hi = BOX
    probes = tuple(
        tuple(lo * (hi / lo) ** rng.random() for _ in range(n)) for _ in range(PROBES_PER_SPEC)
    )
    return SpecInput(index, n, kind == "composite", spec_to_json(spec), probes)


# ---------------------------------------------------------------------------
# Reference evaluator: compiles the document's prefix arrays to Python
# ---------------------------------------------------------------------------

_BINARY = {"add": "+", "mul": "*", "div": "/"}


def _source(obj) -> str:
    tag = obj[0]
    if tag == "const":
        return repr(float(obj[1]))
    if tag == "var":
        return f"x[{int(obj[1])}]"
    if tag in _BINARY:
        return f"({_source(obj[1])} {_BINARY[tag]} {_source(obj[2])})"
    if tag == "pow":
        return f"_pow({_source(obj[1])}, {float(obj[2])!r})"
    if tag == "exp":
        return f"_exp({_source(obj[1])})"
    if tag == "ln":
        return f"_log({_source(obj[1])})"
    if tag == "neg":
        return f"(-{_source(obj[1])})"
    raise ValueError(f"unknown node tag {tag!r}")


def reference_function(doc: str):
    """f(x) for the document's body, from its JSON alone."""
    body = json.loads(doc)["body"]
    namespace = {"_pow": math.pow, "_exp": math.exp, "_log": math.log}
    return eval("lambda x: " + _source(body), namespace)


def node_count(doc: str) -> int:
    """Nodes in the document's body tree."""
    stack, count = [json.loads(doc)["body"]], 0
    while stack:
        obj = stack.pop()
        count += 1
        stack.extend(a for a in obj[1:] if isinstance(a, list))
    return count


def central_differences(f, x, h=1e-4):
    """Gradient and Hessian of ``f`` at ``x`` by central differences with
    per-axis step ``h * x_i``; both have O(h^2) truncation error."""
    n = len(x)
    steps = [h * xi for xi in x]

    def at(*moves):
        y = list(x)
        for axis, sign in moves:
            y[axis] += sign * steps[axis]
        return f(y)

    f0 = f(list(x))
    grad = [0.0] * n
    hess = [[0.0] * n for _ in range(n)]
    for i in range(n):
        fp, fm = at((i, 1)), at((i, -1))
        grad[i] = (fp - fm) / (2.0 * steps[i])
        hess[i][i] = (fp - 2.0 * f0 + fm) / (steps[i] * steps[i])
    for i in range(n):
        for j in range(i + 1, n):
            mixed = (
                at((i, 1), (j, 1)) - at((i, 1), (j, -1)) - at((i, -1), (j, 1)) + at((i, -1), (j, -1))
            ) / (4.0 * steps[i] * steps[j])
            hess[i][j] = hess[j][i] = mixed
    return f0, grad, hess
