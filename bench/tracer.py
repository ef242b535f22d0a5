"""Span tracing from outside the program.

prodgeo's modules call each other through module-level names (``jet`` in
``prodgeo.classifier``, ``det_pivoted`` in ``prodgeo.geometry``, ...).
While a ``Tracer`` is installed, every such name that refers to a
function of another layer is swapped for a wrapper that records a span:
its name, start, end, parent span and op id.  ``SampleGrid.points`` is
swapped too, as the ``classifier.grid`` layer; ``prodgeo.points`` does
no work of its own and is left inside its callers.  Spans are kept in
flat arrays in memory and written out once, at the end of the run.

A layer's busy time is the time covered by its outermost spans; its self
time is its spans' time minus their child spans.  Self times of all
layers plus the runner's own time add up to the op's wall time.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time
from array import array
from types import SimpleNamespace

import numpy as np

from workloads import API_FUNCTIONS, VALIDATE_POINTS_PER_AXIS

# Modules whose calls into other layers are traced; prodgeo.expr and
# prodgeo.linalg call no other layer.
CALLERS = ("cli", "classifier", "reports", "catalog", "geometry", "economics", "jets")
LAYERS = (
    "bench", "cli", "classifier", "classifier.grid", "catalog", "reports",
    "economics", "geometry", "jets", "expr", "linalg",
)
# Evaluation of the tree; counted as the nodes of the tree evaluated.
_EXPR_EVAL = ("eval_expr", "eval_value")
# Runner time outside any layer may not exceed this share of an op plus
# this floor; larger means time went missing from the spans.
ACCOUNTING_SLACK = 0.01
ACCOUNTING_FLOOR_S = 0.002


class Tracer:
    def __init__(self):
        import prodgeo
        from prodgeo.errors import ProdGeoError
        from prodgeo.expr import Expr

        self._error_type = ProdGeoError
        self._expr_type = Expr
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_of_name: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counters = {"expr.nodes_visited": 0, "classifier.grid.points": 0,
                         "catalog.validate_points": 0, "reports.rows": 0}
        self._node_counts: dict[int, tuple[object, int]] = {}
        self._patches = []
        for caller in CALLERS:
            module = importlib.import_module(f"prodgeo.{caller}")
            for attr, value in vars(module).items():
                layer = _layer_of(value)
                if layer is not None and layer != caller:
                    self._patches.append((module, attr, value, self._wrap(value, layer)))
        grid = prodgeo.SampleGrid
        self._patches.append((grid, "points", grid.points, self._wrap(grid.points, "classifier.grid")))
        plain = {
            name: getattr(importlib.import_module(mod), name) for name, mod in API_FUNCTIONS.items()
        }
        self.api = SimpleNamespace(**{k: self._wrap(f, _layer_of(f)) for k, f in plain.items()})

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
            self._layer_of_name.append(LAYERS.index(layer))
        return self._name_ids[name]

    def _wrap(self, fn, layer: str, name: str = ""):
        name_id = self._name_id(f"{layer}:{name or fn.__name__}", layer)
        after = self._after_hook(fn.__name__, layer)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        clock = time.perf_counter
        error_type = self._error_type
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(tracer.current)
            ops.append(tracer.op_id)
            ends.append(0.0)
            prev, tracer.current = tracer.current, idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except error_type:
                tracer.errors[layer] += 1
                raise
            finally:
                ends[idx] = clock()
                tracer.current = prev
            if after is not None:
                after(args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _after_hook(self, fn_name: str, layer: str):
        counters = self.counters
        if layer == "expr" and fn_name in _EXPR_EVAL:
            def after(args, result):
                counters["expr.nodes_visited"] += self._nodes(args[0])
        elif layer == "classifier.grid":
            def after(args, result):
                counters["classifier.grid.points"] += len(result)
        elif fn_name == "geometry_report":
            def after(args, result):
                counters["reports.rows"] += 1
        elif fn_name == "validate":
            def after(args, result):
                counters["catalog.validate_points"] += VALIDATE_POINTS_PER_AXIS ** len(args[1])
        elif fn_name == "main":
            def after(args, result):
                # cli.main maps a ProdGeoError to exit code 2 or 3.
                if result in (2, 3):
                    self.errors["cli"] += 1
        else:
            after = None
        return after

    def _nodes(self, expr) -> int:
        key = id(expr)
        if key not in self._node_counts:
            stack, count = [expr], 0
            while stack:
                node = stack.pop()
                count += 1
                for f in dataclasses.fields(node):
                    child = getattr(node, f.name)
                    if isinstance(child, self._expr_type):
                        stack.append(child)
            # Keep the tree alive so that its id is not reused.
            self._node_counts[key] = (expr, count)
        return self._node_counts[key][1]

    # -- one traced op -----------------------------------------------------

    def install(self, op_id: int) -> int:
        """Swap the wrappers in for op ``op_id``; returns its first span."""
        self.op_id = op_id
        for target, attr, _, wrapped in self._patches:
            setattr(target, attr, wrapped)
        return len(self.name)

    def uninstall(self) -> None:
        for target, attr, original, _ in self._patches:
            setattr(target, attr, original)
        self._node_counts.clear()

    def op_root(self, run):
        """``run`` wrapped as the op's root span, owned by the runner."""
        return self._wrap(run, "bench", "op")

    def op_summary(self, first: int, wall_s: float) -> dict:
        """Per-layer counts and times of the spans from ``first`` on, which
        are one op's, and the accounting check against the op's wall time."""
        count = len(self.name) - first
        name = np.frombuffer(self.name, dtype=np.int32)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:] - first
        dur = np.frombuffer(self.end)[first:] - np.frombuffer(self.start)[first:]
        layer = np.asarray(self._layer_of_name, dtype=np.int64)[name]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=count)
        self_time = dur - child_time
        # Bit l of above[i] is set when a span of layer l encloses span i.
        # Spans are numbered in call order, so parents come first.
        above = np.zeros(count, dtype=np.int64)
        for _ in range(count):
            p = parent[has_parent]
            nxt = above.copy()
            nxt[has_parent] = above[p] | (np.int64(1) << layer[p])
            if np.array_equal(nxt, above):
                break
            above = nxt
        outermost = ((above >> layer) & 1) == 0
        nl = len(LAYERS)
        calls = np.bincount(layer, minlength=nl)
        self_s = np.bincount(layer, weights=self_time, minlength=nl)
        busy_s = np.bincount(layer[outermost], weights=dur[outermost], minlength=nl)
        layer_self = float(self_s[1:].sum())
        runner_s = wall_s - layer_self
        problems = []
        if count == 0 or parent[0] >= 0:
            problems.append("the op has no root span")
        if count and self_time.min() < -1e-9:
            problems.append(f"a child span outlasts its parent by {-self_time.min():.3g} s")
        if not -1e-9 <= runner_s <= ACCOUNTING_SLACK * wall_s + ACCOUNTING_FLOOR_S:
            problems.append(
                f"layer self times {layer_self:.6f} s + runner {runner_s:.6f} s"
                f" vs op {wall_s:.6f} s, outside the slack"
            )
        return {
            "spans": count,
            "runner_s": runner_s,
            "calls": {LAYERS[i]: int(calls[i]) for i in range(nl)},
            "self_s": {LAYERS[i]: float(self_s[i]) for i in range(nl)},
            "busy_s": {LAYERS[i]: float(busy_s[i]) for i in range(nl)},
            "problems": problems,
        }

    def write(self, path: str) -> None:
        """All recorded spans, times relative to the first span's start."""
        start = np.frombuffer(self.start)
        t0 = start[0] if len(start) else 0.0
        np.savez_compressed(
            path,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=start - t0,
            end=np.frombuffer(self.end) - t0,
        )


def _layer_of(value):
    """The prodgeo layer a function belongs to, or None for anything else."""
    if not inspect.isfunction(value):
        return None
    parts = value.__module__.split(".")
    if parts[0] != "prodgeo" or len(parts) != 2 or parts[1] in ("errors", "points"):
        return None
    return parts[1]
