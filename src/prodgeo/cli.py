"""Command-line front end.

Three commands:

* ``analyze``   per-point report rows (curvature and substitution
                indicators) over a sample grid;
* ``classify``  classification verdict for one function over a grid;
* ``verify``    the built-in classification fixture suite; exits 0 only
                when every expectation passes.

Functions come either from a JSON spec document (``--spec path`` or
``--spec -`` for stdin) or from a catalog family one-liner
(``--family cobb_douglas --params A=1,k=0.4:0.6``).

Exit codes: 0 success / all expectations pass; 1 verification failures;
2 input errors (``errors.InputError``); 3 evaluation errors
(``errors.EvaluationError``).

Output is deterministic: the same invocation produces byte-identical
bytes, and CSV and JSON render every finite number identically (shortest
round-trip float representation, up to 17 significant digits); non-finite
numbers are ``NaN``, ``Infinity`` and ``-Infinity`` in JSON and ``nan``,
``inf`` and ``-inf`` in CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from functools import cache
from typing import Optional

import numpy as np

from .catalog import FunctionSpec, Point, build_family, spec_from_json
from .classifier import (
    SCHEMA_VERSION,
    ClassificationVerdict,
    ExpectationResult,
    PropertyVerdict,
    SampleGrid,
    TolerancePolicy,
    classify,
    default_grid,
    verify_catalog,
)
from .errors import EvaluationError, InputError
from .reports import report_header, report_record, report_table

__all__ = ["main"]

_FAMILY_ALIASES = {
    "spillman": "spillman_mitscherlich",
    "armington": "acms",
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodgeo",
        description="Curvature and substitution-elasticity analysis of production hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p):
        p.add_argument("--spec", help="spec JSON file path, or '-' for standard input")
        p.add_argument("--family", help="catalog family name (e.g. cobb_douglas, acms, spillman)")
        p.add_argument(
            "--params",
            help="family parameters, e.g. A=1,k=0.4:0.6 (vectors use ':' separators)",
        )

    def add_grid_flags(p):
        p.add_argument("--box", help="sample box lo:hi[,lo:hi...]; one pair is applied to all axes")
        p.add_argument("--points-per-axis", type=int, help="mesh points per axis")
        p.add_argument("--seed", type=int, default=0, help="seed for the jitter points")

    def add_tol_flags(p):
        p.add_argument("--tol-zero", type=float, help="absolute and relative zero tolerance")
        p.add_argument("--tol-const", type=float, help="relative constancy tolerance")

    def add_out_flags(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="output path (default: standard output)")

    p_analyze = sub.add_parser("analyze", help="per-point indicator report over a grid")
    add_spec_flags(p_analyze)
    add_grid_flags(p_analyze)
    add_out_flags(p_analyze)

    p_classify = sub.add_parser("classify", help="classification verdict over a grid")
    add_spec_flags(p_classify)
    add_grid_flags(p_classify)
    add_tol_flags(p_classify)
    add_out_flags(p_classify)

    p_verify = sub.add_parser("verify", help="run the built-in classification fixture suite")
    add_tol_flags(p_verify)
    add_out_flags(p_verify)

    return parser


# ---------------------------------------------------------------------------
# Input assembly
# ---------------------------------------------------------------------------

def _parse_params(text: str) -> dict:
    params: dict = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise InputError(f"malformed parameter {item!r}, expected name=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        parts = raw.split(":")
        try:
            if len(parts) == 1:
                params[key] = float(parts[0])
            else:
                params[key] = tuple(float(v) for v in parts)
        except ValueError:
            raise InputError(f"parameter {key!r} has a non-numeric value {raw!r}") from None
    return params


def _load_spec(args) -> FunctionSpec:
    if args.spec and args.family:
        raise InputError("give either --spec or --family, not both")
    if args.spec:
        try:
            if args.spec == "-":
                text = sys.stdin.read()
            else:
                with open(args.spec, "r", encoding="utf-8") as fh:
                    text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            source = "standard input" if args.spec == "-" else "spec file"
            raise InputError(f"cannot read {source}: {e}") from None
        return spec_from_json(text)
    if args.family:
        family = _FAMILY_ALIASES.get(args.family, args.family).replace("-", "_")
        params = _parse_params(args.params) if args.params else {}
        return build_family(family, params)
    raise InputError("a function is required: give --spec or --family")


def _parse_box(text: str, n: int) -> tuple[tuple[float, float], ...]:
    pairs = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise InputError(f"malformed box axis {part!r}, expected lo:hi")
        try:
            pairs.append((float(lo), float(hi)))
        except ValueError:
            raise InputError(f"non-numeric box bounds {part!r}") from None
    if len(pairs) == 1:
        pairs = pairs * n
    if len(pairs) != n:
        raise InputError(f"box has {len(pairs)} axes, function has {n} inputs")
    return tuple(pairs)


def _make_grid(args, n: int) -> SampleGrid:
    # default_grid checks the grid's size before a box of n axes is built.
    grid = default_grid(n, seed=args.seed, points_per_axis=args.points_per_axis)
    return replace(grid, box=_parse_box(args.box, n)) if args.box else grid


def _make_tolerances(args) -> TolerancePolicy:
    given = {"zero_abs": args.tol_zero, "zero_rel": args.tol_zero, "constancy_rel": args.tol_const}
    return TolerancePolicy(**{name: v for name, v in given.items() if v is not None})


# ---------------------------------------------------------------------------
# Rendering (numbers via repr in CSV, json's own rendering in JSON)
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Point):
        return ":".join(map(repr, v.coords))
    return str(v)


def _csv_lines(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _write(text: str, out: Optional[str]):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write output: {e}") from None


def _fill(table: np.ndarray, row: str, sep: str, render) -> str:
    """``row`` once per row of the (P, m) float table, joined by ``sep``, its
    m ``%s`` slots filled in one ``%`` pass. Each distinct cell is rendered
    once, by ``render`` of the list of distinct values; cells are told apart
    by their bits, so 0.0 and -0.0 keep their own texts."""
    bits, inverse = np.unique(np.ravel(table).view(np.int64), return_inverse=True)
    texts = render(bits.view(np.float64).tolist())
    return sep.join([row] * len(table)) % tuple(map(texts.__getitem__, inverse.ravel().tolist()))


def _render_analyze(spec, table, fmt: str) -> str:
    """The (P, m) ``report_table`` as CSV, or as the JSON document that
    json.dumps(indent=2) gives for one record per row."""
    if fmt == "csv":
        rows = _fill(table, ",".join(["%s"] * table.shape[1]), "\n", lambda v: list(map(repr, v)))
        return ",".join(report_header(spec.n)) + "\n" + rows + "\n"
    # The layout comes from json.dumps of the document with a slot for its
    # rows and of one record with a slot for each cell, and the cells are
    # json's own renderings; no key or value of the document renders as a slot.
    slot = json.dumps("\0")
    doc = {"schema_version": SCHEMA_VERSION, "command": "analyze", "family": spec.family, "n": spec.n, "rows": ["\0"]}
    head, _, tail = json.dumps(doc, indent=2).rpartition(slot)
    indent = head[head.rindex("\n"):]
    record = json.dumps(report_record(spec.n, ["\0"] * table.shape[1]), indent=2)
    template = record.replace("\n", indent).replace("%", "%%").replace(slot, "%s")
    return head + _fill(table, template, "," + indent, lambda v: json.dumps(v)[1:-1].split(", ")) + tail + "\n"


def _render_classify(verdict: ClassificationVerdict, fmt: str) -> str:
    if fmt == "csv":
        # The fields of the records in order, the point last as one column per coordinate.
        names = [f.name for f in fields(next(iter(verdict.properties), PropertyVerdict)) if f.name != "worst_point"]
        header = ["property" if k == "name" else k for k in names]
        header += [f"worst_x{i + 1}" for i in range(verdict.n)]
        rows = [[getattr(p, k) for k in names] + list(p.worst_point.coords) for p in verdict.properties]
        return _csv_lines(header, rows)
    doc = {"command": "classify", **verdict.to_json_obj()}
    return json.dumps(doc, indent=2) + "\n"


def _render_verify(report, fmt: str) -> str:
    if fmt == "csv":
        names = [f.name for f in fields(next(iter(report.results), ExpectationResult))]
        return _csv_lines(names, [[getattr(r, k) for k in names] for r in report.results])
    doc = {"command": "verify", **report.to_json_obj()}
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    spec = _load_spec(args)
    table = report_table(spec, _make_grid(args, spec.n))
    _write(_render_analyze(spec, table, args.format), args.out)
    return 0


def _cmd_classify(args) -> int:
    spec = _load_spec(args)
    grid = _make_grid(args, spec.n)
    verdict = classify(spec, grid, _make_tolerances(args))
    _write(_render_classify(verdict, args.format), args.out)
    return 0


def _cmd_verify(args) -> int:
    report = verify_catalog(_make_tolerances(args))
    _write(_render_verify(report, args.format), args.out)
    return 0 if report.all_passed else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"analyze": _cmd_analyze, "classify": _cmd_classify, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except EvaluationError as e:
        print(f"evaluation error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
