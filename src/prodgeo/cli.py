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
2 input errors; 3 domain errors during evaluation.

Output is deterministic: the same invocation produces byte-identical
bytes, and CSV and JSON render every number identically (shortest
round-trip float representation, up to 17 significant digits).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .catalog import FunctionSpec, build_family, spec_from_json
from .classifier import (
    ClassificationVerdict,
    SampleGrid,
    TolerancePolicy,
    classify,
    default_grid,
    verify_catalog,
)
from .errors import EVALUATION_ERRORS, INPUT_ERRORS
from .reports import report_header, report_record, report_table

__all__ = ["main"]

_FAMILY_ALIASES = {
    "cobb-douglas": "cobb_douglas",
    "spillman": "spillman_mitscherlich",
    "spillman-mitscherlich": "spillman_mitscherlich",
    "armington": "acms",
}


class _InputError(Exception):
    """CLI-level input problem (maps to exit code 2)."""


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
            raise _InputError(f"malformed parameter {item!r}, expected name=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        parts = raw.split(":")
        try:
            if len(parts) == 1:
                params[key] = float(parts[0])
            else:
                params[key] = tuple(float(v) for v in parts)
        except ValueError:
            raise _InputError(f"parameter {key!r} has a non-numeric value {raw!r}") from None
    return params


def _load_spec(args) -> FunctionSpec:
    if args.spec and args.family:
        raise _InputError("give either --spec or --family, not both")
    if args.spec:
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.spec, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as e:
                raise _InputError(f"cannot read spec file: {e}") from None
        return spec_from_json(text)
    if args.family:
        family = _FAMILY_ALIASES.get(args.family, args.family).replace("-", "_")
        params = _parse_params(args.params) if args.params else {}
        return build_family(family, params)
    raise _InputError("a function is required: give --spec or --family")


def _parse_box(text: str, n: int) -> tuple[tuple[float, float], ...]:
    pairs = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise _InputError(f"malformed box axis {part!r}, expected lo:hi")
        try:
            pairs.append((float(lo), float(hi)))
        except ValueError:
            raise _InputError(f"non-numeric box bounds {part!r}") from None
    if len(pairs) == 1:
        pairs = pairs * n
    if len(pairs) != n:
        raise _InputError(f"box has {len(pairs)} axes, function has {n} inputs")
    return tuple(pairs)


def _make_grid(args, n: int) -> SampleGrid:
    box = _parse_box(args.box, n) if args.box else None
    return default_grid(n, seed=args.seed, box=box, points_per_axis=args.points_per_axis)


def _make_tolerances(args) -> TolerancePolicy:
    given = {"zero_abs": args.tol_zero, "zero_rel": args.tol_zero, "constancy_rel": args.tol_const}
    return TolerancePolicy(**{name: v for name, v in given.items() if v is not None})


# ---------------------------------------------------------------------------
# Rendering (numbers via repr in both formats)
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv_lines(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _write(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_analyze(spec, table, fmt: str) -> str:
    """The (P, m) ``report_table`` as CSV, or as the JSON document that
    json.dumps(indent=2) gives for one record per row."""
    if fmt == "csv":
        return _csv_lines(report_header(spec.n), table.tolist())
    # The layout comes from json.dumps of the document with a slot for its
    # rows and of one record with a slot for each cell, and the cells are
    # json's own renderings; no key or value of the document renders as a slot.
    slot = json.dumps("\0")
    doc = {"schema_version": "1", "command": "analyze", "family": spec.family, "n": spec.n, "rows": ["\0"]}
    head, _, tail = json.dumps(doc, indent=2).rpartition(slot)
    indent = head[head.rindex("\n"):]
    record = json.dumps(report_record(spec.n, ["\0"] * table.shape[1]), indent=2)
    template = record.replace("\n", indent).replace("%", "%%").replace(slot, "%s")
    rows = json.dumps(table.tolist())[2:-2].split("], [")
    return head + ("," + indent).join(template % tuple(row.split(", ")) for row in rows) + tail + "\n"


def _render_classify(verdict: ClassificationVerdict, fmt: str) -> str:
    if fmt == "csv":
        n = verdict.n
        header = ["property", "holds", "worst_value", "threshold_used", "estimate"]
        header += [f"worst_x{i + 1}" for i in range(n)]
        rows = []
        for p in verdict.properties:
            rows.append(
                [p.name, p.holds, p.worst_value, p.threshold_used, p.estimate]
                + list(p.worst_point.coords)
            )
        return _csv_lines(header, rows)
    doc = {"command": "classify", **verdict.to_json_obj()}
    return json.dumps(doc, indent=2) + "\n"


def _render_verify(report, fmt: str) -> str:
    if fmt == "csv":
        header = ["fixture", "n", "check", "passed", "observed", "bound", "witness"]
        rows = []
        for r in report.results:
            witness = ":".join(repr(c) for c in r.witness.coords)
            rows.append([r.fixture, r.n, r.check, r.passed, r.observed, r.bound, witness])
        return _csv_lines(header, rows)
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
    except (_InputError, *INPUT_ERRORS) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except EVALUATION_ERRORS as e:
        print(f"evaluation error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
