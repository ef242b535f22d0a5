"""Mutant list: each entry is a deliberate bug that a named test file must catch.

    python tools/mutants.py    # run every mutant, one after another

Each entry is (id, file under src/prodgeo, exact source snippet,
replacement, test files).  For each entry the tool copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, replaces the
snippet there, runs ``pytest -x -q`` on the test files against that copy,
and prints ``caught`` when a test fails and ``SURVIVED`` when all pass;
any other outcome of pytest (a collection error, no tests) is an error.
A snippet that does not occur exactly once in its file is an error,
reported before any mutant runs, so the list cannot go stale unnoticed:
a change to the mutated code updates its entry too.  The exit status is 0
when every mutant is caught, 1 when one survives and 2 on an error.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MUTANTS = [
    (
        "expr/constant_key_without_sign",
        "expr.py",
        "key = (kind, parts[0], math.copysign(1.0, parts[0]))",
        "key = (kind, parts[0])",
        ["tests/test_program.py"],
    ),
    (
        "expr/register_freed_after_its_first_reader",
        "expr.py",
        "last[parts[0]] = last[parts[1]] = j",
        "last.setdefault(parts[0], j), last.setdefault(parts[1], j)",
        ["tests/test_program.py"],
    ),
    (
        "expr/register_freed_after_its_first_unary_reader",
        "expr.py",
        "last[parts[0]] = j\n",
        "last.setdefault(parts[0], j)\n",
        ["tests/test_program.py"],
    ),
    (
        "expr/children_walked_right_to_left",
        "expr.py",
        "for c in range(count):",
        "for c in reversed(range(count)):",
        ["tests/test_program.py"],
    ),
    (
        "expr/decoder_depth_bound_one_level_short",
        "expr.py",
        "def _decode(obj, depth: int) -> Expr:\n    if depth > MAX_DEPTH:",
        "def _decode(obj, depth: int) -> Expr:\n    if depth >= MAX_DEPTH:",
        ["tests/test_cli.py"],
    ),
    (
        "errors/domain_violation_is_an_input_error",
        "errors.py",
        "class DomainViolation(EvaluationError):",
        "class DomainViolation(InputError):",
        ["tests/test_cli.py"],
    ),
    (
        "classifier/grid_size_checked_after_the_box_is_built",
        "classifier.py",
        "    _check_counts(n, k, seed, SampleGrid.jitter_points)\n",
        "",
        ["tests/test_classifier.py"],
    ),
    (
        "expr/substitute_without_its_memo",
        "expr.py",
        "    if id(node) not in done:\n",
        "    if True:\n",
        ["tests/test_expr.py"],
    ),
    (
        "expr/program_equality_ignores_slots",
        "expr.py",
        'parts = operator.attrgetter("_out", "_code", "_slots")',
        'parts = operator.attrgetter("_out", "_code")',
        ["tests/test_catalog.py"],
    ),
    (
        "classifier/pass_without_per_part_split",
        "classifier.py",
        "        if len(parts) > 1:\n            for part in parts:",
        "        if False:\n            for part in parts:",
        ["tests/test_classifier.py"],
    ),
    (
        "classifier/each_fixture_reads_the_first_rows",
        "classifier.py",
        "columns[end - coords.shape[1] : end]",
        "columns[: coords.shape[1]]",
        ["tests/test_classifier.py"],
    ),
    (
        "classifier/pass_joins_its_blocks_in_reverse",
        "classifier.py",
        "_pass(block, indicators) for block in blocks]",
        "_pass(block, indicators) for block in reversed(blocks)]",
        ["tests/test_classifier.py"],
    ),
    (
        "classifier/k_noise_scaled_by_the_value",
        "classifier.py",
        "k_noise = np.prod(row_norms, axis=-1) / slope_power(jets, n + 2)",
        "k_noise = np.abs(jets.value) * np.prod(row_norms, axis=-1) / slope_power(jets, n + 2)",
        ["tests/test_metamorphic.py"],
    ),
    (
        "classifier/pair_noise_from_one_row",
        "classifier.py",
        "row_norms.T[i] * row_norms.T[k]",
        "row_norms.T[i] * row_norms.T[i]",
        ["tests/test_metamorphic.py"],
    ),
    (
        "classifier/catalog_fixtures_returns_the_shared_table",
        "classifier.py",
        "return list(_fixture_table())",
        "return _fixture_table()",
        ["tests/test_classifier.py"],
    ),
    (
        "classifier/fixture_grids_keyed_by_n_alone",
        "classifier.py",
        "@cache\ndef _fixture_coords(n: int, seed: int)",
        "@(lambda f, grids={}: lambda n, seed: grids[n] if n in grids else grids.setdefault(n, f(n, seed)))\n"
        "def _fixture_coords(n: int, seed: int)",
        ["tests/test_classifier.py"],
    ),
    (
        "classifier/point_field_written_as_its_object",
        "classifier.py",
        "        return list(v.coords)",
        '        return {"coords": list(v.coords)}',
        ["tests/test_cli.py"],
    ),
    (
        "cli/classify_point_columns_before_holds",
        "cli.py",
        '        header = ["property" if k == "name" else k for k in names]\n'
        '        header += [f"worst_x{i + 1}" for i in range(verdict.n)]\n'
        "        rows = [[getattr(p, k) for k in names] + list(p.worst_point.coords) for p in verdict.properties]",
        '        header = ["property", *(f"worst_x{i + 1}" for i in range(verdict.n)), *names[1:]]\n'
        "        rows = [[p.name, *p.worst_point.coords, *(getattr(p, k) for k in names[1:])] for p in verdict.properties]",
        ["tests/test_cli.py"],
    ),
    (
        "cli/distinct_cells_keyed_by_value",
        "cli.py",
        "np.unique(np.ravel(table).view(np.int64), return_inverse=True)",
        "np.unique(np.ravel(table), return_inverse=True)",
        ["tests/test_cli.py"],
    ),
    (
        "reports/geometry_report_without_the_point_helper",
        "reports.py",
        "    with at_point(p) as point:\n        return _record(GeometryReport,",
        "    for point in [Point(tuple(p))]:\n        return _record(GeometryReport,",
        ["tests/test_economics.py"],
    ),
    (
        "catalog/validate_mesh_in_fortran_order",
        "catalog.py",
        "(count,) * spec.n)",
        '(count,) * spec.n, order="F")',
        ["tests/test_catalog.py"],
    ),
    (
        "reports/hicks_declared_per_ordered_pair",
        "reports.py",
        'hicks: np.ndarray = field(metadata={"cells": _PER_PAIR})',
        'hicks: np.ndarray = field(metadata={"cells": _PER_ORDERED_PAIR})',
        ["tests/test_cli.py"],
    ),
    (
        "reports/value_without_its_f_key",
        "reports.py",
        'value: float = field(metadata={"json": "f"})',
        "value: float",
        ["tests/test_cli.py"],
    ),
    (
        "geometry/curvature_sample_computes_a_hicks_elasticity",
        "geometry.py",
        "        riemann.update((q, riemann_component(j, *q)) for q in extra_quads)\n",
        "        riemann.update((q, riemann_component(j, *q)) for q in extra_quads)\n"
        "        from .economics import hicks_elasticity\n"
        "        hicks_elasticity(j, point, 0, 1)\n",
        ["tests/test_geometry.py"],
    ),
    (
        "jets/reject_ignores_its_error_class",
        "jets.py",
        "raise error(message.format(",
        "raise DomainViolation(message.format(",
        ["tests/test_economics.py"],
    ),
    (
        "expr/chain_folds_from_the_right",
        "expr.py",
        "return functools.reduce(node, items)",
        "return functools.reduce(lambda acc, e: node(e, acc), reversed(items))",
        ["tests/test_expr.py"],
    ),
    (
        "linalg/ordered_pairs_as_columns_then_rows",
        "linalg.py",
        "return np.nonzero(~np.eye(n, dtype=bool))",
        "return np.nonzero(~np.eye(n, dtype=bool))[::-1]",
        ["tests/test_jets.py"],
    ),
]


def check(mutants) -> list[str]:
    """An error for each snippet that does not occur exactly once in its file."""
    errors = []
    for mutant_id, path, snippet, _, _ in mutants:
        with open(os.path.join(ROOT, "src", "prodgeo", path), encoding="utf-8") as f:
            count = f.read().count(snippet)
        if count != 1:
            errors.append(f"{mutant_id}: the snippet occurs {count} times in src/prodgeo/{path}, not once")
    return errors


def run(mutant) -> tuple[int, float]:
    """pytest's exit status on ``mutant``, and the seconds it took."""
    _, path, snippet, replacement, tests = mutant
    with tempfile.TemporaryDirectory(prefix="prodgeo-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        target = os.path.join(tmp, "src", "prodgeo", path)
        with open(target, encoding="utf-8") as f:
            source = f.read()
        with open(target, "w", encoding="utf-8") as f:
            f.write(source.replace(snippet, replacement))
        # The copy is the rootdir: its pyproject.toml puts its own src/ first on the path.
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        # A failing hypothesis example is not shrunk: only whether a test fails counts.
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--rootdir", tmp]
        argv += ["--hypothesis-profile=no-shrink", *tests]
        start = time.perf_counter()
        result = subprocess.run(argv, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return result.returncode, time.perf_counter() - start


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    if errors := check(MUTANTS):
        print("\n".join(f"error: {e}" for e in errors), file=sys.stderr)
        return 2
    statuses = []
    for mutant in MUTANTS:
        status, seconds = run(mutant)
        statuses.append(status)
        outcome = {0: "SURVIVED", 1: "caught"}.get(status, f"error (pytest exit status {status})")
        print(f"{mutant[0]} {outcome} ({seconds:.1f} s)", flush=True)
    print(f"{statuses.count(1)} of {len(MUTANTS)} mutants caught")
    return 0 if set(statuses) <= {1} else 1 if set(statuses) <= {0, 1} else 2


if __name__ == "__main__":
    sys.exit(main())
