"""Parity battery: a fixed list of CLI and library cases, one output line each.

    python tools/parity.py                # run the cases on this tree's src/
    python tools/parity.py --against DIR  # run this tree and DIR, list the cases that differ

Every case runs in one interpreter, in process:

* a CLI case calls ``prodgeo.cli.main(argv)`` with stdin, stdout and
  stderr redirected, and prints ``<id> stdout=<sha256> stderr=<sha256>
  exit=<code>``;
* a library case calls the library with RuntimeWarnings raised as errors,
  as the test suite does, and prints ``<id> <repr>`` of its result or
  error, or ``<id> sha256=<digest>`` of that repr when it is longer than
  200 characters.  Arrays and numpy scalars are shown as Python floats, so
  the repr has every bit.

``--against DIR`` runs the battery in a fresh interpreter on each tree's
``src/``, prints the id of every case whose line differs, and exits 1 if
any does.  The cases come from this file and ``bench/specgen.py`` of this
tree in both runs.  A case id given twice stops the battery before its
first case runs.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (id, family, params) of the catalog functions the CLI and library cases use.
FAMILIES = [
    ("cobb_douglas_k0.4_0.6", "cobb_douglas", "A=1,k=0.4:0.6"),
    ("cobb_douglas_k0.7_0.7_A1", "cobb_douglas", "A=1,k=0.7:0.7"),
    ("cobb_douglas_k0.7_0.7_A1e-6", "cobb_douglas", "A=1e-6,k=0.7:0.7"),
    ("cobb_douglas_k0.7_0.7_A1e100", "cobb_douglas", "A=1e100,k=0.7:0.7"),
    ("cobb_douglas_k0.2_0.3_0.4", "cobb_douglas", "A=1,k=0.2:0.3:0.4"),
    ("cobb_douglas_A1e13", "cobb_douglas", "A=1e13,k=0.4:0.6"),
    ("cobb_douglas_A1e100_k1_1", "cobb_douglas", "A=1e100,k=1:1"),
    ("cobb_douglas_A1e200_k1_1", "cobb_douglas", "A=1e200,k=1:1"),
    ("spillman", "spillman", "A=1,a=1:1"),
    ("acms_3in", "acms", "A=1,k=1:0.5:0.25,rho=2,gamma=1"),
    ("acms_6in", "acms", "A=1.2,k=1:0.5:0.25:0.7:0.9:0.4,rho=2,gamma=1.5"),
    ("transcendental", "transcendental", "A=1.1,a=0.5:0.3,b=0.2:-0.3"),
]


#: The catalog fixtures whose Hicks denominator vanishes everywhere: the
#: straight isoquants of two pure exponential factors.
DEGENERATE_DENOMINATOR_FIXTURES = [
    f"{name}_{n}in"
    for n in (2, 3)
    for name in ("exp_of_linear", "squared_exponential_product", "transcendental_two_pure_exponentials",
                 "transcendental_flat_exponential")
]


def _interior(n: int) -> tuple[float, ...]:
    """A point inside the default box [0.5, 2]^n with distinct coordinates,
    none of them 1."""
    return tuple(round(0.8 + 0.15 * i, 2) for i in range(n))


def _document(n: int, *terms) -> str:
    """The spec document of the sum of ``terms``, prefix arrays over n inputs."""
    body = terms[0]
    for term in terms[1:]:
        body = ["add", body, term]
    return json.dumps({"n": n, "family": "custom", "body": body})


def _sqrt_of_shift(c: float, i: int) -> list:
    return ["pow", ["add", ["const", c], ["neg", ["var", i]]], 0.5]


def _saturating_document() -> str:
    """F(g1(x1) g2(x2)) with F(u) = u^0.7 / (1.5 + u^0.7) and g_i(x) =
    exp(0.3 x) x^1.5 / (2 + x^1.5): every power occurs twice, as two
    equal copies in the document."""

    def saturate(e, c):
        return ["div", e, ["add", ["const", c], e]]

    def inner(i):
        return ["mul", ["exp", ["mul", ["const", 0.3], ["var", i]]], saturate(["pow", ["var", i], 1.5], 2.0)]

    return json.dumps({
        "n": 2,
        "family": "quasi_product",
        "body": saturate(["pow", ["mul", inner(0), inner(1)], 0.7], 1.5),
        "outer": saturate(["pow", ["var", 0], 0.7], 1.5),
        "inners": [inner(0), inner(1)],
    })


#: (id, spec document) of the custom functions given on stdin.
DOCUMENTS = [
    # (1.5 - x1)^0.5 + exp(-40 x2): classify and analyze name the same first failing point
    ("sqrt_and_exp", _document(2, _sqrt_of_shift(1.5, 0), ["exp", ["mul", ["const", -40], ["var", 1]]])),
    # x1^0.5 + ... + x6^0.5 + (1.69 - x1)^0.5: a late jets failure on the 4,128-point grid
    ("late_failure_6in", _document(6, *(["pow", ["var", i], 0.5] for i in range(6)), _sqrt_of_shift(1.69, 0))),
    # an integer literal beyond the float range
    ("huge_integer_literal", '{"n": 2, "family": "custom", "body": ["const", 1' + "0" * 400 + "]}"),
    # x1^0.5 + x2 + x3 + 1: Hicks(2, 3) and the bordered determinant fail everywhere; analyze reports the
    # determinant, checked after Hicks(1, 2), and classify, which has no Allen elasticities, Hicks(2, 3)
    ("hicks_then_bordered_3in", _document(3, ["pow", ["var", 0], 0.5], ["var", 1], ["var", 2], ["const", 1])),
    # repeated subtrees, evaluated once per run by the compiled program
    ("repeated_subtrees", _saturating_document()),
]


def cli_cases():
    """(id, argv, stdin) of every CLI case."""
    cases = []
    for fmt in ("json", "csv"):
        for command in ("classify", "analyze"):
            for name, family, params in FAMILIES:
                argv = [command, "--family", family, "--params", params, "--format", fmt]
                cases.append((f"cli/{command}/{name}/{fmt}", argv, ""))
            for name, doc in DOCUMENTS:
                cases.append((f"cli/{command}/{name}/{fmt}", [command, "--spec", "-", "--format", fmt], doc))
        for tol in ("default", "1e-20", "1e-3"):
            argv = ["verify", "--format", fmt] + (["--tol-zero", tol] if tol != "default" else [])
            cases.append((f"cli/verify/tol_zero_{tol}/{fmt}", argv, ""))
    cd = ["--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6"]
    for name, argv in [
        ("unknown_parameter", ["classify", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6,zzz=3"]),
        ("box_reversed", ["classify", *cd, "--box", "2:1"]),
        ("box_ratio_overflows", ["classify", *cd, "--box", "1e-300:1e300"]),
        ("box_subnormal", ["classify", *cd, "--box", "5e-324:1e-323"]),
        ("box_below_normal", ["classify", *cd, "--box", "1e-310:1e-300"]),
        ("spillman_wide_box", ["analyze", "--family", "spillman", "--params", "A=1,a=1:1", "--box", "0.1:10"]),
        ("points_per_axis_3", ["classify", *cd, "--points-per-axis", "3", "--seed", "5", "--format", "csv"]),
        ("tol_const", ["classify", "--family", "spillman", "--params", "A=1,a=1:1", "--tol-const", "0.5"]),
        ("no_function", ["classify"]),
        ("unknown_family", ["classify", "--family", "nope"]),
        # a relative path: its message is the same wherever the tree is checked out
        ("out_missing_directory", ["classify", *cd, "--out", os.path.join("no-such-directory", "x.json")]),
    ]:
        cases.append((f"cli/input/{name}", argv, ""))
    # JSON true is not the variable index 1
    cases.append(("cli/input/var_true", ["classify", "--spec", "-"], _document(2, ["var", 0], ["var", True])))
    # a body one level deeper than the bound
    deep = json.loads('["neg", ' * 200 + '["var", 0]' + "]" * 200)
    cases.append(("cli/input/body_201_levels", ["classify", "--spec", "-"], _document(1, deep)))
    # grids past the cap, checked before a box of n axes is built or broadcast
    for n in (17, 100_000, 10**21):
        for command in ("classify", "analyze"):
            for box in ([], ["--box", "0.5:2"]):
                case_id = f"cli/input/n_{n}/{command}" + ("/box" if box else "")
                cases.append((case_id, [command, "--spec", "-", *box], _document(n, ["var", 0])))
    return cases


def library_cases():
    """(id, thunk) of every library case."""
    import specgen

    from prodgeo import (
        build_family,
        build_quasi_product,
        classify,
        curvature_sample,
        default_grid,
        estimate_sigma,
        evaluate,
        geometry_report,
        jet,
        quasi_product_hessian_det,
        spec_from_json,
        spec_to_json,
        validate,
        verify_catalog,
    )
    from prodgeo.catalog import FunctionSpec
    from prodgeo.classifier import SampleGrid, TolerancePolicy, catalog_fixtures
    from prodgeo.cli import _FAMILY_ALIASES, _parse_params
    from prodgeo.economics import (
        allen_determinant,
        allen_elasticity,
        hicks_elasticity,
        mrs,
        output_elasticity,
        substitution_sample,
    )
    from prodgeo.expr import Add, Const, Div, Exp, Ln, Mul, Neg, Pow, Var, eval_expr, sum_chain
    from prodgeo.geometry import hessian_determinant
    from prodgeo.jets import grid_jet, univariate_jet
    from prodgeo.reports import report_table

    cases = [
        ("verify_catalog/default", verify_catalog),
        ("verify_catalog/tol_zero_1e-20", lambda: verify_catalog(TolerancePolicy(zero_abs=1e-20, zero_rel=1e-20))),
        ("verify_catalog/tol_zero_1e-3", lambda: verify_catalog(TolerancePolicy(zero_abs=1e-3, zero_rel=1e-3))),
    ]
    for name, family, params in FAMILIES:
        spec = build_family(_FAMILY_ALIASES.get(family, family), _parse_params(params))
        cases.append((f"classify/{name}", lambda s=spec: classify(s, default_grid(s.n))))
        cases.append((f"estimate_sigma/{name}", lambda s=spec: estimate_sigma(s, default_grid(s.n))))
    # The per-point records at one interior point of each function, and the
    # curvature record where the substitution indicators are undefined.
    for name, family, params in FAMILIES:
        spec = build_family(_FAMILY_ALIASES.get(family, family), _parse_params(params))
        p = _interior(spec.n)
        cases += [
            (f"records/{name}/geometry_report", lambda s=spec, p=p: geometry_report(s, p)),
            (f"records/{name}/curvature_sample", lambda s=spec, p=p: curvature_sample(s, p, extra_quads=[(0, 1, 0, 1)])),
            (f"records/{name}/substitution_sample", lambda s=spec, p=p: substitution_sample(jet(s, p), p)),
        ]
    for fixture in catalog_fixtures():
        if fixture.name in DEGENERATE_DENOMINATOR_FIXTURES:
            p = _interior(fixture.spec.n)
            cases.append((f"records/{fixture.name}/curvature_sample", lambda s=fixture.spec, p=p: curvature_sample(s, p)))
    for a in range(-12, 13, 2):
        if a == -6:
            continue  # FAMILIES has this spec, as cobb_douglas_k0.7_0.7_A1e-6
        spec = build_family("cobb_douglas", {"A": 10.0**a, "k": (0.7, 0.7)})
        cases.append((f"classify/cobb_douglas_k0.7_0.7_A1e{a}", lambda s=spec: classify(s, default_grid(2))))
    for index in range(30):
        inp = specgen.spec_input(0, index)
        spec = spec_from_json(inp.doc)
        cases.append((f"specgen/{index}/validate", lambda s=spec: validate(s, [specgen.BOX] * s.n)))
        for k, p in enumerate(inp.probes):
            cases.append((f"specgen/{index}/jet/{k}", lambda s=spec, p=p: jet(s, p)))
            cases.append((f"specgen/{index}/evaluate/{k}", lambda s=spec, p=p: evaluate(s, p)))
            if inp.composite:
                cases.append((f"specgen/{index}/qp_det/{k}", lambda s=spec, p=p: quasi_product_hessian_det(s, p)))

    overflowing = FunctionSpec(2, (Const(1e300) * Var(0)) * (Const(1e300) * Var(1)))
    huge_a = build_family("cobb_douglas", {"A": 1e200, "k": (1.0, 1.0)})

    def huge_a_jet():
        return jet(huge_a, (1.0, 1.0))

    ln_region = [(0.5, 4.0)] + [(0.5, 2.0)] * 7
    # x1^0.5 + ... + x6^0.5 + (1.6 - x1)^0.5 fails first at point 3,072 of the
    # 4,128-point grid, in the third block of grid_jet's propagation.
    third_block = FunctionSpec(6, sum_chain([Pow(Var(i), 0.5) for i in range(6)] + [Pow(Const(1.6) - Var(0), 0.5)]))
    # x1 * f_1 = x1 * x2 underflows to zero at one point as on a grid
    underflow = FunctionSpec(2, 1 + Var(0) * Var(1))
    tiny, tiny_grid = (1e-200, 1e-200), SampleGrid(((1e-200, 2e-200),) * 2, points_per_axis=2, jitter_points=0)
    acms_8in = build_family("acms", {"A": 1.0, "k": (1.0, 0.5, 0.25, 0.8, 0.6, 0.4, 0.9, 0.3), "rho": 2.0, "gamma": 1.0})
    cases += [
        ("repro/evaluate_nonpositive", lambda: evaluate(FunctionSpec(2, Var(0) - Var(1)), (1.0, 2.0))),
        ("repro/evaluate_non_finite", lambda: evaluate(FunctionSpec(2, Const(1e300) * Var(0) * Var(1)), (1e10, 1e10))),
        ("repro/jet_division_by_zero", lambda: jet(FunctionSpec(2, Div(Var(0) + Var(1), Const(0.0))), (1.0, 1.0))),
        ("repro/jet_overflow", lambda: jet(overflowing, (1e-300, 1e-300))),
        ("repro/geometry_report_overflow", lambda: geometry_report(overflowing, (1e-300, 1e-300))),
        ("repro/qp_det_A1e200", lambda: quasi_product_hessian_det(huge_a, (1.0, 1.0))),
        ("repro/hessian_determinant_A1e200", lambda: hessian_determinant(huge_a_jet())),
        ("repro/allen_determinant_A1e200", lambda: allen_determinant(huge_a_jet())),
        ("repro/allen_elasticity_A1e200", lambda: allen_elasticity(huge_a_jet(), (1.0, 1.0), 0, 1)),
        (
            "repro/classify_near_zero_elasticity",
            lambda: classify(build_family("cobb_douglas", {"A": 1.0, "k": (1e-10, 0.5)}), default_grid(2)),
        ),
        (
            "repro/validate_overflow",
            lambda: validate(build_quasi_product(Pow(Var(0), 3.0), [Pow(Var(0), 60.0)] * 2), [(0.5, 200.0)] * 2),
        ),
        (
            "repro/validate_tiny_A",
            lambda: validate(build_family("cobb_douglas", {"A": 1e-13, "k": (0.4, 0.6)}), [(0.5, 2.0)] * 2),
        ),
        (
            "repro/validate_pow_zero",
            lambda: validate(
                build_quasi_product(Pow(Mul(Const(1e-300), Var(0)), 0.5) + 1, [Pow(Var(0), 0.0)] * 2), [(0.5, 2.0)] * 2
            ),
        ),
        (
            "repro/validate_ln_8in",
            lambda: validate(FunctionSpec(8, sum_chain([Ln(Const(3.0) - Var(0))] + [Var(i) for i in range(1, 8)])), ln_region),
        ),
        ("repro/classify_third_block_failure_6in", lambda: classify(third_block, default_grid(6))),
        ("repro/grid_jet_third_block_failure_6in", lambda: grid_jet(third_block, default_grid(6).coords())),
        ("repro/univariate_jet_pow_overflow", lambda: univariate_jet(Pow(Var(0), -0.5), np.array([1e-200, 1e-300]))),
        (
            "repro/qp_det_A1e150",
            lambda: quasi_product_hessian_det(
                build_family("cobb_douglas", {"A": 1e150, "k": (0.7, 0.7)}), (1e-10, 1e-10)
            ),
        ),
        ("repro/validate_acms_8in", lambda: validate(acms_8in, [(0.5, 2.0)] * 8)),
        ("repro/default_grid_n_1e21", lambda: default_grid(10**21)),
        ("repro/grid_subnormal", lambda: SampleGrid(box=((5e-324, 1e-323), (1.0, 2.0)), jitter_points=1).points()),
        ("repro/hicks_underflow_point", lambda: hicks_elasticity(jet(underflow, tiny), tiny, 0, 1)),
        ("repro/substitution_sample_underflow_point", lambda: substitution_sample(jet(underflow, tiny), tiny)),
        ("repro/geometry_report_underflow_point", lambda: geometry_report(underflow, tiny)),
        ("repro/report_table_underflow_grid", lambda: report_table(underflow, tiny_grid)),
        ("repro/estimate_sigma_underflow_grid", lambda: estimate_sigma(underflow, tiny_grid)),
        # Support-aware jets: the partial of an unused input is +0.0, and a
        # structural zero is embedded as +0.0 where a dense jet held -0.0.
        ("support/jet_3_minus_x1", lambda: jet(FunctionSpec(2, 3 - Var(0)), (1.0, 2.0))),
        (
            "support/jet_reciprocal_overflowing_product_3in",
            lambda: jet(FunctionSpec(3, 1 + Div(Const(1.0), Mul(Var(0), Var(1)))), (1e200, 1e200, 1.0)),
        ),
        (
            "support/jet_zero_times_x2_times_minus_x1",
            lambda: jet(FunctionSpec(2, 1 + Mul(Mul(Var(1), Const(0.0)), Neg(Var(0)))), (1.0, 2.0)),
        ),
    ]
    # Repeated subtrees: equal copies from a document, one shared object,
    # signed zero constants side by side, and errors inside a repeated subtree.
    saturating = spec_from_json(_saturating_document())
    cases.append(("shared/saturating/validate", lambda: validate(saturating, [(0.5, 2.0)] * 2)))
    for k, p in enumerate(((0.7, 1.3), (1.9, 0.6), (1e-3, 40.0))):
        cases += [
            (f"shared/saturating/jet/{k}", lambda p=p: jet(saturating, p)),
            (f"shared/saturating/evaluate/{k}", lambda p=p: evaluate(saturating, p)),
            (f"shared/saturating/qp_det/{k}", lambda p=p: quasi_product_hessian_det(saturating, p)),
        ]
    log_shift = Ln(Const(2.0) - Var(0))
    one_object = FunctionSpec(2, Div(log_shift, Add(Const(1.5), log_shift)) + Var(1))
    copies = spec_from_json(spec_to_json(one_object))
    for name, spec in (("one_object", one_object), ("copies", copies)):
        cases += [
            (f"shared/{name}/jet_fails", lambda s=spec: jet(s, (2.5, 1.0))),
            (f"shared/{name}/jet", lambda s=spec: jet(s, (0.5, 1.0))),
            (f"shared/{name}/validate", lambda s=spec: validate(s, [(0.5, 3.0)] * 2)),
            (f"shared/{name}/grid_jet_fails", lambda s=spec: grid_jet(s, default_grid(2, box=((0.5, 3.0),) * 2).coords())),
        ]
    for a, b in ((0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)):
        zeros = FunctionSpec(2, 1 + Add(Mul(Var(0), Const(a)), Mul(Var(0), Const(b))) * Var(1))
        cases += [
            (f"shared/zero_siblings_{a}_{b}/sum", lambda a=a, b=b: eval_expr(Add(Const(a), Const(b)), [])),
            (f"shared/zero_siblings_{a}_{b}/jet", lambda s=zeros: jet(s, (1.0, 2.0))),
        ]
    cases += [
        ("shared/order/ln_before_var", lambda: eval_expr(Add(Ln(Const(-1.0)), Var(5)), [1.0])),
        ("shared/order/var_before_ln", lambda: eval_expr(Add(Var(5), Ln(Const(-1.0))), [1.0])),
        ("repro/geometry_report_exp_overflow_point", lambda: geometry_report(FunctionSpec(2, Exp(Var(0)) + Var(1)), (708.92, 1.19))),
    ]
    from prodgeo.geometry import riemann_component, sectional_curvature
    from prodgeo.linalg import det_pivoted

    for name, stack in _det_stacks():
        cases.append((f"det_pivoted/{name}", lambda a=stack: det_pivoted(a)))
        cases.append((f"det_pivoted/{name}/first", lambda a=stack: det_pivoted(a[0])))
    acms_6in = build_family("acms", _parse_params(dict((f[0], f[2]) for f in FAMILIES)["acms_6in"]))
    i, k = np.triu_indices(6, 1)
    oi, ok = np.nonzero(~np.eye(6, dtype=bool))
    coords_6in = default_grid(6).coords()
    acms_6in_jet = grid_jet(acms_6in, coords_6in)

    cases += [
        ("pairwise/sectional_acms_6in", lambda: sectional_curvature(acms_6in_jet, i, k)),
        ("pairwise/sectional_acms_6in_reversed", lambda: sectional_curvature(acms_6in_jet, k, i)),
        ("pairwise/riemann_acms_6in", lambda: riemann_component(acms_6in_jet, i, k, k, i)),
        ("pairwise/riemann_acms_6in_ikik", lambda: riemann_component(acms_6in_jet, i, k, i, k)),
        ("pairwise/output_elasticity_acms_6in", lambda: output_elasticity(acms_6in_jet, coords_6in, np.arange(6))),
        ("pairwise/mrs_acms_6in", lambda: mrs(acms_6in_jet, oi, ok)),
        ("pairwise/hicks_acms_6in", lambda: hicks_elasticity(acms_6in_jet, coords_6in, i, k)),
        ("pairwise/hicks_acms_6in_reversed", lambda: hicks_elasticity(acms_6in_jet, coords_6in, k, i)),
    ]
    return cases


def _det_stacks():
    """(id, stack) of fixed edge stacks for ``det_pivoted``, for m = 1..7: tied
    |pivots| of both signs, a repeated row, a zero column, -0.0, inf and
    NaN entries, and seeded random matrices."""
    rng = np.random.default_rng(15)
    stacks = []
    for m in range(1, 8):
        tied = np.tile(np.where(np.arange(m) % 2, -2.0, 2.0), (m, 1)).T + np.diag(np.arange(m) * 0.5)
        repeated = rng.standard_normal((m, m))
        repeated[-1] = repeated[0]
        zero_column = rng.standard_normal((m, m))
        zero_column[:, m // 2] = 0.0
        negative_zero = np.where(rng.random((m, m)) < 0.5, -0.0, rng.integers(-2, 3, (m, m)).astype(float))
        with_inf, with_nan = rng.standard_normal((2, m, m))
        with_inf[m // 2, m - 1] = -np.inf
        with_nan[m - 1, 0] = np.nan
        stack = np.array([tied, repeated, zero_column, negative_zero, with_inf, with_nan, *rng.standard_normal((4, m, m))])
        stacks += [
            (f"m{m}", stack),
            (f"m{m}_points_last", np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 0, -1)), -1, 0)),
            (f"m{m}_integers", rng.integers(-3, 4, (12, m, m))),
        ]
    return stacks


def _canonical(x):
    """``x`` as plain Python values: dataclasses by field, arrays as nested
    lists, numpy scalars as Python numbers."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        fields = (f"{f.name}={_canonical(getattr(x, f.name))}" for f in dataclasses.fields(x))
        return f"{type(x).__name__}({', '.join(fields)})"
    if isinstance(x, np.ndarray):
        return _canonical(x.tolist())
    if isinstance(x, np.generic):
        return repr(x.item())
    if isinstance(x, (list, tuple)):
        items = ", ".join(_canonical(v) for v in x)
        return f"[{items}]" if isinstance(x, list) else f"({items})"
    return repr(x)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv, stdin: str) -> str:
    from prodgeo.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        # A fresh filter list forgets which warnings were shown, as a new process would.
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("default")
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:  # a traceback in a real run
                print(f"Traceback: {type(e).__name__}: {e}", file=sys.stderr)
                code = 1
    finally:
        sys.stdin = saved_stdin
    return f"stdout={_sha(out.getvalue())} stderr={_sha(err.getvalue())} exit={code}"


def run_library(thunk) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            text = _canonical(thunk())
        except Exception as e:
            text = f"raises {type(e).__name__}({str(e)!r}, point={_canonical(getattr(e, 'point', None))})"
    return text if len(text) <= 200 else f"sha256={_sha(text)}"


def battery(src: str):
    """Run every case on the prodgeo in ``src`` and print its line."""
    sys.dont_write_bytecode = True  # leave both trees as they are
    sys.path[:0] = [src, os.path.join(ROOT, "bench")]
    import prodgeo

    if not os.path.abspath(prodgeo.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"error: prodgeo was imported from {prodgeo.__file__}, not {src}")
    cli, library = cli_cases(), [(f"lib/{case_id}", thunk) for case_id, thunk in library_cases()]
    counts = collections.Counter(case[0] for case in cli + library)
    if duplicates := [case_id for case_id, count in counts.items() if count > 1]:
        sys.exit(f"error: duplicate case ids: {', '.join(duplicates)}")
    for case_id, argv, stdin in cli:
        print(case_id, run_cli(argv, stdin))
    for case_id, thunk in library:
        print(case_id, run_library(thunk))


def _lines(src: str) -> dict[str, str]:
    run = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src], capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"error: the battery failed on {src}:\n{run.stderr}")
    return dict(line.split(" ", 1) for line in run.stdout.splitlines())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src/ directory to import prodgeo from")
    parser.add_argument("--against", metavar="DIR", help="another checkout to compare this tree with")
    args = parser.parse_args()
    if not args.against:
        battery(args.src)
        return 0
    mine, theirs = _lines(os.path.join(ROOT, "src")), _lines(os.path.join(args.against, "src"))
    differ = [case_id for case_id in {**mine, **theirs} if mine.get(case_id) != theirs.get(case_id)]
    for case_id in differ:
        print(case_id)
    print(f"{len(differ)} of {len(mine)} cases differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
