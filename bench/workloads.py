"""The benchmark workloads.

Each workload makes its inputs from the seed, says how many sample points
one op processes, runs one op through a namespace of public prodgeo
functions (plain or traced), and checks the op's output against an oracle
that does not use the code under test: values fixed by theory, closed
forms, or the reference evaluator in ``specgen``.

Only the standard library is imported at module level, so a fresh
interpreter that imports this module pays for prodgeo only when a
workload's ``ready`` imports it.
"""

from __future__ import annotations

import json
import math
import os
from types import SimpleNamespace

# The public prodgeo functions an op may call, and the module each comes from.
API_FUNCTIONS = {
    "main": "prodgeo.cli",
    "classify": "prodgeo",
    "default_grid": "prodgeo",
    "build_family": "prodgeo",
    "spec_from_json": "prodgeo",
    "validate": "prodgeo",
    "jet": "prodgeo",
    "evaluate": "prodgeo",
    "quasi_product_hessian_det": "prodgeo",
}


def plain_api() -> SimpleNamespace:
    """The untraced public functions."""
    import importlib

    return SimpleNamespace(
        **{name: getattr(importlib.import_module(mod), name) for name, mod in API_FUNCTIONS.items()}
    )


class Workload:
    """One op of a closed loop: the next op starts when this one returns."""

    name = ""

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir

    def ready(self, api) -> None:
        """Build what the first op needs beyond the imported package."""

    def make_input(self, index: int):
        """Input of op ``index``; made outside the timed region."""
        return index

    def points(self, inp) -> int:
        """Sample points one op processes."""
        raise NotImplementedError

    def run(self, api, inp):
        raise NotImplementedError

    def check(self, inp, result) -> list[str]:
        """Oracle failures of one op; empty when the output is correct."""
        raise NotImplementedError

    def bytes_out(self) -> int:
        """Bytes the last op wrote through the command line, if any."""
        return 0


class _CliWorkload(Workload):
    def __init__(self, seed: int, tmpdir: str):
        super().__init__(seed, tmpdir)
        self.out = os.path.join(tmpdir, f"{self.name}.json")

    def bytes_out(self) -> int:
        return os.path.getsize(self.out) if os.path.exists(self.out) else 0

    def _read(self, rc: int):
        if rc != 0:
            return None, [f"exit code {rc}"]
        with open(self.out, encoding="utf-8") as fh:
            try:
                return json.load(fh), []
            except json.JSONDecodeError as e:
                return None, [f"output does not parse: {e}"]


# ---------------------------------------------------------------------------
# verify_suite
# ---------------------------------------------------------------------------

# The classification statements of the paper as (fixture, check) pairs,
# for two and three inputs.  The square root of a product has constant
# return to scale only for two inputs.
_VERIFY_CHECKS = {
    "exp_of_linear": ("flat", "vanishing_gk"),
    "sqrt_of_product": ("flat", "vanishing_sectional"),
    "cobb_douglas_constant_return": ("vanishing_gk",),
    "log_outer_with_exponential_factor": ("vanishing_gk",),
    "squared_exponential_product": ("vanishing_gk",),
    "armington_constant_return": ("vanishing_gk",),
    "log_of_exponential_sum": ("vanishing_gk",),
    "cobb_douglas_increasing_return": ("nonvanishing_gk",),
    "spillman": ("nonvanishing_gk", "nonflat_everywhere"),
    "transcendental_constant_return": ("vanishing_gk",),
    "transcendental_two_pure_exponentials": ("vanishing_gk",),
    "transcendental_flat_exponential": ("flat",),
    "transcendental_flat_sqrt": ("flat",),
}
VERIFY_EXPECTED = frozenset(
    (f"{fixture}_{n}in", check)
    for n in (2, 3)
    for fixture, checks in _VERIFY_CHECKS.items()
    for check in checks + (("vanishing_gk",) if fixture == "sqrt_of_product" and n == 2 else ())
)
# Each of the 13 fixtures per input count runs on the default grid:
# 7 points per axis and 32 jitter points.
VERIFY_POINTS = 13 * (7**2 + 32) + 13 * (7**3 + 32)


class VerifySuite(_CliWorkload):
    """``prodgeo verify``: the paper-reproduction command.  The suite is
    fixed by the paper, so the seed changes nothing."""

    name = "verify_suite"

    def points(self, inp) -> int:
        return VERIFY_POINTS

    def run(self, api, inp):
        return api.main(["verify", "--format", "json", "--out", self.out])

    def check(self, inp, rc) -> list[str]:
        doc, failures = self._read(rc)
        if doc is None:
            return failures
        seen = {(r["fixture"], r["check"]): r["passed"] for r in doc["results"]}
        if set(seen) != VERIFY_EXPECTED:
            failures.append(f"expectations differ: {sorted(set(seen) ^ VERIFY_EXPECTED)}")
        failures += [f"{fx}/{check} failed" for (fx, check), ok in sorted(seen.items()) if not ok]
        if doc["all_passed"] is not True:
            failures.append("all_passed is not true")
        return failures


# ---------------------------------------------------------------------------
# classify_n6
# ---------------------------------------------------------------------------

ACMS_N6 = {"A": 1.0, "k": (1.0, 0.5, 0.25, 0.8, 0.6, 0.4), "rho": 2.0, "gamma": 1.0}
# 4 points per axis beyond three inputs, and 32 jitter points.
CLASSIFY_POINTS = 4**6 + 32
# Linear homogeneous CES with rho = 2: K vanishes and the Hicks elasticity
# is the constant 1 / (1 - rho); nothing else of the list holds.
_CLASSIFY_HOLDS = {"vanishing_gk": True, "ces": True, "flat": False, "minimal": False,
                   "vanishing_sectional": False, "proportional_mrs": False}
_CLASSIFY_HOLDS.update({f"constant_elasticity_x{i + 1}": False for i in range(6)})


class ClassifyN6(Workload):
    """``classify`` of a six-input ACMS function on the default grid."""

    name = "classify_n6"

    def ready(self, api) -> None:
        self.spec = api.build_family("acms", ACMS_N6)

    def points(self, inp) -> int:
        return CLASSIFY_POINTS

    def run(self, api, index):
        return api.classify(self.spec, api.default_grid(6, seed=self.seed + index))

    def check(self, index, verdict) -> list[str]:
        got = {p.name: p for p in verdict.properties}
        if set(got) != set(_CLASSIFY_HOLDS):
            return [f"properties differ: {sorted(set(got) ^ set(_CLASSIFY_HOLDS))}"]
        failures = [
            f"{name} holds={got[name].holds}, expected {holds}"
            for name, holds in _CLASSIFY_HOLDS.items()
            if got[name].holds is not holds
        ]
        sigma = 1.0 / (1.0 - ACMS_N6["rho"])
        if not abs(got["ces"].estimate - sigma) <= 1e-9:
            failures.append(f"ces estimate {got['ces'].estimate!r}, expected {sigma!r}")
        return failures


# ---------------------------------------------------------------------------
# analyze_n3
# ---------------------------------------------------------------------------

ANALYZE_A = 1.0
ANALYZE_K = (0.2, 0.3, 0.4)
# 7 points per axis up to three inputs, and 32 jitter points.
ANALYZE_POINTS = 7**3 + 32


class AnalyzeN3(_CliWorkload):
    """``prodgeo analyze`` of a three-input Cobb-Douglas function."""

    name = "analyze_n3"

    def points(self, inp) -> int:
        return ANALYZE_POINTS

    def run(self, api, index):
        k = ":".join(repr(v) for v in ANALYZE_K)
        return api.main([
            "analyze", "--family", "cobb_douglas", "--params", f"A={ANALYZE_A!r},k={k}",
            "--seed", str(self.seed + index), "--format", "json", "--out", self.out,
        ])

    def check(self, index, rc) -> list[str]:
        doc, failures = self._read(rc)
        if doc is None:
            return failures
        rows = doc["rows"]
        if len(rows) != ANALYZE_POINTS:
            failures.append(f"{len(rows)} rows, expected {ANALYZE_POINTS}")
        for r in rows:
            x = r["point"]
            # Cobb-Douglas: every Hicks and Allen elasticity is 1 and the
            # output elasticity of x_i is k_i.
            ones = list(r["hicks"].values()) + list(r["allen"].values())
            if len(ones) != 6 or any(not abs(v - 1.0) <= 1e-9 for v in ones):
                failures.append(f"hicks/allen not 1 at {x}")
            for i, k in enumerate(ANALYZE_K):
                if not abs(r["elasticity"][f"x{i + 1}"] - k) <= 1e-9:
                    failures.append(f"elasticity_x{i + 1} != {k} at {x}")
            f = ANALYZE_A * math.prod(xi**k for xi, k in zip(x, ANALYZE_K))
            if not abs(r["f"] - f) <= 1e-12 * f:
                failures.append(f"f = {r['f']!r}, expected {f!r} at {x}")
        return failures


# ---------------------------------------------------------------------------
# specs_pointwise
# ---------------------------------------------------------------------------

# prodgeo.validate samples 5 points per axis (its documented mesh).
VALIDATE_POINTS_PER_AXIS = 5


def _det(m) -> float:
    """Determinant of a 2x2 or 3x3 matrix by cofactor expansion."""
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


class SpecsPointwise(Workload):
    """A stream of fresh custom spec documents, a few points each."""

    name = "specs_pointwise"

    def make_input(self, index: int):
        import specgen

        return specgen.spec_input(self.seed, index)

    def points(self, inp) -> int:
        return VALIDATE_POINTS_PER_AXIS**inp.n + len(inp.probes)

    def run(self, api, inp):
        spec = api.spec_from_json(inp.doc)
        findings = api.validate(spec, [(0.5, 2.0)] * inp.n)
        jets = [(api.jet(spec, p), api.evaluate(spec, p)) for p in inp.probes]
        dets = [api.quasi_product_hessian_det(spec, p) for p in inp.probes] if inp.composite else []
        return findings, jets, dets

    def check(self, inp, result) -> list[str]:
        import specgen

        findings, jets, dets = result
        failures = [f"validate: {d.code} at {d.point.coords}" for d in findings]
        f = specgen.reference_function(inp.doc)
        for p, (j, value) in zip(inp.probes, jets):
            if j.value != value:
                failures.append(f"jet value {j.value!r} != evaluate {value!r} at {p}")
            f0, grad, hess = specgen.central_differences(f, p)
            if not abs(value - f0) <= 1e-12 * abs(f0):
                failures.append(f"evaluate {value!r} != reference {f0!r} at {p}")
            g = [float(v) for v in j.gradient]
            h = [[float(v) for v in row] for row in j.hessian]
            # Central differences with step 1e-4 * x err by O(h^2) times a
            # third or fourth derivative, plus rounding of f / h^2; both
            # stay far below this bound on these trees.
            scale = 1.0 + abs(value) + max(map(abs, g)) + max(abs(v) for row in h for v in row)
            err = max(
                max(abs(a - b) for a, b in zip(g, grad)),
                max(abs(a - b) for ra, rb in zip(h, hess) for a, b in zip(ra, rb)),
            )
            if not err <= 1e-5 * scale:
                failures.append(f"derivatives differ from central differences by {err:.3g} at {p}")
        for p, (j, _), det in zip(inp.probes, jets, dets):
            h = [[float(v) for v in row] for row in j.hessian]
            ref = _det(h)
            # Relative to the Hadamard bound, which the determinant's
            # rounding error scales with when its terms cancel.
            hadamard = math.prod(math.sqrt(sum(v * v for v in row)) for row in h)
            if not abs(det - ref) <= 1e-9 * (abs(ref) + hadamard):
                failures.append(f"composite determinant {det!r} != {ref!r} at {p}")
        return failures


WORKLOADS = {w.name: w for w in (VerifySuite, ClassifyN6, AnalyzeN3, SpecsPointwise)}
