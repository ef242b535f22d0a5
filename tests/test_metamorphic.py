"""Metamorphic relations of the paper's indicators: transformations of a
function whose effect on the indicators is known without knowing their
values.

Relation 1: adding a constant b > 0 to f moves only the value lane of its
jets, so every curvature column and every curvature verdict of f + b is
that of f, bit for bit.  Of the substitution indicators only the output
elasticities x_i f_i / f move, and E (f + b) equals E f within rounding;
the MRS, Hicks and Allen cells and their verdicts stay bit for bit.

Relation 2: relabelling the inputs -- x_i becomes input order[i] in the
body, and the coordinate rows move to match -- moves each per-input and
per-pair report cell to its relabelled input or pair, and keeps each
point's curvature columns, the largest over the pairs included.  Only the
order of some sums and pivots changes, so values move by a few roundings."""

import re
from dataclasses import dataclass

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from prodgeo.catalog import FunctionSpec, build_family
from prodgeo.classifier import SampleGrid, _curvature_columns, classify, default_grid, grid_pass
from prodgeo.errors import ProdGeoError
from prodgeo.expr import Add, Const, Div, Exp, Ln, Mul, Pow, Var, substitute, sum_chain
from prodgeo.jets import _POINT_BLOCK
from prodgeo.reports import report_header, report_table

CURVATURE_VERDICTS = ("vanishing_gk", "flat", "minimal", "vanishing_sectional")


def positive_trees(n: int):
    """Expression trees over n inputs that are positive on the positive
    orthant: positive leaves, and operations that keep a positive value."""
    leaves = st.one_of(st.integers(0, n - 1).map(Var), st.floats(0.1, 3.0).map(Const))
    return st.recursive(
        leaves,
        lambda t: st.one_of(
            st.builds(Add, t, t),
            st.builds(Mul, t, t),
            st.builds(Div, t, t),
            st.builds(Pow, t, st.sampled_from([0.5, 1.5, -1.0, 2.0, 3.0])),
            st.builds(lambda a, c: Exp(Mul(Const(c), a)), t, st.floats(-1.0, 1.0)),
            st.builds(lambda a: Ln(Add(Const(1.0), a)), t),
        ),
        max_leaves=6,
    )


@st.composite
def shifted_cases(draw):
    n = draw(st.integers(2, 3))
    # A term c x_i^e of each input: every marginal product is nonzero but
    # where the tree cancels it.
    exponents = st.sampled_from([0.5, 1.5, 2.0])
    terms = [Mul(Const(draw(st.floats(0.1, 2.0))), Pow(Var(i), draw(exponents))) for i in range(n)]
    spec = FunctionSpec(n, sum_chain([draw(positive_trees(n)), *terms]))
    lo = draw(st.floats(0.1, 1.0))
    grid = SampleGrid(((lo, lo * draw(st.floats(1.5, 5.0))),) * n, points_per_axis=3, jitter_points=4)
    return spec, draw(st.floats(0.01, 100.0)), grid


def _outcome(run):
    """``run()``, or the type, message and point of its ProdGeoError."""
    try:
        return run()
    except ProdGeoError as e:
        return type(e), str(e), e.point


def _curvature(spec: FunctionSpec, grid: SampleGrid):
    """The curvature columns of ``spec`` on ``grid``, as bytes, and the
    reprs of classify's curvature verdicts, each or its error."""
    columns = _outcome(lambda: grid_pass(spec, grid, lambda j, _: _curvature_columns(j))[1].tobytes())
    verdict = _outcome(lambda: classify(spec, grid))
    if not isinstance(verdict, tuple):
        verdict = [repr(verdict.property(name)) for name in CURVATURE_VERDICTS]
    return columns, verdict


def _shifted(spec: FunctionSpec, b: float) -> FunctionSpec:
    return FunctionSpec(spec.n, Add(spec.body, Const(b)))


@settings(max_examples=40, deadline=None)
@given(shifted_cases())
def test_a_positive_shift_leaves_the_curvature_bitwise(case):
    spec, b, grid = case
    assert _curvature(_shifted(spec, b), grid) == _curvature(spec, grid)


def test_a_positive_shift_leaves_the_curvature_bitwise_on_several_blocks():
    spec = build_family("acms", {"A": 1.2, "k": (1.0, 0.5, 0.25, 0.7, 0.9, 0.4), "rho": 2.0, "gamma": 1.5})
    grid = default_grid(6)
    assert len(grid.points()) > 2 * _POINT_BLOCK
    columns, verdict = _curvature(spec, grid)
    assert isinstance(columns, bytes) and len(columns) == 8 * 8 * len(grid.points())
    assert (columns, verdict) == _curvature(_shifted(spec, 3.25), grid)


def _report_columns(spec: FunctionSpec, grid: SampleGrid):
    """``report_table`` of ``spec`` on ``grid`` by column name, or its error."""
    table = _outcome(lambda: report_table(spec, grid))
    return table if isinstance(table, tuple) else dict(zip(report_header(spec.n), table.T))


def _substitution_verdicts(spec: FunctionSpec, grid: SampleGrid):
    verdict = _outcome(lambda: classify(spec, grid))
    return verdict if isinstance(verdict, tuple) else [repr(verdict.property(n)) for n in ("proportional_mrs", "ces")]


@settings(max_examples=40, deadline=None)
@given(shifted_cases())
def test_a_positive_shift_moves_only_the_value_and_the_output_elasticities(case):
    spec, b, grid = case
    shifted = _shifted(spec, b)
    before, after = _report_columns(spec, grid), _report_columns(shifted, grid)
    if isinstance(before, tuple) or isinstance(after, tuple):
        assert after == before
    else:
        moved = [name for name in before if name == "f" or name.startswith("elasticity_x")]
        assert {k: v.tobytes() for k, v in after.items() if k not in moved} == {
            k: v.tobytes() for k, v in before.items() if k not in moved
        }
        # x_i f_i / f times f: three roundings on each side.
        for i in range(spec.n):
            e, shifted_e = (c[f"elasticity_x{i + 1}"] * c["f"] for c in (before, after))
            assert np.all(abs(shifted_e - e) <= 4 * np.finfo(float).eps * abs(e))
    assert _substitution_verdicts(shifted, grid) == _substitution_verdicts(spec, grid)


@dataclass(frozen=True)
class _RelabelledGrid(SampleGrid):
    """A grid whose coordinate row ``order[i]`` holds its axis i."""

    order: tuple = ()

    def coords(self) -> np.ndarray:
        return super().coords()[np.argsort(self.order)]


@st.composite
def relabelled_cases(draw):
    spec, _, grid = draw(shifted_cases())
    order = draw(st.permutations(range(spec.n)).filter(lambda o: o != sorted(o)))
    relabelled = FunctionSpec(spec.n, substitute(spec.body, {i: Var(o) for i, o in enumerate(order)}))
    relabelled_grid = _RelabelledGrid(grid.box, grid.points_per_axis, grid.seed, grid.jitter_points, tuple(order))
    return spec, grid, relabelled, relabelled_grid


#: How far a relabelling may move a value, in units of the value (a report
#: cell) or of its noise scale (a curvature column): a few roundings of a
#: sum in another order.  An Allen cell is a ratio of determinants whose
#: pivots come in another order, so it may move further.  Both lie far
#: below ``TolerancePolicy.zero_rel``.
RELABEL_BOUND, ALLEN_RELABEL_BOUND = 1e-13, 1e-10


def _within(after: np.ndarray, before: np.ndarray, scale: np.ndarray, bound: float = RELABEL_BOUND) -> bool:
    with np.errstate(invalid="ignore"):
        close = (after == before) | (abs(after - before) <= bound * scale)
    return bool(np.all(close | (np.isnan(after) & np.isnan(before))))


def _relabelled_column(name: str, order, header) -> str:
    """The report column of the relabelled function that holds column
    ``name``: input i + 1 becomes order[i] + 1, and a pair i < k stays sorted."""
    prefix, cell = re.fullmatch(r"(.*?)((?:\d+_)*\d+)?", name).groups()
    if cell is None:
        return name
    moved = [order[int(i) - 1] + 1 for i in cell.split("_")]
    relabelled = prefix + "_".join(map(str, moved))
    return relabelled if relabelled in header else prefix + "_".join(map(str, sorted(moved)))


@settings(max_examples=25, deadline=None)
@given(relabelled_cases())
def test_relabelled_inputs_move_the_cells_and_keep_the_curvature_columns(case):
    spec, grid, relabelled, relabelled_grid = case
    columns = [
        _outcome(lambda: grid_pass(s, g, lambda j, _: _curvature_columns(j))[1])
        for s, g in ((spec, grid), (relabelled, relabelled_grid))
    ]
    if any(isinstance(c, tuple) for c in columns):
        assert type(columns[1][0]) is type(columns[0][0])
    else:
        before, after = columns
        # Each quantity against its noise scale, and each noise scale against itself.
        assert _within(after, before, before[:, [1, 1, 3, 3, 5, 5, 7, 7]])
    tables = _report_columns(spec, grid), _report_columns(relabelled, relabelled_grid)
    if any(isinstance(t, tuple) for t in tables):
        assert type(tables[1][0]) is type(tables[0][0])
        return
    before, after = tables
    header = report_header(spec.n)
    for name in header:
        if re.search(r"\d$", name):  # a per-input or per-pair cell
            moved = _relabelled_column(name, relabelled_grid.order, header)
            bound = ALLEN_RELABEL_BOUND if name.startswith("allen_") else RELABEL_BOUND
            assert _within(after[moved], before[name], abs(before[name]), bound), name
