"""Command-line interface: exit codes, formats, determinism."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodgeo.catalog import build_family, build_quasi_product, spec_to_json
from prodgeo.classifier import SampleGrid, default_grid
from prodgeo.cli import _render_analyze, main
from prodgeo.errors import EvaluationError, ExpressionError, InputError, ProdGeoError
from prodgeo.expr import Const, Exp, Ln, Mul, Pow, Var
from prodgeo.linalg import ordered_pairs
from prodgeo.reports import geometry_report, report_header, report_record


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_classify_family_one_liner(capsys):
    rc, out, err = run(
        capsys, "classify", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6"
    )
    assert rc == 0 and err == ""
    doc = json.loads(out)
    holds = {p["name"]: p["holds"] for p in doc["properties"]}
    assert holds["vanishing_gk"] is True
    assert holds["ces"] is True


def test_classify_reads_spec_from_file(tmp_path, capsys):
    from prodgeo.catalog import build_family, spec_to_json

    spec = build_family("spillman_mitscherlich", {"A": 1.0, "a": (1.0, 1.0)})
    path = tmp_path / "spec.json"
    path.write_text(spec_to_json(spec))
    rc, out, _ = run(capsys, "classify", "--spec", str(path))
    assert rc == 0
    doc = json.loads(out)
    assert {p["name"]: p["holds"] for p in doc["properties"]}["vanishing_gk"] is False


def test_analyze_domain_error_exits_3(tmp_path, capsys):
    doc = {
        "n": 2,
        "family": "custom",
        "params": {},
        "body": ["ln", ["add", ["var", 0], ["neg", ["const", 5.0]]]],
        "outer": None,
        "inners": None,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "analyze", "--spec", str(path), "--box", "0.5:2")
    assert rc == 3
    assert "at point" in err


@pytest.mark.parametrize(
    "spelling, family, params",
    [
        ("cobb-douglas", "cobb_douglas", "A=1,k=0.4:0.6"),
        ("spillman-mitscherlich", "spillman_mitscherlich", "A=1,a=1:1"),
        ("armington", "acms", "A=1,k=1:1,rho=0.5,gamma=1"),
    ],
)
def test_family_spellings_give_the_canonical_output(capsys, spelling, family, params):
    outputs = [run(capsys, "classify", "--family", name, "--params", params) for name in (spelling, family)]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_input_errors_exit_2(capsys, tmp_path):
    rc, _, err = run(capsys, "classify", "--family", "no_such_family")
    assert rc == 2 and "unknown family" in err
    rc, _, err = run(capsys, "classify")
    assert rc == 2
    rc, _, err = run(capsys, "classify", "--spec", str(tmp_path / "missing.json"))
    assert rc == 2
    rc, _, err = run(capsys, "classify", "--family", "cobb_douglas", "--params", "A=1,k=bad")
    assert rc == 2
    rc, _, err = run(
        capsys, "classify", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6", "--box", "0.5:2,0.5:2,0.5:2"
    )
    assert rc == 2
    rc, _, err = run(
        capsys, "classify", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6", "--points-per-axis", "0"
    )
    assert rc == 2 and "points_per_axis" in err
    rc, _, err = run(
        capsys, "classify", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6", "--box", "1.0:1.0000000000000002,1:2"
    )
    assert rc == 2 and "too narrow" in err
    rc, _, err = run(
        capsys, "classify", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6", "--box", "5e-324:1e-323"
    )
    assert rc == 2 and "smallest normal" in err
    rc, _, err = run(
        capsys, "classify", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6", "--box", "1e-300:1e300"
    )
    assert rc == 2 and "finite hi / lo" in err
    rc, _, err = run(capsys, "classify", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6", "--seed", "-1")
    assert rc == 2 and err == "error: seed must be at least 0\n"
    rc, _, err = run(capsys, "classify", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6", "--tol-zero", "nan")
    assert rc == 2 and err == "error: zero_abs must be finite, got nan\n"
    rc, _, err = run(capsys, "classify", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6", "--tol-const", "inf")
    assert rc == 2 and err == "error: constancy_rel must be finite, got inf\n"
    rc, _, err = run(capsys, "classify", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6,zzz=3")
    assert rc == 2 and err == "error: cobb_douglas: unknown parameter 'zzz'\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--spec", "spec.json", "--family", "cobb_douglas"], "error: give either --spec or --family, not both"),
        (["--family", "cobb_douglas", "--params", "A=1,k"], "error: malformed parameter 'k', expected name=value"),
        (["--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6", "--box", "0.5-2"], "error: malformed box axis"),
        (["--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6", "--box", "a:b"], "error: non-numeric box bounds"),
    ],
)
def test_malformed_flags_exit_2(capsys, flags, message):
    rc, out, err = run(capsys, "classify", *flags)
    assert rc == 2 and out == ""
    assert err.startswith(message) and "Traceback" not in err


def test_grid_flags_apply_where_the_default_grid_exceeds_the_cap(capsys):
    # At nine inputs the default 4 points per axis make more than 100,000
    # points, and 2 points per axis make 544.
    params = "A=1,k=" + ":".join(["0.1"] * 9)
    rc, _, err = run(capsys, "classify", "--family", "cobb_douglas", "--params", params)
    assert rc == 2 and err == "error: grid has 262176 points, more than the cap of 100000\n"
    rc, out, err = run(capsys, "classify", "--family", "cobb_douglas", "--params", params, "--points-per-axis", "2")
    assert (rc, err) == (0, "") and json.loads(out)["n"] == 9


@pytest.mark.parametrize(
    "n, size",
    [(17, "17179869216"), (100_000, "over 10^1500"), (10**21, "over 10^1500")],
    ids=["17", "100000", "1e21"],
)
@pytest.mark.parametrize("box", [[], ["--box", "0.5:2"]], ids=["default_box", "box"])
@pytest.mark.parametrize("command", ["classify", "analyze"])
def test_huge_n_is_rejected_before_a_box_is_built(capsys, monkeypatch, command, box, n, size):
    # A size too long to print is not printed, and no box of n axes is built
    # or broadcast before the size is checked.
    import io
    import time

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"n": n, "family": "custom", "body": ["var", 0]})))
    start = time.perf_counter()
    rc, out, err = run(capsys, command, "--spec", "-", *box)
    assert time.perf_counter() - start < 1.0
    assert (rc, out, err) == (2, "", f"error: grid has {size} points, more than the cap of 100000\n")


@pytest.mark.parametrize(
    "field",
    [
        {"params": {"A": "x"}},
        {"params": [1]},
        {"inners": 5},
        # integer literals beyond the float range
        {"body": ["add", ["var", 0], ["const", 10**400]]},
        {"body": ["add", ["var", 1], ["pow", ["var", 0], 10**400]]},
        {"params": {"A": 10**400}},
    ],
)
def test_malformed_spec_document_exits_2(capsys, monkeypatch, field):
    import io

    doc = {"n": 2, "family": "custom", "body": ["mul", ["var", 0], ["var", 1]], **field}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    rc, out, err = run(capsys, "classify", "--spec", "-")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("params", ['{"A": "nan", "k": "1e999"}', '{"A": NaN}', '{"k": [1, Infinity]}'])
def test_non_finite_params_exit_2(capsys, monkeypatch, params):
    import io

    doc = '{"n": 2, "family": "custom", "body": ["add", ["var", 0], ["var", 1]], "params": %s}' % params
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    rc, out, err = run(capsys, "classify", "--spec", "-")
    assert rc == 2 and out == ""
    assert err.startswith("error: parameter ") and "Traceback" not in err


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, where):
    out = tmp_path / "missing" / "x.json" if where == "missing_directory" else tmp_path
    rc, stdout, err = run(capsys, "classify", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6", "--out", str(out))
    assert rc == 2 and stdout == ""
    assert err.startswith("error: cannot write output: ") and "Traceback" not in err


def test_spec_that_is_not_utf8_exits_2(tmp_path, capsys, monkeypatch):
    import io

    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    rc, out, err = run(capsys, "classify", "--spec", str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot read spec file: ") and "Traceback" not in err
    # Standard input under a strict UTF-8 decoder raises the same error.
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8"))
    rc, out, err = run(capsys, "classify", "--spec", "-")
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot read standard input: ") and "Traceback" not in err


def test_verify_passes_and_is_reproducible(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "--out", str(out1)]) == 0
    assert main(["verify", "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["all_passed"] is True and doc["schema_version"] == "1"


def test_verify_fails_under_absurd_tolerance(capsys):
    rc, out, _ = run(capsys, "verify", "--tol-zero", "1e-30")
    assert rc == 1
    assert json.loads(out)["all_passed"] is False


def test_analyze_is_byte_reproducible(tmp_path):
    args = ["analyze", "--family", "acms", "--params", "A=1,k=1:0.5,rho=2,gamma=1", "--seed", "3"]
    out1, out2 = tmp_path / "a1.json", tmp_path / "a2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_csv_and_json_render_identical_numbers(capsys):
    args = ["analyze", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6", "--points-per-axis", "3"]
    rc, out_json, _ = run(capsys, *args)
    assert rc == 0
    rc, out_csv, _ = run(capsys, *args, "--format", "csv")
    assert rc == 0
    doc = json.loads(out_json)
    lines = out_csv.strip().split("\n")
    header = lines[0].split(",")
    assert len(lines) - 1 == len(doc["rows"])
    # every JSON number appears in the CSV rendered identically
    for row_doc, line in zip(doc["rows"], lines[1:]):
        cells = line.split(",")
        by_col = dict(zip(header, cells))
        assert by_col["x1"] == repr(row_doc["point"][0])
        assert by_col["f"] == repr(row_doc["f"])
        assert by_col["gauss_kronecker"] == repr(row_doc["gauss_kronecker"])
        assert by_col["hicks_1_2"] == repr(row_doc["hicks"]["1_2"])
        assert by_col["allen_determinant"] == repr(row_doc["allen_determinant"])


def _per_row_analyze(spec, grid, fmt):
    """``analyze`` output built one report at a time: a dict per report
    and json.dumps, or a row of repr cells per report."""
    n = spec.n
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    header = [f"x{i + 1}" for i in range(n)] + ["f", "w", "gauss_kronecker", "mean_curvature"]
    header += [f"sectional_{i + 1}_{k + 1}" for i, k in pairs]
    header += [f"elasticity_x{i + 1}" for i in range(n)]
    header += [f"mrs_{i + 1}_{k + 1}" for i, k in zip(*ordered_pairs(n))]
    header += [f"{name}_{i + 1}_{k + 1}" for name in ("hicks", "allen") for i, k in pairs]
    header += ["allen_determinant"]
    records = [
        {
            "point": list(r.point.coords),
            "f": r.value,
            "w": r.slope,
            "gauss_kronecker": r.gauss_kronecker,
            "mean_curvature": r.mean_curvature,
            "sectional": {f"{i + 1}_{k + 1}": float(r.sectional[i, k]) for i, k in pairs},
            "elasticity": {f"x{i + 1}": float(v) for i, v in enumerate(r.elasticities)},
            "mrs": {f"{i + 1}_{k + 1}": float(r.mrs[i, k]) for i, k in zip(*ordered_pairs(n))},
            "hicks": {f"{i + 1}_{k + 1}": float(r.hicks[i, k]) for i, k in pairs},
            "allen": {f"{i + 1}_{k + 1}": float(r.allen[i, k]) for i, k in pairs},
            "allen_determinant": r.allen_determinant,
        }
        for r in (geometry_report(spec, p) for p in grid.points())
    ]
    if fmt == "csv":
        lines = [",".join(header)]
        for rec in records:
            cells = []
            for v in rec.values():
                cells += v if isinstance(v, list) else list(v.values()) if isinstance(v, dict) else [v]
            lines.append(",".join(repr(c) for c in cells))
        return "\n".join(lines) + "\n"
    doc = {"schema_version": "1", "command": "analyze", "family": spec.family, "n": n, "rows": records}
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv, spec, grid",
    [
        (["--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6"],
         build_family("cobb_douglas", {"A": 1.0, "k": (0.4, 0.6)}), default_grid(2)),
        (["--family", "acms", "--params", "A=1,k=1:0.5:0.7,rho=0.5,gamma=0.9", "--seed", "2"],
         build_family("acms", {"A": 1.0, "k": (1.0, 0.5, 0.7), "rho": 0.5, "gamma": 0.9}), default_grid(3, seed=2)),
        (["--family", "transcendental", "--params", "A=1,a=0.3:0.3:0.4:0.2:0.5:0.1,b=0.1:0.2:0.3:0:0:0",
          "--points-per-axis", "2"],
         build_family("transcendental", {"A": 1.0, "a": (0.3, 0.3, 0.4, 0.2, 0.5, 0.1), "b": (0.1, 0.2, 0.3, 0, 0, 0)}),
         SampleGrid(box=((0.5, 2.0),) * 6, points_per_axis=2)),
        (["--spec", "SPEC", "--box", "0.2:5,1:3", "--points-per-axis", "4", "--seed", "5"],
         build_quasi_product(Ln(Var(0)), [Exp(Mul(Const(0.7), Var(0))), Pow(Var(0), 0.25)]),
         SampleGrid(box=((0.2, 5.0), (1.0, 3.0)), points_per_axis=4, seed=5)),
    ],
    ids=["n2", "n3", "n6", "spec_box"],
)
def test_analyze_output_equals_the_per_row_rendering(tmp_path, capsys, argv, spec, grid, fmt):
    path = tmp_path / "spec.json"
    path.write_text(spec_to_json(spec))
    argv = [str(path) if a == "SPEC" else a for a in argv]
    rc, out, err = run(capsys, "analyze", *argv, "--format", fmt)
    assert (rc, err) == (0, "")
    assert out == _per_row_analyze(spec, grid, fmt)


def _analyze_doc(spec, table) -> str:
    records = [report_record(spec.n, row) for row in table.tolist()]
    doc = {"schema_version": "1", "command": "analyze", "family": spec.family, "n": spec.n, "rows": records}
    return json.dumps(doc, indent=2) + "\n"


def test_analyze_renders_non_finite_cells_as_json_and_repr_do():
    spec = build_family("cobb_douglas", {"A": 1.0, "k": (0.4, 0.6)})
    width = len(report_header(2))
    # 0.0 and -0.0 compare equal, and each keeps its own text.
    first = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.0] + [0.5] * (width - 6)
    table = np.array([first, first[::-1]])
    out = _render_analyze(spec, table, "json")
    assert out == _analyze_doc(spec, table)
    assert '"point": [\n        NaN,\n        Infinity\n      ],\n      "f": -Infinity,\n      "w": -0.0,' in out
    assert '"gauss_kronecker": 5e-324,\n      "mean_curvature": 0.0,' in out
    lines = _render_analyze(spec, table, "csv").split("\n")
    assert lines[1].split(",")[:6] == ["nan", "inf", "-inf", "-0.0", "5e-324", "0.0"]
    assert lines[2].split(",")[-6:] == ["0.0", "5e-324", "-0.0", "-inf", "inf", "nan"]


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# A small pool, so that cells repeat within a table: both zeros, NaNs of
# both signs and of different payloads, both infinities, the smallest
# subnormal and ordinary numbers.
_CELL_POOL = [
    0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 0.5, 1.0, -2.5, 0.1, 1e300,
    *map(_float_of_bits, [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF8000000000123]),
]


@st.composite
def _analyze_tables(draw):
    n = draw(st.sampled_from([2, 3]))
    cells = st.lists(st.sampled_from(_CELL_POOL), min_size=len(report_header(n)), max_size=len(report_header(n)))
    return n, np.array(draw(st.lists(cells, min_size=1, max_size=5)))


@settings(max_examples=40, deadline=None)
@given(_analyze_tables())
def test_analyze_renders_each_cell_as_its_row_alone_would(case):
    n, table = case
    spec = build_family("cobb_douglas", {"A": 1.0, "k": (0.4, 0.6, 0.2)[:n]})
    assert _render_analyze(spec, table, "json") == _analyze_doc(spec, table)
    rows = "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
    assert _render_analyze(spec, table, "csv") == ",".join(report_header(n)) + "\n" + rows


def test_the_parser_keeps_no_state_between_calls(capsys):
    analyze = ["analyze", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6", "--points-per-axis", "2"]
    classify = ["classify", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6"]
    before = [run(capsys, *analyze, "--format", "csv"), run(capsys, *classify)]
    assert [rc for rc, _, _ in before] == [0, 0]
    for argv in (classify + ["--no-such-flag"], analyze + ["--format", "xml"], []):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
    capsys.readouterr()
    assert run(capsys, "classify", "--family", "no_such_family")[0] == 2
    assert [run(capsys, *analyze, "--format", "csv"), run(capsys, *classify)] == before


def test_classify_csv_round_trip_values(capsys):
    args = ["classify", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6"]
    rc, out_json, _ = run(capsys, *args)
    rc2, out_csv, _ = run(capsys, *args, "--format", "csv")
    assert rc == 0 and rc2 == 0
    doc = json.loads(out_json)
    lines = out_csv.strip().split("\n")
    assert len(lines) - 1 == len(doc["properties"])
    for prop, line in zip(doc["properties"], lines[1:]):
        cells = line.split(",")
        assert cells[0] == prop["name"]
        assert cells[1] == ("true" if prop["holds"] else "false")
        assert cells[2] == repr(prop["worst_value"])


def test_spec_from_stdin(capsys, monkeypatch):
    import io

    from prodgeo.catalog import build_family, spec_to_json

    spec = build_family("cobb_douglas", {"A": 1.0, "k": (0.4, 0.6)})
    monkeypatch.setattr("sys.stdin", io.StringIO(spec_to_json(spec)))
    rc, out, _ = run(capsys, "classify", "--spec", "-")
    assert rc == 0
    assert json.loads(out)["family"] == "cobb_douglas"


def _classify_stdin(capsys, monkeypatch, doc):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    return run(capsys, "classify", "--spec", "-")


def test_classify_names_the_first_failing_point(capsys, monkeypatch):
    from prodgeo.catalog import spec_from_json_obj
    from prodgeo.classifier import default_grid
    from prodgeo.errors import DomainViolation
    from prodgeo.jets import jet

    doc = {"n": 2, "family": "custom",
           "body": ["add", ["pow", ["add", ["const", 1.5], ["neg", ["var", 0]]], 0.5], ["var", 1]]}
    first_bad = next(p for p in default_grid(2).points() if p[0] > 1.5)
    with pytest.raises(DomainViolation) as direct:
        jet(spec_from_json_obj(doc), first_bad)
    rc, out, err = _classify_stdin(capsys, monkeypatch, doc)
    assert (rc, out) == (3, "")
    assert err == f"evaluation error: {direct.value} at point {first_bad.coords}\n"


def test_analyze_names_the_first_failing_point(capsys, monkeypatch):
    import io

    doc = {"n": 2, "family": "custom", "body": ["add", ["var", 0], ["var", 1]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    rc, out, err = run(capsys, "analyze", "--spec", "-")
    assert (rc, out) == (3, "")
    assert err == (
        "evaluation error: substitution denominator is numerically zero for inputs 1, 2"
        " at point (0.5520447568369061, 0.5520447568369061)\n"
    )


@pytest.mark.parametrize(
    "body, message",
    [
        (
            # (x1 x2)^-150 + x1 + exp(-40 x2)
            ["add", ["add", ["pow", ["mul", ["var", 0], ["var", 1]], -150], ["var", 0]],
             ["exp", ["mul", ["const", -40], ["var", 1]]]],
            "slope factor power overflows: 9.825284580896037e+79 ** 4"
            " at point (0.5520447568369061, 0.5520447568369061)",
        ),
        (
            # (1.5 - x1)^0.5 + exp(-40 x2)
            ["add", ["pow", ["add", ["const", 1.5], ["neg", ["var", 0]]], 0.5],
             ["exp", ["mul", ["const", -40], ["var", 1]]]],
            "marginal product of x2 is numerically zero (-2.245821599253149e-13)"
            " at point (0.5520447568369061, 0.820335356007638)",
        ),
    ],
    ids=["slope_overflow_first", "zero_marginal_first"],
)
def test_classify_and_analyze_name_the_same_first_failing_point(capsys, monkeypatch, body, message):
    import io

    doc = {"n": 2, "family": "custom", "body": body}
    classify = _classify_stdin(capsys, monkeypatch, doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    analyze = run(capsys, "analyze", "--spec", "-")
    assert classify == analyze == (3, "", f"evaluation error: {message}\n")


def test_analyze_evaluates_the_grid_at_once(capsys, monkeypatch):
    import prodgeo.classifier
    import prodgeo.geometry
    import prodgeo.jets
    import prodgeo.reports

    calls = {"jet": 0, "grid_jet": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module in (prodgeo.jets, prodgeo.reports, prodgeo.geometry):
        monkeypatch.setattr(module, "jet", counting("jet", module.jet))
    monkeypatch.setattr(prodgeo.classifier, "grid_jet", counting("grid_jet", prodgeo.classifier.grid_jet))
    rc, out, _ = run(capsys, "analyze", "--family", "acms", "--params", "A=1,k=1:0.5:0.7,rho=0.5,gamma=0.9")
    assert rc == 0 and len(json.loads(out)["rows"]) == 7**3 + 32
    assert calls == {"jet": 0, "grid_jet": 1}


def test_classify_curvature_overflow_names_the_point_as_analyze_does(capsys):
    argv = ("--family", "cobb_douglas", "--params", "A=1e100,k=1:1")
    classify = run(capsys, "classify", *argv)
    analyze = run(capsys, "analyze", *argv)
    assert classify == analyze
    assert classify[:2] == (3, "")
    assert classify[2] == (
        "evaluation error: slope factor power overflows: 7.807091821557099e+99 ** 4"
        " at point (0.5520447568369061, 0.5520447568369061)\n"
    )


def test_classify_gradient_norm_overflow_exits_3(capsys):
    rc, out, err = run(capsys, "classify", "--family", "cobb_douglas", "--params", "A=1e200,k=1:1")
    assert (rc, out) == (3, "")
    assert err == (
        "evaluation error: |grad f|^2 overflows (largest |partial| 5.520447568369061e+199)"
        " at point (0.5520447568369061, 0.5520447568369061)\n"
    )


def test_ln_of_tiny_value_exits_3(capsys, monkeypatch):
    doc = {"n": 2, "family": "custom",
           "body": ["add", ["exp", ["ln", ["mul", ["const", 1e-170], ["var", 0]]]], ["var", 1]]}
    rc, out, err = _classify_stdin(capsys, monkeypatch, doc)
    assert (rc, out) == (3, "")
    assert err.startswith("evaluation error: second derivative of ln overflows")
    assert "Traceback" not in err


def test_family_aliases(capsys):
    rc, out, _ = run(capsys, "classify", "--family", "spillman", "--params", "A=1,a=1:1")
    assert rc == 0
    assert json.loads(out)["family"] == "spillman_mitscherlich"


def test_verify_json_csv_consistency(capsys):
    rc, out_json, _ = run(capsys, "verify")
    rc2, out_csv, _ = run(capsys, "verify", "--format", "csv")
    assert rc == 0 and rc2 == 0
    doc = json.loads(out_json)
    lines = out_csv.strip().split("\n")
    assert len(lines) - 1 == len(doc["results"])
    for res, line in zip(doc["results"], lines[1:]):
        cells = line.split(",")
        assert cells[0] == res["fixture"]
        assert cells[3] == ("true" if res["passed"] else "false")
        assert cells[4] == repr(res["observed"])


def _csv_cell(v) -> str:
    return "" if v is None else str(v).lower() if isinstance(v, bool) else repr(v) if isinstance(v, float) else str(v)


def test_classify_and_verify_output_layout(capsys):
    # The documents and rows built from the records by hand: the key and column order of the formats.
    from prodgeo.classifier import classify, verify_catalog

    verdict = classify(build_family("cobb_douglas", {"A": 1.0, "k": (0.4, 0.6)}), default_grid(2))
    properties = [
        {
            "name": p.name,
            "holds": p.holds,
            "worst_point": list(p.worst_point.coords),
            "worst_value": p.worst_value,
            "threshold_used": p.threshold_used,
            "estimate": p.estimate,
        }
        for p in verdict.properties
    ]
    doc = {"command": "classify", "schema_version": "1", "family": "cobb_douglas", "n": 2, "properties": properties}
    lines = ["property,holds,worst_value,threshold_used,estimate,worst_x1,worst_x2"]
    for p in verdict.properties:
        cells = [p.name, p.holds, p.worst_value, p.threshold_used, p.estimate, *p.worst_point.coords]
        lines.append(",".join(map(_csv_cell, cells)))
    args = ["classify", "--family", "cobb_douglas", "--params", "A=1,k=0.4:0.6"]
    assert run(capsys, *args) == (0, json.dumps(doc, indent=2) + "\n", "")
    assert run(capsys, *args, "--format", "csv") == (0, "\n".join(lines) + "\n", "")

    report = verify_catalog()
    results = [
        {
            "fixture": r.fixture,
            "n": r.n,
            "check": r.check,
            "passed": r.passed,
            "observed": r.observed,
            "bound": r.bound,
            "witness_point": list(r.witness.coords),
        }
        for r in report.results
    ]
    doc = {"command": "verify", "schema_version": "1", "all_passed": True, "results": results}
    lines = ["fixture,n,check,passed,observed,bound,witness"]
    for r in report.results:
        witness = ":".join(map(repr, r.witness.coords))
        lines.append(",".join(map(_csv_cell, [r.fixture, r.n, r.check, r.passed, r.observed, r.bound])) + "," + witness)
    assert run(capsys, "verify") == (0, json.dumps(doc, indent=2) + "\n", "")
    assert run(capsys, "verify", "--format", "csv") == (0, "\n".join(lines) + "\n", "")


def test_a_field_declared_on_a_verdict_record_reaches_every_writer():
    from dataclasses import dataclass

    from prodgeo.classifier import CatalogReport, ClassificationVerdict, ExpectationResult, PropertyVerdict
    from prodgeo.cli import _render_classify, _render_verify
    from prodgeo.points import Point

    @dataclass(frozen=True)
    class MarginVerdict(PropertyVerdict):
        margin: float = 0.0

    @dataclass(frozen=True)
    class SourcedResult(ExpectationResult):
        noise_source: str = ""

    point = Point((0.5, 2.0))
    verdict = ClassificationVerdict("custom", 2, (MarginVerdict("flat", True, point, 0.0, 1e-09, None, 0.25),))
    obj = verdict.to_json_obj()["properties"][0]
    assert list(obj) == ["name", "holds", "worst_point", "worst_value", "threshold_used", "estimate", "margin"]
    assert obj["worst_point"] == [0.5, 2.0] and obj["margin"] == 0.25
    assert json.loads(_render_classify(verdict, "json"))["properties"][0] == obj
    assert _render_classify(verdict, "csv") == (
        "property,holds,worst_value,threshold_used,estimate,margin,worst_x1,worst_x2\n"
        "flat,true,0.0,1e-09,,0.25,0.5,2.0\n"
    )

    report = CatalogReport((SourcedResult("fx", 2, "flat", True, 0.0, 1e-09, point, "hessian"),))
    obj = report.to_json_obj()
    assert list(obj) == ["schema_version", "all_passed", "results"]
    assert list(obj["results"][0].items()) == [
        ("fixture", "fx"),
        ("n", 2),
        ("check", "flat"),
        ("passed", True),
        ("observed", 0.0),
        ("bound", 1e-09),
        ("witness_point", [0.5, 2.0]),
        ("noise_source", "hessian"),
    ]
    assert json.loads(_render_verify(report, "json"))["results"] == obj["results"]
    assert _render_verify(report, "csv") == (
        "fixture,n,check,passed,observed,bound,witness,noise_source\n"
        "fx,2,flat,true,0.0,1e-09,0.5:2.0,hessian\n"
    )


@pytest.mark.parametrize("scale", ["1e-13", "1e-9", "1e13"])
def test_zero_tests_do_not_depend_on_the_scale_of_f(capsys, scale):
    # Multiplying f by A changes no elasticity, so no zero test may either.
    params = f"A={scale},k=0.4:0.6"
    rc, out, err = run(capsys, "classify", "--family", "cobb_douglas", "--params", params)
    assert (rc, err) == (0, "")
    assert {p["name"]: p["holds"] for p in json.loads(out)["properties"]}["ces"] is True
    rc, out, err = run(capsys, "analyze", "--family", "cobb_douglas", "--params", params)
    assert (rc, err) == (0, "")
    for row in json.loads(out)["rows"]:
        assert abs(row["hicks"]["1_2"] - 1.0) <= 1e-9
        assert abs(row["allen"]["1_2"] - 1.0) <= 1e-9
        assert row["elasticity"] == pytest.approx({"x1": 0.4, "x2": 0.6}, abs=1e-15)


def _nested_adds(leaf, depth):
    """A document tree ``depth`` nodes deep: ``leaf`` under depth - 1 adds."""
    for _ in range(depth - 1):
        leaf = ["add", leaf, ["const", 1.0]]
    return leaf


def _composite_doc(outer_depth):
    """(x1 x2 + 1 + ... + 1): an outer of ``outer_depth`` nodes over the
    product of two identity inners; the body is one level deeper."""
    return {
        "n": 2,
        "family": "quasi_product",
        "body": _nested_adds(["mul", ["var", 0], ["var", 1]], outer_depth),
        "outer": _nested_adds(["var", 0], outer_depth),
        "inners": [["var", 0], ["var", 1]],
    }


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps(_composite_doc(331)), "expression is deeper than 200 levels"),
        # too deep for the JSON decoder itself
        (
            '{"n": 2, "family": "custom", "body": ' + '["add", ' * 3000 + '["var", 0]' + ', ["const", 1.0]]' * 3000 + "}",
            "invalid spec JSON: nested too deeply to decode",
        ),
    ],
    ids=["composite_outer_331", "custom_3000"],
)
def test_too_deep_spec_document_exits_2(capsys, monkeypatch, text, message):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, out, err = run(capsys, "analyze", "--spec", "-")
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "family": "custom", "body": ["mul", ["var", 0], _nested_adds(["var", 1], 199)]},
        _composite_doc(199),
    ],
    ids=["custom", "composite"],
)
@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_spec_document_at_the_depth_bound(capsys, monkeypatch, doc, command):
    import io

    from prodgeo.expr import expr_from_obj

    # the body is exactly at the bound: one more level is rejected
    expr_from_obj(doc["body"])
    with pytest.raises(ExpressionError):
        expr_from_obj(["neg", doc["body"]])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    rc, out, err = run(capsys, command, "--spec", "-", "--points-per-axis", "2")
    assert (rc, err) == (0, "")


def _error_classes():
    """Every class of prodgeo under ProdGeoError, found by a recursive walk,
    but for the two bases."""
    found, stack = [], [ProdGeoError]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("prodgeo.") and cls not in (InputError, EvaluationError):
                found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def test_the_error_walk_reaches_every_class():
    names = {cls.__name__ for cls in _error_classes()}
    assert {"ExpressionError", "EmptyInnerList", "DomainViolation", "SingularAllenDeterminant"} <= names
    assert len(names) >= 11


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_each_error_class_has_one_exit_code(capsys, monkeypatch, cls):
    # Exactly one of the two bases, and main maps it to its exit code.
    assert issubclass(cls, InputError) != issubclass(cls, EvaluationError)

    def handler(args):
        raise cls("no such thing")

    monkeypatch.setattr("prodgeo.cli._cmd_verify", handler)
    rc, out, err = run(capsys, "verify")
    if issubclass(cls, InputError):
        assert (rc, out, err) == (2, "", "error: no such thing\n")
    else:
        assert (rc, out, err) == (3, "", "evaluation error: no such thing\n")
