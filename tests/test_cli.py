from __future__ import annotations

import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringwaves
from ringwaves import bifurcation, cli, verify
from ringwaves.cli import main
from ringwaves.groups import DihedralElement
from ringwaves.verify import eigenfunction

DATA = Path(__file__).parent / "data"


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_critical_points_deterministic(capsys):
    args = ["critical-points", "--N", "3", "--tau", "2.0", "--m-max", "3", "--n-max", "3"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    quads = [(r["m"], r["n"], r["j"]) for r in payload["critical_points"]]
    assert (1, 1, 0) in quads and (1, 1, 1) in quads
    row = payload["critical_points"][0]
    assert row["alpha"] == pytest.approx(-0.169776413904, abs=1e-9)
    assert row["beta"] == pytest.approx(1.099750170295, abs=1e-9)
    assert "formulas" in payload and "tolerances" in payload


def test_empty_window_gives_empty_list(capsys):
    code, out = run(capsys, "critical-points", "--N", "3", "--tau", "2.0",
                    "--m-max", "0", "--n-max", "3")
    assert code == 0
    assert json.loads(out)["critical_points"] == []


def test_degenerate_tau_exit_code(capsys):
    code = main(["critical-points", "--N", "3", "--tau", str(math.pi)])
    assert code == 2


def test_predict_n7_kinds(capsys):
    code, out = run(
        capsys, "predict", "--N", "7", "--tau", "2.0", "--m-max", "1", "--n-max", "1"
    )
    assert code == 0
    payload = json.loads(out)
    entry = [p for p in payload["critical_points"] if p["j"] == 1]
    assert len(entry) == 1
    kinds = [b["kind"] for b in entry[0]["branches"]]
    assert kinds == ["H", "S", "T"]
    assert all(b["unbounded"] and b["non_stationary"] for b in entry[0]["branches"])


def test_predict_n24_reports_every_maximal_kind_at_j9(capsys):
    # the half-turn step of S and T was gamma^12 here, whose square is e and
    # so misses the rotation kernel gamma^8: both types fell below the maximal
    # ones, with coefficient 0, and only H was reported
    code, out = run(capsys, "predict", "--N", "24", "--m-max", "1", "--n-max", "1")
    assert code == 0
    points = {(p["m"], p["n"], p["j"]): p for p in json.loads(out)["critical_points"]}
    assert [b["kind"] for b in points[1, 1, 9]["branches"]] == ["H", "S", "T"]


def test_invariant_subcommand(capsys):
    code, out = run(
        capsys, "invariant", "--N", "3", "--tau", "2.0", "--m", "1", "--n", "1",
        "--j", "0", "--mode", "h-fixed",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["contributions"] == [{"m": 1, "n": 1, "j": 0, "k": 1, "rho": -1}]
    assert len(payload["value"]) == 1 and payload["value"][0]["coeff"] == -1


def test_invariant_needs_point_or_indices(capsys):
    code = main(["invariant", "--N", "3", "--tau", "2.0"])
    assert code == 1


def test_verify_subcommand(tmp_path, capsys):
    out_json = tmp_path / "verdict.json"
    code = main([
        "verify", "--N", "3", "--tau", "2.0", "--m", "1", "--n", "1", "--j", "0",
        "--grid-t", "64", "--grid-x", "32", "--out", str(out_json),
    ])
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["verdict"] == "singular"
    assert payload["spectral_deviation"] < 1e-10
    rows = list(csv.reader(out_json.with_suffix(".csv").open()))
    assert rows[0] == ["d_alpha", "d_beta", "sigma_min"]
    assert len(rows) == 10  # center plus 8 ring points


def test_verify_non_critical_point(tmp_path, capsys):
    code, out = run(
        capsys, "verify", "--N", "3", "--tau", "2.0", "--alpha", "1.0", "--beta",
        "2.0", "--grid-t", "32", "--grid-x", "16",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "no singularity"


def test_export_eigenfunction_roundtrip(tmp_path, capsys):
    out_csv = tmp_path / "u1.csv"
    code, out = run(
        capsys, "export-eigenfunction", "--N", "7", "--m", "1", "--n", "1", "--j",
        "1", "--kind", "H", "--grid-t", "64", "--grid-x", "16", "--out", str(out_csv),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["max_violation"] <= 1e-12
    with out_csv.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x"] + [f"u{i}" for i in range(1, 8)]
    assert len(rows) == 1 + 64 * 16
    # spot value: u_1(0, x_0) = cos(x_0) for the traveling profile
    x0 = float(rows[1][1])
    assert float(rows[1][2]) == pytest.approx(np.cos(x0))


def _csv_writer_oracle(path, grid):
    """The export's former writer: csv.writer rows of f"{v:.16g}" strings."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x"] + [f"u{i+1}" for i in range(grid.values.shape[2])])
        for ti, t in enumerate(grid.t_grid):
            for xi_, x in enumerate(grid.x_grid):
                writer.writerow([f"{t:.16g}", f"{x:.16g}"] + [
                    f"{v:.16g}" for v in grid.values[ti, xi_]
                ])


def _export_cases():
    """(N, kind, m, j, grid) at m in {1, 3} and j in {1, 0, N // 2}, each
    kind where the block has it; m = j = 1 keeps the bare "N-kind-grid" id."""
    for N in (3, 4, 7, 12):
        for kind in "HST":
            for m, j in dict.fromkeys((m, j) for j in (1, 0, N // 2) for m in (1, 3)):
                if kind != "H" and (j == 0 or 2 * j == N):
                    continue
                for m_t, m_x in ((128, 64), (64, 32), (17, 9)):
                    block = "" if (m, j) == (1, 1) else f"-m{m}-j{j}"
                    yield pytest.param(N, kind, m, j, (m_t, m_x),
                                       id=f"{N}-{kind}-{m_t}x{m_x}{block}")


@pytest.mark.parametrize("N, kind, m, j, grid", _export_cases())
def test_export_csv_bytes_match_csv_writer(tmp_path, capsys, N, kind, m, j, grid):
    m_t, m_x = grid
    out_csv = tmp_path / "u.csv"
    code = main([
        "export-eigenfunction", "--N", str(N), "--m", str(m), "--n", "1", "--j", str(j),
        "--kind", kind, "--grid-t", str(m_t), "--grid-x", str(m_x), "--out", str(out_csv),
    ])
    assert code == 0
    oracle = tmp_path / "oracle.csv"
    _csv_writer_oracle(oracle, eigenfunction(N, m, 1, j, kind, m_t, m_x))
    assert out_csv.read_bytes() == oracle.read_bytes()


# repeats forced by a small pool: both zeros, the least subnormal, the %g
# exponent switch at 1e-4 from both sides, 16 and 17 significant digits, the
# integers around the switch at 1e16, and both infinities
_CELL_POOL = [0.0, -0.0, 5e-324, 1e-4, -1e-4, 9.999999999999999e-05, 1 / 3, 1e15, -1e15,
              9999999999999998.0, 1e16, float("inf"), -float("inf")]


@st.composite
def _pool_grids(draw):
    m_t, m_x, n_comp = (draw(st.integers(1, 4)) for _ in range(3))
    cells = st.sampled_from(_CELL_POOL)

    def array(*shape):
        return np.array(draw(st.lists(cells, min_size=math.prod(shape),
                                      max_size=math.prod(shape)))).reshape(shape)

    return verify.GridFunction(array(m_t), array(m_x), array(m_t, m_x, n_comp))


@settings(max_examples=200, deadline=None)
@given(grid=_pool_grids())
def test_grid_csv_writer_matches_csv_writer(tmp_path_factory, grid):
    # a shared magnitude text must not lose a sign, -0.0 included
    d = tmp_path_factory.mktemp("csv")
    cli.write_grid_csv(grid, d / "u.csv")
    _csv_writer_oracle(d / "oracle.csv", grid)
    assert (d / "u.csv").read_bytes() == (d / "oracle.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["--m", "3", "--n", "1", "--kind", "T", "--grid-t", "6", "--grid-x", "4"],
    ["--m", "2", "--n", "1", "--kind", "H", "--grid-t", "5", "--grid-x", "4"],
], ids=["on-grid-2m", "above-2m"])
def test_export_time_grid_check_admits_exact_cases(tmp_path, capsys, argv):
    # 2m samples pass when every shift lands on the grid, 2m + 1 always
    out_csv = tmp_path / "u.csv"
    assert main(["export-eigenfunction", "--N", "3", "--j", "1", "--out", str(out_csv)] + argv) == 0
    assert json.loads(capsys.readouterr().out)["max_violation"] <= 1e-12


def test_readme_export_matches_golden(tmp_path, monkeypatch, capsys):
    golden = json.loads((DATA / "export_eigenfunction_T7.json").read_text())
    monkeypatch.chdir(tmp_path)  # the report names the CSV as given by --out
    code, out = run(capsys, *golden["argv"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == golden["stdout_sha256"]
    digest = hashlib.sha256((tmp_path / golden["csv"]).read_bytes()).hexdigest()
    assert digest == golden["csv_sha256"]


def _cell(text):
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def _read_report(path):
    """A report as data: JSON as parsed, CSV as rows of int, float or str cells."""
    if path.suffix == ".csv":
        return [[_cell(c) for c in row] for row in csv.reader(path.open(newline=""))]
    return json.loads(path.read_text())


def _assert_same(got, want, where="$"):
    """Integers and strings exactly, floats within 1e-12 relative."""
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0), where
    else:
        assert got == want, where


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("invariant_N3_h_fixed.json",
         ["invariant", "--N", "3", "--tau", "2.0", "--m", "1", "--n", "1", "--j", "0",
          "--mode", "h-fixed"]),
        ("invariant_N6_full.json",
         ["invariant", "--N", "6", "--m", "1", "--n", "1", "--j", "1", "--mode", "full"]),
    ],
    ids=["readme-h-fixed-N3", "full-N6"],
)
def test_invariant_matches_golden(capsys, golden, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    _assert_same(json.loads(out), _read_report(DATA / golden))


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("critical_points_N3.json",
         ["critical-points", "--N", "3", "--tau", "2.0", "--m-max", "5", "--n-max", "5"]),
        ("predict_N7.json", ["predict", "--N", "7", "--tau", "2.0", "--m-max", "1", "--n-max", "1"]),
    ],
    ids=["readme-critical-points", "readme-predict"],
)
def test_readme_report_matches_golden(capsys, golden, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    _assert_same(json.loads(out), _read_report(DATA / golden))


def test_readme_verify_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _ = run(capsys, "verify", "--N", "3", "--tau", "2.0", "--m", "1", "--n", "1", "--j", "0",
                  "--grid-t", "128", "--grid-x", "64", "--out", "scan.json")
    assert code == 0
    golden = DATA / "verify_N3"
    got, want = _read_report(tmp_path / "scan.json"), _read_report(golden / "scan.json")
    # the spectral deviation is rounding noise: held to its bound, not its value
    assert got.pop("spectral_deviation") <= want["tolerances"]["spectral"]
    del want["spectral_deviation"]
    _assert_same(got, want)
    _assert_same(_read_report(tmp_path / "scan.csv"), _read_report(golden / "scan.csv"))


def test_readme_group_tables_match_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "group-tables", "--N", "3", "--characters", "--out", "tables/")
    assert code == 0
    golden = DATA / "group_tables_N3"
    _assert_same(json.loads(out), _read_report(golden / "stdout.json"))
    written = sorted(p.name for p in (tmp_path / "tables").iterdir())
    assert written == sorted(p.name for p in golden.glob("*.csv"))
    for name in written:
        _assert_same(_read_report(tmp_path / "tables" / name), _read_report(golden / name), name)


@pytest.mark.parametrize("n", [4, 5, 6, 8, 12])
def test_group_tables_match_golden_digests(n, tmp_path, monkeypatch, capsys):
    # the shapes the cold benchmark builds, and N = 12 for the largest table
    golden = json.loads((DATA / f"group_tables_N{n}.json").read_text())
    monkeypatch.chdir(tmp_path)
    code, _ = run(capsys, *golden["argv"])
    assert code == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "tables").iterdir()}
    assert written == golden["csv_sha256"]


def test_export_invalid_kind_fails(capsys):
    code = main([
        "export-eigenfunction", "--N", "7", "--m", "1", "--n", "1", "--j", "0",
        "--kind", "S", "--grid-t", "32", "--grid-x", "8",
    ])
    assert code == 1


def test_group_tables(tmp_path, capsys):
    code, out = run(
        capsys, "group-tables", "--N", "3", "--characters", "--out", str(tmp_path)
    )
    assert code == 0
    chars = {row[0]: row[1:] for row in csv.reader((tmp_path / "characters.csv").open())}
    assert chars["trivial"] == ["1"] * 6
    assert chars["geom1"][:3] == ["2", "-1", "-1"]
    lap = list(csv.reader((tmp_path / "laplacian.csv").open()))
    assert [r[0] for r in lap[1:]] == ["0", "1"]
    assert float(lap[2][1]) == pytest.approx(3.0)
    # identity row of the product table: (full) * (K) = (K)
    products = {}
    for h, k, low, coeff in list(csv.reader((tmp_path / "burnside_products.csv").open()))[1:]:
        products.setdefault((int(h), int(k)), {})[int(low)] = int(coeff)
    n_classes = max(k for _, k in products) + 1
    for k in range(n_classes):
        assert products[(0, k)] == {k: 1}


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 3, "tau": 2.0, "m_max": 1, "n_max": 1}))
    code, out = run(capsys, "critical-points", "--config", str(cfg), "--n-max", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["window"] == {"m_max": 1, "n_max": 2}


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frequency": "1/2"}))
    assert main(["critical-points", "--config", str(cfg)]) == 1


def test_nu_parsed_as_rational(capsys):
    code, out = run(
        capsys, "critical-points", "--N", "3", "--tau", "2.0", "--nu", "3/2",
        "--m-max", "2", "--n-max", "2",
    )
    assert code == 0
    assert main(["critical-points", "--nu", "0.75"]) == 1  # decimals rejected


def test_table_curve_and_eigendata_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "N": 3,
        "tau": 2.0,
        "zeta": "table",
        "zeta_table": [[-4.0, 0.01], [0.0, 0.5], [4.0, 0.99]],
        "eigendata": [[0, 0.0, 1], [1, 3.0, 2]],
        "m_max": 1,
        "n_max": 1,
    }))
    code, out = run(capsys, "critical-points", "--config", str(cfg))
    assert code == 0
    rows = json.loads(out)["critical_points"]
    # the duplicated isotypic block appears once per multiplicity index
    assert [(r["j"], r["k"]) for r in rows] == [(0, 1), (1, 1), (1, 2)]


def test_critical_points_are_sorted_for_unsorted_eigendata(tmp_path, capsys):
    # the rows followed the eigendata's order, (1, 1, 2, 1) first
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4, "eigendata": [[2, 4.0, 1], [0, 0.0, 1], [1, 2.0, 2]]}))
    code, out = run(capsys, "critical-points", "--config", str(cfg), "--m-max", "1", "--n-max", "1")
    assert code == 0
    quads = [(r["m"], r["n"], r["j"], r["k"]) for r in json.loads(out)["critical_points"]]
    assert quads == [(1, 1, 0, 1), (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 1)]


@pytest.mark.parametrize(
    "argv, config, fragment",
    [
        (["predict", "--N", "30"], None, "cap 200"),
        ([], [1, 2], "JSON object"),
        (["--config", "missing.json"], None, "missing.json"),
        ([], {"N": "4"}, "'N' must be int"),
        (["--m-max", "1", "--n-max", "1"], {"N": 4, "eigendata": [[5, 1.0, 1]]},
         "integer j in 0..2"),
        ([], {"mode": "ful"}, "'mode' must be one of"),
        ([], {"prediction_mode": "both"}, "'prediction_mode' must be one of"),
        ([], {"kind": "X"}, "'kind' must be one of"),
        ([], {"zeta": "cubic"}, "'zeta' must be one of"),
        (["predict", "--nu", "1/0"], None, "denominator"),
        ([], {"alpha": 0.1, "beta": float("inf")}, "beta must be finite"),
        ([], {"zeta": "table", "zeta_table": [[0, 0], [5e-324, 1]]}, "finite slopes"),
        ([], {"zeta": "table", "zeta_table": [[-1.7e308, -1.7e308], [1.7e308, 1.7e308]]},
         "finite slopes"),
        ([], {"zeta": "table", "zeta_table": [[0, 0], [0, 1], [1, 2]]}, "strictly monotonic"),
        (["export-eigenfunction", "--N", "1000", "--grid-t", "64", "--grid-x", "32"], None,
         "exceeds 2000000 values"),
        (["verify", "--N", "100000"], None, "exceed 8000000 values"),
        ([], {"N": 3, "eigendata": [[0, 0.0, 1], [1, 3.0, 1], [1, 5.0, 1]]}, "index 1 twice"),
        ([], {"N": 3, "eigendata": [[0, 0.0, 1000000000000]]}, "multiplicity in 1..3"),
        ([], {"N": 3, "eigendata": [[0, float("nan"), 1], [1, 3.0, 1]]}, "row [0, nan, 1]"),
        ([], {"N": 3, "eigendata": [[0, 0.0, 1], [1, -3.0, 1]]}, "row [1, -3.0, 1]"),
        ([], {"N": 3, "eigendata": [[0, 0.0, 1], [1, float("inf"), 1]]}, "row [1, inf, 1]"),
        ([], {"N": 3, "eigendata": [[0, 0.0, 1], [1, 10**400, 1]]}, "finite eigenvalue"),
        ([], {"zeta": "table", "zeta_table": [[0, 0], [1, 10**400]]}, "out of float range"),
        ([], {"alpha": 10**400, "beta": 1.0}, "out of float range"),
        (["invariant", "--N", "3", "--m", "1", "--n", "0", "--j", "0", "--nu", "1/10"], None,
         "n >= 1"),
        (["invariant", "--N", "3", "--m", "1", "--n", "-1", "--j", "0", "--nu", "1/10"], None,
         "n >= 1"),
        (["invariant", "--N", "3", "--m", "1", "--n", "1", "--j", "0", "--alpha", "0.1"], None,
         "alpha and beta"),
        (["verify", "--N", "3", "--grid-t", "16", "--grid-x", "8", "--ring-points", "2",
          "--beta", "0.5"], None, "alpha and beta"),
        ([], {"alpha": 0.1}, "alpha and beta"),
        (["predict", "--N", "3", "--tau", "1e308"], None, "tau = 1e+308"),
        (["invariant", "--N", "3", "--alpha", "0", "--beta", "5", "--tau", "1e308"], None,
         "tau = 1e+308"),
        (["export-eigenfunction", "--N", "3", "--m", "1", "--n", "1", "--j", "1", "--kind", "T",
          "--grid-t", "1", "--grid-x", "4"], None, "--grid-t 1 is too coarse for m = 1"),
        (["export-eigenfunction", "--N", "3", "--m", "2", "--n", "1", "--j", "1", "--kind", "H",
          "--grid-t", "4", "--grid-x", "4"], None, "--grid-t 4 is too coarse for m = 2"),
        (["export-eigenfunction", "--N", "3", "--m", "1", "--n", "2", "--j", "1", "--kind", "H",
          "--grid-t", "1", "--grid-x", "1"], None,
         "--grid-x 1 samples the transverse mode n = 2 only at its zeros"),
        (["export-eigenfunction", "--N", "3", "--m", "2", "--n", "3", "--j", "1", "--kind", "S",
          "--grid-t", "3", "--grid-x", "2"], None,
         "--grid-x 2 samples the transverse mode n = 3 only at its zeros"),
    ],
    ids=["size-cap", "config-not-object", "config-missing", "config-type", "eigendata-index",
         "choice-mode", "choice-prediction-mode", "choice-kind", "choice-zeta", "nu-zero-denominator",
         "config-beta-inf", "table-slope-overflow", "table-step-overflow", "table-repeated-alpha",
         "export-values-cap", "verify-values-cap", "eigendata-repeated-index",
         "eigendata-multiplicity-above-N", "eigendata-z-nan", "eigendata-z-negative",
         "eigendata-z-inf", "eigendata-z-huge-int", "table-huge-int", "config-alpha-huge-int",
         "invariant-n-zero", "invariant-n-negative", "invariant-alpha-alone",
         "verify-beta-alone", "config-alpha-alone", "predict-tau-overflow",
         "invariant-tau-overflow", "export-grid-t-below-nyquist-T",
         "export-grid-t-below-nyquist-H", "export-zero-profile-even-n",
         "export-zero-profile-odd-n"],
)
def test_bad_input_exits_with_one_line(tmp_path, monkeypatch, capsys, argv, config, fragment):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["--config", "cfg.json"] + argv
    if argv[0].startswith("-"):
        argv = ["predict"] + argv
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize("argv", [
    ["predict", "--N", "3"],
    ["invariant", "--N", "3", "--alpha", "0", "--beta", "5"],
])
def test_overflowing_delay_phase_names_tau_and_m(capsys, argv):
    # m * tau overflowed to inf inside sin or cos: "error: math domain error";
    # both scan odd m only, so m = 3 is the first that overflows
    assert main(argv + ["--tau", "1e308"]) == 1
    assert capsys.readouterr().err == ("error: delay tau = 1e+308 overflows at folding m = 3: "
                                       "m * tau is not finite\n")


@pytest.mark.parametrize("z, shown", [("NaN", "nan"), ("-3.0", "-3.0"), ("1e400", "inf")])
@pytest.mark.parametrize("command", ["critical-points", "predict", "verify"])
def test_eigendata_z_outside_the_floats_above_zero_exits_with_one_line(tmp_path, capsys,
                                                                        command, z, shown):
    # critical-points ran these with exit 0 and without the block's critical
    # points; json reads 1e400 as inf
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"N": 3, "eigendata": [[0, 0.0, 1], [1, %s, 1]]}' % z)
    assert main([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: eigendata row [1, {shown}, 1] needs a finite "
                            "eigenvalue z >= 0\n")


@pytest.mark.parametrize("argv", [
    ["predict", "--m-max", "1", "--n-max", "1"],
    ["invariant", "--m", "1", "--n", "1", "--j", "0"],
    ["group-tables", "--out", "tables"],
    ["verify"],
    ["export-eigenfunction"],
])
def test_capped_command_at_huge_n_exits_before_building_eigendata(tmp_path, monkeypatch,
                                                                  capsys, argv):
    # each command built the N/2 + 1 eigendata rows before its cap turned N down
    from ringwaves import spectrum

    def no_huge_eigendata(N, _build=spectrum.cycle_laplacian_eigendata):
        assert N <= 10**6, f"eigendata for N = {N}"
        return _build(N)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(spectrum, "cycle_laplacian_eigendata", no_huge_eigendata)
    assert main(argv + ["--N", "1000000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, config, count", [
    (["critical-points", "--N", "1000000", "--m-max", "5", "--n-max", "5"], None, 7500015),
    (["critical-points", "--m-max", "1", "--n-max", "1", "--N", "1000000000"], None, 500000001),
    (["critical-points", "--N", "3", "--m-max", "1", "--n-max", "1000000000"], None, 2000000000),
    (["critical-points", "--N", "3", "--m-max", "1000000", "--n-max", "1", "--mode", "full"],
     None, 2000000),
    (["predict", "--N", "3", "--m-max", "1000000000", "--n-max", "1"], None, 1000000000),
    # the rows of an eigendata override are the sum of its multiplicities
    (["critical-points", "--m-max", "1", "--n-max", "400000"],
     '{"N": 3, "eigendata": [[0, 0.0, 3]]}', 1200000),
], ids=["N-1e6", "N-1e9", "n-max-1e9", "full-m-max-1e6", "predict-m-max-1e9", "eigendata-rows"])
def test_huge_window_exits_before_building_eigendata(tmp_path, monkeypatch, capsys,
                                                      argv, config, count):
    # critical-points scanned every (m, n, j, k) of any window: --N 1000000
    # ran 32 s, peaked at 2.4 GB and printed 181 MB
    from ringwaves import spectrum

    monkeypatch.setattr(spectrum, "cycle_laplacian_eigendata", None)
    monkeypatch.setattr(spectrum, "critical_point", None)
    if config:
        (tmp_path / "cfg.json").write_text(config)
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"error: window of {count} (m, n, j, k) candidates "
                                       "exceeds cap 1000000\n")


def test_window_cap_admits_the_cap_itself():
    # 2 rows x 1 odd m x 500000 n is the cap itself; it fails only above it
    from ringwaves.spectrum import ModelParams, check_window_size, enumerate_critical_points

    check_window_size(2, 1, 500_000)
    with pytest.raises(ringwaves.SizeCapError):
        check_window_size(2, 3, 500_000, odd_m_only=False)
    with pytest.raises(ringwaves.SizeCapError, match="window of 1000002"):
        enumerate_critical_points(ModelParams(nu=1, delta=1.0, tau=2.0, N=3), 1, 500_001)


def test_circle_closure_limit_exits_with_its_size(tmp_path, monkeypatch, capsys):
    # the relations of --m 20000 generate a finite group of more than 1e5 elements
    monkeypatch.chdir(tmp_path)
    assert main(["export-eigenfunction", "--N", "3", "--m", "20000", "--grid-t", "8",
                 "--grid-x", "4"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: generated circle subgroup has more than 100000 elements, "
                   "the closure limit\n")
    assert list(tmp_path.iterdir()) == []


def test_internal_check_exits_3_with_one_line(tmp_path, monkeypatch, capsys):
    # generators that fix nothing are a defect of the algebra, not of the input
    monkeypatch.setattr(bifurcation, "fixed_dim", lambda rep, elements: 0)
    assert main(["export-eigenfunction", "--N", "3", "--out", str(tmp_path / "u.csv")]) == 3
    err = capsys.readouterr().err
    assert err == "internal consistency failure: H-generators fix nothing in W1xtrivial^0\n"
    assert list(tmp_path.iterdir()) == []


def test_predict_exits_3_on_a_kind_outside_its_block_degree(monkeypatch, capsys):
    # T at (N, j) = (6, 2) without its kernel generator gamma^3 still fixes a
    # vector, but its type lies below the maximal one and has coefficient 0 in
    # the block's degree: predict stops instead of dropping the branch
    real = bifurcation.maximal_orbit_generators

    def without_kernel(N, m, n, j):
        gens = real(N, m, n, j)
        if j == 2:
            *rest, kernel = gens["T"].elements
            assert kernel[1].dihedral == DihedralElement(3, False, 6)
            gens["T"] = bifurcation.OrbitGenerators("T", tuple(rest))
        return gens

    monkeypatch.setattr(bifurcation, "maximal_orbit_generators", without_kernel)
    assert main(["predict", "--N", "6", "--m-max", "1", "--n-max", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal consistency failure: T-generators give a type outside "
                            "the twisted basic degree of W1xgeom2^0\n")


def _readme_commands():
    """argv of each `ringwaves ...` line of the README's command-line block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("ringwaves ")]


def test_parser_has_one_flag_per_config_field():
    # every flag but --config sets the RunConfig field of its name; the list
    # fields are config-only
    flags = {a.option_strings[0]: a for a in cli.build_parser()._actions
             if a.option_strings and a.dest != "help"}
    assert flags.pop("--config").dest == "config"
    fields = cli.RunConfig.__annotations__  # field name -> type string
    assert set(fields) - {a.dest for a in flags.values()} == {"zeta_table", "eigendata"}
    fields = {name: kind for name, kind in fields.items()
              if name not in ("zeta_table", "eigendata")}
    assert sorted(flags) == sorted("--" + name.replace("_", "-") for name in fields)
    types = {"int": int, "int | None": int, "float": float, "float | None": float}
    for name, kind in fields.items():
        action = flags["--" + name.replace("_", "-")]
        assert action.option_strings == ["--" + name.replace("_", "-")]
        assert action.dest == name
        assert action.type is types.get(kind)
        assert action.choices == cli.CHOICES.get(name)
        assert (action.nargs, action.const) == ((0, True) if kind == "bool" else (None, None))


def test_reused_parser_gives_identical_runs(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; a second run must not see the first
    commands = _readme_commands()
    assert len(commands) == 6
    cli.build_parser.cache_clear()
    for i, argv in enumerate(commands):
        runs = []
        for attempt in range(2):
            work = tmp_path / f"{i}-{attempt}"
            work.mkdir()
            monkeypatch.chdir(work)
            assert main(argv) == 0, argv
            written = {p.relative_to(work).as_posix(): p.read_bytes()
                       for p in sorted(work.rglob("*")) if p.is_file()}
            runs.append((capsys.readouterr().out, written))
        assert runs[0] == runs[1], argv
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["export-eigenfunction", "--N", "4", "--grid-t", "8", "--grid-x", "4",
         "--out", "/nonexistent/d/u.csv"],
        ["verify", "--N", "3", "--grid-t", "16", "--grid-x", "8", "--ring-points", "2",
         "--out", "/nonexistent/d/scan.json"],
        ["group-tables", "--N", "3", "--out", "/proc/x"],
    ],
    ids=["export", "verify", "group-tables"],
)
def test_unwritable_out_exits_with_one_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, word",
    [
        (["verify", "--m", "0"], "--m"),
        (["verify", "--n", "-1"], "--n"),
        (["verify", "--ring-points", "0"], "--ring-points"),
        (["export-eigenfunction", "--m", "0"], "--m"),
        (["export-eigenfunction", "--n", "0"], "--n"),
        (["export-eigenfunction", "--grid-t", "0"], "--grid-t"),
        (["export-eigenfunction", "--grid-x", "0"], "--grid-x"),
    ],
    ids=["verify-m", "verify-n", "verify-ring-points", "export-m", "export-n",
         "export-grid-t", "export-grid-x"],
)
def test_out_of_range_indices_and_sizes_rejected(tmp_path, monkeypatch, capsys, argv, word):
    # --m 0 used to run silently as m = 1
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--N", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and word in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, word",
    [
        (["verify", "--ring-radius", "0"], "--ring-radius"),
        (["verify", "--ring-radius", "-0.1"], "--ring-radius"),
        (["verify", "--ring-radius", "nan"], "--ring-radius"),
        (["verify", "--ring-radius", "inf"], "--ring-radius"),
        (["verify", "--out", "scan.csv"], "--out"),
        (["export-eigenfunction", "--symmetry-tol", "-1"], "--symmetry-tol"),
        (["export-eigenfunction", "--symmetry-tol", "nan"], "--symmetry-tol"),
        (["verify", "--tau", "1e308", "--alpha", "0.1", "--beta", "1.0"], "delay"),
        (["export-eigenfunction", "--symmetry-tol", "0"], "--symmetry-tol 0"),
        (["export-eigenfunction", "--N", "4", "--j", "1", "--kind", "S", "--symmetry-tol", "0"],
         "--symmetry-tol 0"),
        (["invariant", "--alpha", "0.1", "--beta", "inf"], "beta"),
        (["invariant", "--alpha", "nan", "--beta", "1.0"], "alpha"),
        (["verify", "--alpha", "0.1", "--beta", "inf"], "beta"),
        (["verify", "--alpha", "1.0", "--beta", "1.7e308"], "float range"),
    ],
    ids=["radius-zero", "radius-negative", "radius-nan", "radius-inf", "verify-out-csv",
         "symmetry-tol-negative", "symmetry-tol-nan", "verify-tau-overflow",
         "symmetry-tol-zero-N3", "symmetry-tol-zero-N4-S", "invariant-beta-inf",
         "invariant-alpha-nan", "verify-beta-inf", "verify-beta-overflow"],
)
def test_verify_and_export_reject_bad_values(tmp_path, monkeypatch, capsys, argv, word):
    # --ring-radius 0 reported "no singularity", --out scan.csv overwrote its own
    # CSV with the JSON report, --symmetry-tol -1 and 0 exited 3, and a delay of
    # more than 1e308 time steps or a beta of inf raised OverflowError
    monkeypatch.chdir(tmp_path)
    small = ["--N", "3", "--grid-t", "16", "--grid-x", "8", "--ring-points", "2"]
    assert main(argv[:1] + small + argv[1:]) == 1  # the case's own flags come last and win
    err = capsys.readouterr().err
    assert err.startswith("error: ") and word in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_export_grid_cap_rejects_before_allocating(tmp_path, monkeypatch, capsys):
    # without numpy in verify, any array the export made would raise instead
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(verify, "np", None)
    side = str(math.isqrt(verify.MAX_GRID_POINTS) + 1)
    assert main(["export-eigenfunction", "--N", "3", "--grid-t", side, "--grid-x", side]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _flag(name, values):
    # "name=value" or "name value"; either way "-1e+16" is a value, not an option
    spellings = st.sampled_from([lambda v: [f"{name}={v}"], lambda v: [name, str(v)]])
    return st.one_of(st.none(), st.tuples(spellings, values).map(lambda sv: sv[0](sv[1])))


# any float at all, or one in a range where the commands run to the end
_FLOATS = st.one_of(st.floats(0.05, 4.0), st.floats())


@settings(max_examples=200)
@given(
    command=st.sampled_from(["critical-points", "predict", "invariant", "verify",
                             "export-eigenfunction", "group-tables"]),
    flags=st.tuples(
        _flag("--N", st.one_of(st.integers(3, 8), st.integers(-1, 2))),
        _flag("--m", st.integers(-1, 4)),
        _flag("--n", st.integers(-1, 4)),
        _flag("--j", st.integers(-1, 5)),
        _flag("--grid-t", st.integers(-1, 64)),
        _flag("--grid-x", st.integers(-1, 64)),
        _flag("--ring-points", st.integers(-1, 8)),
        _flag("--ring-radius", _FLOATS),
        _flag("--symmetry-tol", _FLOATS),
        _flag("--tau", _FLOATS),
        _flag("--alpha", _FLOATS),
        _flag("--beta", _FLOATS),
        _flag("--delta", _FLOATS),
    ),
)
def test_random_numeric_flags_never_raise(command, flags):
    # a warning would print more than one stderr line, so it counts as a failure;
    # invariant needs all of m, n and j, and a drawn flag overrides these
    argv = [command, "--m-max", "2", "--n-max", "2", "--m", "1", "--n", "1", "--j", "0"]
    argv += [token for flag in flags if flag for token in flag]
    with tempfile.TemporaryDirectory() as tmp:
        argv += ["--out", str(Path(tmp) / "out.json")]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert err.getvalue().count("\n") == (code != 0), (argv, err.getvalue())


@pytest.mark.parametrize("value", ["-1e-1", "-1E-1", "-.1", "-0.1e0"])
def test_negative_float_with_exponent_is_a_value(capsys, value):
    # argparse alone reads only -1 and -1.5 as numbers: "--alpha -1e-1" exited 1
    assert main(["invariant", "--N", "3", "--alpha", value, "--beta", "1.0"]) == 0
    spaced = capsys.readouterr().out
    assert main(["invariant", "--N", "3", f"--alpha={value}", "--beta", "1.0"]) == 0
    assert capsys.readouterr().out == spaced


# every RunConfig field, with values that are often wrong in range or choice;
# _JUNK holds values of the wrong JSON type
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
                  st.lists(st.integers(-1, 2), max_size=2), st.just({"a": 1}))
_SMALL = st.integers(-2, 3)
_CONFIG_VALUES = {
    "nu": st.sampled_from(["1/1", "1/2", "3/4", "2", "1/0", "x/2", "1.5"]),
    "delta": _FLOATS, "tau": _FLOATS, "alpha": _FLOATS, "beta": _FLOATS,
    "ring_radius": _FLOATS, "symmetry_tol": _FLOATS,
    "N": st.integers(-1, 6), "m_max": _SMALL, "n_max": _SMALL,
    "m": _SMALL, "n": _SMALL, "j": st.integers(-1, 4),
    "grid_t": st.integers(-1, 16), "grid_x": st.integers(-1, 8), "ring_points": _SMALL,
    "zeta": st.sampled_from(["sigmoid", "linear", "table", "cubic"]),
    "mode": st.sampled_from(["full", "h-fixed", "ful"]),
    "prediction_mode": st.sampled_from(["local", "global", "both"]),
    "kind": st.sampled_from(["H", "S", "T", "X"]),
    "characters": st.booleans(),
    "zeta_table": st.lists(st.lists(_FLOATS, max_size=3), max_size=3),
    "eigendata": st.lists(st.lists(st.one_of(st.integers(-1, 3), _FLOATS), max_size=4),
                          max_size=3),
    "out": st.sampled_from(["out.json", "sub/dir/out.json", ""]),
}


@contextlib.contextmanager
def _inside(path):  # contextlib.chdir needs Python 3.11
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


@settings(max_examples=150)
@given(
    command=st.sampled_from(["critical-points", "predict", "invariant", "verify",
                             "export-eigenfunction", "group-tables"]),
    config=st.sets(st.sampled_from(sorted(_CONFIG_VALUES)), max_size=5).flatmap(
        lambda keys: st.fixed_dictionaries({key: _CONFIG_VALUES[key] for key in keys})),
    wrong=st.one_of(st.none(), st.tuples(st.sampled_from(sorted(_CONFIG_VALUES) + ["n_maxx"]),
                                         _JUNK)),
)
def test_random_config_files_never_raise(command, config, wrong):
    # a config file is one more way in: no traceback, one stderr line on failure;
    # `wrong` puts a value of the wrong type, or an unknown key, into the file
    if wrong is not None:
        config[wrong[0]] = wrong[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), _inside(tmp):
            warnings.simplefilter("error")
            code = main([command, "--config", str(path)])
    assert code in (0, 1, 2, 3), config
    assert err.getvalue().count("\n") == (code != 0), (config, err.getvalue())


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # scipy is a test-only dependency: neither the import nor an FD verify loads it
    code = (
        "import sys, ringwaves.cli\n"
        "code = ringwaves.cli.main(['verify', '--N', '3', '--grid-t', '16', '--grid-x', '8',"
        " '--ring-points', '2', '--out', sys.argv[1]])\n"
        "print(code, any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    got = subprocess.run([sys.executable, "-c", code, str(tmp_path / "scan.json")],
                         capture_output=True, text=True, env=env, check=True, timeout=120)
    assert got.stdout.strip() == "0 False"
    assert (tmp_path / "scan.json").exists()


def test_cli_import_stays_lean():
    # every command pays this import first, in a fresh process
    code = ("import sys, ringwaves.cli\n"
            "print([m for m in ('dataclasses', 'inspect', 'numpy') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    got = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=120)
    assert got.stdout.strip() == "[]", got.stderr


def test_exact_commands_leave_numpy_unloaded(tmp_path):
    # numpy loads on the first float computation: the exact path never makes one
    code = (
        "import contextlib, io, sys, ringwaves.cli as cli\n"
        "runs = [['critical-points'], ['predict', '--N', '6', '--m-max', '3', '--n-max', '3'],\n"
        "        ['invariant', '--mode', 'full', '--m', '1', '--n', '1', '--j', '0'],\n"
        "        ['group-tables', '--N', '4', '--characters', '--out', sys.argv[2]]]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in runs]\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'numpy']\n"
        "print(codes, loaded, 'ringwaves.verify' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--N', '3', '--grid-t', '16', '--grid-x', '8',"
        " '--ring-points', '2', '--out', sys.argv[1]])\n"
        "print(code, 'numpy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    got = subprocess.run([sys.executable, "-c", code, str(tmp_path / "scan.json"),
                          str(tmp_path / "tables")],
                         capture_output=True, text=True, env=env, check=True, timeout=120)
    assert got.stdout.splitlines() == ["[0, 0, 0, 0] [] True", "0 True"]
    assert (tmp_path / "tables" / "burnside_products.csv").exists()


def test_no_module_imports_numpy_at_top_level():
    src = Path(__file__).resolve().parents[1] / "src" / "ringwaves"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] == "numpy"]
    assert found == []
    assert "import numpy" in (src / "_lazy.py").read_text()  # the one deferred import


# test-only helpers that moved to tests/oracles/, and names of the deleted
# folding-0, one-caller and subgroup-record layers; src/ defines none of them
MOVED_OR_DELETED = {
    "maximal_kind_types", "isotropy_types", "fold", "representative", "dihedral_lattice",
    "permutation_isotypic", "TwistedSubgroup", "twisted_fixed_dim", "_twisted_fixed_dims",
    "_positive_dim_types", "Subgroup", "from_set", "full_class", "folding_signs", "_down_set",
}


def test_src_holds_no_oracle_and_the_exact_layers_never_load_numpy():
    # the oracles live in tests/oracles/; the exact layers reach numpy only through _lazy
    src = Path(__file__).resolve().parents[1] / "src" / "ringwaves"
    named = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [n.name for n in ast.walk(tree)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        defs += [t.id for n in tree.body if isinstance(n, ast.Assign)
                 for t in n.targets if isinstance(t, ast.Name)]
        named += [(path.name, name) for name in [path.stem] + defs
                  if "oracle" in name.lower() or name in MOVED_OR_DELETED]
        if path.stem in ("groups", "burnside", "reps", "twisted", "degrees", "bifurcation"):
            named += [(path.name, "_lazy") for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                      and "_lazy" in [n.module] + [a.name for a in n.names]]
        # records are NamedTuples or small explicit classes: dataclasses
        # would cost every fresh process its import and its code generation
        named += [(path.name, "dataclasses") for n in ast.walk(tree)
                  if isinstance(n, ast.Import) and "dataclasses" in [a.name for a in n.names]
                  or isinstance(n, ast.ImportFrom) and n.module == "dataclasses"]
    assert named == []
    assert [name for name in ringwaves.__all__
            if "oracle" in name.lower() or name in MOVED_OR_DELETED] == []


def test_src_has_one_group_product():
    # groups.mul_index is the product; the Cayley table and the record
    # products live in tests/oracles/groups.py, where they check it
    from ringwaves.groups import DihedralElement, GammaPrimeElement, gamma_prime

    assert "__mul__" not in vars(DihedralElement) and "__mul__" not in vars(GammaPrimeElement)
    assert "inverse" not in vars(GammaPrimeElement)
    group = gamma_prime(5)
    assert [a for a in ("table", "inverse", "index") if hasattr(group, a)] == []
    src = Path(__file__).resolve().parents[1] / "src" / "ringwaves"
    reads = [(path.name, key) for path in sorted(src.glob("*.py"))
             for key in (".table[", ".inverse[") if key in path.read_text()]
    assert reads == []


def test_concurrent_first_numpy_use_matches_serial():
    # four threads make the process's first float computation at the same moment
    code = (
        "import sys, threading\n"
        "import ringwaves.cli\n"
        "from ringwaves.bifurcation import maximal_orbit_generators, symmetry_relations\n"
        "from ringwaves.verify import eigenfunction, symmetry_check\n"
        "rels = symmetry_relations(maximal_orbit_generators(7, 1, 1, 1)['T'])\n"
        "def work():\n"
        "    grid = eigenfunction(7, 1, 1, 1, 'T', 32, 16)\n"
        "    return grid.values.tobytes(), repr(symmetry_check(grid, rels))\n"
        "unloaded = []\n"
        "start = threading.Barrier(4, action=lambda: unloaded.append('numpy' not in sys.modules))\n"
        "results = [None] * 4\n"
        "def run(i):\n"
        "    start.wait()\n"
        "    results[i] = work()\n"
        "threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join()\n"
        "print(unloaded, [r == work() for r in results])"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    got = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=120)
    assert got.stdout.strip() == "[True] [True, True, True, True]", got.stderr
