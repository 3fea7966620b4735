from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ringwaves.cli import main
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


@pytest.mark.parametrize("grid", [(128, 64), (64, 32), (17, 9)], ids=lambda g: "%dx%d" % g)
@pytest.mark.parametrize("kind", ["H", "S", "T"])
@pytest.mark.parametrize("N", [3, 4, 7, 12])
def test_export_csv_bytes_match_csv_writer(tmp_path, capsys, N, kind, grid):
    m_t, m_x = grid
    out_csv = tmp_path / "u.csv"
    code = main([
        "export-eigenfunction", "--N", str(N), "--m", "1", "--n", "1", "--j", "1",
        "--kind", kind, "--grid-t", str(m_t), "--grid-x", str(m_x), "--out", str(out_csv),
    ])
    assert code == 0
    oracle = tmp_path / "oracle.csv"
    _csv_writer_oracle(oracle, eigenfunction(N, 1, 1, 1, kind, m_t, m_x))
    assert out_csv.read_bytes() == oracle.read_bytes()


def test_readme_export_matches_golden(tmp_path, monkeypatch, capsys):
    golden = json.loads((DATA / "export_eigenfunction_T7.json").read_text())
    monkeypatch.chdir(tmp_path)  # the report names the CSV as given by --out
    code, out = run(capsys, *golden["argv"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == golden["stdout_sha256"]
    digest = hashlib.sha256((tmp_path / golden["csv"]).read_bytes()).hexdigest()
    assert digest == golden["csv_sha256"]


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


@pytest.mark.parametrize(
    "argv, config",
    [
        (["predict", "--N", "30"], None),
        ([], [1, 2]),
        (["--config", "missing.json"], None),
        ([], {"N": "4"}),
        (["--m-max", "1", "--n-max", "1"], {"N": 4, "eigendata": [[5, 1.0, 1]]}),
        ([], {"mode": "ful"}),
        ([], {"prediction_mode": "both"}),
        ([], {"kind": "X"}),
        ([], {"zeta": "cubic"}),
        (["predict", "--nu", "1/0"], None),
    ],
    ids=["size-cap", "config-not-object", "config-missing", "config-type", "eigendata-index",
         "choice-mode", "choice-prediction-mode", "choice-kind", "choice-zeta", "nu-zero-denominator"],
)
def test_bad_input_exits_with_one_line(tmp_path, monkeypatch, capsys, argv, config):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["--config", "cfg.json"] + argv
    if argv[0] != "predict":
        argv = ["predict"] + argv
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
