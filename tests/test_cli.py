"""Tests for the command line interface."""

import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import heraldpurity as hp
from heraldpurity.cli import load_jsa_csv, main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse_meta(text):
    meta = {}
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            meta[key] = value
    return meta


def data_lines(text):
    return [line for line in text.splitlines()
            if line and not line.startswith("#")]


@pytest.fixture()
def ktp_config(tmp_path):
    path = tmp_path / "ktp.json"
    path.write_text(json.dumps({
        "jsa": {"sigma1": 6.0, "sigma2": 0.70,
                "theta1": "pi/4", "theta2": 0.97},
    }))
    return str(path)


@pytest.fixture()
def k26_config(tmp_path):
    path = tmp_path / "k26.json"
    path.write_text(json.dumps({
        "jsa": {"sigma1": 1.0, "sigma2": 5.0,
                "theta1": "pi/4", "theta2": "-pi/4"},
    }))
    return str(path)


def test_report_text(ktp_config):
    code, out, err = run_cli("report", "--config", ktp_config,
                             "--filter-width", "0.72", "--no-timestamp")
    assert code == 0
    assert err == ""
    lines = data_lines(out)
    assert lines[0] == "quantity,analytic,quadrature,difference"
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    assert set(rows) == {"success", "purity_filtered", "purity_unfiltered",
                         "schmidt_number", "g2", "visibility"}
    analytic, quadrature, difference = rows["purity_filtered"]
    assert float(analytic) == pytest.approx(0.7696437577, abs=1e-8)
    assert float(quadrature) == pytest.approx(float(analytic), abs=1e-8)
    assert float(difference) < 1e-6


def test_report_without_filter(ktp_config):
    code, out, _ = run_cli("report", "--config", ktp_config, "--no-timestamp")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",")[1:]
            for line in data_lines(out)[1:]}
    assert set(rows) == {"purity_unfiltered", "schmidt_number", "g2"}
    assert float(rows["schmidt_number"][1]) == pytest.approx(22.1155, rel=1e-3)


def test_report_json(ktp_config):
    code, out, _ = run_cli("report", "--config", ktp_config,
                           "--filter-width", "0.72", "--format", "json",
                           "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "report"
    entry = payload["quantities"]["purity_filtered"]
    assert entry["analytic"] == pytest.approx(0.7696437577, abs=1e-8)
    assert entry["difference"] < 1e-6


def test_missing_config_exits_with_config_error(tmp_path):
    code, out, err = run_cli("report", "--config",
                             str(tmp_path / "absent.json"))
    assert code == 2
    assert json.loads(err)["error"] == "config"


def test_malformed_config_exits_with_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli("report", "--config", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "config"


def test_empty_heralding_exits_with_numerical_error(tmp_path):
    path = tmp_path / "detuned.json"
    path.write_text(json.dumps({
        "jsa": {"sigma1": 1.0, "sigma2": 5.0,
                "theta1": "pi/4", "theta2": "-pi/4"},
        "filter": {"center": 500.0, "width": 0.1},
    }))
    code, _, err = run_cli("report", "--config", str(path))
    assert code == 3
    assert json.loads(err)["error"] == "numerical"


def test_sweep_deterministic_output(tmp_path):
    paths = [str(tmp_path / name) for name in ("a.csv", "b.csv")]
    for path in paths:
        code, _, _ = run_cli("sweep", "aspect", "--ratios", "1:3:3",
                             "--widths", "0.1:10:5", "--no-timestamp",
                             "--output", path)
        assert code == 0
    first, second = (open(path, "rb").read() for path in paths)
    assert first == second
    text = first.decode()
    meta = parse_meta(text)
    assert meta["kind"] == "aspect"
    assert float(meta["theta1"]) == pytest.approx(math.pi / 4, rel=1e-9)
    lines = data_lines(text)
    assert lines[0] == "aspect_ratio,filter_width,success,purity,visibility"
    ratio_one = [line.split(",") for line in lines[1:]
                 if float(line.split(",")[0]) == 1.0]
    assert len(ratio_one) == 5
    assert all(float(cols[3]) == pytest.approx(1.0, abs=1e-9)
               for cols in ratio_one)


def test_sweep_json_format():
    code, out, _ = run_cli("sweep", "orientation", "--thetas", "0:pi/2:3",
                           "--widths", "0.5:2:3", "--format", "json",
                           "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["kind"] == "orientation"
    assert len(payload["data"]["purity"]) == 3


def test_sweep_tradeoff_needs_config():
    code, _, err = run_cli("sweep", "tradeoff", "--no-timestamp")
    assert code == 2
    assert json.loads(err)["error"] == "config"


def test_sweep_rejects_bad_range():
    code, _, err = run_cli("sweep", "aspect", "--ratios", "1:2",
                           "--no-timestamp")
    assert code == 2
    assert json.loads(err)["error"] == "config"


def test_sweep_tradeoff_two_filters(k26_config):
    code, out, _ = run_cli("sweep", "tradeoff", "--config", k26_config,
                           "--widths", "0.5:2:3", "--two-filters",
                           "--no-timestamp")
    assert code == 0
    meta = parse_meta(out)
    assert meta["two_filters"] == "true"
    lines = data_lines(out)
    assert lines[0] == "sigma_f,success,purity,visibility"
    assert len(lines) == 4


def test_hom_benchmark(ktp_config):
    code, out, _ = run_cli("hom", "--config", ktp_config,
                           "--filter-width", "0.96", "--no-timestamp")
    assert code == 0
    meta = parse_meta(out)
    assert float(meta["visibility"]) == pytest.approx(0.504707919, abs=1e-6)
    assert float(meta["baseline"]) == 0.5
    lines = data_lines(out)
    assert lines[0] == "delay_ps,coincidence,closed_form"
    table = np.array([[float(v) for v in line.split(",")]
                      for line in lines[1:]])
    assert table.shape[0] == 201
    np.testing.assert_allclose(table[:, 1], table[:, 2], atol=1e-6)
    assert float(meta["dip_minimum"]) == pytest.approx(
        table[:, 1].min(), rel=1e-9)


def test_hom_mirror_splitter(k26_config):
    code, out, _ = run_cli("hom", "--config", k26_config,
                           "--filter-width", "1.0", "--reflectivity", "1.0",
                           "--tau-points", "21", "--no-timestamp")
    assert code == 0
    table = np.array([[float(v) for v in line.split(",")]
                      for line in data_lines(out)[1:]])
    np.testing.assert_allclose(table[:, 1], 1.0, atol=1e-12)


def test_hom_requires_filter(k26_config):
    code, _, err = run_cli("hom", "--config", k26_config, "--no-timestamp")
    assert code == 2
    assert "filter" in json.loads(err)["message"]


def test_schmidt_command(k26_config):
    code, out, _ = run_cli("schmidt", "--config", k26_config,
                           "--n-modes", "6", "--project-mode", "0",
                           "--no-timestamp")
    assert code == 0
    meta = parse_meta(out)
    assert float(meta["schmidt_number"]) == pytest.approx(2.6, abs=1e-3)
    assert float(meta["thermal_reference_k"]) == pytest.approx(2.6, rel=1e-9)
    assert float(meta["projection_success"]) == pytest.approx(5 / 9, abs=1e-3)
    assert float(meta["projection_purity"]) == pytest.approx(1.0, abs=1e-9)
    assert meta["projection_mode"] == "0"
    lines = data_lines(out)
    assert lines[0] == "mu,p_mu,reference_p_mu"
    weights = [line.split(",") for line in lines[1:7]]
    for mu, (index, p_mu, reference) in enumerate(weights):
        assert int(index) == mu
        assert float(p_mu) == pytest.approx(float(reference), abs=1e-3)


def test_solve_filter_text(ktp_config):
    code, out, _ = run_cli("solve-filter", "--config", ktp_config,
                           "--target-visibility", "0.5", "--no-timestamp")
    assert code == 0
    pairs = dict(line.split(",", 1) for line in out.splitlines() if line)
    assert float(pairs["sigma_f_over_sigma1"]) == pytest.approx(0.1618, abs=3e-3)
    assert pairs["method"] == "bisection"
    assert float(pairs["visibility"]) == pytest.approx(0.5, abs=1e-3)


def test_solve_filter_json(ktp_config):
    code, out, _ = run_cli("solve-filter", "--config", ktp_config,
                           "--target-purity", "0.78", "--format", "json",
                           "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert float(payload["purity"]) == pytest.approx(0.78, abs=1e-3)
    assert payload["command"] == "solve-filter"


def test_solve_filter_requires_single_target(ktp_config):
    code, _, err = run_cli("solve-filter", "--config", ktp_config,
                           "--no-timestamp")
    assert code == 2
    assert json.loads(err)["error"] == "config"


def write_jsa_csv(path, grid):
    n_sig = grid.signal_grid.size
    n_idl = grid.idler_grid.size
    sig = np.repeat(grid.signal_grid, n_idl)
    idl = np.tile(grid.idler_grid, n_sig)
    flat = grid.amplitudes.reshape(-1)
    np.savetxt(path, np.column_stack([sig, idl, flat.real, flat.imag]),
               delimiter=",", header="omega_signal,omega_idler,re,im",
               comments="")


def test_jsa_csv_round_trip(tmp_path, jsa_k26):
    grid = hp.discretize(jsa_k26, half_extent=5.0, n_points=256)
    path = tmp_path / "jsa.csv"
    write_jsa_csv(path, grid)
    loaded = load_jsa_csv(str(path))
    np.testing.assert_allclose(loaded.signal_grid, grid.signal_grid,
                               rtol=1e-10)
    np.testing.assert_allclose(loaded.amplitudes, grid.amplitudes, atol=1e-10)

    config = tmp_path / "gridded.json"
    config.write_text(json.dumps({"jsa": {"csv_path": str(path)}}))
    code, out, _ = run_cli("report", "--config", str(config),
                           "--filter-width", "0.8", "--no-timestamp")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",")[1:]
            for line in data_lines(out)[1:]}
    analytic, quadrature, difference = rows["purity_filtered"]
    assert analytic == ""
    assert difference == ""
    expected = hp.closed_form_purity(jsa_k26, hp.GaussianFilter(0.0, 0.8))
    assert float(quadrature) == pytest.approx(expected, abs=1e-3)


def test_jsa_csv_rejects_duplicated_and_missing_cell(tmp_path):
    # Nine rows on a 3x3 rectangle, but (0, -1) appears twice and (0, 0)
    # not at all, so the row count alone cannot catch it.
    axis = (-1.0, 0.0, 1.0)
    pairs = [(ws, wi) for ws in axis for wi in axis]
    pairs[pairs.index((0.0, 0.0))] = (0.0, -1.0)
    path = tmp_path / "holed.csv"
    path.write_text("omega_signal,omega_idler,re,im\n" + "".join(
        f"{ws},{wi},1.0,0.0\n" for ws, wi in pairs))
    with pytest.raises(ValueError, match="exactly once"):
        load_jsa_csv(str(path))

    config = tmp_path / "holed.json"
    config.write_text(json.dumps({"jsa": {"csv_path": str(path)}}))
    code, out, err = run_cli("report", "--config", str(config),
                             "--filter-width", "0.8", "--no-timestamp")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "config"


def test_hom_gridded_requires_tau_max(tmp_path, jsa_k26):
    grid = hp.discretize(jsa_k26, half_extent=5.0, n_points=256)
    path = tmp_path / "jsa.csv"
    write_jsa_csv(path, grid)
    config = tmp_path / "gridded.json"
    config.write_text(json.dumps({"jsa": {"csv_path": str(path)}}))
    code, _, err = run_cli("hom", "--config", str(config),
                           "--filter-width", "1.0", "--no-timestamp")
    assert code == 2
    assert "tau-max" in json.loads(err)["message"]
    code, out, _ = run_cli("hom", "--config", str(config),
                           "--filter-width", "1.0", "--tau-max", "2.0",
                           "--tau-points", "9", "--no-timestamp")
    assert code == 0
    assert data_lines(out)[0] == "delay_ps,coincidence"


def test_output_file_and_entry_point(tmp_path, ktp_config):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli("report", "--config", ktp_config,
                           "--filter-width", "0.72", "--no-timestamp",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    assert "purity_filtered" in target.read_text()

    # The console script declared in pyproject.toml calls main() the same
    # way as the child below; an install is not needed to check it.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        entry = tomllib.load(handle)["project"]["scripts"]["heraldpurity"]
    module_name, func_name = entry.split(":")
    assert callable(getattr(importlib.import_module(module_name), func_name))

    env = dict(os.environ)
    package_root = str(Path(hp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    wrapper = (f"import sys; from {module_name} import {func_name}; "
               f"sys.exit({func_name}())")
    commands = [[sys.executable, "-c", wrapper]]
    exe = shutil.which("heraldpurity")
    if exe is not None:
        commands.append([exe])
    for command in commands:
        done = subprocess.run(
            command + ["report", "--config", ktp_config, "--filter-width",
                       "1.0", "--no-timestamp"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert "quantity,analytic,quadrature,difference" in done.stdout
