"""Tests for the command line interface."""

import datetime as _dt
import importlib.util
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import heraldpurity as hp
from conftest import idler_line_grid
from heraldpurity.cli import (_fmt, _write_csv, build_parser,
                              export_modes_csv, grid_to_dict, grid_to_rows,
                              load_jsa_csv, main, tradeoff_to_dict,
                              tradeoff_to_rows)


def run_cli(*argv):
    """Exit code (also when argparse exits), stdout and stderr of a run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def child_env():
    """The environment of a child interpreter that imports this package."""
    env = dict(os.environ)
    package_root = str(Path(hp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


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
    assert out == json.dumps(payload, indent=2) + "\n"
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
    path.write_text("[1, 2]")
    code, out, err = run_cli("report", "--config", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == "config file must hold a JSON object"


@pytest.mark.parametrize("extra", [
    {"heralded_filter": {"center": 0.0, "width": 0.05}},
    {"filtre": 3},
])
@pytest.mark.parametrize("command", [
    ["report"], ["hom"], ["sweep", "tradeoff"], ["schmidt"],
    ["solve-filter", "--target-purity", "0.9"],
])
def test_unknown_config_key_exits_with_config_error(tmp_path, extra,
                                                    command):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({
        "jsa": {"sigma1": 1.0, "sigma2": 5.0,
                "theta1": "pi/4", "theta2": "-pi/4"},
        "filter": {"center": 0.0, "width": 0.6},
        **extra,
    }))
    code, out, err = run_cli(*command, "--config", str(path),
                             "--no-timestamp")
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "config"
    assert repr(next(iter(extra))) in error["message"]


K26 = {"sigma1": 1.0, "sigma2": 5.0, "theta1": "pi/4", "theta2": "-pi/4"}


@pytest.mark.parametrize("config", [
    {"jsa": K26, "filter": {"center": 0.0, "width": True}},
    {"jsa": K26, "filter": {"center": False, "width": 0.6}},
    {"jsa": {**K26, "sigma1": True}},
    {"jsa": {**K26, "sigma2": "5.0"}},
    {"jsa": K26, "filter": {"grid": [-1, "0", True],
                            "transmission": [False, "1.0", 0]}},
], ids=["width-true", "center-false", "sigma1-true", "sigma2-string",
        "tabulated-mixed"])
def test_non_numeric_config_values_exit_2(tmp_path, config):
    # a JSON true used to run as 1, false as 0, and "5.0" as 5.0
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli("report", "--config", str(path),
                             "--no-timestamp")
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "config"
    assert "must be a number" in error["message"]


@pytest.mark.parametrize("scale", [1e-200, 1e200])
@pytest.mark.parametrize("command", [
    ["report"], ["hom"], ["schmidt"],
    ["solve-filter", "--target-purity", "0.9"],
])
def test_widths_outside_the_range_exit_2(tmp_path, scale, command):
    # these used to exit 1 with a ZeroDivisionError or OverflowError traceback
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({
        "jsa": {**K26, "sigma1": scale, "sigma2": 5.0 * scale},
        "filter": {"center": 0.0, "width": 0.6 * scale}}))
    code, out, err = run_cli(*command, "--config", str(path),
                             "--no-timestamp")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "config",
        "message": f"sigma1 must lie in [1e-72, 1e+72], got {scale}"}


def test_near_parallel_ridges_exit_2(tmp_path):
    # the determinant cancelled to 0.0 and report ended in a
    # ZeroDivisionError traceback (exit 1)
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps({"jsa": {**K26, "theta1": 0.5,
                                        "theta2": 0.5 + 2e-9}}))
    code, out, err = run_cli("report", "--config", str(path))
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert json.loads(err)["message"].startswith(
        "theta1 and theta2 are too nearly parallel")


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


@pytest.mark.parametrize("command", ["report", "hom"])
def test_unresolved_tabulated_herald_exits_3(tmp_path, command):
    # a box whose knots sit in the amplitude's mass: report printed a
    # success 2.6% low with exit 0, then exited 3 on the doubled-node
    # check; its knot panels give the exact figures
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"jsa": K26, "filter": {
        "grid": [-5, -1 - 1e-6, -1, 1, 1 + 1e-6, 5],
        "transmission": [0, 0, 1, 1, 0, 0]}}))
    code, out, err = run_cli(command, "--config", str(path), "--no-timestamp")
    assert code == 0
    assert err == ""
    success, purity = 0.305113542520, 0.877079709208
    if command == "report":
        rows = dict(line.split(",", 1) for line in data_lines(out)[1:])
        assert rows["success"] == f",{success:.12g},"
        assert rows["purity_filtered"] == f",{purity:.12g},"
    else:
        # the balanced dip at zero delay is (1 - purity) / 2
        meta = parse_meta(out)
        assert float(meta["dip_minimum"]) == pytest.approx(
            0.5 * (1.0 - purity), abs=1e-12)


def test_failed_factorization_exits_3(k26_config, monkeypatch):
    def failing(*args):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(hp.schmidt, "_truncated_svd", failing)
    code, out, err = run_cli("schmidt", "--config", k26_config,
                             "--no-timestamp")
    assert code == 3 and out == ""
    assert json.loads(err) == {
        "error": "numerical",
        "message": "singular value decomposition failed: SVD did not converge"}


def test_sweep_deterministic_output(tmp_path):
    paths = [str(tmp_path / name) for name in ("a.csv", "b.csv")]
    for path in paths:
        code, _, _ = run_cli("sweep", "aspect", "--ratios", "1:3:3",
                             "--widths", "0.1:10:5", "--no-timestamp",
                             "--output", path)
        assert code == 0
    first, second = (Path(path).read_bytes() for path in paths)
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
    assert out == json.dumps(payload, indent=2) + "\n"
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
    # one point, and a log width range from zero
    for flag, text, message in [
            ("--ratios", "1:8:1", "range needs at least 2 points, got 1"),
            ("--widths", "0:1:3", "log range endpoints must be positive")]:
        code, out, err = run_cli("sweep", "aspect", flag, text,
                                 "--no-timestamp")
        assert (code, out) == (2, "")
        assert json.loads(err)["message"] == message


@pytest.mark.parametrize("kind, flag, text", [
    ("aspect", "--ratios", "1:inf:5"),
    ("aspect", "--widths", "0.1:inf:3"),
    ("aspect", "--ratios", "nan:2:3"),
    ("orientation", "--thetas", "0:-inf:3"),
])
def test_sweep_rejects_non_finite_range(kind, flag, text):
    # an infinite end used to print numpy's RuntimeWarning before an error
    # about a NaN width or ratio
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("sweep", kind, flag, text, "--no-timestamp")
    assert code == 2
    assert out == ""
    message = json.loads(err)["message"]
    assert "finite" in message and text in message


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
    assert pairs["method"] == "closed_form"
    assert float(pairs["visibility"]) == pytest.approx(0.5, abs=1e-3)


def test_solve_filter_json(ktp_config):
    code, out, _ = run_cli("solve-filter", "--config", ktp_config,
                           "--target-purity", "0.78", "--format", "json",
                           "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert float(payload["purity"]) == pytest.approx(0.78, abs=1e-3)
    assert payload["command"] == "solve-filter"


def test_solve_filter_uses_config_filter_center(tmp_path, jsa_k26):
    path = tmp_path / "offcentre.json"
    path.write_text(json.dumps({
        "jsa": {"sigma1": 1.0, "sigma2": 5.0,
                "theta1": "pi/4", "theta2": "-pi/4"},
        "filter": {"center": 0.7, "width": 0.6},
    }))
    code, out, _ = run_cli("solve-filter", "--config", str(path),
                           "--target-purity", "0.9", "--no-timestamp")
    assert code == 0
    pairs = dict(line.split(",", 1) for line in out.splitlines() if line)
    expected = hp.closed_form_success(
        jsa_k26, hp.GaussianFilter(0.7, float(pairs["sigma_f"])))
    assert float(pairs["success"]) == pytest.approx(expected, rel=1e-11)
    assert float(pairs["success"]) == pytest.approx(0.194635, abs=1e-6)

    # the solver sizes a Gaussian filter, so a tabulated one is an error
    path.write_text(json.dumps({
        "jsa": {"sigma1": 1.0, "sigma2": 5.0,
                "theta1": "pi/4", "theta2": "-pi/4"},
        "filter": {"grid": [-1.0, 0.0, 1.0], "transmission": [0.0, 1.0, 0.0]},
    }))
    code, out, err = run_cli("solve-filter", "--config", str(path),
                             "--target-purity", "0.9", "--no-timestamp")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("command", [
    ["solve-filter", "--target-purity", "0.9", "--nodes", "64"],
    ["solve-filter", "--target-purity", "0.9", "--extent", "5"],
    ["solve-filter", "--target-purity", "0.9", "--tol", "1e-4"],
    ["schmidt", "--nodes", "64"],
    # no sweep kind reads these flags; only tradeoff reads --two-filters
    ["sweep", "aspect", "--nodes", "64"],
    ["sweep", "aspect", "--extent", "9"],
    ["sweep", "aspect", "--two-filters"],
    ["sweep", "orientation", "--nodes", "64"],
    ["sweep", "orientation", "--extent", "9"],
    ["sweep", "orientation", "--two-filters"],
    ["sweep", "tradeoff", "--nodes", "64"],
    ["sweep", "tradeoff", "--extent", "9"],
])
def test_flags_a_subcommand_never_reads_exit_2(k26_config, command):
    code, out, err = run_cli(*command, "--config", k26_config,
                             "--no-timestamp")
    assert code == 2
    assert out == ""
    flag = [arg for arg in command if arg.startswith("--")][-1]
    assert flag in err


@pytest.mark.parametrize("command, flag", [
    (["sweep", "aspect", "--config", "demo.json"], "--config"),
    (["sweep", "orientation", "--theta1", "0.3"], "--theta1"),
    (["sweep", "orientation", "--ratios", "1:3:3"], "--ratios"),
    (["sweep", "tradeoff", "--ratio", "9"], "--ratio"),
    (["sweep", "tradeoff", "--thetas", "0:1:2"], "--thetas"),
])
def test_each_sweep_kind_rejects_the_others_flags(k26_config, command, flag):
    if command[1] == "tradeoff":
        command = [*command, "--config", k26_config]
    code, out, err = run_cli(*command, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("command, flag", [
    (["sweep", "orientation", "--theta", "0:1:3", "--widths", "0.5:1:2"],
     "--theta"),
    (["sweep", "aspect", "--ratio", "5"], "--ratio"),
    (["report", "--conf", "CONFIG"], "--conf"),
    (["hom", "--conf", "CONFIG"], "--conf"),
])
def test_abbreviated_flags_exit_2(k26_config, command, flag):
    # argparse would otherwise read a prefix as the flag it starts
    command = [k26_config if arg == "CONFIG" else arg for arg in command]
    code, out, err = run_cli(*command, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert f"arguments: {flag} " in err


def test_two_filter_tradeoff_rejects_quadrature_flags(k26_config):
    # the two-filter trade-off is a closed form: nothing to integrate
    for flag, value in (("--nodes", "64"), ("--extent", "9")):
        code, out, err = run_cli("sweep", "tradeoff", "--config", k26_config,
                                 "--two-filters", flag, value, "--widths",
                                 "0.5:2:2", "--no-timestamp")
        assert code == 2
        assert out == ""
        assert flag in err


@pytest.mark.parametrize("tau_max", ["nan", "inf", "0", "-1"])
def test_hom_rejects_non_finite_delays(k26_config, tau_max):
    code, out, err = run_cli("hom", "--config", k26_config, "--filter-width",
                             "1.0", "--tau-max", tau_max, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert "finite" in json.loads(err)["message"]


@pytest.mark.parametrize("extent", ["inf", "nan"])
@pytest.mark.parametrize("command", ["report", "hom", "schmidt"])
def test_non_finite_extent_exits_2(k26_config, command, extent):
    # report and hom used to end in an OverflowError traceback (exit 1)
    herald = ["--filter-width", "1.0"] if command == "hom" else []
    code, out, err = run_cli(command, "--config", k26_config, *herald,
                             "--extent", extent, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert "half_extent" in json.loads(err)["message"]


@pytest.mark.parametrize("points", ["1", "2", "4"])
def test_hom_rejects_tau_points_that_miss_zero_delay(k26_config, points):
    code, out, err = run_cli("hom", "--config", k26_config, "--filter-width",
                             "1.0", "--tau-points", points, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert "--tau-points" in json.loads(err)["message"]


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


def test_jsa_csv_without_samples_exit_2(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("omega_signal,omega_idler,re,im\n")
    with warnings.catch_warnings():
        # the error alone reports the empty file, with no parser warning
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no samples"):
            load_jsa_csv(str(path))

    config = tmp_path / "empty.json"
    config.write_text(json.dumps({"jsa": {"csv_path": str(path)}}))
    code, out, err = run_cli("report", "--config", str(config),
                             "--filter-width", "0.8", "--no-timestamp")
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "config"
    assert "no samples" in error["message"]


def test_jsa_csv_matches_columns_by_name(tmp_path, k26_grid):
    # the four columns in another order, among two the loader ignores; and
    # the file with a UTF-8 byte-order mark, as spreadsheets export it
    in_order = tmp_path / "jsa.csv"
    write_jsa_csv(in_order, k26_grid)
    marked = tmp_path / "marked.csv"
    marked.write_text(in_order.read_text(), encoding="utf-8-sig")
    sig, idl, re, im = np.loadtxt(in_order, delimiter=",", skiprows=1).T
    reordered = tmp_path / "reordered.csv"
    np.savetxt(reordered, np.column_stack([im, np.ones_like(re), idl, re,
                                           sig, -im]),
               delimiter=",", header="im,weight,omega_idler,re,omega_signal,x",
               comments="")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = load_jsa_csv(str(in_order))
    for path in (reordered, marked):
        loaded = load_jsa_csv(str(path))
        np.testing.assert_array_equal(loaded.signal_grid,
                                      expected.signal_grid)
        np.testing.assert_array_equal(loaded.idler_grid, expected.idler_grid)
        np.testing.assert_array_equal(loaded.amplitudes, expected.amplitudes)


@pytest.mark.parametrize("row, message", [
    ("0.0,abc,1.0,0.0\n", "could not convert"),
    ("0.0,1.0,1.0\n", "column"),
    ("0.0,1.0,,0.0\n", "could not convert"),
])
def test_jsa_csv_malformed_row_exit_2(tmp_path, row, message):
    path = tmp_path / "malformed.csv"
    path.write_text("omega_signal,omega_idler,re,im\n0.0,0.0,1.0,0.0\n"
                    + row)
    with pytest.raises(ValueError, match=message):
        load_jsa_csv(str(path))

    config = tmp_path / "malformed.json"
    config.write_text(json.dumps({"jsa": {"csv_path": str(path)}}))
    code, out, err = run_cli("report", "--config", str(config),
                             "--filter-width", "0.8", "--no-timestamp")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("command", [
    ("report",), ("solve-filter", "--target-purity", "0.9"), ("schmidt",),
], ids=lambda command: command[0])
def test_jsa_csv_non_finite_frequency_exit_2(tmp_path, k26_grid, bad,
                                             command):
    # the last signal frequency made non-finite on every row: the rows still
    # cover a rectangle once, and these printed figures with exit 0
    path = tmp_path / "nonfinite.csv"
    write_jsa_csv(path, k26_grid)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    rows[rows[:, 0] == k26_grid.signal_grid[-1], 0] = bad
    np.savetxt(path, rows, delimiter=",",
               header="omega_signal,omega_idler,re,im", comments="")
    config = tmp_path / "nonfinite.json"
    config.write_text(json.dumps({"jsa": {"csv_path": str(path)},
                                  "filter": {"center": 0.0, "width": 0.8}}))
    code, out, err = run_cli(*command, "--config", str(config),
                             "--no-timestamp")
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "config"
    assert "signal_grid must be finite" in error["message"]


def test_gridded_config_refusals_exit_2(tmp_path, k26_grid):
    # a tradeoff sweep on tabulated samples, and samples without an im column
    path = tmp_path / "jsa.csv"
    write_jsa_csv(path, k26_grid)
    config = tmp_path / "gridded.json"
    config.write_text(json.dumps({"jsa": {"csv_path": str(path)}}))
    code, out, err = run_cli("sweep", "tradeoff", "--config", str(config),
                             "--no-timestamp")
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == ("closed forms exist only for "
                                          "double-Gaussian amplitudes")
    path.write_text("omega_signal,omega_idler,re\n0.0,0.0,1.0\n")
    code, out, err = run_cli("report", "--config", str(config),
                             "--no-timestamp")
    assert (code, out) == (2, "")
    assert json.loads(err)["message"].startswith(
        "jsa csv must have columns omega_signal,omega_idler,re,im")


def test_solve_filter_on_separable_gridded_config(tmp_path):
    grid = hp.discretize(hp.DoubleGaussianJsa(1.0, 2.0, 0.0, math.pi / 2),
                         6.0, 200)
    path = tmp_path / "jsa.csv"
    write_jsa_csv(path, grid)
    config = tmp_path / "gridded.json"
    config.write_text(json.dumps({"jsa": {"csv_path": str(path)}}))
    code, out, err = run_cli("solve-filter", "--config", str(config),
                             "--target-purity", "0.5", "--no-timestamp")
    assert (code, err) == (0, "")
    pairs = dict(line.split(",", 1) for line in out.splitlines() if line)
    assert pairs["method"] == "bracket_end"
    assert pairs["purity"] == pairs["visibility"] == "1"


@pytest.mark.parametrize("shoulder", [1e-4, 0.0], ids=["shoulder", "line"])
def test_solve_filter_on_a_too_coarse_idler_grid_exits_3(tmp_path, shoulder):
    # the shoulder grid printed sigma_f 0.0133 and bracket_end with exit 0,
    # the line grid exited 2 on a filter width of 0
    path = tmp_path / "jsa.csv"
    write_jsa_csv(path, idler_line_grid(shoulder))
    config = tmp_path / "gridded.json"
    config.write_text(json.dumps({"jsa": {"csv_path": str(path)}}))
    code, out, err = run_cli("solve-filter", "--config", str(config),
                             "--target-purity", "0.9", "--no-timestamp")
    assert (code, out) == (3, "")
    error = json.loads(err)
    assert error["error"] == "numerical"
    assert error["message"].startswith("idler grid step 0.09375 rad/ps is "
                                       "too coarse for the RMS idler")


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


@pytest.mark.parametrize("command, flag, value", [
    (["report"], "--extent", "9"),
    (["report"], "--nodes", "64"),
    (["schmidt"], "--extent", "9"),
    (["schmidt"], "--grid-n", "300"),
    (["hom", "--tau-max", "1.0", "--tau-points", "9"], "--extent", "9"),
    (["hom", "--tau-max", "1.0", "--tau-points", "9"], "--nodes", "64"),
])
def test_grid_flags_on_gridded_config_exit_2(tmp_path, k26_grid, command,
                                             flag, value):
    # these flags size a quadrature or a discretization, and tabulated
    # samples need neither
    path = tmp_path / "jsa.csv"
    write_jsa_csv(path, k26_grid)
    config = tmp_path / "gridded.json"
    config.write_text(json.dumps({"jsa": {"csv_path": str(path)},
                                  "filter": {"center": 0.0, "width": 0.8}}))
    code, out, err = run_cli(*command, "--config", str(config), flag, value,
                             "--no-timestamp")
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "config"
    assert flag in error["message"]


def test_csv_path_section_holds_nothing_else(tmp_path, k26_grid):
    # the samples used to be loaded and the other keys ignored
    path = tmp_path / "jsa.csv"
    write_jsa_csv(path, k26_grid)
    config = tmp_path / "gridded.json"
    config.write_text(json.dumps({
        "jsa": {"csv_path": str(path), "sigma1": 2.0, "bogus": 1},
        "filter": {"center": 0.0, "width": 0.6}}))
    code, out, err = run_cli("report", "--config", str(config),
                             "--no-timestamp")
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "config"
    assert "'bogus'" in error["message"] and "'sigma1'" in error["message"]


@pytest.mark.parametrize("value, shown", [
    (0, "0"), (True, "True"), (7, "7"), (1.5, "1.5")])
def test_csv_path_must_be_a_string(tmp_path, jsa_k26, value, shown):
    # a number was opened as a file descriptor: 0 read the samples piped on
    # stdin and printed a report, while 7 and true failed with "Bad file
    # descriptor".  A child interpreter runs it, as open(0) would close this
    # process's own stdin.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        grid = hp.discretize(jsa_k26, 4.0, 128)
    samples = tmp_path / "jsa.csv"
    write_jsa_csv(samples, grid)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"jsa": {"csv_path": value},
                                  "filter": {"center": 0.0, "width": 0.6}}))
    done = subprocess.run(
        [sys.executable, "-m", "heraldpurity.cli", "report", "--config",
         str(config), "--no-timestamp"],
        input=samples.read_text(), capture_output=True, text=True,
        timeout=120, env=child_env())
    assert (done.returncode, done.stdout) == (2, "")
    assert json.loads(done.stderr) == {
        "error": "config",
        "message": f"csv_path must be a path string, got {shown}"}


def test_report_nodes_flag_sets_the_quadrature(k26_config, jsa_k26):
    code, out, _ = run_cli("report", "--config", k26_config,
                           "--filter-width", "0.6", "--nodes", "1024",
                           "--no-timestamp")
    assert code == 0
    expected = hp.heralding_report(jsa_k26, hp.GaussianFilter(0.0, 0.6),
                                   hp.QuadratureSpec(n_nodes=1024))
    rows = [line.split(",") for line in data_lines(out)[1:]]
    assert len(rows) == 6
    for name, _, quadrature, _ in rows:
        assert quadrature == _fmt(getattr(expected, name))


def test_report_timestamp_follows_command(k26_config):
    code, out, _ = run_cli("report", "--config", k26_config)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# command = report"
    assert lines[1].startswith("# generated = ")
    _dt.datetime.fromisoformat(parse_meta(out)["generated"])
    code, out, _ = run_cli("report", "--config", k26_config, "--format",
                           "json")
    assert code == 0
    meta = json.loads(out)["meta"]
    assert list(meta) == ["command", "generated"]
    _dt.datetime.fromisoformat(meta["generated"])


def test_schmidt_grid_flags_size_the_discretization(k26_config, jsa_k26):
    with warnings.catch_warnings():
        # 300 points under-resolve the transverse width; both sides warn
        warnings.simplefilter("ignore", UserWarning)
        code, out, _ = run_cli("schmidt", "--config", k26_config, "--extent",
                               "9", "--grid-n", "300", "--no-timestamp")
        modes = hp.decompose(hp.discretize(jsa_k26, 9.0, 300))
    assert code == 0
    meta = parse_meta(out)
    assert meta["n_modes_retained"] == str(modes.n_modes)
    assert meta["schmidt_number"] == _fmt(modes.schmidt_number())


def test_schmidt_gridded_reference_is_its_own_k(tmp_path, k26_grid):
    path = tmp_path / "jsa.csv"
    write_jsa_csv(path, k26_grid)
    config = tmp_path / "gridded.json"
    config.write_text(json.dumps({"jsa": {"csv_path": str(path)}}))
    code, out, _ = run_cli("schmidt", "--config", str(config),
                           "--no-timestamp")
    assert code == 0
    k = hp.decompose(load_jsa_csv(str(path))).schmidt_number()
    meta = parse_meta(out)
    assert meta["thermal_reference_k"] == meta["schmidt_number"] == _fmt(k)


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

    env = child_env()
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


def test_row_helpers_round_trip(jsa_k26):
    grid = hp.sweep_aspect_ratio(ratios=np.array([1.0, 3.0]),
                                 filter_widths=np.array([0.5, 1.0]))
    header, rows = grid_to_rows(grid)
    assert header == ["aspect_ratio", "filter_width", "success", "purity",
                      "visibility"]
    assert len(rows) == 4
    # axis cells are formatted once per axis value, as text
    assert rows[0][0] == "1"
    assert rows[-1][1] == "1"
    payload = grid_to_dict(grid)
    assert payload["axes"]["aspect_ratio"] == [1.0, 3.0]
    np.testing.assert_allclose(payload["purity"], grid.purity)

    points = hp.tradeoff_curve(jsa_k26, filter_widths=np.array([0.5, 1.0]))
    header, rows = tradeoff_to_rows(points)
    assert header == ["sigma_f", "success", "purity", "visibility"]
    assert len(rows) == 2
    payload = tradeoff_to_dict(points)
    assert [entry["sigma_f"] for entry in payload] == [0.5, 1.0]


def test_export_modes_csv_round_trip(k26_modes):
    thermal = hp.thermal_schmidt_coefficients(2.6, n_modes=3)
    buffer = io.StringIO()
    export_modes_csv(k26_modes, buffer, n_modes=3, reference=thermal)
    text = buffer.getvalue()
    blocks = text.split("\n\n")
    assert len(blocks) == 3

    weight_lines = blocks[0].strip().splitlines()
    assert weight_lines[0] == "mu,p_mu,reference_p_mu"
    for mu, line in enumerate(weight_lines[1:]):
        index, weight, reference = line.split(",")
        assert int(index) == mu
        assert float(weight) == pytest.approx(
            k26_modes.coefficients[mu], rel=1e-11)
        assert float(reference) == pytest.approx(thermal[mu], rel=1e-11)

    signal_lines = blocks[1].strip().splitlines()
    assert signal_lines[0] == "# signal modes"
    assert signal_lines[1].split(",")[:3] == ["omega", "mode0_re", "mode0_im"]
    row = signal_lines[2].split(",")
    assert float(row[0]) == pytest.approx(k26_modes.signal_grid[0], rel=1e-11)
    assert float(row[1]) == pytest.approx(
        k26_modes.signal_modes[0, 0].real, rel=1e-9, abs=1e-14)
    assert blocks[2].strip().splitlines()[0] == "# idler modes"
    assert len(signal_lines) == 2 + k26_modes.signal_grid.size


EDGE_VALUES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e16,
               123456789012.5, math.inf, -math.inf, math.nan, 7, -3,
               np.float64(0.1), np.int64(-12), 1.0, 2**53 + 1]


def old_row(row):
    """A table row as written one value at a time."""
    return ",".join(format(float(v), ".12g") for v in row) + "\n"


def test_table_writer_formats_as_twelve_digits():
    rng = np.random.default_rng(7)
    magnitudes = 10.0 ** rng.uniform(-300, 300, 20_000)
    signs = rng.choice([-1.0, 1.0], magnitudes.size)
    tables = [
        [tuple(EDGE_VALUES)],
        [tuple(EDGE_VALUES[i:i + 4]) for i in range(0, 16, 4)],
        # more rows than one chunk holds, as lists like array.tolist()
        (magnitudes * signs).reshape(-1, 5).tolist(),
    ]
    for rows in tables:
        header = [f"c{i}" for i in range(len(rows[0]))]
        buffer = io.StringIO()
        _write_csv(buffer, ["# meta = 1"], header, rows)
        expected = ("# meta = 1\n" + ",".join(header) + "\n"
                    + "".join(old_row(row) for row in rows))
        assert buffer.getvalue() == expected
    # per-column templates: every other column arrives formatted, as text
    fields = ["%.12g", "%s"] * 8
    row = tuple(_fmt(v) if field == "%s" else v
                for field, v in zip(fields, EDGE_VALUES))
    buffer = io.StringIO()
    _write_csv(buffer, [], ["c"] * 16, [row], field=fields)
    assert buffer.getvalue() == ",".join(["c"] * 16) + "\n" + old_row(
        EDGE_VALUES)


@pytest.mark.parametrize("argv, sweep", [
    (["aspect", "--widths", "1e-6:1000:101"],
     lambda: hp.sweep_aspect_ratio(filter_widths=np.logspace(-6, 3, 101))),
    (["orientation"], hp.sweep_orientation),
])
def test_sweep_tables_format_as_twelve_digits(argv, sweep):
    code, out, _ = run_cli("sweep", *argv, "--no-timestamp")
    assert code == 0
    grid = sweep()
    axis1, axis2 = np.meshgrid(grid.axis1, grid.axis2, indexing="ij")
    columns = [np.ravel(c) for c in (axis1, axis2, grid.success,
                                     grid.purity, hp.visibility(grid.purity))]
    lines = out.splitlines(keepends=True)
    assert lines[-grid.purity.size - 1].startswith(grid.axis1_name + ",")
    assert lines[-grid.purity.size:] == [old_row(row) for row in zip(*columns)]


def test_closed_output_pipe_exits_1_quietly():
    # The default aspect table is far larger than a pipe's buffer, so the
    # writer is still running when the reader goes away.
    child = subprocess.Popen(
        [sys.executable, "-m", "heraldpurity.cli", "sweep", "aspect",
         "--no-timestamp"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    try:
        assert child.stdout.readline() == b"# command = sweep\n"
        child.stdout.close()
        assert child.wait(timeout=120) == 1
        assert child.stderr.read() == b""
    finally:
        child.kill()
        child.stderr.close()


def test_table_writer_report_rows():
    rows = [("success", None, np.float64(0.25), None),
            ("g2", 1.5, 1.5, 0.0), ("schmidt_number", 2, 2.0, 5e-324)]
    buffer = io.StringIO()
    _write_csv(buffer, [], ["quantity", "analytic", "quadrature",
                            "difference"],
               [tuple(map(_fmt, row)) for row in rows], field="%s")
    assert buffer.getvalue() == (
        "quantity,analytic,quadrature,difference\n"
        "success,,0.25,\n"
        "g2,1.5,1.5,0\n"
        "schmidt_number,2,2,4.94065645841e-324\n")


def test_cached_parser_matches_fresh_processes(tmp_path, k26_config):
    # One parser serves every call in a process; each call must still
    # print and exit as a run in a fresh interpreter does.
    assert build_parser() is build_parser()
    calls = [
        ["sweep", "aspect", "--ratios", "1:3:3", "--widths", "0.5:2:3"],
        ["report", "--config", k26_config, "--filter-width", "0.8",
         "--format", "json"],
        ["report", "--conf", k26_config],
        ["sweep", "aspect", "--ratios", "1:inf:5"],
        ["schmidt", "--config", k26_config, "--n-modes", "2"],
    ]
    calls = [call + ["--no-timestamp"] for call in calls]
    env = child_env()
    fresh = []
    for call in calls:
        done = subprocess.run(
            [sys.executable, "-m", "heraldpurity.cli", *call],
            capture_output=True, text=True, timeout=120, env=env)
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 2, 0]
    for _ in range(2):
        assert [run_cli(*call) for call in calls] == fresh


def test_snapshot_compare_lists_moved_runs_and_columns(tmp_path, capsys):
    # tools/cli_snapshot.py --compare: runs matched by argument vector, the
    # moved lines, and the largest relative change per column
    spec = importlib.util.spec_from_file_location(
        "cli_snapshot", Path(__file__).resolve().parents[1] / "tools"
        / "cli_snapshot.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = [["report", "--no-timestamp"], ["sweep", "aspect"]]
    outputs = {
        "old": ["q,a,d\nx,1.5,2e-16\ny,2.0,1e-16\n", '{\n  "d": 4.0\n}\n'],
        "new": ["q,a,d\nx,1.5,3e-16\ny,2.0,1e-16\n", '{\n  "d": 4.0\n}\n'],
    }
    for side, stdouts in outputs.items():
        folder = tmp_path / side
        folder.mkdir()
        (folder / "index.json").write_text(json.dumps(runs))
        for i, text in enumerate(stdouts):
            (folder / f"{i:02d}.stdout").write_text(text)
            (folder / f"{i:02d}.stderr").write_text("")
            (folder / f"{i:02d}.code").write_text("0\n")
    assert tool.main(["--compare", str(tmp_path / "old"),
                      str(tmp_path / "new")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "00 report --no-timestamp",
        "  stdout:",
        "  - x,1.5,2e-16",
        "  + x,1.5,3e-16",
        "  largest relative change in d: 0.5 (2e-16 -> 3e-16); largest "
        "change over the column's largest magnitude 2e-16: 0.5",
        "1 of 2 runs differ",
    ]
    assert tool.main(["--compare", str(tmp_path / "old"),
                      str(tmp_path / "old")]) == 0


def test_snapshot_compare_measures_a_column_by_its_scale(tmp_path, capsys):
    # a near-zero entry's flip reads huge relative to itself, and small
    # against the largest magnitude of its column in the old output
    spec = importlib.util.spec_from_file_location(
        "cli_snapshot", Path(__file__).resolve().parents[1] / "tools"
        / "cli_snapshot.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for side, entry in (("old", "1e-17"), ("new", "1e-12")):
        folder = tmp_path / side
        folder.mkdir()
        (folder / "index.json").write_text(json.dumps([["hom"]]))
        (folder / "00.stdout").write_text(f"t,p\n0,-0.5\n1,{entry}\n")
        (folder / "00.stderr").write_text("")
        (folder / "00.code").write_text("0\n")
    assert tool.main(["--compare", str(tmp_path / "old"),
                      str(tmp_path / "new")]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "  largest relative change in p: 1e+05 (1e-17 -> 1e-12); largest "
        "change over the column's largest magnitude 0.5: 2e-12",
        "1 of 1 runs differ",
    ]
