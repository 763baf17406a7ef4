"""Tests of the benchmark itself: seeded inputs, checks, tracing, output.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import heraldpurity as hp
import heraldpurity.cli  # noqa: F401
import run
import workloads
from tracing import Tracer
from worker import Pass

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
K26 = (1.0, 5.0, math.pi / 4, -math.pi / 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs(workload):
    first = workloads.digest(workloads.generate(workload, 7, 0))
    assert first == workloads.digest(workloads.generate(workload, 7, 0))
    assert first != workloads.digest(workloads.generate(workload, 8, 0))
    other_pass = workloads.digest(workloads.generate(workload, 7, 1))
    assert (first == other_pass) == (workload in workloads.SHARED_INPUTS)


def test_stratified_inputs_fix_what_sets_the_cost():
    assert [workloads.radical_inverse(i) for i in range(1, 5)] == \
        [0.5, 0.25, 0.75, 0.125]
    for index in range(4):
        routes = [workloads.generate("three-route", seed, index)["cases"]
                  for seed in (1, 2)]
        assert [c["n_points"] for c in routes[0]] == \
            [c["n_points"] for c in routes[1]]
        ladders = [workloads.generate("ktp-quadrature", seed, index)["ladder"]
                   for seed in (1, 2)]
        assert [w for _, w in ladders[0]] == [w for _, w in ladders[1]]


def test_three_route_draws_follow_acceptance_bounds():
    for case in workloads.generate("three-route", 3, 0)["cases"]:
        assert workloads.schmidt_k(case["jsa"]) <= 8.0
        assert 0.05 <= case["filter"][1] <= 20.0
        assert abs(case["filter"][0]) <= 3.0
        assert 256 <= case["n_points"] <= 1100


def test_frozen_grid_rule_matches_package():
    rng = workloads.pass_rng(5, "test", 0)
    for _ in range(20):
        case = workloads.draw_case(rng)
        jsa = hp.DoubleGaussianJsa(*case["jsa"])
        expected = hp.recommended_grid(jsa, hp.GaussianFilter(*case["filter"]))
        assert case["half_extent"] == pytest.approx(expected[0], rel=1e-12)
        assert case["n_points"] == expected[1]


def test_tail_keeps_ten_samples_beyond():
    value, percentile, count = run.tail([float(v) for v in range(100, 0, -1)])
    assert (value, percentile, count) == (90.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail([float(v) for v in range(20)]) == (19.0, 100.0, 20)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans += [(0, -1, 0, "sweep", "outer", 0.0, 10.0),
                     (1, 0, 0, "analytic", "inner", 2.0, 5.0),
                     (2, 1, 0, "sweep", "nested", 3.0, 4.0)]
    summary = tracer.summary()
    assert summary["busy"]["sweep"] == 10.0
    assert summary["self"]["sweep"] == 8.0
    assert summary["busy"]["analytic"] == 3.0
    assert summary["self"]["analytic"] == 2.0


def test_tracer_wraps_cross_module_lookups_and_restores():
    original = hp.sweep.closed_form_purity
    tracer = Tracer()
    tracer.install(hp)
    try:
        assert hp.sweep.closed_form_purity is not original
        hp.sweep_aspect_ratio(ratios=[2.0, 3.0], filter_widths=[0.5, 1.0, 2.0])
    finally:
        tracer.uninstall()
    assert hp.sweep.closed_form_purity is original
    summary = tracer.summary()
    assert summary["calls"]["analytic.closed_form_purity"] == 6
    assert summary["work"]["sweep.sweep_aspect_ratio.points"] == 6
    assert summary["self"]["sweep"] <= summary["busy"]["sweep"]


# --- each check fires on a perturbed result ---------------------------------

def _spec(workload, tmp_path):
    rng = workloads.pass_rng(1, "perturb", 0)
    if workload == "three-route":
        cases = []
        while len(cases) < 2:
            case = workloads.draw_case(rng)
            if case["n_points"] <= 400:
                cases.append(case)
        spec = {"cases": cases}
    elif workload == "ktp-quadrature":
        spec = {"jsa": K26, "ladder": [(0.1, 0.5), (0.0, 1.0)],
                "filter": (0.0, 1.0), "tau_max": 2.0, "tau_points": 21}
    elif workload == "design-scan":
        spec = workloads.gen_design(rng)
    else:
        spec = workloads.gen_gridded(rng)
        spec["sources"] = spec["sources"][:1]
        spec["sources"][0]["tau_points"] = 21
    return workloads.prepare(workload, json.loads(json.dumps(spec)),
                             str(tmp_path))


def _run(workload, spec):
    rec = Pass()
    workloads.RUNNERS[workload](hp, spec, rec)
    return rec


def _scaled(fn, factor):
    return lambda *a, **k: fn(*a, **k) * factor


def _shift_curve(fn, offset):
    def shifted(*a, **k):
        curve = fn(*a, **k)
        return hp.HomCurve(curve.delays, curve.coincidences + offset)
    return shifted


def _replace(fn, **changes):
    def replaced(*a, **k):
        out = fn(*a, **k)
        return dataclasses.replace(out, **{key: change(getattr(out, key))
                                           for key, change in changes.items()})
    return replaced


def _raise(*a, **k):
    raise hp.NumericalError("injected failure")


PERTURBATIONS = [
    ("three-route", hp, "filtered_purity",
     lambda f: _scaled(f, 1 + 1e-5), "quadrature vs closed form"),
    ("three-route", hp, "schmidt_quantities",
     lambda f: lambda *a: (f(*a)[0] * (1 + 1e-3), f(*a)[1]),
     "modal vs closed form"),
    ("ktp-quadrature", hp, "two_filter_quantities",
     lambda f: lambda *a: (f(*a)[0], 1.0), "two-filter success above"),
    ("ktp-quadrature", hp, "filtered_purity",
     lambda f: _scaled(f, 1 + 1e-5), "quadrature purity vs closed form"),
    ("ktp-quadrature", hp, "heralding_report",
     lambda f: _replace(f, success=lambda v: v * (1 + 1e-5)),
     "heralding report vs closed forms"),
    ("ktp-quadrature", hp, "hom_dip",
     lambda f: _shift_curve(f, 1e-5), "quadrature dip vs closed form"),
    ("design-scan", hp.sweep, "closed_form_purity",
     lambda f: _scaled(f, 1 + 1e-8), "aspect closed-form columns"),
    ("design-scan", hp.sweep, "closed_form_success",
     lambda f: _scaled(f, 1 + 1e-7), "orientation closed-form columns"),
    ("design-scan", hp.cli, "tradeoff_curve",
     lambda f: lambda *a, **k: [dataclasses.replace(p, purity=p.purity + 1e-8)
                                for p in f(*a, **k)],
     "tradeoff closed-form columns"),
    ("design-scan", hp.cli, "solve_filter_for_target",
     lambda f: _replace(f, purity=lambda v: v + 1e-3),
     "solved purity misses its target"),
    ("design-scan", hp.cli, "hom_dip",
     lambda f: _shift_curve(f, 1e-5), "quadrature dip vs closed_form column"),
    ("design-scan", hp.cli, "sweep_aspect_ratio",
     lambda f: _raise, "cli exit code 3"),
    ("gridded-modal", hp.cli, "load_jsa_csv",
     lambda f: _replace(f, amplitudes=lambda v: v * (1 + 1e-8)),
     "loaded samples differ"),
    ("gridded-modal", hp, "decompose",
     lambda f: _replace(f, coefficients=lambda v: v * (1 + 1e-6)),
     "modal vs quadrature unfiltered purity"),
    ("gridded-modal", hp, "schmidt_quantities",
     lambda f: lambda *a: (f(*a)[0] + 1e-8, f(*a)[1]),
     "modal vs quadrature filtered quantities"),
    ("gridded-modal", hp, "solve_filter_for_target",
     lambda f: _replace(f, purity=lambda v: v + 1e-3),
     "solved purity misses its target"),
    ("gridded-modal", hp, "hom_dip_schmidt",
     lambda f: _shift_curve(f, 1e-7), "modal dip vs direct dip of the kept"),
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_unperturbed_pass_is_correct(workload, tmp_path):
    rec = _run(workload, _spec(workload, tmp_path))
    assert rec.tasks and not rec.failures


@pytest.mark.parametrize(
    "workload, owner, name, perturb, message", PERTURBATIONS,
    ids=[f"{p[0]}-{p[2]}" for p in PERTURBATIONS])
def test_check_fires_on_perturbed_result(workload, owner, name, perturb,
                                        message, tmp_path, monkeypatch):
    monkeypatch.setattr(owner, name, perturb(getattr(owner, name)))
    rec = _run(workload, _spec(workload, tmp_path))
    assert any(message in failure for failure in rec.failures), rec.failures
    assert sum(not task["ok"] for task in rec.tasks) >= 1


# --- the command prints every named metric ----------------------------------

def _bench(argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + argv,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    done = _bench(["--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace)])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])
        if not trace:
            assert printed["value"] > 0.0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    done = _bench(["--workload", "three-route", "--seed", "1", "--seconds",
                   "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
