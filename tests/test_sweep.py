"""Tests for parameter sweeps and the filter-width solver."""

import math
import warnings

import numpy as np
import pytest

import heraldpurity as hp
from heraldpurity.sweep import _gridded_curve, _scan


@pytest.mark.parametrize("bad", [True, "0.1"], ids=["bool", "str"])
@pytest.mark.parametrize("field", ["axis1", "axis2", "success", "purity"])
def test_sweep_grid_refuses_bool_and_str_entries(field, bad):
    # these built, as float(True) = 1.0 and float("0.1") = 0.1
    arrays = {"axis1": [1.0, 2.0], "axis2": [1.0], "success": [[0.1], [0.2]],
              "purity": [[0.3], [0.4]]}
    arrays[field][0] = [bad] if field in ("success", "purity") else bad
    with pytest.raises(ValueError, match=f"{field} entry must be a number"):
        hp.SweepGrid("a", arrays["axis1"], "b", arrays["axis2"],
                     arrays["success"], arrays["purity"])


def test_sweep_grid_refuses_surfaces_off_its_axes():
    with pytest.raises(ValueError, match="surface shapes do not match"):
        hp.SweepGrid("a", [1.0, 2.0], "b", [1.0], [[0.1, 0.2]], [[0.3], [0.4]])


def test_aspect_sweep_shapes_and_limits():
    ratios = np.array([1.0, 2.0, 5.0])
    widths = np.logspace(-2, 1, 13)
    grid = hp.sweep_aspect_ratio(ratios=ratios, filter_widths=widths)
    assert grid.axis1_name == "aspect_ratio"
    assert grid.axis2_name == "filter_width"
    assert grid.purity.shape == (3, 13)
    # equal widths mean a separable amplitude regardless of the filter
    np.testing.assert_allclose(grid.purity[0], 1.0, atol=1e-9)
    # narrowband filtering restores purity for any ratio
    assert np.all(grid.purity[:, 0] > 0.999)
    # elongation at a fixed width degrades purity
    assert np.all(np.diff(grid.purity[:, -1]) < 0.0)


def test_orientation_sweep_axes_aligned_are_pure():
    thetas = np.array([0.0, 0.3 * math.pi, math.pi / 2])
    widths = np.logspace(-2, 1, 9)
    grid = hp.sweep_orientation(theta1_values=thetas, filter_widths=widths)
    np.testing.assert_allclose(grid.purity[0], 1.0, atol=1e-9)
    np.testing.assert_allclose(grid.purity[2], 1.0, atol=1e-9)
    assert grid.purity[1].min() < 0.999


def test_orientation_window_keeps_success_high():
    # across the useful tilt window, purity 0.9 still heralds efficiently
    for theta1 in (0.25 * math.pi, 0.30 * math.pi, 0.35 * math.pi,
                   0.42 * math.pi):
        jsa = hp.DoubleGaussianJsa(1.0, 5.0, theta1, theta1 - math.pi / 2)
        solution = hp.solve_filter_for_target(jsa, target_purity=0.9)
        success = hp.closed_form_success(
            jsa, hp.GaussianFilter(0.0, solution.sigma_f))
        assert success >= 0.19


def test_tradeoff_curve_matches_closed_forms(jsa_k26):
    widths = np.logspace(-2, 1, 21)
    points = hp.tradeoff_curve(jsa_k26, filter_widths=widths)
    successes = np.array([point.success for point in points])
    purities = np.array([point.purity for point in points])
    assert np.all(np.diff(successes) > 0.0)
    assert np.all(np.diff(purities) < 0.0)
    for width, point in zip(widths, points):
        filt = hp.GaussianFilter(0.0, width)
        assert point.purity == pytest.approx(
            hp.closed_form_purity(jsa_k26, filt), rel=1e-12)
        assert point.success == pytest.approx(
            hp.closed_form_success(jsa_k26, filt), rel=1e-12)
        assert point.visibility == pytest.approx(
            point.purity / (2.0 - point.purity), rel=1e-12)


def test_tradeoff_two_filter_variant(jsa_ktp):
    widths = np.array([1.0, 2.0, 6.0])
    single = hp.tradeoff_curve(jsa_ktp, filter_widths=widths)
    double = hp.tradeoff_curve(jsa_ktp, filter_widths=widths, two_filter=True)
    purity, success = hp.closed_form_two_filter(
        *jsa_ktp.intensity_coefficients(), widths, 0.0, widths, 0.0)
    for one, two, p, s in zip(single, double, purity, success):
        assert two.purity > one.purity
        assert two.success < one.success
        assert (two.purity, two.success) == (p, s)
        assert two.visibility == hp.visibility(p)


def test_tradeoff_rejects_gridded(k26_grid):
    with pytest.raises(TypeError):
        hp.tradeoff_curve(k26_grid)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_sweeps_reject_invalid_widths(jsa_k26, bad):
    widths = [0.5, bad]
    with pytest.raises(ValueError, match="positive and finite"):
        hp.tradeoff_curve(jsa_k26, filter_widths=widths)
    with pytest.raises(ValueError, match="positive and finite"):
        hp.sweep_aspect_ratio(ratios=[2.0], filter_widths=widths)
    with pytest.raises(ValueError, match="positive and finite"):
        hp.sweep_orientation(theta1_values=[0.5], filter_widths=widths)


@pytest.mark.parametrize("call, match", [
    (lambda jsa: hp.sweep_aspect_ratio(ratios=["2"], filter_widths=[0.5]),
     "ratios entry must be a number"),
    (lambda jsa: hp.sweep_aspect_ratio(ratios=[2.0], filter_widths=[True]),
     "filter widths entry must be a number"),
    (lambda jsa: hp.sweep_orientation(theta1_values=["0.5"],
                                      filter_widths=[0.5]),
     "theta1 values entry must be a number"),
    (lambda jsa: hp.tradeoff_curve(jsa, [True]),
     "filter widths entry must be a number"),
    (lambda jsa: hp.tradeoff_curve(jsa, []), "non-empty 1-D"),
    (lambda jsa: hp.sweep_aspect_ratio(ratios=[], filter_widths=[0.5]),
     "non-empty 1-D"),
    (lambda jsa: hp.sweep_orientation(theta1_values=[0.5], filter_widths=[]),
     "non-empty 1-D"),
    (lambda jsa: hp.sweep_aspect_ratio(ratios=[[2.0, 3.0]],
                                       filter_widths=[0.5]),
     "non-empty 1-D"),
    (lambda jsa: hp.sweep_orientation(theta1_values=[0.5],
                                      filter_widths=[[0.5, 1.0]]),
     "non-empty 1-D"),
    (lambda jsa: hp.tradeoff_curve(jsa, [[0.5], [1.0]]), "non-empty 1-D"),
    (lambda jsa: hp.sweep_aspect_ratio(ratios=[2.0, math.nan],
                                       filter_widths=[0.5]),
     "ratios must be finite"),
], ids=["aspect-str-ratio", "aspect-bool-width", "orientation-str-theta",
        "tradeoff-bool-width", "tradeoff-empty", "aspect-empty-ratios",
        "orientation-empty-widths", "aspect-2d-ratios",
        "orientation-2d-widths", "tradeoff-2d-widths", "aspect-nan-ratio"])
def test_sweep_axes_are_checked(jsa_k26, call, match):
    # strings and booleans were computed as numbers, empty axes gave empty
    # results, and a 2-D axis raised TypeError
    with pytest.raises(ValueError, match=match):
        call(jsa_k26)


def test_solver_benchmark_visibility(jsa_ktp):
    solution = hp.solve_filter_for_target(jsa_ktp, target_visibility=0.5)
    assert solution.sigma_f / jsa_ktp.sigma1 == pytest.approx(0.16, abs=0.02)
    assert solution.method == "closed_form"
    assert solution.visibility == pytest.approx(0.5, abs=1e-3)
    assert solution.purity == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert solution.iterations == 0


def test_solver_purity_target(jsa_k26):
    solution = hp.solve_filter_for_target(jsa_k26, target_purity=0.9)
    achieved = hp.closed_form_purity(
        jsa_k26, hp.GaussianFilter(0.0, solution.sigma_f))
    assert achieved == pytest.approx(0.9, abs=1e-12)
    # any wider filter would miss the target
    worse = hp.closed_form_purity(
        jsa_k26, hp.GaussianFilter(0.0, 1.05 * solution.sigma_f))
    assert worse < 0.9


def test_solver_separable_hits_bracket_end(jsa_separable):
    solution = hp.solve_filter_for_target(jsa_separable, target_purity=0.5)
    assert solution.method == "bracket_end"
    assert solution.purity == pytest.approx(1.0, abs=1e-9)


def test_solver_clips_a_separable_gridded_purity():
    # the scan's purity of a separable amplitude exceeds one by rounding
    grid = hp.discretize(hp.DoubleGaussianJsa(1.0, 2.0, 0.0, math.pi / 2),
                         6.0, 200)
    solution = hp.solve_filter_for_target(grid, target_purity=0.5)
    assert solution.method == "bracket_end"
    assert solution.purity == 1.0
    assert solution.visibility == 1.0
    assert solution.success == pytest.approx(1.0, abs=1e-6)


def test_solver_unachievable_target(jsa_k26):
    # needs a width below 1e-3 of the ridge width
    with pytest.raises(ValueError, match="unachievable"):
        hp.solve_filter_for_target(jsa_k26, target_purity=1.0 - 1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        coarse = hp.discretize(jsa_k26, 4.0, 128)
    # the scan starts at two grid steps, too wide for this target
    with pytest.raises(ValueError, match="unachievable"):
        hp.solve_filter_for_target(coarse, target_purity=0.9)


def test_solver_argument_validation(jsa_k26):
    with pytest.raises(ValueError):
        hp.solve_filter_for_target(jsa_k26)
    with pytest.raises(ValueError):
        hp.solve_filter_for_target(jsa_k26, target_purity=0.9,
                                   target_visibility=0.5)
    with pytest.raises(ValueError):
        hp.solve_filter_for_target(jsa_k26, target_purity=1.0)
    with pytest.raises(ValueError):
        hp.solve_filter_for_target(jsa_k26, target_visibility=0.0)
    for center in (math.nan, math.inf):
        with pytest.raises(ValueError, match="center must be finite"):
            hp.solve_filter_for_target(jsa_k26, target_purity=0.9,
                                       center=center)
    with pytest.raises(TypeError, match="not a joint spectral amplitude: str"):
        hp.solve_filter_for_target("x", target_purity=0.9)


@pytest.mark.parametrize("target", [dict(target_purity="0.9"),
                                    dict(target_visibility="0.5")],
                         ids=["purity", "visibility"])
def test_solver_targets_refuse_str(jsa_k26, target):
    # a purity string was solved for, a visibility string raised TypeError
    with pytest.raises(ValueError, match="must be a number"):
        hp.solve_filter_for_target(jsa_k26, **target)


# A 256-point grid cannot reach a purity of 0.99.
@pytest.mark.parametrize("target", [0.5, 0.8, 0.9])
def test_solver_on_gridded_amplitude(jsa_k26, k26_grid, target):
    parametric = hp.solve_filter_for_target(jsa_k26, target_purity=target)
    gridded = hp.solve_filter_for_target(k26_grid, target_purity=target)
    assert gridded.method == "scan"
    assert gridded.sigma_f == pytest.approx(parametric.sigma_f, rel=1e-9)
    # a solution is the trade-off point of its width
    for solution in (parametric, gridded):
        assert isinstance(solution, hp.TradeoffPoint)
        assert solution.visibility == hp.visibility(solution.purity)


@pytest.mark.parametrize("center", [0.0, 0.7])
@pytest.mark.parametrize("name", ["k26_grid", "chirped_grid"])
def test_gridded_curve_matches_quadrature_report(request, name, center):
    grid = request.getfixturevalue(name)
    widths = np.array([0.3, 0.6, 1.5, 5.0])
    purity, success = _gridded_curve(grid, center)(widths)
    for width, p, s in zip(widths, purity, success):
        report = hp.heralding_report(grid, hp.GaussianFilter(center, width))
        assert p == pytest.approx(report.purity_filtered, abs=1e-12)
        assert s == pytest.approx(report.success, abs=1e-12)


@pytest.mark.parametrize("name, center", [
    ("k26_grid", 25.0), ("k26_grid", 1e6), ("jsa_k26", 500.0)])
def test_solver_rejects_empty_state(request, name, center):
    # a passband this far from the source heralds nothing
    with pytest.raises(hp.NumericalError):
        hp.solve_filter_for_target(request.getfixturevalue(name),
                                   target_purity=0.9, center=center)


def test_grid_scan_handles_non_monotone_purity():
    def evaluate(widths):
        purity = 0.4 + 0.5 * np.exp(-np.log10(widths) ** 2)
        return purity, np.full(purity.shape, 0.5)

    width, method, evaluations = _scan(evaluate, 0.8, 0.01, 100.0)
    # the scan keeps the widest of the two crossings
    assert width == pytest.approx(10.0 ** math.sqrt(math.log(0.5 / 0.4)),
                                  rel=1e-9)
    assert method == "scan"
    assert evaluations >= 400
    with pytest.raises(ValueError, match="unachievable"):
        _scan(evaluate, 0.95, 0.01, 100.0)
