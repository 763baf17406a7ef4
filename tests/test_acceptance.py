"""End-to-end acceptance checks, one printed verdict per criterion."""

import math
import time

import numpy as np
import pytest

import heraldpurity as hp
from conftest import SEED, draw_case, draw_source, identity_filter


def verdict(name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[acceptance] {name}: {status}")
    for failure in failures:
        print(f"    - {failure}")
    assert not failures, f"{name}: " + "; ".join(failures)


def test_three_route_agreement(ktp_modes):
    failures = []
    rng = np.random.default_rng(SEED)
    start = time.time()
    worst_quad = worst_modal = 0.0
    for index in range(200):
        jsa, filt, half_extent, n_points = draw_case(rng)
        success_cf = hp.closed_form_success(jsa, filt)
        purity_cf = hp.closed_form_purity(jsa, filt)

        success_q = hp.herald_success(jsa, filt)
        purity_q = hp.filtered_purity(jsa, filt)
        dev_q = max(abs(success_q - success_cf) / success_cf,
                    abs(purity_q - purity_cf) / purity_cf)
        worst_quad = max(worst_quad, dev_q)

        grid = hp.discretize(jsa, half_extent=half_extent, n_points=n_points)
        modes = hp.decompose(grid)
        overlap = hp.overlap_matrix(modes, filt)
        purity_m, success_m = hp.schmidt_quantities(modes, overlap)
        dev_m = max(abs(success_m - success_cf) / success_cf,
                    abs(purity_m - purity_cf) / purity_cf)
        worst_modal = max(worst_modal, dev_m)

        if dev_q > 1e-6 or dev_m > 1e-4:
            failures.append(
                f"draw {index}: quadrature dev {dev_q:.2e}, "
                f"modal dev {dev_m:.2e}")
    elapsed = time.time() - start
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.0f}s, budget is 300s")
    print(f"\n    200 draws in {elapsed:.1f}s; worst deviations: "
          f"quadrature {worst_quad:.2e}, modal {worst_modal:.2e}")
    verdict("three-route agreement on 200 random sources", failures)


def test_benchmark_source_figures(jsa_ktp):
    failures = []
    purity_unfiltered = hp.unfiltered_purity(jsa_ktp)
    if abs(purity_unfiltered - 0.045) > 0.005:
        failures.append(
            f"unfiltered purity {purity_unfiltered:.4f}, expected 0.045(5)")

    tight = hp.GaussianFilter(0.0, 0.72)
    purity = hp.filtered_purity(jsa_ktp, tight)
    if abs(purity - 0.78) > 0.02:
        failures.append(f"purity at width 0.72 is {purity:.4f}, "
                        "expected 0.78(2)")
    visibility = hp.visibility(purity)
    if abs(visibility - 0.64) > 0.02:
        failures.append(f"visibility at width 0.72 is {visibility:.4f}, "
                        "expected 0.64(2)")

    pump_wide = hp.GaussianFilter(0.0, 6.0)
    visibility_wide = hp.visibility(hp.filtered_purity(jsa_ktp, pump_wide))
    if abs(visibility_wide - 0.11) > 0.01:
        failures.append(f"visibility at width 6.0 is {visibility_wide:.4f}, "
                        "expected 0.11(1)")

    solution = hp.solve_filter_for_target(jsa_ktp, target_visibility=0.5)
    ratio = solution.sigma_f / jsa_ktp.sigma1
    if abs(ratio - 0.16) > 0.02:
        failures.append(f"width ratio for visibility 0.5 is {ratio:.4f}, "
                        "expected 0.16(2)")
    verdict("benchmark crystal source figures", failures)


def test_heralding_efficiency_across_aspect_ratios():
    failures = []
    for ratio in (2.0, 4.0, 6.0):
        jsa = hp.DoubleGaussianJsa(1.0, ratio, math.pi / 4, -math.pi / 4)
        solution = hp.solve_filter_for_target(jsa, target_purity=0.9)
        success = hp.closed_form_success(
            jsa, hp.GaussianFilter(0.0, solution.sigma_f))
        if success < 0.19:
            failures.append(
                f"ratio {ratio:g}: success {success:.4f} at purity 0.9, "
                "expected at least 0.19")
    separable = hp.DoubleGaussianJsa(1.0, 1.0, math.pi / 4, -math.pi / 4)
    for width in np.logspace(-2, 1, 7):
        purity = hp.closed_form_purity(separable, hp.GaussianFilter(0.0, width))
        if abs(purity - 1.0) > 1e-9:
            failures.append(f"ratio 1 width {width:g}: purity {purity}")
    verdict("heralding efficiency at target purity across aspect ratios",
            failures)


def test_mode_weights_follow_thermal_law(k26_modes, ktp_modes, jsa_ktp):
    failures = []
    golden = hp.DoubleGaussianJsa(1.0, 2.618034, math.pi / 4, -math.pi / 4)
    extent, points = hp.recommended_grid(golden)
    golden_modes = hp.decompose(
        hp.discretize(golden, half_extent=extent, n_points=points))
    cases = [
        ("K=1.5", golden, golden_modes),
        ("K=2.6", hp.DoubleGaussianJsa(1.0, 5.0, math.pi / 4, -math.pi / 4),
         k26_modes),
        ("K=22.1", jsa_ktp, ktp_modes),
    ]
    for label, jsa, modes in cases:
        k_closed = hp.schmidt_number(jsa)
        thermal = hp.thermal_schmidt_coefficients(k_closed, n_modes=11)
        gap = np.abs(modes.coefficients[:11] - thermal).max()
        if gap > 1e-3:
            failures.append(f"{label}: weight gap {gap:.2e} above 1e-3")
        k_gap = abs(modes.schmidt_number() - k_closed) / k_closed
        if k_gap > 1e-3:
            failures.append(f"{label}: mode count off by {k_gap:.2e}")
        analytic = hp.schmidt_mode_analytic(jsa, 0, modes.signal_grid)
        residual = float(
            np.sum(np.abs(modes.signal_modes[0] - analytic) ** 2)
            * modes.signal_step)
        if residual > 1e-3:
            failures.append(f"{label}: leading-mode residual {residual:.2e}")
    verdict("sampled mode weights follow the thermal law", failures)


def test_dip_depth_tracks_purity(jsa_k26):
    failures = []
    delays = np.linspace(-3.0, 3.0, 481)
    widths_at_half = []
    for sigma_f in (0.1, 1.0, 10.0):
        filt = hp.GaussianFilter(0.0, sigma_f)
        curve = hp.hom_dip(jsa_k26, filt, filt, delays)
        purity = hp.closed_form_purity(jsa_k26, filt)
        depth = 0.5 - curve.coincidences.min()
        if abs(depth - 0.5 * purity) > 1e-3:
            failures.append(
                f"width {sigma_f:g}: depth {depth:.6f}, "
                f"expected {0.5 * purity:.6f}")
        widths_at_half.append(curve.half_depth_width())
    spread = (max(widths_at_half) - min(widths_at_half)) / widths_at_half[1]
    if spread > 0.01:
        failures.append(f"dip width varies by {spread:.2%} across filters")
    verdict("dip depth tracks purity at fixed dip width", failures)


def test_dual_filters_raise_purity(jsa_ktp, ktp_modes):
    failures = []
    width = 6.0
    filt = hp.GaussianFilter(0.0, width)
    purity2, _ = hp.two_filter_quantities(jsa_ktp, filt, filt)
    herald = hp.overlap_matrix(ktp_modes, filt)
    heralded = hp.overlap_matrix(ktp_modes, filt, side="signal")
    purity2_modal, _ = hp.two_filter_schmidt(ktp_modes, herald, heralded)
    gap = abs(purity2_modal - purity2) / purity2
    if gap > 1e-4:
        failures.append(f"route disagreement {gap:.2e} above 1e-4")
    closed2, _ = hp.closed_form_two_filter(*jsa_ktp.intensity_coefficients(),
                                           width, 0.0, width, 0.0)
    for route, value in (("quadrature", purity2), ("modal", purity2_modal)):
        gap = abs(value - closed2) / closed2
        if gap > 1e-4:
            failures.append(f"{route} vs closed form {gap:.2e} above 1e-4")
    purity1 = hp.filtered_purity(jsa_ktp, filt)
    if not purity2 > purity1:
        failures.append(
            f"two filters gave {purity2:.4f}, one filter {purity1:.4f}")
    if not purity2 < 0.9:
        failures.append(f"pump-width filters reached {purity2:.4f}, "
                        "expected below 0.9")
    verdict("filtering both arms raises purity", failures)


def test_single_mode_projection(k26_modes):
    failures = []
    projection = hp.mode_projection_herald(k26_modes, 0)
    expected = 2.0 / 3.6
    if abs(projection.success - expected) > 1e-3:
        failures.append(f"success {projection.success:.6f}, "
                        f"expected {expected:.6f}")
    if abs(projection.purity - 1.0) > 1e-10:
        failures.append(f"purity {projection.purity} differs from 1")
    verdict("single-mode projection heralds a pure state", failures)


def test_filter_limiting_cases():
    failures = []
    rng = np.random.default_rng(SEED + 3)
    for index in range(25):
        jsa = draw_source(rng)
        ident = identity_filter(jsa)
        success = hp.herald_success(jsa, ident)
        purity = hp.filtered_purity(jsa, ident)
        expected = 1.0 / hp.schmidt_number(jsa)
        if abs(success - 1.0) > 1e-6:
            failures.append(f"draw {index}: identity success {success:.8f}")
        if abs(purity - expected) > 1e-6:
            failures.append(
                f"draw {index}: identity purity {purity:.8f}, "
                f"unfiltered value {expected:.8f}")
        narrow = hp.GaussianFilter(0.0, 1e-3 * jsa.sigma1)
        purity_narrow = hp.filtered_purity(jsa, narrow)
        if purity_narrow <= 0.999:
            failures.append(
                f"draw {index}: narrowband purity {purity_narrow:.6f}")
    for theta1 in (0.0, math.pi / 2):
        jsa = hp.DoubleGaussianJsa(1.0, 5.0, theta1, theta1 - math.pi / 2)
        for width in np.logspace(-2, 1, 7):
            filt = hp.GaussianFilter(0.0, width)
            purity = hp.filtered_purity(jsa, filt)
            if abs(purity - 1.0) > 1e-9:
                failures.append(
                    f"axis-aligned theta1={theta1:g}, width {width:g}: "
                    f"purity {purity}")
    verdict("filter limiting cases", failures)
