"""Tests for closed forms: purity, success, mode law, and dip shapes."""

import dataclasses
import math

import numpy as np
import pytest

import heraldpurity as hp
from conftest import K26_PARAMS, SEED, draw_source
from heraldpurity import analytic


def test_closed_forms_match_quadrature_on_random_sources():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(50):
        jsa = draw_source(rng, k_max=12.0)
        width = 10.0 ** rng.uniform(-2.0, math.log10(20.0))
        filt = hp.GaussianFilter(rng.uniform(-3.0, 3.0), width)
        success = hp.closed_form_success(jsa, filt)
        if success < 1e-8:
            continue
        assert hp.herald_success(jsa, filt) == pytest.approx(success, rel=1e-6)
        assert hp.filtered_purity(jsa, filt) == pytest.approx(
            hp.closed_form_purity(jsa, filt), rel=1e-6)


def test_two_filter_closed_form_matches_quadrature_on_random_sources():
    # off-centre filters on both arms
    rng = np.random.default_rng(SEED + 5)
    checked = 0
    while checked < 30:
        jsa = draw_source(rng)
        herald = hp.GaussianFilter(rng.uniform(-1.0, 1.0),
                                   10.0 ** rng.uniform(-0.7, 1.0))
        heralded = hp.GaussianFilter(rng.uniform(-1.0, 1.0),
                                     10.0 ** rng.uniform(-0.7, 1.0))
        closed = hp.closed_form_two_filter(
            *jsa.intensity_coefficients(), herald.width, herald.center,
            heralded.width, heralded.center)
        if closed[1] < 1e-8:
            continue
        direct = hp.two_filter_quantities(jsa, herald, heralded)
        assert direct == pytest.approx(closed, rel=1e-9)
        checked += 1


def test_two_filter_closed_form_matches_schmidt_route(jsa_k26, k26_modes,
                                                      jsa_ktp, ktp_modes):
    cases = [(jsa_k26, k26_modes, hp.GaussianFilter(0.3, 0.8),
              hp.GaussianFilter(-0.2, 1.4)),
             (jsa_ktp, ktp_modes, hp.GaussianFilter(0.0, 6.0),
              hp.GaussianFilter(0.0, 6.0))]
    for jsa, modes, herald, heralded in cases:
        modal = hp.two_filter_schmidt(
            modes, hp.overlap_matrix(modes, herald),
            hp.overlap_matrix(modes, heralded, side="signal"))
        closed = hp.closed_form_two_filter(
            *jsa.intensity_coefficients(), herald.width, herald.center,
            heralded.width, heralded.center)
        assert modal == pytest.approx(closed, rel=1e-6)


def test_scalar_closed_forms_are_the_kernel_halves(monkeypatch):
    # each wrapper evaluates only its own half of closed_form_pair, and the
    # sweeps' surfaces are the kernel broadcast over their grids, bit for bit
    rng = np.random.default_rng(SEED + 23)
    for _ in range(20):
        jsa = draw_source(rng)
        widths = 10.0 ** rng.uniform(-3.0, 3.0, 16)
        centers = rng.uniform(-3.0, 3.0, 16)
        # centred filters too, which the random centres never are exactly
        widths = np.append(widths, widths[:2])
        centers = np.append(centers, [0.0, -0.0])
        purity, success = hp.closed_form_pair(*jsa.intensity_coefficients(),
                                              widths, centers)
        for i, filt in enumerate(map(hp.GaussianFilter, centers, widths)):
            assert hp.closed_form_purity(jsa, filt) == purity[i]
            assert hp.closed_form_success(jsa, filt) == success[i]

    ratios = rng.uniform(1.0, 8.0, 7)
    thetas = rng.uniform(0.0, math.pi / 2.0, 7)
    widths = 10.0 ** rng.uniform(-3.0, 3.0, 9)
    grids = [(hp.sweep_aspect_ratio(ratios=ratios, filter_widths=widths),
              [hp.DoubleGaussianJsa(1.0, r, math.pi / 4, -math.pi / 4)
               for r in ratios]),
             (hp.sweep_orientation(theta1_values=thetas, filter_widths=widths),
              [hp.DoubleGaussianJsa(1.0, 5.0, t, t - math.pi / 2)
               for t in thetas])]
    for grid, jsas in grids:
        coefficients = np.array([jsa.intensity_coefficients() for jsa in jsas])
        purity, success = hp.closed_form_pair(*coefficients.T[:, :, None],
                                              widths, 0.0)
        assert np.array_equal(grid.purity, purity)
        assert np.array_equal(grid.success, success)

    def refuse(*args):
        raise AssertionError("the other half was evaluated")

    filt = hp.GaussianFilter(0.4, 0.7)
    jsa = hp.DoubleGaussianJsa(*K26_PARAMS)
    expected = hp.closed_form_pair(*jsa.intensity_coefficients(), 0.7, 0.4)
    monkeypatch.setattr(analytic, "_success_half", refuse)
    assert hp.closed_form_purity(jsa, filt) == expected[0]
    monkeypatch.undo()
    monkeypatch.setattr(analytic, "_purity_half", refuse)
    assert hp.closed_form_success(jsa, filt) == expected[1]


def test_scalar_closed_forms_run_without_numpy(monkeypatch):
    # a sweep point's purity and centred success run in float arithmetic:
    # no numpy call, and a Python float out
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} was used")

    jsa = hp.DoubleGaussianJsa(*K26_PARAMS)
    expected = hp.closed_form_pair(*jsa.intensity_coefficients(), 0.7, 0.0)
    filters = [hp.GaussianFilter(0.0, 0.7), hp.GaussianFilter(-0.0, 0.7)]
    monkeypatch.setattr(analytic, "np", NoNumpy())
    for filt in filters:
        purity = hp.closed_form_purity(jsa, filt)
        success = hp.closed_form_success(jsa, filt)
        assert type(purity) is float and type(success) is float
        assert (purity, success) == expected


def test_closed_forms_require_parametric_inputs(jsa_k26, k26_grid):
    with pytest.raises(TypeError):
        hp.closed_form_success(k26_grid, hp.GaussianFilter(0.0, 1.0))
    with pytest.raises(TypeError):
        hp.closed_form_purity(jsa_k26, "wide-open")


def test_schmidt_number_values(jsa_k26, jsa_separable):
    assert hp.schmidt_number(jsa_k26) == pytest.approx(2.6, rel=1e-12)
    assert hp.schmidt_number(jsa_separable) == pytest.approx(1.0, abs=1e-12)
    golden = hp.DoubleGaussianJsa(1.0, 2.618034, math.pi / 4, -math.pi / 4)
    assert hp.schmidt_number(golden) == pytest.approx(1.5, abs=1e-5)


def test_thermal_mode_weights():
    weights = hp.thermal_schmidt_coefficients(2.6)
    assert weights[0] == pytest.approx(5.0 / 9.0, rel=1e-12)
    assert weights[1] == pytest.approx(20.0 / 81.0, rel=1e-12)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.sum(weights**2) == pytest.approx(1.0 / 2.6, rel=1e-10)
    single = hp.thermal_schmidt_coefficients(1.0, n_modes=4)
    np.testing.assert_allclose(single, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_analytic_mode_values(jsa_k26):
    value = hp.schmidt_mode_analytic(jsa_k26, 0, 0.0)
    assert value == pytest.approx((5.0 * math.pi) ** -0.25, rel=1e-10)
    # odd modes vanish at the origin, and mode 1 is purely imaginary there
    odd = hp.schmidt_mode_analytic(jsa_k26, 1, np.array([0.0, 0.5]))
    assert abs(odd[0]) < 1e-14
    assert abs(odd[1].real) < 1e-14
    assert abs(odd[1].imag) > 0.0


def test_analytic_mode_scales(jsa_k26, jsa_ktp):
    scale_s, scale_i = hp.mode_scales(jsa_k26)
    assert scale_s == pytest.approx(25.0**0.25, rel=1e-12)
    assert scale_i == pytest.approx(25.0**0.25, rel=1e-12)
    scale_s, scale_i = hp.mode_scales(jsa_ktp)
    assert scale_s != pytest.approx(scale_i, rel=1e-3)
    peak = hp.schmidt_mode_analytic(jsa_ktp, 0, 0.0, side="idler")
    assert peak == pytest.approx(math.pi**-0.25 / math.sqrt(scale_i), rel=1e-10)


def test_analytic_modes_orthonormal(jsa_k26):
    nodes, weights = np.polynomial.legendre.leggauss(400)
    omega = nodes * 40.0
    scaled = weights * 40.0
    modes = np.array([
        hp.schmidt_mode_analytic(jsa_k26, mu, omega) for mu in range(10)])
    gram = (modes * scaled) @ modes.conj().T
    np.testing.assert_allclose(gram, np.eye(10), atol=1e-8)


def test_analytic_modes_rebuild_amplitude(jsa_k26):
    omega = np.linspace(-8.0, 8.0, 100)
    weights = hp.thermal_schmidt_coefficients(2.6, n_modes=60)
    total = np.zeros((100, 100), dtype=complex)
    for mu in range(60):
        signal = hp.schmidt_mode_analytic(jsa_k26, mu, omega)
        idler = hp.schmidt_mode_analytic(jsa_k26, mu, omega, side="idler")
        total += math.sqrt(weights[mu]) * np.outer(signal, idler)
    direct = hp.eval_double_gaussian(jsa_k26, omega[:, None], omega[None, :])
    assert np.abs(total.imag).max() < 1e-10
    np.testing.assert_allclose(total.real, direct, atol=1e-6)


def test_high_order_mode_stays_normalized(jsa_k26):
    nodes, weights = np.polynomial.legendre.leggauss(3000)
    omega = nodes * 80.0
    mode = hp.schmidt_mode_analytic(jsa_k26, 200, omega)
    assert np.all(np.isfinite(mode))
    norm = float(np.sum(weights * 80.0 * np.abs(mode) ** 2))
    assert norm == pytest.approx(1.0, abs=1e-6)


def test_closed_dip_shape(jsa_k26):
    purity = hp.closed_form_purity(jsa_k26, hp.GaussianFilter(0.0, 1.0))
    delays = np.linspace(-3.0, 3.0, 2001)
    curve = hp.hom_dip_analytic(jsa_k26, purity, delays)
    assert curve.coincidences.min() == pytest.approx(
        0.5 * (1.0 - purity), rel=1e-9)
    assert curve.coincidences[0] == pytest.approx(0.5, abs=1e-3)
    a, _, _ = jsa_k26.intensity_coefficients()
    expected = 2.0 * math.sqrt(2.0 * a * math.log(2.0))
    assert curve.half_depth_width() == pytest.approx(expected, rel=1e-3)


def test_closed_dip_width_is_filter_independent(jsa_k26):
    delays = np.linspace(-3.0, 3.0, 1501)
    widths_at_half = []
    for sigma_f in (0.1, 1.0, 10.0):
        purity = hp.closed_form_purity(jsa_k26, hp.GaussianFilter(0.0, sigma_f))
        curve = hp.hom_dip_analytic(jsa_k26, purity, delays)
        widths_at_half.append(curve.half_depth_width())
    spread = (max(widths_at_half) - min(widths_at_half)) / widths_at_half[1]
    assert spread < 1e-6


def test_closed_dip_matches_quadrature(jsa_k26):
    filt = hp.GaussianFilter(0.0, 1.0)
    purity = hp.closed_form_purity(jsa_k26, filt)
    delays = np.linspace(-3.0, 3.0, 25)
    closed = hp.hom_dip_analytic(jsa_k26, purity, delays)
    numeric = hp.hom_dip(jsa_k26, filt, filt, delays)
    np.testing.assert_allclose(
        numeric.coincidences, closed.coincidences, atol=1e-6)


def test_visibility_formula():
    assert hp.visibility(1.0) == pytest.approx(1.0, rel=1e-12)
    assert hp.visibility(0.0) == 0.0
    assert hp.visibility(0.198) == pytest.approx(0.109878, abs=1e-6)
    # the balanced form is p / (2 - p) bit for bit, and broadcasts
    purities = np.random.default_rng(SEED).random(100_000)
    assert np.array_equal(hp.visibility(purities), purities / (2.0 - purities))
    # agrees with a sampled curve for an unbalanced splitter
    purity = 0.73
    delays = np.linspace(-8.0, 8.0, 801)
    curve = hp.hom_dip_analytic(hp.DoubleGaussianJsa(
        1.0, 5.0, math.pi / 4, -math.pi / 4), purity, delays,
        reflectivity=0.6)
    assert curve.visibility() == pytest.approx(
        hp.visibility(purity, 0.6), rel=1e-6)


@pytest.mark.parametrize("call", [
    lambda jsa: hp.hom_dip_analytic(jsa, True, [0.0]),
    lambda jsa: hp.thermal_schmidt_coefficients(True),
    lambda jsa: hp.visibility(True),
    lambda jsa: hp.visibility(np.array([0.5, 0.9]) > 0.6),
], ids=["dip-purity", "mode-number", "visibility", "visibility-array"])
def test_closed_forms_refuse_bool(jsa_k26, call):
    # each ran with true taken as 1
    with pytest.raises(ValueError, match="must be a number"):
        call(jsa_k26)


def test_closed_form_report(jsa_ktp):
    filt = hp.GaussianFilter(0.0, 0.72)
    report = hp.closed_form_report(jsa_ktp, filt)
    assert report.success == pytest.approx(
        hp.closed_form_success(jsa_ktp, filt), rel=1e-12)
    assert report.purity_filtered == pytest.approx(
        hp.closed_form_purity(jsa_ktp, filt), rel=1e-12)
    assert report.schmidt_number == pytest.approx(
        hp.schmidt_number(jsa_ktp), rel=1e-12)
    assert report.g2 == pytest.approx(
        1.0 + 1.0 / report.schmidt_number, rel=1e-12)
    assert report.visibility == pytest.approx(
        hp.visibility(report.purity_filtered), rel=1e-12)


@pytest.mark.parametrize("filt", [None, hp.GaussianFilter(0.0, 0.72),
                                  hp.GaussianFilter(0.4, 3.0)])
def test_closed_form_report_matches_quadrature_report(jsa_ktp, filt):
    closed = hp.closed_form_report(jsa_ktp, filt)
    numeric = hp.heralding_report(jsa_ktp, filt)
    assert type(closed) is hp.HeraldingReport
    assert type(numeric) is hp.HeraldingReport
    names = [field.name for field in dataclasses.fields(hp.HeraldingReport)]
    for name in names + ["schmidt_number", "g2", "visibility"]:
        assert getattr(closed, name) == pytest.approx(
            getattr(numeric, name), rel=1e-9), name
    if filt is None:
        assert closed.success == 1.0
        assert closed.purity_filtered == closed.purity_unfiltered
