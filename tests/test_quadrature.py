"""Tests for the direct numerical route to purity, success, and dips."""

import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import heraldpurity as hp
from conftest import (K26_PARAMS, KTP_PARAMS, SEED, assemble, draw_case,
                      identity_filter, tabulated_overlap, tabulated_reference)
from heraldpurity import core, quadrature
from heraldpurity.quadrature import _leggauss


def test_unfiltered_purity_exact_values(jsa_k26, jsa_separable):
    assert hp.unfiltered_purity(jsa_k26) == pytest.approx(5.0 / 13.0, rel=1e-9)
    assert hp.unfiltered_purity(jsa_separable) == pytest.approx(1.0, abs=1e-9)


def test_unfiltered_purity_matches_mode_count(jsa_ktp):
    purity = hp.unfiltered_purity(jsa_ktp)
    assert purity == pytest.approx(1.0 / hp.schmidt_number(jsa_ktp), rel=1e-8)
    assert purity == pytest.approx(0.045, abs=0.005)


def test_success_known_value(jsa_k26):
    success = hp.herald_success(jsa_k26, hp.GaussianFilter(0.0, 1.0))
    assert success == pytest.approx(math.sqrt(2.0 / 15.0), rel=1e-9)


def test_success_limits(jsa_k26):
    wide = hp.herald_success(jsa_k26, hp.GaussianFilter(0.0, 1e6))
    assert wide == pytest.approx(1.0, abs=1e-6)
    narrow = hp.herald_success(jsa_k26, hp.GaussianFilter(0.0, 1e-3))
    assert narrow < 0.01
    ident = hp.herald_success(jsa_k26, identity_filter(jsa_k26))
    assert ident == pytest.approx(1.0, abs=1e-6)


def test_identity_filter_preserves_purity(jsa_k26):
    purity = hp.filtered_purity(jsa_k26, identity_filter(jsa_k26))
    assert purity == pytest.approx(5.0 / 13.0, abs=1e-6)


def test_filtered_purity_known_value(jsa_k26):
    filt = hp.GaussianFilter(0.0, 0.6)
    purity = hp.filtered_purity(jsa_k26, filt)
    assert purity == pytest.approx(0.8762919181, abs=1e-9)
    assert purity == pytest.approx(hp.closed_form_purity(jsa_k26, filt), rel=1e-10)


def test_filtered_purity_ignores_filter_center(jsa_k26):
    values = [
        hp.filtered_purity(jsa_k26, hp.GaussianFilter(center, 0.8))
        for center in (0.0, 1.5, -2.2)
    ]
    assert values[1] == pytest.approx(values[0], rel=1e-9)
    assert values[2] == pytest.approx(values[0], rel=1e-9)


def test_empty_heralding_raises(jsa_k26):
    far = hp.GaussianFilter(500.0, 0.1)
    with pytest.raises(hp.NumericalError):
        hp.filtered_purity(jsa_k26, far)
    with pytest.raises(hp.NumericalError):
        hp.herald_success(jsa_k26, far)


def test_filtered_routes_refuse_a_missing_filter(jsa_k26):
    filt = hp.GaussianFilter(0.0, 1.0)
    for call, message in [
        (lambda: hp.herald_success(jsa_k26, None),
         "herald_success requires a herald filter"),
        (lambda: hp.filtered_purity(jsa_k26, None),
         "filtered_purity requires a herald filter"),
        (lambda: hp.two_filter_quantities(jsa_k26, filt, None),
         "two_filter_quantities requires both filters"),
        (lambda: hp.hom_dip(jsa_k26, None, filt, [0.0]),
         "hom_dip requires a herald filter for each source"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


_FILTER_ROUTES = {
    "herald_success": lambda jsa, bad, ok: hp.herald_success(jsa, bad),
    "filtered_purity": lambda jsa, bad, ok: hp.filtered_purity(jsa, bad),
    "two_filter_herald": lambda jsa, bad, ok: hp.two_filter_quantities(
        jsa, bad, ok),
    "two_filter_heralded": lambda jsa, bad, ok: hp.two_filter_quantities(
        jsa, ok, bad),
    "hom_dip_x": lambda jsa, bad, ok: hp.hom_dip(jsa, bad, ok, [0.0]),
    "hom_dip_y": lambda jsa, bad, ok: hp.hom_dip(jsa, ok, bad, [0.0]),
    # no delay resolved: the parametric dip returned its baseline unchecked
    "hom_dip_unresolved": lambda jsa, bad, ok: hp.hom_dip(jsa, ok, bad,
                                                          [1e6]),
    "heralding_report": lambda jsa, bad, ok: hp.heralding_report(jsa, bad),
    "overlap_matrix": lambda modes, bad, ok: hp.overlap_matrix(modes, bad),
}
_NON_FILTER_CASES = [
    (route, source, bad) for route in _FILTER_ROUTES
    if route != "overlap_matrix"
    for source in ("jsa_k26", "k26_grid") for bad in ("flat", 3.0)
] + [("overlap_matrix", "k26_modes", bad) for bad in ("flat", 3.0, None)]


@pytest.mark.parametrize("route, source, bad", _NON_FILTER_CASES)
def test_every_route_refuses_a_non_filter(request, route, source, bad):
    # one gate in core words the refusal for the quadrature, gridded and
    # mode routes alike, whichever arm the non-filter is on
    with pytest.raises(TypeError, match="not a spectral filter"):
        _FILTER_ROUTES[route](request.getfixturevalue(source), bad,
                              hp.GaussianFilter(0.0, 1.0))


def test_two_filter_reduces_with_identity(jsa_k26):
    herald = hp.GaussianFilter(0.0, 0.8)
    purity2, success2 = hp.two_filter_quantities(
        jsa_k26, herald, identity_filter(jsa_k26))
    assert purity2 == pytest.approx(hp.filtered_purity(jsa_k26, herald), abs=1e-6)
    assert success2 == pytest.approx(hp.herald_success(jsa_k26, herald), abs=1e-6)


def test_two_filter_benchmark_values(jsa_ktp):
    coefficients = jsa_ktp.intensity_coefficients()
    pump = hp.GaussianFilter(0.0, 6.0)
    purity2, success2 = hp.two_filter_quantities(jsa_ktp, pump, pump)
    assert purity2 == pytest.approx(0.17892707, rel=1e-6)
    assert success2 == pytest.approx(0.24888958, rel=1e-6)
    closed = hp.closed_form_two_filter(*coefficients, 6.0, 0.0, 6.0, 0.0)
    assert (purity2, success2) == pytest.approx(closed, rel=1e-6)
    narrow, wide = hp.GaussianFilter(0.0, 1.0), hp.GaussianFilter(0.0, 2.0)
    purity2, success2 = hp.two_filter_quantities(jsa_ktp, narrow, wide)
    assert purity2 == pytest.approx(0.69036900, rel=1e-6)
    assert success2 == pytest.approx(0.04743295, rel=1e-6)
    closed = hp.closed_form_two_filter(*coefficients, 1.0, 0.0, 2.0, 0.0)
    assert (purity2, success2) == pytest.approx(closed, rel=1e-6)


def test_two_filter_improves_purity_at_cost(jsa_ktp):
    width = 6.0
    filt = hp.GaussianFilter(0.0, width)
    purity2, success2 = hp.two_filter_quantities(jsa_ktp, filt, filt)
    purity1 = hp.filtered_purity(jsa_ktp, filt)
    success1 = hp.herald_success(jsa_ktp, filt)
    assert purity2 > purity1
    assert success2 < success1
    closed2 = hp.closed_form_two_filter(*jsa_ktp.intensity_coefficients(),
                                        width, 0.0, width, 0.0)
    assert closed2[0] > purity1
    assert closed2[1] < success1
    tight = hp.GaussianFilter(0.0, 0.05)
    purity2, _ = hp.two_filter_quantities(jsa_ktp, tight, tight)
    assert purity2 > 0.999
    assert hp.closed_form_two_filter(*jsa_ktp.intensity_coefficients(),
                                     0.05, 0.0, 0.05, 0.0)[0] > 0.999


def test_hom_regression_curve(jsa_k26):
    filt = hp.GaussianFilter(0.0, 1.0)
    curve = hp.hom_dip(jsa_k26, filt, filt,
                       np.array([0.0, 0.4, 1.1, 2.3]))
    np.testing.assert_allclose(
        curve.coincidences,
        [0.123964476502382, 0.177585668409595, 0.38252540730109,
         0.497676336221789],
        atol=1e-9,
    )


def test_hom_limits_and_symmetry(jsa_k26):
    filt = hp.GaussianFilter(0.0, 1.0)
    delays = np.array([-1e4, -0.9, 0.0, 0.9, 1e4])
    curve = hp.hom_dip(jsa_k26, filt, filt, delays)
    purity = hp.filtered_purity(jsa_k26, filt)
    assert curve.coincidences[0] == pytest.approx(0.5, abs=1e-4)
    assert curve.coincidences[-1] == pytest.approx(0.5, abs=1e-4)
    assert curve.coincidences[2] == pytest.approx(
        1.0 - 0.5 * (1.0 + purity), abs=1e-4)
    assert curve.coincidences[1] == pytest.approx(curve.coincidences[3], rel=1e-12)
    assert np.all(curve.coincidences >= 0.0)
    assert np.all(curve.coincidences <= 1.0)


def test_hom_mirror_reflectivity(jsa_k26):
    filt = hp.GaussianFilter(0.0, 1.0)
    curve = hp.hom_dip(jsa_k26, filt, filt, np.linspace(-2, 2, 5),
                       reflectivity=1.0)
    np.testing.assert_allclose(curve.coincidences, 1.0, atol=1e-12)
    assert curve.baseline == 1.0
    assert curve.visibility() == 0.0


def test_hom_delays_past_the_decay_are_the_baseline(jsa_k26, monkeypatch):
    # no delay of 40 ps lies inside the demo source's decay cutoff, so the
    # dip is the baseline exactly and no heralded state is built
    filt = hp.GaussianFilter(0.0, 0.6)
    calls = _calls(monkeypatch, "_state_pairs")
    curve = hp.hom_dip(jsa_k26, filt, filt, [-40.0, 40.0])
    assert np.array_equal(curve.coincidences, [0.5, 0.5])
    assert calls == []


def test_hom_distinct_arm_filters(jsa_k26):
    left = hp.GaussianFilter(0.4, 0.8)
    right = hp.GaussianFilter(-0.3, 1.3)
    curve = hp.hom_dip(jsa_k26, left, right, np.linspace(-2, 2, 9))
    assert np.all(np.isfinite(curve.coincidences))
    assert curve.coincidences.min() > 0.0
    assert curve.visibility() < 1.0


def test_hom_separated_herald_passbands():
    # heralds at -2 and +2 send the signal photons to disjoint bands, so
    # the dip is the distinguishable baseline; each arm's state needs its
    # own part of the signal axis
    jsa = hp.DoubleGaussianJsa(0.2, 10.0, math.pi / 4, -math.pi / 4)
    left = hp.GaussianFilter(-2.0, 0.1)
    right = hp.GaussianFilter(2.0, 0.1)
    delays = np.array([0.0, 0.3])
    curve = hp.hom_dip(jsa, left, right, delays)
    np.testing.assert_allclose(curve.coincidences, 0.5, atol=1e-12)
    swapped = hp.hom_dip(jsa, right, left, delays)
    np.testing.assert_allclose(swapped.coincidences, curve.coincidences,
                               atol=1e-12)


def test_hom_validates_splitter(jsa_k26, k26_modes):
    filt = hp.GaussianFilter(0.0, 1.0)
    overlap = hp.overlap_matrix(k26_modes, filt)
    curve = hp.hom_dip(jsa_k26, filt, filt, np.array([-1.0, 0.0, 1.0]))
    entry_points = [
        lambda r, d: hp.hom_dip(jsa_k26, filt, filt, d, reflectivity=r),
        lambda r, d: hp.hom_dip_schmidt(k26_modes, overlap, overlap, d,
                                        reflectivity=r),
        lambda r, d: hp.hom_dip_analytic(jsa_k26, 0.8, d, reflectivity=r),
        lambda r, d: hp.visibility(0.5, r),
        lambda r, d: hp.HomCurve(curve.delays, curve.coincidences, r),
    ]
    for call in entry_points:
        for refl in [-0.1, 1.2, 1.5, math.nan, True]:
            with pytest.raises(ValueError, match="reflectivity"):
                call(refl, np.array([0.0]))
    for call in entry_points[:3]:
        with pytest.raises(ValueError, match="non-empty 1-D"):
            call(0.5, np.array([]))
        # every dip checks the splitter before the delays
        with pytest.raises(ValueError, match="reflectivity"):
            call(1.5, np.array([]))


@pytest.mark.parametrize("reflectivity", [0.3, 0.7])
@pytest.mark.parametrize("route", ["quadrature", "schmidt", "analytic"])
def test_unbalanced_dip_summaries(jsa_k26, k26_modes, route, reflectivity):
    # each curve keeps its splitter, so its summaries need no arguments:
    # the visibility follows the splitter and the width does not
    filt = hp.GaussianFilter(0.0, 1.0)
    overlap = hp.overlap_matrix(k26_modes, filt)
    delays = np.linspace(-2.5, 2.5, 101)
    purity = {"quadrature": hp.filtered_purity(jsa_k26, filt),
              "schmidt": hp.schmidt_quantities(k26_modes, overlap)[0],
              "analytic": hp.closed_form_purity(jsa_k26, filt)}[route]
    dip = {
        "quadrature": lambda r: hp.hom_dip(jsa_k26, filt, filt, delays,
                                           reflectivity=r),
        "schmidt": lambda r: hp.hom_dip_schmidt(k26_modes, overlap, overlap,
                                                delays, reflectivity=r),
        "analytic": lambda r: hp.hom_dip_analytic(jsa_k26, purity, delays,
                                                  reflectivity=r),
    }[route]
    curve = dip(reflectivity)
    assert curve.reflectivity == reflectivity
    assert curve.baseline == 1.0 - 2.0 * reflectivity * (1.0 - reflectivity)
    assert curve.visibility() == pytest.approx(
        hp.visibility(purity, reflectivity), abs=1e-6)
    assert curve.half_depth_width() == pytest.approx(
        dip(0.5).half_depth_width(), rel=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hom_dips_reject_non_finite_delays(jsa_k26, k26_modes, bad):
    # a NaN delay used to give the baseline from hom_dip, NaN from the others
    filt = hp.GaussianFilter(0.0, 1.0)
    overlap = hp.overlap_matrix(k26_modes, filt)
    delays = np.array([0.0, bad])
    with pytest.raises(ValueError, match="finite"):
        hp.hom_dip(jsa_k26, filt, filt, delays)
    with pytest.raises(ValueError, match="finite"):
        hp.hom_dip_analytic(jsa_k26, 0.8, delays)
    with pytest.raises(ValueError, match="finite"):
        hp.hom_dip_schmidt(k26_modes, overlap, overlap, delays)


def test_hom_dips_reach_the_baseline_at_huge_delays(jsa_k26):
    # 1e300 ps squares past the largest double: no overflow warning, and
    # both routes give the baseline there and the same dip at zero delay
    filt = hp.GaussianFilter(0.0, 1.0)
    delays = np.array([-1e300, 0.0, 1e300])
    purity = hp.closed_form_purity(jsa_k26, filt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curves = [hp.hom_dip(jsa_k26, filt, filt, delays),
                  hp.hom_dip_analytic(jsa_k26, purity, delays)]
    for curve in curves:
        assert curve.coincidences[[0, 2]].tolist() == [curve.baseline] * 2
        assert curve.coincidences[1] == pytest.approx(0.5 * (1.0 - purity),
                                                      rel=1e-9)


def test_hom_gridded_rejects_unresolvable_delay(k26_grid):
    filt = hp.GaussianFilter(0.0, 1.0)
    with pytest.raises(hp.ConvergenceError):
        hp.hom_dip(k26_grid, filt, filt, np.array([1e4]))


def test_hom_gridded_matches_parametric(jsa_k26, k26_grid):
    filt = hp.GaussianFilter(0.0, 1.0)
    delays = np.linspace(-2, 2, 7)
    dense = hp.hom_dip(jsa_k26, filt, filt, delays)
    gridded = hp.hom_dip(k26_grid, filt, filt, delays)
    np.testing.assert_allclose(
        gridded.coincidences, dense.coincidences, atol=1e-5)


def test_gridded_quantities_match_closed(jsa_k26, k26_grid):
    filt = hp.GaussianFilter(0.2, 0.9)
    assert hp.filtered_purity(k26_grid, filt) == pytest.approx(
        hp.closed_form_purity(jsa_k26, filt), rel=1e-5)
    assert hp.herald_success(k26_grid, filt) == pytest.approx(
        hp.closed_form_success(jsa_k26, filt), rel=1e-5)
    assert hp.unfiltered_purity(k26_grid) == pytest.approx(5.0 / 13.0, rel=1e-5)


# A chirped double Gaussian: the amplitude times exp(1j*kappa*ws*wi).  The
# phase leaves the intensity, so the success is the real source's, and adds
# kappa**2 to a*c in the thermal purity (Law, Walmsley and Eberly, PRL 84,
# 5304 (2000)): purity = sqrt(det / (a*c + kappa**2)), and behind a centred
# Gaussian herald c becomes c + phi, phi = 1/(2*width**2), and det becomes
# a*(c + phi) - b**2.  Per source, the largest errors measured on
# 900-point grids over the recommended extent, at herald widths of 0.1,
# 0.3 and 1 times the idler marginal width, were: unfiltered purity (both
# routes) 5.0e-15, 9.1e-12 and 6.9e-11; filtered purity 4.4e-16, 5.0e-16
# and 2.2e-16; success relative 8.0e-15, 2.2e-11 and 7.7e-11.  The bounds
# below are about three times those.
@pytest.mark.parametrize("params, kappa, unfiltered_tol, success_tol", [
    ((1.0, 5.0, math.pi / 4, -math.pi / 4), 0.3, 2e-14, 3e-14),
    ((1.0, 3.0, 0.6, -1.1), 1.5, 3e-11, 6e-11),
    ((2.0, 0.7, 0.3, 1.2), -0.8, 2e-10, 2e-10),
])
def test_chirped_gridded_amplitude_meets_its_closed_form(
        params, kappa, unfiltered_tol, success_tol):
    jsa = hp.DoubleGaussianJsa(*params)
    a, b, c, det = jsa.intensity_coefficients()
    real = hp.discretize(jsa, hp.recommended_grid(jsa)[0], 900)
    ws, wi = real.signal_grid[:, None], real.idler_grid[None, :]
    grid = hp.GriddedJsa(real.signal_grid, real.idler_grid,
                         real.amplitudes * np.exp(1j * kappa * ws * wi)
                         ).normalize()
    purity = math.sqrt(det / (a * c + kappa * kappa))
    assert hp.unfiltered_purity(grid) == pytest.approx(purity,
                                                       abs=unfiltered_tol)
    assert hp.decompose(grid).purity() == pytest.approx(purity,
                                                        abs=unfiltered_tol)
    for width in np.array([0.1, 0.3, 1.0]) * jsa.marginal_widths()[1]:
        filt = hp.GaussianFilter(0.0, width)
        c_f = c + 0.5 / (width * width)
        assert hp.filtered_purity(grid, filt) == pytest.approx(
            math.sqrt((a * c_f - b * b) / (a * c_f + kappa * kappa)),
            abs=1.5e-15)
        assert hp.herald_success(grid, filt) == pytest.approx(
            hp.closed_form_success(jsa, filt), rel=success_tol)


def _zero_gap_filter():
    """Tabulated herald whose transmission is exactly zero on some samples."""
    grid = np.linspace(-3.0, 3.0, 13)
    values = np.array([0, 0, .2, .7, 1, 0, 0, 0, 1, .9, .4, 0, 0], float)
    return hp.TabulatedFilter(grid, values)


def _explicit_states(jsa, heralds, x):
    """Each herald's state as the explicit product ``(phi * w) @ phi^H``."""
    spec = quadrature.DEFAULT_SPEC
    states = []
    for herald in heralds:
        if isinstance(jsa, hp.GriddedJsa):
            y = jsa.idler_grid
            wy = core._cell_weights(herald, y, jsa.idler_step)
            phi = jsa.amplitudes
        else:
            lo, hi, feature = jsa._idler_window(herald, spec.half_extent)
            y, wy = spec.axis(lo, hi, feature, herald)
            phi = hp.eval_double_gaussian(jsa, x[:, None], y[None, :])
        states.append((phi * wy) @ phi.conj().T)
    return states


def _assembled_states(jsa, heralds, heralded, spec, max_delay=None):
    """Signal nodes, signal weights, and each herald's state made whole."""
    x, wx, idler_axes = jsa.axes(heralds, heralded,
                                 quadrature._spec(spec), max_delay)
    return x, wx, [assemble(quadrature._state_pairs(jsa, x, y, wy), x.size)
                   for y, wy in idler_axes]


_REPEATED = hp.GaussianFilter(0.3, 0.6)


@pytest.mark.parametrize("source, heralds", [
    ("jsa_ktp", (None, hp.GaussianFilter(0.0, 6.0))),
    ("jsa_k26", (None, _REPEATED, _REPEATED, _zero_gap_filter())),
    ("k26_grid", (None, hp.GaussianFilter(0.2, 0.9), _zero_gap_filter())),
    ("chirped_grid", (None, hp.GaussianFilter(0.2, 0.9), _zero_gap_filter())),
])
def test_heralded_states_are_gram_matrices(request, monkeypatch, source,
                                           heralds):
    # each state is the block pairs of B = phi * sqrt(w), whose real results
    # are exactly symmetric
    jsa = request.getfixturevalue(source)
    gridded = isinstance(jsa, hp.GriddedJsa)
    before = jsa.amplitudes.copy() if gridded else None
    x, _, states = _assembled_states(jsa, heralds, None, None)
    for state, explicit in zip(states, _explicit_states(jsa, heralds, x)):
        scale = np.abs(state).max()
        assert scale > 0.0
        if source == "chirped_grid":
            assert np.iscomplexobj(state)
            assert np.abs(state - state.conj().T).max() <= 1e-15 * scale
        else:
            assert not np.iscomplexobj(state)
            assert np.array_equal(state, state.T)
        assert np.abs(state - explicit).max() <= 1e-13 * scale
    # a dip between a herald and itself builds one state, else two
    calls = []
    build = quadrature._state_pairs
    monkeypatch.setattr(quadrature, "_state_pairs",
                        lambda *args: calls.append(args) or build(*args))
    for left, right in zip(heralds[:-1], heralds[1:]):
        if left is not None:
            calls.clear()
            hp.hom_dip(jsa, left, right, [0.0])
            assert len(calls) == (1 if right is left else 2)
    if gridded:
        assert np.array_equal(jsa.amplitudes, before)
        assert not jsa.amplitudes.flags.writeable


_K30 = (1.0, 60.0, math.pi / 4, -math.pi / 4)


@pytest.mark.parametrize("source, herald, heralded, band", [
    # the band skips most of the node grid: unfiltered KTP (960 nodes), the
    # two-filter KTP rung of width 13 and an unfiltered K = 30 source
    (KTP_PARAMS, None, None, True),
    (KTP_PARAMS, hp.GaussianFilter(0.0, 13.0), hp.GaussianFilter(0.0, 13.0),
     True),
    (_K30, None, None, True),
    # small and dense states: real parametric, real gridded and complex
    # gridded
    (KTP_PARAMS, hp.GaussianFilter(0.0, 2.0), None, False),
    (K26_PARAMS, None, None, False),
    ("k26_grid", hp.GaussianFilter(0.2, 0.9), None, False),
    ("chirped_grid", hp.GaussianFilter(0.2, 0.9), None, False),
])
def test_block_reduction_matches_the_assembled_state(
        request, source, herald, heralded, band):
    # the block pairs of B B^H reduce, within 1e-14 relative, to the
    # reduction of the whole state
    jsa = (request.getfixturevalue(source) if isinstance(source, str)
           else hp.DoubleGaussianJsa(*source))
    x, wx, ((y, wy),) = jsa.axes((herald,), heralded,
                                 quadrature.DEFAULT_SPEC)
    pieces = jsa.row_pieces(x, y, np.sqrt(wy))
    if band:
        assert sum(piece.size for _, _, piece in pieces) < x.size * y.size / 2
    if source == KTP_PARAMS and herald is None:
        assert x.size == 960
    whole = slice(None)
    state = assemble(core._gram_blocks(pieces), x.size)
    expected = core._purity_success([(whole, whole, state)], wx)
    pairs = list(core._gram_blocks(pieces))
    assert all(rows_i.start <= rows_j.start for rows_i, rows_j, _ in pairs)
    got = core._purity_success(pairs, wx)
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
    # the public routes reduce the same blocks
    purity, success = quadrature._single_pair(jsa, herald, heralded, None)
    assert (purity, success) == (float(got[0]), float(got[1]))


_TABLE_GRID = np.linspace(-4.0, 4.0, 33)
_TABLE = hp.TabulatedFilter(_TABLE_GRID,
                            np.exp(-0.5 * ((_TABLE_GRID - 0.4) / 1.2) ** 2))


@pytest.mark.parametrize("source, herald", [
    (K26_PARAMS, hp.GaussianFilter(0.0, 0.8)),
    (K26_PARAMS, _TABLE),
    (KTP_PARAMS, hp.GaussianFilter(1.5, 2.0)),
    (KTP_PARAMS, hp.GaussianFilter(0.0, 20.0)),
    ("k26_grid", hp.GaussianFilter(0.6, 0.9)),
    ("k26_grid", _TABLE),
    ("chirped_grid", hp.GaussianFilter(-0.7, 0.6)),
    ("chirped_grid", _TABLE),
])
def test_herald_success_sums_only_the_weighted_trace(request, monkeypatch,
                                                     source, herald):
    # the trace of B B^H, summed as wx |B|^2 row by row, with no block
    # product of the state
    jsa = (request.getfixturevalue(source) if isinstance(source, str)
           else hp.DoubleGaussianJsa(*source))
    _, expected = quadrature._single_pair(jsa, herald, None, None)
    products = []
    gram_blocks = quadrature._gram_blocks

    def counted(pieces):
        products.append(pieces)
        return gram_blocks(pieces)

    monkeypatch.setattr(quadrature, "_gram_blocks", counted)
    success = hp.herald_success(jsa, herald)
    assert products == []
    assert success == pytest.approx(expected, rel=1e-14, abs=0.0)


def _looped_pieces(jsa, x, y, root):
    """``row_pieces`` of a parametric amplitude, each block's
    hull taken by a ``min()`` and a ``max()`` of its own."""
    _, b, c, det = jsa.intensity_coefficients()
    peak = float(hp.eval_double_gaussian(jsa, 0.0, 0.0) * root.max())
    reach = (2.0 * math.log(peak / core._UNDERFLOW_FLOOR)
             + core._BAND_MARGIN if peak > 0.0 else -math.inf)
    disc = c * reach - det * x * x
    live = disc >= 0.0
    half = np.sqrt(np.where(live, disc, 0.0))
    lo = np.searchsorted(y, (-b * x - half) / c) - 1
    hi = np.searchsorted(y, (-b * x + half) / c, side="right") + 1
    lo = np.where(live, np.maximum(lo, 0), y.size)
    hi = np.where(live, np.minimum(hi, y.size), 0)
    pieces = []
    for start in range(0, x.size, core._GRAM_BLOCK):
        rows = slice(start, start + core._GRAM_BLOCK)
        span_lo, span_hi = int(lo[rows].min()), int(hi[rows].max())
        if span_lo < span_hi:
            block = hp.eval_double_gaussian(jsa, x[rows, None],
                                            y[None, span_lo:span_hi])
            pieces.append((start, span_lo, block * root[span_lo:span_hi]))
    return pieces


@pytest.mark.parametrize("source, herald, heralded", [
    (KTP_PARAMS, None, None),
    (KTP_PARAMS, hp.GaussianFilter(0.0, 13.0), hp.GaussianFilter(0.0, 13.0)),
    (_K30, None, None),
    (KTP_PARAMS, hp.GaussianFilter(0.3, 2.0), None),
    (KTP_PARAMS, hp.GaussianFilter(0.0, 0.05), None),
    (K26_PARAMS, None, None),
    (KTP_PARAMS, hp.GaussianFilter(400.0, 0.05), None),
])
def test_block_hulls_match_the_per_block_loop(source, herald, heralded):
    # np.minimum.reduceat and np.maximum.reduceat take every block's hull
    # at once, to the same pieces, on band and dense states and on a herald
    # beyond the band
    jsa = hp.DoubleGaussianJsa(*source)
    x, _, ((y, wy),) = jsa.axes((herald,), heralded,
                                quadrature.DEFAULT_SPEC)
    root = np.sqrt(wy)
    pieces = jsa.row_pieces(x, y, root)
    expected = _looped_pieces(jsa, x, y, root)
    assert [piece[:2] for piece in pieces] == [
        piece[:2] for piece in expected]
    for (_, _, block), (_, _, reference) in zip(pieces, expected):
        assert np.array_equal(block, reference)


def test_single_state_purity_never_builds_the_state():
    # 3168-node axes: one n x n float64 state is 80 MB, and the block
    # reduction stays below a quarter of it
    jsa = hp.DoubleGaussianJsa(1.0, 150.0, math.pi / 4, -math.pi / 4)
    x, _, ((y, _),) = jsa.axes((None,), None, quadrature.DEFAULT_SPEC)
    assert x.size == y.size == 3168
    tracemalloc.start()
    try:
        purity = hp.unfiltered_purity(jsa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * x.size**2 * 8
    assert purity == pytest.approx(hp.closed_form_report(jsa).purity_filtered,
                                   rel=1e-12)


def _dense_overlaps(jsa, heralds, delays):
    """Two-arm overlaps from whole explicit states on ``hom_dip``'s axes."""
    x, wx, _ = jsa.axes(heralds, None, quadrature.DEFAULT_SPEC,
                        float(np.abs(delays).max()))
    state_x, state_y = _explicit_states(jsa, heralds, x)
    u = wx * np.exp(1j * np.multiply.outer(delays, x))
    cross = np.einsum("da,ab,db->d", u, state_x * state_y.conj(), u.conj())
    success = [wx @ np.diagonal(state) for state in (state_x, state_y)]
    return x, cross.real / (success[0] * success[1])


@pytest.mark.parametrize("flip", [False, True])
def test_mixed_form_dip_matches_whole_states(flip):
    # a wide herald, whose state is a band of block pairs, against a narrow
    # one, whose state fills every pair, in both orders
    jsa = hp.DoubleGaussianJsa(1.0, 24.0, math.pi / 4, -math.pi / 4)
    heralds = (hp.GaussianFilter(0.0, 8.0), hp.GaussianFilter(0.1, 0.3))
    heralds = heralds[::-1] if flip else heralds
    delays = np.linspace(-1.0, 1.0, 11)
    x, expected = _dense_overlaps(jsa, heralds, delays)
    assert x.size == 416
    curve = hp.hom_dip(jsa, *heralds, delays)
    np.testing.assert_allclose(curve.coincidences, 0.5 * (1.0 - expected),
                               rtol=0.0, atol=1e-14)


def test_band_dip_never_builds_a_state():
    # K = 30 at width 20: both states take the band path on an 896-node
    # axis, and the dip stays below one 896 x 896 float64 state (6.4 MB)
    jsa = hp.DoubleGaussianJsa(*_K30)
    herald = hp.GaussianFilter(0.0, 20.0)
    delays = np.linspace(-1.0, 1.0, 9)
    x, _, _ = jsa.axes((herald,), None, quadrature.DEFAULT_SPEC, 1.0)
    assert x.size == 896
    tracemalloc.start()
    try:
        curve = hp.hom_dip(jsa, herald, herald, delays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.size**2 * 8
    _, expected = _dense_overlaps(jsa, (herald, herald), delays)
    np.testing.assert_allclose(curve.coincidences, 0.5 * (1.0 - expected),
                               rtol=0.0, atol=1e-14)


_KTP_TAB_GRID = np.linspace(-30.0, 30.0, 61)


@pytest.mark.parametrize(
        "source, heralds, heralded, density, max_delay, band", [
    ("jsa_ktp", (None,), None, 1.0, None, True),
    ("jsa_ktp", (hp.GaussianFilter(0.0, 0.05),), None, 1.0, None, False),
    ("jsa_ktp", (hp.GaussianFilter(3.0, 0.05),), None, 1.0, None, False),
    ("jsa_ktp", (hp.GaussianFilter(0.0, 2.0),), None, 1.0, None, False),
    ("jsa_ktp", (hp.GaussianFilter(-4.0, 2.0),), None, 1.0, None, False),
    ("jsa_ktp", (hp.GaussianFilter(0.0, 14.0),), None, 1.0, None, True),
    ("jsa_ktp", (hp.GaussianFilter(5.0, 14.0),), None, 1.0, None, True),
    ("jsa_ktp", (hp.TabulatedFilter(
        _KTP_TAB_GRID, np.exp(-((_KTP_TAB_GRID - 1.0) / 3.0) ** 2)),),
     None, 1.0, None, False),
    ("jsa_ktp", (hp.GaussianFilter(0.5, 14.0),), hp.GaussianFilter(0.2, 3.0),
     1.0, None, True),
    ("jsa_ktp", (_REPEATED, hp.GaussianFilter(1.0, 14.0)), None, 1.0, 3.0,
     True),
    ("jsa_ktp", (hp.GaussianFilter(0.0, 14.0),), None, 2.0, None, True),
    ("jsa_k26", (None, hp.GaussianFilter(0.3, 0.6)), None, 1.0, 2.0, False),
    ("jsa_ktp", (hp.GaussianFilter(400.0, 0.05),), None, 1.0, None, True),
    ("jsa_ktp", (hp.GaussianFilter(0.0, 14.0),), hp.TabulatedFilter(
        _KTP_TAB_GRID, np.exp(-((_KTP_TAB_GRID + 2.0) / 9.0) ** 2)),
     1.0, None, True),
])
def test_band_sampled_states_match_dense_evaluation(
        request, monkeypatch, source, heralds, heralded, density, max_delay,
        band):
    # B evaluated only over the live band of each row block gives the same
    # bits as B evaluated on the whole node grid, also at a denser node rule
    # and on the knot panels of a tabulated heralded filter
    jsa = request.getfixturevalue(source)
    monkeypatch.setattr(quadrature, "_NODES_PER_FEATURE",
                        density * quadrature._NODES_PER_FEATURE)
    args = (jsa, heralds, heralded, None, max_delay)
    banded = []
    sampler = hp.DoubleGaussianJsa.row_pieces

    def recorded(jsa, x, y, root):
        pieces = sampler(jsa, x, y, root)
        banded.append(sum(p.size for _, _, p in pieces) < x.size * y.size)
        return pieces

    monkeypatch.setattr(hp.DoubleGaussianJsa, "row_pieces", recorded)
    x, wx, states = _assembled_states(*args)
    monkeypatch.setattr(hp.DoubleGaussianJsa, "row_pieces",
                        lambda jsa, x, y, root: [
        (0, 0, hp.eval_double_gaussian(jsa, x[:, None], y[None, :]) * root)])
    x_ref, wx_ref, dense = _assembled_states(*args)
    assert np.array_equal(x, x_ref) and np.array_equal(wx, wx_ref)
    assert len(states) == len(dense)
    for state, ref in zip(states, dense):
        assert np.array_equal(state, ref)
    assert any(banded) or not band


def test_herald_beyond_the_band_gives_an_empty_state(jsa_ktp):
    # every root-weighted sample lies below the underflow floor, so the
    # state has no block pairs
    far = hp.GaussianFilter(400.0, 0.05)
    x, _, ((y, wy),) = jsa_ktp.axes((far,), None, quadrature.DEFAULT_SPEC)
    assert list(quadrature._state_pairs(jsa_ktp, x, y, wy)) == []
    with pytest.raises(hp.NumericalError,
                       match="heralding probability evaluated to 0.0"):
        hp.filtered_purity(jsa_ktp, far)


@pytest.mark.parametrize("n", [*range(1, 41), 48, 400, 1888])
def test_leggauss_matches_numpy(n):
    x, w = _leggauss(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert np.abs(x - x_ref).max() <= 2.3e-16
    assert np.abs(w - w_ref).max() <= 1e-12


@pytest.mark.parametrize("n", [6000, 12000])
def test_leggauss_matches_scipy_at_large_n(n):
    # numpy's companion matrix would take 0.3 GB and 1.15 GB here.  scipy's
    # weights near +-1 are the less accurate (up to 4e-5 relative at
    # n = 12000, checked in 40-digit arithmetic), hence the weight bound.
    special = pytest.importorskip("scipy.special")
    x, w = _leggauss(n)
    x_ref, w_ref = special.roots_legendre(n)
    assert np.abs(x - x_ref).max() <= 2.3e-16
    assert np.abs(w - w_ref).max() <= 5e-12


@pytest.mark.parametrize("n", [1, 2, 3, 32, 33, 400, 1888])
def test_leggauss_symmetric_rule(n):
    x, w = _leggauss(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x[::-1], -x)
    assert np.array_equal(w[::-1], w)
    assert abs(w.sum() - 2.0) <= 1e-14


@pytest.mark.parametrize("n", [32, 33])
def test_leggauss_exact_to_degree_2n_minus_1(n):
    x, w = _leggauss(n)
    exact = 2.0 / (2 * n - 1)
    assert w @ x ** (2 * n - 2) == pytest.approx(exact, rel=1e-13)


def test_leggauss_newton_cap_raises(monkeypatch):
    # n = 6 still needs two Newton steps from the formulas' guesses
    monkeypatch.setattr(quadrature, "_NEWTON_MAX_STEPS", 1)
    with pytest.raises(hp.ConvergenceError):
        _leggauss.__wrapped__(6)


def _count_sweeps(n, monkeypatch):
    sweeps = []
    sweep = quadrature._legendre_pair

    def counting(x, degree):
        sweeps.append(degree)
        return sweep(x, degree)

    monkeypatch.setattr(quadrature, "_legendre_pair", counting)
    _leggauss.__wrapped__(n)
    return sweeps


@pytest.mark.parametrize("n", [quadrature._FORMULA_NODES, 208, 1888, 6000,
                               12000])
def test_leggauss_takes_no_recurrence_sweep(n, monkeypatch):
    # from _FORMULA_NODES nodes on the rule comes straight from the formulas
    assert _count_sweeps(n, monkeypatch) == []


@pytest.mark.parametrize("n", [7, 32, quadrature._FORMULA_NODES - 1])
def test_leggauss_polishes_small_rules_in_one_sweep(n, monkeypatch):
    assert _count_sweeps(n, monkeypatch) == [n]


def test_leggauss_formulas_agree_with_newton():
    # one Newton sweep from the formulas' nodes moves none of them by more
    # than the node bound; Newton's own weights differ from the formulas' by
    # up to 4.8e-14 relative (the rounding of its recurrence, which grows
    # with n)
    for n in range(112, 6001, 16):
        x, w = quadrature._bogaert(n)
        x_newton, w_newton = quadrature._newton(x.copy(), n)
        assert np.abs(x - x_newton).max() <= 2.3e-16, n
        assert np.abs(w - w_newton).max() <= 1e-15, n


@pytest.mark.parametrize("n", [16, 24, 32, 40, 44, 48, 50, 56, 64,
                               quadrature._FORMULA_NODES - 1, 101, 208, 960,
                               1888, 6000])
def test_leggauss_matches_40_digit_roots(n):
    # One 40-digit Newton step from the rule's own node, at the three
    # outermost, three middle and three innermost non-negative nodes.
    # Measured worst weights: 3.4e-16 relative from the formulas (n >= 100),
    # 2.9e-15 from the Newton rules below _FORMULA_NODES, over every node.
    mp = pytest.importorskip("mpmath")
    x, w = _leggauss(n)
    weight_bound = 1e-15 if n >= quadrature._FORMULA_NODES else 1e-14
    m = (n + 1) // 2
    picks = {*range(3), *range(m // 2 - 1, m // 2 + 2), *range(m - 3, m)}
    with mp.workdps(40):
        def slope_and_step(t):
            p_prev, p = mp.mpf(1), t
            for k in range(1, n):
                p_prev, p = p, ((2 * k + 1) * t * p - k * p_prev) / (k + 1)
            slope = n * (p_prev - t * p) / (1 - t * t)
            return slope, p / slope

        for i in sorted(picks):
            node = mp.mpf(float(x[n - 1 - i]))
            node -= slope_and_step(node)[1]
            weight = 2 / ((1 - node * node) * slope_and_step(node)[0] ** 2)
            assert abs(float(x[n - 1 - i] - node)) <= 2.3e-16, (n, i)
            assert abs(float(w[n - 1 - i] / weight - 1)) <= weight_bound, (n, i)


@pytest.mark.parametrize("n", range(quadrature._FORMULA_NODES, 100))
def test_formula_rules_match_40_digit_roots_at_every_node(n):
    # The sizes that Newton polished while the formulas started at 100
    # nodes, each at every non-negative node.  Measured worst: 1.3e-16 in
    # the nodes and 7.8e-16 relative in the weights (n = 70); at n = 68 the
    # weights reach 9.99e-16, and at n = 65 1.1e-15.
    mp = pytest.importorskip("mpmath")
    x, w = _leggauss(n)
    with mp.workdps(40):
        for i in range((n + 1) // 2):
            node = mp.mpf(float(x[n - 1 - i]))
            p_prev, p = mp.mpf(1), node
            for k in range(1, n):
                p_prev, p = p, ((2 * k + 1) * node * p - k * p_prev) / (k + 1)
            one_minus = 1 - node * node
            slope = n * (p_prev - node * p) / one_minus
            step = p / slope
            # P_n' carried to the root to first order: the next term is
            # below 1e-24 relative for a step of 1e-16
            slope -= step * (2 * node * slope - n * (n + 1) * p) / one_minus
            root = node - step
            weight = 2 / ((1 - root * root) * slope**2)
            assert abs(float(x[n - 1 - i] - root)) <= 2.3e-16, (n, i)
            assert abs(float(w[n - 1 - i] / weight - 1)) <= 1e-15, (n, i)


def test_leggauss_arrays_are_read_only():
    # the cache hands the same arrays to every caller
    for array in _leggauss(64):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_bessel_zeros_match_scipy():
    special = pytest.importorskip("scipy.special")
    ref = special.jn_zeros(0, 40)
    base = (np.arange(1, 41) - 0.25) * np.pi
    offsets = quadrature._bessel_j0_offsets(base)
    # the table, then McMahon's series
    assert np.array_equal(offsets[:20], quadrature._J0_OFFSETS)
    assert np.all(np.abs(base + offsets - ref) <= np.spacing(ref))
    squares = quadrature._bessel_j1_squared(np.arange(1, 41) - 0.25)
    assert np.array_equal(squares[:21], quadrature._J1_SQUARED)
    ref_squares = special.j1(ref) ** 2
    assert np.all(np.abs(squares / ref_squares - 1.0) <= 1e-14)


def test_nodes_never_use_the_eigen_solve(jsa_ktp, monkeypatch):
    # the companion-matrix eigen-solve is O(n^3) in time and O(n^2) in memory
    def refuse(n):
        raise AssertionError("numpy leggauss called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    _leggauss.cache_clear()
    report = hp.heralding_report(jsa_ktp, hp.GaussianFilter(0.0, 0.72))
    assert report.purity_filtered == pytest.approx(
        hp.closed_form_purity(jsa_ktp, hp.GaussianFilter(0.0, 0.72)), rel=1e-8)


def test_default_rules_never_run_newton(jsa_k26, jsa_ktp, monkeypatch):
    # every default axis has at least _FORMULA_NODES nodes, so a cold node
    # cache builds each rule from the formulas alone
    def refuse(x, n):
        raise AssertionError(f"Newton polished a {n}-node rule")

    monkeypatch.setattr(quadrature, "_newton", refuse)
    _leggauss.cache_clear()
    try:
        ladder = [(jsa_ktp, hp.GaussianFilter(0.3, width))
                  for width in np.geomspace(0.05, 20.0, 7)]
        for jsa, filt in [*ladder, (jsa_k26, hp.GaussianFilter(0.0, 0.6))]:
            assert 0.0 < hp.filtered_purity(jsa, filt) <= 1.0
            assert 0.0 < hp.herald_success(jsa, filt) <= 1.0
            hp.two_filter_quantities(jsa, filt, hp.GaussianFilter(0.0, 6.0))
            hp.heralding_report(jsa, filt)
            hp.heralding_report(jsa)
            hp.hom_dip(jsa, filt, filt, np.linspace(-2.0, 2.0, 5))
    finally:
        _leggauss.cache_clear()


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        hp.QuadratureSpec(n_nodes=4)
    with pytest.raises(ValueError):
        hp.QuadratureSpec(half_extent=-1.0)
    with pytest.raises(ValueError):
        hp.QuadratureSpec(n_nodes=6001)
    for extent in (math.inf, math.nan):
        with pytest.raises(ValueError, match="half_extent must be finite"):
            hp.QuadratureSpec(half_extent=extent)


@pytest.mark.parametrize("n_nodes", [100.5, np.float64(200.0), True, "200"])
def test_quadrature_spec_requires_an_integer_node_floor(n_nodes):
    with pytest.raises(ValueError, match="n_nodes must be an integer"):
        hp.QuadratureSpec(n_nodes=n_nodes)
    assert hp.QuadratureSpec(n_nodes=np.int64(64)).n_nodes == 64


@pytest.mark.parametrize("extent", ["8.0", True], ids=["str", "bool"])
def test_quadrature_spec_requires_a_numeric_extent(extent):
    # a string raised TypeError
    with pytest.raises(ValueError, match="half_extent must be a number"):
        hp.QuadratureSpec(half_extent=extent)
    assert hp.QuadratureSpec(half_extent=8).half_extent == 8.0


def test_non_amplitudes_raise_type_error():
    # hom_dip used to fail with an AttributeError on the missing grid step
    filt = hp.GaussianFilter(0.0, 1.0)
    with pytest.raises(TypeError, match="not a joint spectral amplitude: str"):
        hp.filtered_purity("x", filt)
    with pytest.raises(TypeError, match="not a joint spectral amplitude: str"):
        hp.hom_dip("x", filt, filt, [0.0])


_AMPLITUDE_ROUTES = {
    "unfiltered_purity": lambda bad, f: hp.unfiltered_purity(bad),
    "herald_success": lambda bad, f: hp.herald_success(bad, f),
    "filtered_purity": lambda bad, f: hp.filtered_purity(bad, f),
    "two_filter_quantities": lambda bad, f: hp.two_filter_quantities(
        bad, f, f),
    "hom_dip": lambda bad, f: hp.hom_dip(bad, f, f, [0.0]),
    "heralding_report": lambda bad, f: hp.heralding_report(bad, f),
    "solve_filter_for_target": lambda bad, f: hp.solve_filter_for_target(
        bad, target_purity=0.9),
    "require_unit_norm": lambda bad, f: core._require_unit_norm(bad),
}


@pytest.mark.parametrize("route", _AMPLITUDE_ROUTES)
@pytest.mark.parametrize("bad", ["x", None, hp.GaussianFilter(0.0, 1.0)],
                         ids=["str", "none", "filter"])
def test_every_route_refuses_a_non_amplitude(route, bad):
    # one gate in core, core._amplitude, words the refusal for every
    # quadrature route, the solver and the norm check
    with pytest.raises(TypeError, match="^not a joint spectral amplitude: "
                       + type(bad).__name__ + "$"):
        _AMPLITUDE_ROUTES[route](bad, hp.GaussianFilter(0.0, 1.0))


@pytest.mark.parametrize("source", ["jsa_k26", "k26_grid"])
def test_routes_refuse_a_non_spec(request, source):
    # an int spec reached its half_extent with an AttributeError on the
    # parametric route, and was ignored on the gridded one
    jsa = request.getfixturevalue(source)
    filt = hp.GaussianFilter(0.0, 1.0)
    for call in (lambda: hp.heralding_report(jsa, filt, spec=3),
                 lambda: hp.herald_success(jsa, filt, spec=3),
                 lambda: hp.hom_dip(jsa, filt, filt, [0.0], spec=3),
                 lambda: hp.hom_dip(jsa, filt, filt, [1e6], spec=3)):
        with pytest.raises(TypeError, match="^not a quadrature spec: int$"):
            call()


@pytest.mark.parametrize("source", ["jsa_k26", "k26_grid"])
def test_both_amplitude_types_provide_the_protocol(request, source):
    # the four members the quadrature route asks an amplitude for
    jsa = request.getfixturevalue(source)
    for member in ("norm", "axes", "row_pieces", "resolved"):
        assert callable(getattr(jsa, member))
    assert jsa.norm() == (1.0 if source == "jsa_k26"
                          else pytest.approx(1.0, abs=1e-12))
    x, wx, ((y, wy),) = jsa.axes((None,), None, quadrature.DEFAULT_SPEC)
    assert x.shape == wx.shape and y.shape == wy.shape
    pieces = jsa.row_pieces(x, y, np.sqrt(wy))
    assert all(start + len(block) <= x.size and offset + block.shape[1]
               <= y.size for start, offset, block in pieces)
    assert jsa.resolved(np.array([0.0, 1.0])).dtype == bool


def test_quadrature_tests_no_amplitude_or_filter_type():
    # quadrature asks amplitudes and filters for their rules; it binds
    # neither amplitude type nor either filter type, and has no isinstance
    kinds = (hp.DoubleGaussianJsa, hp.GriddedJsa, hp.GaussianFilter,
             hp.TabulatedFilter)
    assert not [name for name, value in vars(quadrature).items()
                if any(value is kind for kind in kinds)]
    assert "isinstance" not in inspect.getsource(quadrature)


def test_node_budget_exhaustion(jsa_ktp, monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_NODES", 64)
    filt = hp.GaussianFilter(0.0, 0.72)
    spec = hp.QuadratureSpec(n_nodes=64)
    with pytest.raises(hp.ConvergenceError):
        hp.filtered_purity(jsa_ktp, filt, spec=spec)


def test_doubled_node_count_raises_past_the_budget(jsa_k26):
    # the budget holds for the signal axis after the panels of a tabulated
    # heralded filter, since the n x n states live on it: a real 12000^2
    # state would take 1.15 GB.  Idler panels only lengthen B, so a dense
    # table there is not capped.
    spec = hp.QuadratureSpec(n_nodes=6000)
    x, _ = spec.axis(-1.0, 1.0, 1.0, None)
    assert x.size == 6000
    with pytest.raises(hp.ConvergenceError, match="axis needs 6016 nodes"):
        quadrature.DEFAULT_SPEC.axis(0.0, 2300.0, 1.0, None)
    dense = _gaussian_table(0.0, 0.8, 6.0, 3001)
    with pytest.raises(hp.ConvergenceError, match="signal axis needs 9000"):
        hp.two_filter_quantities(jsa_k26, identity_filter(jsa_k26), dense)
    lo, hi, feature = jsa_k26._idler_window(dense, 8.0)
    y, _ = quadrature.DEFAULT_SPEC.axis(lo, hi, feature, dense)
    assert y.size == 9000
    assert hp.filtered_purity(jsa_k26, dense) > 0.0


@pytest.mark.parametrize("n_nodes", [32, 200, 2999, 3000, 3001, 6000])
def test_doubled_axes_stay_within_the_budget(jsa_k26, n_nodes):
    # a panel adds at most three nodes to its share of the node rule's
    # count, and a signal axis whose panels pass the budget is refused
    # before any state is built
    spec = hp.QuadratureSpec(n_nodes=n_nodes)
    hull = jsa_k26._idler_window(None, spec.half_extent)[:2]
    refused = 0
    for knots in (2, 11, 101, 2001):
        table = _gaussian_table(0.0, 3.0, 6.0, knots)
        lo, hi, feature = jsa_k26._signal_window(hull, table,
                                                 spec.half_extent)
        plain, _ = spec.axis(lo, hi, feature, None)
        x, w = spec.axis(lo, hi, feature, table)
        panels = 1 + np.count_nonzero((table.grid > lo) & (table.grid < hi))
        assert plain.size + 2 * panels <= x.size <= plain.size + 3 * panels
        assert np.all(np.diff(x) > 0.0) and lo < x[0] and x[-1] < hi
        # the transmission is linear on each panel, so its integral is exact
        exact = core._cell_weights(table, np.array([0.5 * (lo + hi)]), hi - lo)
        assert w.sum() == pytest.approx(exact[0], rel=1e-13)
        if x.size > quadrature._MAX_NODES:
            refused += 1
            with pytest.raises(hp.ConvergenceError, match="signal axis"):
                jsa_k26.axes((None,), table, spec)
    assert refused == {2999: 1, 3000: 1, 3001: 1, 6000: 4}.get(n_nodes, 0)


def _margin_cases():
    """Unfiltered KTP, an off-centre KTP filter ladder and acceptance draws."""
    ktp = hp.DoubleGaussianJsa(*KTP_PARAMS)
    cases = [(ktp, None)]
    cases += [(ktp, hp.GaussianFilter(0.3 * min(width, 1.0), width))
              for width in np.geomspace(0.05, 60.0, 7)]
    rng = np.random.default_rng(SEED)
    cases += [draw_case(rng)[:2] for _ in range(20)]
    return cases


def _margin_values(cases, spec=None):
    values = []
    for jsa, herald in cases:
        values.append(quadrature._single_pair(jsa, herald, None, spec))
        if herald is not None:
            values.append(quadrature._single_pair(jsa, herald, herald, spec))
    return np.array(values)


def _doubled_rule(monkeypatch):
    """Double the node rule's density and margin; returns a doubled floor."""
    monkeypatch.setattr(quadrature, "_NODES_PER_FEATURE",
                        2.0 * quadrature._NODES_PER_FEATURE)
    monkeypatch.setattr(quadrature, "_NODE_MARGIN",
                        2 * quadrature._NODE_MARGIN)
    return hp.QuadratureSpec(n_nodes=2 * quadrature.DEFAULT_SPEC.n_nodes)


def test_node_density_keeps_a_margin(jsa_ktp, monkeypatch):
    # at 0.7 of the density, 1.82 nodes per feature, just under the measured
    # knee of about 1.9, results still agree to 1e-11 (2e-13 measured); a
    # cut of the constant to the knee or below fails here.  Twice the
    # density, margin and floor move them by at most 1e-12.
    cases = _margin_cases()
    reference = _margin_values(cases)
    with monkeypatch.context() as patch:
        dense = _margin_values(cases, _doubled_rule(patch))
    np.testing.assert_allclose(dense, reference, rtol=0.0, atol=1e-12)
    monkeypatch.setattr(quadrature, "_NODES_PER_FEATURE",
                        0.7 * quadrature._NODES_PER_FEATURE)
    sparse = _margin_values(cases)
    assert np.all(np.abs(sparse / reference - 1.0) <= 1e-11)
    filt = hp.GaussianFilter(0.0, 2.0)
    a, _, _, _ = jsa_ktp.intensity_coefficients()
    delays = np.linspace(-1.0, 1.0, 201) * 4.0 * math.sqrt(2.0 * a)
    dip = hp.hom_dip(jsa_ktp, filt, filt, delays)
    exact = hp.hom_dip_analytic(
        jsa_ktp, hp.closed_form_purity(jsa_ktp, filt), delays)
    assert np.abs(dip.coincidences - exact.coincidences).max() <= 1e-12


def _calls(monkeypatch, name, owner=quadrature):
    """The arguments of each later call of ``owner.<name>``."""
    seen, inner = [], getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(owner, name, spy)
    return seen


def test_convergence_check_passes_on_defaults(jsa_ktp, monkeypatch):
    # Gaussian integrands have converged at the node rule's density: twice
    # the density, margin and floor move them by at most 1e-12, and each
    # result comes from one pass
    filt = hp.GaussianFilter(0.0, 0.72)
    plain = quadrature._single_pair(jsa_ktp, filt, None, None)
    with monkeypatch.context() as patch:
        doubled = quadrature._single_pair(jsa_ktp, filt, None,
                                          _doubled_rule(patch))
    np.testing.assert_allclose(doubled, plain, rtol=0.0, atol=1e-12)
    calls = _calls(monkeypatch, "axes", hp.DoubleGaussianJsa)
    assert hp.filtered_purity(jsa_ktp, filt) == plain[0]
    assert len(calls) == 1
    assert plain[0] == pytest.approx(hp.closed_form_purity(jsa_ktp, filt),
                                     rel=1e-8)


# A comb finer than the node rule's spacing, which aliased before the knot
# panels.
COMB = (np.linspace(-8.0, 8.0, 161), (np.arange(161) % 2).astype(float))


def test_convergence_check_flags_aliasing(jsa_k26):
    # the comb's panels integrate it to rounding, from the default floor
    # and from the lowest one
    filt = hp.TabulatedFilter(*COMB)
    success, purity = tabulated_reference(jsa_k26, filt)
    for spec in (None, hp.QuadratureSpec(n_nodes=32)):
        assert hp.herald_success(jsa_k26, filt, spec=spec) == pytest.approx(
            success, rel=1e-10)
        assert hp.filtered_purity(jsa_k26, filt, spec=spec) == pytest.approx(
            purity, rel=1e-10)


def test_hom_dip_convergence_check(jsa_k26, jsa_ktp, k26_grid, monkeypatch):
    delays = np.linspace(-3.0, 3.0, 201)
    for fx, fy in (((0.0, 0.6), (0.0, 0.6)), ((0.0, 0.4), (0.3, 1.1))):
        fx, fy = hp.GaussianFilter(*fx), hp.GaussianFilter(*fy)
        plain = quadrature._hom_overlaps(jsa_k26, fx, fy, delays, None)
        with monkeypatch.context() as patch:
            doubled = quadrature._hom_overlaps(jsa_k26, fx, fy, delays,
                                               _doubled_rule(patch))
        np.testing.assert_allclose(doubled, plain, rtol=0.0, atol=1e-12)
    # the comb on the KTP source, whose overlaps moved by about 4e-4 when
    # node counts doubled, overlaps itself by the exact purity
    comb = hp.TabulatedFilter(*COMB)
    _, purity = tabulated_reference(jsa_ktp, comb)
    dip = hp.hom_dip(jsa_ktp, comb, comb, delays)
    assert 1.0 - 2.0 * dip.coincidences[100] == pytest.approx(purity,
                                                              rel=1e-10)
    # every route runs one pass, gridded samples too
    calls = _calls(monkeypatch, "_hom_overlaps")
    hp.hom_dip(k26_grid, comb, comb, np.linspace(-1.0, 1.0, 5))
    assert len(calls) == 1


def test_convergence_check_rejects_gridded(k26_grid, jsa_k26, monkeypatch):
    # a gridded amplitude with a tabulated herald runs one pass
    filt = identity_filter(jsa_k26)
    calls = _calls(monkeypatch, "_single_pair")
    purity = hp.filtered_purity(k26_grid, filt)
    assert len(calls) == 1
    assert purity == pytest.approx(5.0 / 13.0, rel=1e-6)


def _box(lo, hi):
    """A box herald on ``[lo, hi]`` with 1e-6 ramps, zero 5 rad/ps beyond."""
    return hp.TabulatedFilter([lo - 5.0, lo - 1e-6, lo, hi, hi + 1e-6, hi + 5.0],
                              [0.0, 0.0, 1.0, 1.0, 0.0, 0.0])


# The demo box of 2 rad/ps: its knots sit inside the amplitude's mass, and
# at default settings node counts doubled from the node rule's moved its
# purity by 8.1e-3.
BOX = ([-5.0, -1.0 - 1e-6, -1.0, 1.0, 1.0 + 1e-6, 5.0],
       [0.0, 0.0, 1.0, 1.0, 0.0, 0.0])


def _gaussian_table(center, width, span, knots):
    grid = np.linspace(center - span * width, center + span * width, knots)
    return hp.TabulatedFilter(grid, np.exp(-0.5 * ((grid - center) / width)**2))


@pytest.mark.parametrize("jsa", [hp.DoubleGaussianJsa(*K26_PARAMS),
                                 hp.DoubleGaussianJsa(*KTP_PARAMS)],
                         ids=["demo", "ktp"])
def test_tabulated_reference_flat_table(jsa):
    # unit transmission over the whole marginal: certain heralding, 1/K
    success, purity = tabulated_reference(jsa, identity_filter(jsa))
    assert success == pytest.approx(1.0, abs=1e-13)
    assert purity == pytest.approx(1.0 / hp.schmidt_number(jsa), abs=1e-13)


def test_tabulated_reference_box(jsa_k26):
    # independent of the node count per panel, to rounding
    box = hp.TabulatedFilter(*BOX)
    for nodes in (20, 40, 80):
        success, purity = tabulated_reference(jsa_k26, box, nodes)
        assert success == pytest.approx(0.305113542520, abs=1e-12)
        assert purity == pytest.approx(0.877079709208, abs=1e-12)


def test_unresolved_tabulated_herald_raises(jsa_k26):
    # the box whose single pass was 2.6% low in success and 0.6% high in
    # purity, and whose doubled pass raised, meets the reference
    box = hp.TabulatedFilter(*BOX)
    success, purity = tabulated_reference(jsa_k26, box)
    report = hp.heralding_report(jsa_k26, box)
    assert report.success == pytest.approx(success, rel=1e-10)
    assert report.purity_filtered == pytest.approx(purity, rel=1e-10)
    assert hp.herald_success(jsa_k26, box) == pytest.approx(success, rel=1e-10)
    assert hp.filtered_purity(jsa_k26, box) == pytest.approx(purity, rel=1e-10)
    dip = hp.hom_dip(jsa_k26, box, box, [0.0]).coincidences[0]
    assert 1.0 - 2.0 * dip == pytest.approx(purity, rel=1e-10)


@pytest.mark.parametrize("jsa, filt", [
    (hp.DoubleGaussianJsa(*KTP_PARAMS), _gaussian_table(0.0, 2.0, 4.0, 61)),
    (hp.DoubleGaussianJsa(*K26_PARAMS), _gaussian_table(0.0, 0.6, 5.0, 121)),
], ids=["ktp-61", "demo-121"])
def test_smooth_tabulated_herald_meets_reference(jsa, filt):
    # one pass over the knot panels meets the reference to rounding
    success, purity = tabulated_reference(jsa, filt)
    assert hp.filtered_purity(jsa, filt) == pytest.approx(purity, rel=1e-10)
    assert hp.herald_success(jsa, filt) == pytest.approx(success, rel=1e-10)
    # at zero delay, equal heralds overlap by the purity
    dip = hp.hom_dip(jsa, filt, filt, [0.0]).coincidences[0]
    assert 1.0 - 2.0 * dip == pytest.approx(purity, rel=1e-10)


_DEMO = hp.DoubleGaussianJsa(*K26_PARAMS)
_KTP = hp.DoubleGaussianJsa(*KTP_PARAMS)
_ORACLE_CASES = {
    "demo-box": (_DEMO, _box(-1.0, 1.0)),
    "demo-narrow-box": (_DEMO, _box(-0.3, 0.3)),
    "demo-skew-box": (_DEMO, _box(-0.2, 1.3)),
    "ktp-box": (_KTP, _box(-2.0, 2.0)),
    "ktp-narrow-box": (_KTP, _box(-0.5, 0.5)),
    "ktp-skew-box": (_KTP, _box(0.1, 0.9)),
    "ktp-comb": (_KTP, hp.TabulatedFilter(*COMB)),
    "demo-off-centre-box": (_DEMO, _box(1.0, 3.0)),
    "ktp-61": (_KTP, _gaussian_table(0.0, 2.0, 4.0, 61)),
    "demo-121": (_DEMO, _gaussian_table(0.0, 0.6, 5.0, 121)),
    "demo-3001": (_DEMO, _gaussian_table(0.3, 0.8, 6.0, 3001)),
}


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_tabulated_heralds_meet_the_exact_oracle(case):
    # every entry point meets the numpy-only references within 1e-10
    jsa, filt = _ORACLE_CASES[case]
    success, purity = tabulated_reference(jsa, filt)
    report = hp.heralding_report(jsa, filt)
    figures = [(hp.herald_success(jsa, filt), success),
               (hp.filtered_purity(jsa, filt), purity),
               (report.success, success), (report.purity_filtered, purity)]
    # the dip at zero delay: equal heralds, and against a box
    other = _box(-0.5, 0.7)
    dips = hp.hom_dip(jsa, filt, filt, [0.0]).coincidences[0], hp.hom_dip(
        jsa, filt, other, [0.0]).coincidences[0]
    figures += [(1.0 - 2.0 * dips[0], purity),
                (1.0 - 2.0 * dips[1], tabulated_overlap(jsa, filt, other))]
    # the table as the heralded filter behind a flat herald: the swapped
    # source exchanges the arms
    swapped = hp.DoubleGaussianJsa(jsa.sigma1, jsa.sigma2,
                                   math.pi / 2 - jsa.theta1,
                                   math.pi / 2 - jsa.theta2)
    if filt.grid.size > 1000:
        # its panels pass the signal axis's node budget
        with pytest.raises(hp.ConvergenceError, match="signal axis"):
            hp.two_filter_quantities(jsa, identity_filter(jsa), filt)
    else:
        two = hp.two_filter_quantities(jsa, identity_filter(jsa), filt)
        figures += zip(two, tabulated_reference(swapped, filt)[::-1])
    for value, exact in figures:
        assert value == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("params", [K26_PARAMS, KTP_PARAMS,
                                    (1.0, 6.0, math.pi / 4, -math.pi / 4)],
                         ids=["demo", "ktp", "ratio6"])
@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-0.1, 0.1), (0.5, 2.0)],
                         ids=["centred", "narrow", "off-centre"])
def test_box_herald_is_a_two_knot_table(params, lo, hi):
    # a box needs no filter type of its own: two knots of unit transmission
    # pass the erf of the idler marginal, whose variance is a / (2 det); the
    # box's ends are in units of that marginal's width
    jsa = hp.DoubleGaussianJsa(*params)
    a, _, _, det = jsa.intensity_coefficients()
    width = math.sqrt(a / (2.0 * det))
    box = hp.TabulatedFilter([lo * width, hi * width], [1.0, 1.0])
    exact = 0.5 * (math.erf(hi / math.sqrt(2.0)) - math.erf(lo / math.sqrt(2.0)))
    assert hp.herald_success(jsa, box) == pytest.approx(exact, rel=1e-14)


def test_box_herald_on_a_grid_meets_the_modes(k26_grid, k26_modes):
    # the gridded route and the mode route both weight cells by the box's
    # exact cell integrals (1e-13 apart on the recommended demo grid)
    box = hp.TabulatedFilter([-1.0, 1.0], [1.0, 1.0])
    report = hp.heralding_report(k26_grid, box)
    purity, success = hp.schmidt_quantities(
        k26_modes, hp.overlap_matrix(k26_modes, box))
    assert report.success == pytest.approx(success, rel=1e-10)
    assert report.purity_filtered == pytest.approx(purity, rel=1e-10)
    assert report.purity_unfiltered == pytest.approx(k26_modes.purity(),
                                                     rel=1e-10)


def test_heralding_report_consistency(jsa_ktp):
    filt = hp.GaussianFilter(0.0, 0.72)
    report = hp.heralding_report(jsa_ktp, filt)
    assert report.success == pytest.approx(
        hp.herald_success(jsa_ktp, filt), rel=1e-12)
    assert report.purity_filtered == pytest.approx(
        hp.filtered_purity(jsa_ktp, filt), rel=1e-12)
    assert report.purity_unfiltered == pytest.approx(
        hp.unfiltered_purity(jsa_ktp), rel=1e-12)
    assert report.schmidt_number == pytest.approx(
        1.0 / report.purity_unfiltered, rel=1e-9)
    assert report.g2 == pytest.approx(1.0 + report.purity_unfiltered, rel=1e-9)
    assert report.visibility == pytest.approx(
        report.purity_filtered / (2.0 - report.purity_filtered), rel=1e-9)


def test_heralding_report_without_filter(jsa_k26):
    # no filter means unit transmission: certain heralding, raw purity
    report = hp.heralding_report(jsa_k26)
    assert report.success == 1.0
    assert report.purity_filtered == pytest.approx(5.0 / 13.0, rel=1e-9)
    assert report.purity_unfiltered == pytest.approx(5.0 / 13.0, rel=1e-9)
    assert report.visibility == pytest.approx(5.0 / 21.0, rel=1e-9)
