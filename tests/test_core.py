"""Tests for amplitude models, filters, grids, and parsing."""

import math
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad

import heraldpurity as hp
from conftest import SEED, assemble, draw_case, draw_source
from heraldpurity import core
from heraldpurity.core import (_GRAM_BLOCK, _UNDERFLOW_FLOOR, _arm_overlaps,
                               _cell_weights, _clip_unit, _delay_array,
                               _dip, _figures, _gram_blocks,
                               _purity_success, _reals, _require_success,
                               _squared_modulus)

WHOLE = slice(None)


def test_package_exports_every_public_name():
    # the package __all__ is the union of the modules' __all__ lists
    missing = [name for name in hp.__all__ if not hasattr(hp, name)]
    assert missing == []
    assert len(set(hp.__all__)) == len(hp.__all__)


def test_eval_at_origin(jsa_k26):
    value = hp.eval_double_gaussian(jsa_k26, 0.0, 0.0)
    assert value == pytest.approx(math.sqrt(1.0 / (5.0 * math.pi)), rel=1e-12)


def test_eval_broadcasts(jsa_k26):
    ws = np.linspace(-2, 2, 5)[:, None]
    wi = np.linspace(-3, 3, 7)[None, :]
    grid = hp.eval_double_gaussian(jsa_k26, ws, wi)
    assert grid.shape == (5, 7)
    assert grid[2, 3] == pytest.approx(hp.eval_double_gaussian(jsa_k26, 0.0, 0.0))


def two_square_amplitude(jsa, ws, wi):
    """The double Gaussian as the sum of its two ridge squares."""
    u1 = (ws * math.sin(jsa.theta1) + wi * math.cos(jsa.theta1)) / jsa.sigma1
    u2 = (ws * math.sin(jsa.theta2) + wi * math.cos(jsa.theta2)) / jsa.sigma2
    norm = math.sqrt(jsa.angle_sine() / (math.pi * jsa.sigma1 * jsa.sigma2))
    return norm * np.exp(-0.5 * (u1 * u1 + u2 * u2))


@pytest.mark.parametrize("params", (
    (1.0, 5.0, math.pi / 4, -math.pi / 4),     # demo, K = 2.6
    (6.0, 0.70, math.pi / 4, 0.97),            # KTP, K = 22
    (1.0, 60.0, math.pi / 4, -math.pi / 4),    # K = 30
    (1.0, 2.0, 0.0, math.pi / 2),              # separable
))
def test_completed_square_matches_the_two_ridge_squares(params):
    # On correlated sources the completed square stays within rounding of
    # the ridge form, where the expanded quadratic form cancels.
    jsa = hp.DoubleGaussianJsa(*params)
    extent, points = hp.recommended_grid(jsa)
    grid = hp.discretize(jsa, half_extent=extent, n_points=points)
    ws, wi = grid.signal_grid[:, None], grid.idler_grid[None, :]
    value = hp.eval_double_gaussian(jsa, ws, wi)
    reference = two_square_amplitude(jsa, ws, wi)
    seen = reference > 1e-30 * reference.max()
    assert seen.sum() > 1000
    np.testing.assert_allclose(value[seen], reference[seen], rtol=1e-12, atol=0)
    scalar = hp.eval_double_gaussian(jsa, 0.3, -0.2)
    assert np.ndim(scalar) == 0 and isinstance(scalar, float)
    assert scalar == pytest.approx(two_square_amplitude(jsa, 0.3, -0.2),
                                   rel=1e-12)


def test_unit_norm_adaptive(jsa_k26):
    norm, err = dblquad(
        lambda y, x: hp.eval_double_gaussian(jsa_k26, x, y) ** 2,
        -30.0, 30.0, -30.0, 30.0, epsabs=1e-10,
    )
    assert norm == pytest.approx(1.0, abs=1e-8)


def test_unit_norm_random_sources():
    rng = np.random.default_rng(SEED)
    nodes, weights = np.polynomial.legendre.leggauss(400)
    for _ in range(20):
        jsa = draw_source(rng)
        s_sig, s_idl = jsa.marginal_widths()
        xs = nodes * 8.0 * s_sig
        ys = nodes * 8.0 * s_idl
        amps = hp.eval_double_gaussian(jsa, xs[:, None], ys[None, :])
        norm = (weights * 8.0 * s_sig) @ amps**2 @ (weights * 8.0 * s_idl)
        assert norm == pytest.approx(1.0, abs=1e-6)


def test_factor_exchange_symmetry(jsa_k26):
    swapped = hp.DoubleGaussianJsa(5.0, 1.0, -math.pi / 4, math.pi / 4)
    ws = np.linspace(-4, 4, 9)[:, None]
    wi = np.linspace(-4, 4, 9)[None, :]
    np.testing.assert_allclose(
        hp.eval_double_gaussian(jsa_k26, ws, wi),
        hp.eval_double_gaussian(swapped, ws, wi),
        rtol=1e-13,
    )


def test_transpose_symmetry(jsa_ktp):
    flipped = hp.DoubleGaussianJsa(
        jsa_ktp.sigma1, jsa_ktp.sigma2,
        math.pi / 2 - jsa_ktp.theta1, math.pi / 2 - jsa_ktp.theta2,
    )
    ws = np.linspace(-9, 9, 11)[:, None]
    wi = np.linspace(-9, 9, 11)[None, :]
    np.testing.assert_allclose(
        hp.eval_double_gaussian(jsa_ktp, ws, wi),
        hp.eval_double_gaussian(flipped, ws, wi).T,
        rtol=1e-12, atol=1e-300,
    )


@pytest.mark.parametrize("kwargs", [
    dict(sigma1=0.0, sigma2=1.0, theta1=0.5, theta2=-0.5),
    dict(sigma1=1.0, sigma2=-2.0, theta1=0.5, theta2=-0.5),
    dict(sigma1=1.0, sigma2=math.nan, theta1=0.5, theta2=-0.5),
    dict(sigma1=1.0, sigma2=1.0, theta1=0.5, theta2=0.5),
    dict(sigma1=1.0, sigma2=1.0, theta1=0.5, theta2=0.5 - math.pi),
    dict(sigma1=1.0, sigma2=1.0, theta1=0.5, theta2=0.5 + 1e-12),
])
def test_jsa_construction_rejected(kwargs):
    with pytest.raises(ValueError):
        hp.DoubleGaussianJsa(**kwargs)


def test_intensity_coefficients(jsa_k26):
    a, b, c = jsa_k26.intensity_coefficients()
    assert a == pytest.approx(0.52, rel=1e-14)
    assert b == pytest.approx(0.48, rel=1e-14)
    assert c == pytest.approx(0.52, rel=1e-14)
    det = a * c - b * b
    expected = (jsa_k26.angle_sine() / (jsa_k26.sigma1 * jsa_k26.sigma2)) ** 2
    assert det == pytest.approx(expected, rel=1e-12)


def test_width_ratio_equals_schmidt_number():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(10):
        jsa = draw_source(rng)
        s_sig, s_idl = jsa.marginal_widths()
        w_sig, w_idl = jsa.conditional_widths()
        k = hp.schmidt_number(jsa)
        assert s_sig / w_sig == pytest.approx(k, rel=1e-12)
        assert s_idl / w_idl == pytest.approx(k, rel=1e-12)


def test_marginal_widths_match_sampled_moments(jsa_k26):
    grid = np.linspace(-30, 30, 4001)
    amps = hp.eval_double_gaussian(jsa_k26, grid[:, None], grid[None, :])
    marg = (amps**2).sum(axis=1)
    marg /= marg.sum()
    std = math.sqrt(float(marg @ grid**2))
    assert std == pytest.approx(jsa_k26.marginal_widths()[0], rel=1e-6)


def test_gaussian_filter_shapes():
    filt = hp.GaussianFilter(center=0.4, width=0.9)
    assert filt.transmission(0.4) == pytest.approx(1.0)
    omega = np.linspace(-3, 3, 41)
    expected = np.exp(-((omega - 0.4) ** 2) / (2.0 * 0.9**2))
    np.testing.assert_allclose(filt.transmission(omega), expected, rtol=1e-13)


def test_gaussian_filter_rejects_bad_width():
    with pytest.raises(ValueError):
        hp.GaussianFilter(center=0.0, width=0.0)
    with pytest.raises(ValueError):
        hp.GaussianFilter(center=math.inf, width=1.0)


def test_width_range_keeps_the_determinant_normal():
    # a*c - b**2 scales as width**-4: both ends keep it a factor 1/eps
    # inside the normal doubles
    low, high = core._WIDTH_RANGE
    info = sys.float_info
    assert low ** -4 <= info.max * info.epsilon
    assert high ** -4 >= info.min / info.epsilon
    assert (low, high) == (1e-72, 1e72)


@pytest.mark.parametrize("build", [
    lambda s: hp.DoubleGaussianJsa(s, 5.0, 0.5, -0.5),
    lambda s: hp.DoubleGaussianJsa(1.0, s, 0.5, -0.5),
    lambda s: hp.GaussianFilter(0.0, s),
    lambda s: hp.tradeoff_curve(hp.DoubleGaussianJsa(1.0, 5.0, 0.5, -0.5),
                                [1.0, s]),
    lambda s: hp.sweep_aspect_ratio([1.0, 2.0], [s, 1.0]),
    lambda s: hp.sweep_orientation([0.1, 0.2], [s]),
])
@pytest.mark.parametrize("scale", [1e-200, 1e-80, 9.9e-73, 1.01e72, 1e80,
                                   1e200, 1e300])
def test_widths_outside_the_range_are_refused(build, scale):
    # at 1e80 the closed forms were 2.4e-4 off, at 1e-80 NaN, and at
    # 1e+-200 the intensity coefficients overflowed or divided by zero
    with pytest.raises(ValueError, match=r"must lie in \[1e-72, 1e\+72\], "
                                         r"got [0-9.e+-]+$"):
        build(scale)


@pytest.mark.parametrize("value, shown", [
    (0.0, "0.0"), (-1.0, "-1.0"), (math.nan, "nan"), (math.inf, "inf")])
def test_width_messages_for_non_positive_or_non_finite(value, shown):
    for build, name in [
            (lambda v: hp.DoubleGaussianJsa(v, 5.0, 0.5, -0.5), "sigma1"),
            (lambda v: hp.DoubleGaussianJsa(1.0, v, 0.5, -0.5), "sigma2"),
            (lambda v: hp.GaussianFilter(0.0, v), "filter width")]:
        with pytest.raises(ValueError) as info:
            build(value)
        assert str(info.value) == f"{name} must be positive and finite, got {shown}"
    with pytest.raises(ValueError) as info:
        hp.tradeoff_curve(hp.DoubleGaussianJsa(1.0, 5.0, 0.5, -0.5), [value])
    assert str(info.value) == "filter widths must be positive and finite"


def test_figures_are_scale_invariant_over_the_width_range():
    # Scaling every width and centre by s, and delays by 1/s, is an exact
    # symmetry: each figure is a ratio of integrals with the same scaling.
    rng = np.random.default_rng(SEED + 37)
    delays = np.array([-0.8, 0.0, 0.3])
    for k in (-70, 70, *rng.integers(-70, 71, size=4)):
        s = 10.0 ** int(k)
        jsa, filt, _, _ = draw_case(rng, k_max=4.0)
        scaled_jsa = hp.DoubleGaussianJsa(jsa.sigma1 * s, jsa.sigma2 * s,
                                          jsa.theta1, jsa.theta2)
        scaled_filt = hp.GaussianFilter(filt.center * s, filt.width * s)

        def figures(source, herald, unit):
            report = hp.heralding_report(source, herald)
            dip = hp.hom_dip(source, herald, herald, delays / unit)
            return [hp.closed_form_purity(source, herald),
                    hp.closed_form_success(source, herald),
                    hp.schmidt_number(source),
                    report.success, report.purity_filtered,
                    report.purity_unfiltered, *dip.coincidences]

        ref = figures(jsa, filt, 1.0)
        assert figures(scaled_jsa, scaled_filt, s) == pytest.approx(
            ref, rel=1e-13), k


_VALID = {
    hp.DoubleGaussianJsa: dict(sigma1=1.0, sigma2=5.0, theta1=0.5,
                               theta2=-0.5),
    hp.SourcePhysicalParams: dict(pulse_duration=0.2, pump_angle=0.3,
                                  pm_bandwidth=2.0, pm_angle=0.97),
    hp.GaussianFilter: dict(center=0.3, width=1.1),
}


@pytest.mark.parametrize("record, field", [
    (hp.DoubleGaussianJsa, "sigma1"), (hp.DoubleGaussianJsa, "sigma2"),
    (hp.DoubleGaussianJsa, "theta1"), (hp.DoubleGaussianJsa, "theta2"),
    (hp.SourcePhysicalParams, "pulse_duration"),
    (hp.SourcePhysicalParams, "pm_bandwidth"),
    (hp.GaussianFilter, "center"), (hp.GaussianFilter, "width"),
], ids=lambda value: getattr(value, "__name__", value))
@pytest.mark.parametrize("bad", [True, "1.0"], ids=["bool", "str"])
def test_numeric_fields_refuse_bool_and_str(record, field, bad):
    # a configuration's true was taken as 1, and "1.0" as 1.0
    with pytest.raises(ValueError, match="must be a number"):
        record(**{**_VALID[record], field: bad})
    # an integer is a number and is stored as a float
    value = getattr(record(**{**_VALID[record], field: 1}), field)
    assert type(value) is float and value == 1.0


def test_tabulated_filter_interpolates():
    filt = hp.TabulatedFilter(np.array([-1.0, 0.0, 1.0]),
                              np.array([0.0, 1.0, 0.2]))
    assert filt.transmission(-0.5) == pytest.approx(0.5)
    assert filt.transmission(0.5) == pytest.approx(0.6)
    assert filt.transmission(5.0) == 0.0
    assert filt.transmission(-5.0) == 0.0


def test_tabulated_filter_validation():
    with pytest.raises(ValueError):
        hp.TabulatedFilter(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        hp.TabulatedFilter(np.array([0.0, 1.0]), np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        hp.TabulatedFilter(np.array([0.0, 1.0]), np.array([-0.5, 0.5]))
    with pytest.raises(ValueError, match="1-D arrays of equal length"):
        hp.TabulatedFilter([0.0, 1.0], [0.5, 0.5, 0.5])


@pytest.mark.parametrize("grid, values", [
    ([-1, "0", True], [False, "1.0", 0]),
    ([-1.0, 0.0, 1.0], [0.0, "1.0", 0.0]),
    ([-1, 0, True], [0.0, 1.0, 0.0]),
    ([-1.0, 0.0, 1.0], np.array([False, True, False])),
], ids=["mixed", "string-value", "bool-knot", "bool-array"])
def test_tabulated_filter_refuses_bool_and_str(grid, values):
    # these used to build, as float(True) = 1.0 and float("1.0") = 1.0
    with pytest.raises(ValueError, match="must be a number"):
        hp.TabulatedFilter(grid, values)
    with pytest.raises(ValueError, match="must be a number"):
        hp.filter_from_dict({"grid": grid, "transmission": values})


def test_cell_weights_integrate_the_interpolant():
    # each cell of a tabulated filter gets the exact integral of its linear
    # interpolant: trapezoids between the cell edges and the knots inside
    # the cell; Gaussian filters and no filter keep point samples
    filt = hp.TabulatedFilter([-1.3, -0.2, 0.05, 0.9, 1.4],
                              [0.0, 1.0, 0.4, 0.7, 0.0])
    knots, values = filt.grid, filt.values
    grid = np.linspace(-2.0, 2.0, 17)
    step = grid[1] - grid[0]
    weights = _cell_weights(filt, grid, step)
    for centre, weight in zip(grid, weights):
        lo, hi = centre - 0.5 * step, centre + 0.5 * step
        points = np.union1d([lo, hi], knots[(knots > lo) & (knots < hi)])
        samples = filt.transmission(points)
        exact = np.sum(0.5 * (samples[1:] + samples[:-1]) * np.diff(points))
        assert weight == pytest.approx(exact, rel=1e-13, abs=1e-16)
    area = np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(knots))
    assert weights.sum() == pytest.approx(area, rel=1e-14)
    gauss = hp.GaussianFilter(0.2, 0.7)
    assert np.array_equal(_cell_weights(gauss, grid, step),
                          gauss.transmission(grid) * step)
    assert np.array_equal(_cell_weights(None, grid, step),
                          np.full(grid.size, step))


def test_filter_dispatch_rejects_unknown():
    grid = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(TypeError, match="not a spectral filter: float"):
        _cell_weights(3.0, grid, 0.5)


def test_from_physical():
    params = hp.SourcePhysicalParams(
        pulse_duration=0.2, pump_angle=math.pi / 4,
        pm_bandwidth=2.0, pm_angle=0.97,
    )
    jsa = hp.from_physical(params)
    assert jsa.sigma1 == pytest.approx(5.0 / math.sqrt(math.log(2)), rel=1e-12)
    assert jsa.sigma2 == pytest.approx(2.0 / math.sqrt(math.log(2)), rel=1e-12)
    assert jsa.theta1 == math.pi / 4
    assert jsa.theta2 == 0.97


def test_from_physical_rejects_parallel_angles():
    params = hp.SourcePhysicalParams(
        pulse_duration=0.2, pump_angle=0.3, pm_bandwidth=2.0, pm_angle=0.3)
    with pytest.raises(ValueError):
        hp.from_physical(params)


@pytest.mark.parametrize("offset", [2e-9, 2e-8])
def test_near_parallel_ridges_are_refused(offset):
    # both sines pass MIN_ANGLE_SINE, yet a*c - b**2 cancelled to 0.0:
    # schmidt_number and marginal_widths raised ZeroDivisionError and the
    # closed-form success read 0.0
    with pytest.raises(ValueError, match=r"^theta1 and theta2 are too nearly "
                                         r"parallel: a\*c - b\*\*2 cancels"):
        hp.DoubleGaussianJsa(1.0, 5.0, 0.5, 0.5 + offset)


@pytest.mark.parametrize("text,expected", [
    ("pi", math.pi),
    ("pi/4", math.pi / 4),
    ("-pi/2", -math.pi / 2),
    ("0.75pi", 0.75 * math.pi),
    ("3*pi/2", 1.5 * math.pi),
    ("-2pi/3", -2 * math.pi / 3),
    ("0.97", 0.97),
    ("1.5e-1", 0.15),
])
def test_parse_angle(text, expected):
    assert hp.parse_angle(text) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("text", ["abc", "pi/0", "", "pi//2", None, ".pi",
                                  "-.pi", ".*pi"])
def test_parse_angle_rejects(text):
    # a lone decimal point as the coefficient used to reach float() and be
    # worded as its "could not convert string to float: '.'"
    match = ("zero denominator" if text == "pi/0"
             else "cannot interpret angle")
    with pytest.raises(ValueError, match=match):
        hp.parse_angle(text)


@pytest.mark.parametrize("text,sign,coeff,denom", [
    ("pi", 1.0, 1.0, 1.0),
    ("*pi", 1.0, 1.0, 1.0),
    (".5pi", 1.0, 0.5, 1.0),
    ("2.pi", 1.0, 2.0, 1.0),
    ("0.5*pi", 1.0, 0.5, 1.0),
    ("+pi/2.5", 1.0, 1.0, 2.5),
    ("-pi/4", -1.0, 1.0, 4.0),
])
def test_parse_angle_coefficient_forms(text, sign, coeff, denom):
    # every coefficient form with digits parses as sign * coeff * pi / denom
    assert hp.parse_angle(text) == sign * coeff * math.pi / denom


def test_jsa_from_dict_direct(jsa_k26):
    jsa = hp.jsa_from_dict({
        "sigma1": 1.0, "sigma2": 5.0, "theta1": "pi/4", "theta2": "-pi/4"})
    assert jsa == jsa_k26


def test_jsa_from_dict_physical():
    jsa = hp.jsa_from_dict({
        "pulse_duration": 0.2, "pump_angle": "pi/4",
        "pm_bandwidth": 2.0, "pm_angle": 0.97,
    })
    assert jsa.sigma1 == pytest.approx(5.0 / math.sqrt(math.log(2)), rel=1e-12)


@pytest.mark.parametrize("payload", [
    {"sigma1": 1.0},
    {"sigma1": 1.0, "sigma2": 5.0, "theta1": 0.7, "theta2": -0.7, "extra": 1},
    {},
])
def test_jsa_from_dict_rejects(payload):
    with pytest.raises(ValueError):
        hp.jsa_from_dict(payload)


@pytest.mark.parametrize("section", [
    5, None, "abc", ["sigma1", "sigma2", "theta1", "theta2"],
    ["center", "width"]], ids=["int", "none", "str", "jsa-keys", "filter-keys"])
@pytest.mark.parametrize("build", [hp.jsa_from_dict, hp.filter_from_dict])
def test_config_sections_must_be_mappings(build, section):
    # a string was read as the keys ['a', 'b', 'c'], a number failed as not
    # iterable, and a list of key names reached "list indices must be
    # integers"
    with pytest.raises(ValueError, match="must be a mapping"):
        build(section)


def test_config_sections_accept_any_mapping(jsa_k26):
    jsa = hp.jsa_from_dict(types.MappingProxyType({
        "sigma1": 1.0, "sigma2": 5.0, "theta1": "pi/4", "theta2": "-pi/4"}))
    assert jsa == jsa_k26
    filt = hp.filter_from_dict(
        types.MappingProxyType({"center": 0.3, "width": 1.1}))
    assert filt == hp.GaussianFilter(0.3, 1.1)


def test_config_key_mismatch_messages():
    with pytest.raises(ValueError) as info:
        hp.jsa_from_dict({"sigma1": 1.0, "extra": 2})
    assert str(info.value) == (
        "jsa keys ['extra', 'sigma1'] match neither ['sigma1', 'sigma2', "
        "'theta1', 'theta2'] nor ['pm_angle', 'pm_bandwidth', "
        "'pulse_duration', 'pump_angle']")
    with pytest.raises(ValueError) as info:
        hp.filter_from_dict({"centre": 0.0, "width": 1.0})
    assert str(info.value) == (
        "filter keys ['centre', 'width'] match neither ['center', 'width'] "
        "nor ['grid', 'transmission']")


def test_closed_form_gate(jsa_k26, k26_grid):
    # tradeoff_curve and recommended_grid worded their own refusals, and a
    # gridded amplitude reached recommended_grid's marginal_widths
    box = hp.TabulatedFilter([-1, 1], [1, 1])
    for call in (lambda: hp.tradeoff_curve(k26_grid),
                 lambda: hp.recommended_grid(k26_grid),
                 lambda: hp.recommended_grid(jsa_k26, box),
                 lambda: hp.closed_form_purity(jsa_k26, box)):
        with pytest.raises(TypeError, match="closed forms exist only for"):
            call()


def test_filter_from_dict():
    filt = hp.filter_from_dict({"center": 0.3, "width": 1.1})
    assert isinstance(filt, hp.GaussianFilter)
    assert filt.center == 0.3
    tab = hp.filter_from_dict({
        "grid": [-1.0, 0.0, 1.0], "transmission": [0.0, 1.0, 0.0]})
    assert isinstance(tab, hp.TabulatedFilter)
    with pytest.raises(ValueError):
        hp.filter_from_dict({"centre": 0.0, "width": 1.0})


def test_discretize_covers_and_normalizes(jsa_k26):
    grid = hp.discretize(jsa_k26, half_extent=6.0, n_points=512)
    assert grid.norm() == pytest.approx(1.0, abs=1e-12)
    # the raw samples already integrate to one on this grid
    axis = np.linspace(-30.0, 30.0, 512)
    amps = hp.eval_double_gaussian(jsa_k26, axis[:, None], axis[None, :])
    raw = float((amps**2).sum()) * (axis[1] - axis[0]) ** 2
    assert raw == pytest.approx(1.0, abs=1e-6)


def test_discretize_rejects_tiny_requests(jsa_k26):
    with pytest.raises(ValueError):
        hp.discretize(jsa_k26, half_extent=3.9, n_points=512)
    with pytest.raises(ValueError):
        hp.discretize(jsa_k26, half_extent=6.0, n_points=32)


@pytest.mark.parametrize("extent", [math.inf, math.nan])
def test_discretize_rejects_non_finite_extent(jsa_k26, extent):
    # inf used to overflow in linspace and NaN to pass the >= 4 comparison
    with pytest.raises(ValueError, match="half_extent must be finite"):
        hp.discretize(jsa_k26, half_extent=extent, n_points=512)


@pytest.mark.parametrize("half_extent, n_points, match", [
    (6.0, 300.5, "n_points must be an integer"),
    (6.0, True, "n_points must be an integer"),
    ("6.0", 300, "half_extent must be a number"),
], ids=["fractional-count", "bool-count", "str-extent"])
def test_discretize_requires_numbers(jsa_k26, half_extent, n_points, match):
    # a fractional count built a truncated grid; a string extent raised
    # TypeError
    with pytest.raises(ValueError, match=match):
        hp.discretize(jsa_k26, half_extent, n_points)


def test_discretize_refuses_a_gridded_amplitude(k26_grid):
    # it reached the ridge widths with an AttributeError on 'sigma1'
    with pytest.raises(TypeError, match="^sampling is defined only for "
                       "double-Gaussian amplitudes$"):
        hp.discretize(k26_grid)


def test_eval_double_gaussian_refuses_a_gridded_amplitude(k26_grid):
    # it reached the intensity form with an AttributeError
    with pytest.raises(TypeError, match="^sampling is defined only for "
                       "double-Gaussian amplitudes$"):
        hp.eval_double_gaussian(k26_grid, 0.0, 0.0)


@pytest.mark.parametrize("delays", [[True], [0.0, "1.0"]], ids=["bool", "str"])
def test_dips_refuse_bool_and_str_delays(jsa_k26, k26_modes, delays):
    # a boolean delay ran as 1 ps
    filt = hp.GaussianFilter(0.0, 1.0)
    overlap = hp.overlap_matrix(k26_modes, filt)
    with pytest.raises(ValueError, match="delay entry must be a number"):
        hp.hom_dip(jsa_k26, filt, filt, delays)
    with pytest.raises(ValueError, match="delay entry must be a number"):
        hp.hom_dip_analytic(jsa_k26, 0.8, delays)
    with pytest.raises(ValueError, match="delay entry must be a number"):
        hp.hom_dip_schmidt(k26_modes, overlap, overlap, delays)


def test_purity_success_reduces_each_row_alone():
    rng = np.random.default_rng(SEED)
    n = 40
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    state = a @ a.conj().T
    weights = rng.uniform(0.0, 1.0, (5, n))
    purity, success = _purity_success([(WHOLE, WHOLE, state)], weights)
    for row, (p_row, s_row) in enumerate(zip(purity, success)):
        p_one, s_one = _purity_success([(WHOLE, WHOLE, state)], weights[row])
        assert (p_one, s_one) == (p_row, s_row)
    w = weights[0]
    inline = float(w @ np.real(np.diagonal(state)))
    squared = state.real**2 + state.imag**2
    assert success[0] == inline
    assert purity[0] == float(w @ squared @ w) / inline**2


@pytest.mark.parametrize("complex_state", [False, True])
def test_purity_success_in_place_gives_the_same_bits(complex_state):
    # an owned real block is squared in place; a complex one is left alone;
    # both for a whole state and for the block pairs of a banded one
    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((40, 30))
    if complex_state:
        a = a + 1j * rng.standard_normal((40, 30))
    state = a @ a.conj().T
    b = _ridge(4 * _GRAM_BLOCK, 600, complex_phase=complex_state)
    for pairs, n in (([(WHOLE, WHOLE, state)], 40),
                     (list(_gram_blocks([(0, 0, b)])), len(b))):
        assert len(pairs) == 1 or len(pairs) > 4
        weights = rng.uniform(0.0, 1.0, n)
        kept = [block.copy() for _, _, block in pairs]
        expected = _purity_success(
            [(rows_i, rows_j, block, _squared_modulus(block))
             for (rows_i, rows_j, _), block in zip(pairs, kept)], weights)
        assert _purity_success(pairs, weights) == expected
        for (_, _, block), before in zip(pairs, kept):
            if complex_state:
                assert np.array_equal(block, before)
            else:
                assert np.array_equal(block, before * before)


def _ridge(n, m, complex_phase=False, zero_rows=None):
    """A tilted Gaussian ridge; its tails fall below the underflow floor, so
    the row blocks' column spans skip most of the dense work."""
    rows = np.arange(n)[:, None]
    cols = np.arange(m)[None, :]
    b = np.exp(-(((cols - rows - 20.0) / 3.0) ** 2))
    if complex_phase:
        b = b * np.exp(0.05j * rows * cols)
    if zero_rows is not None:
        b[zero_rows] = 0.0
    return b


def _row_pieces(b):
    """``b`` as ``_GRAM_BLOCK``-row pieces cut to their nonzero columns."""
    pieces = []
    for start in range(0, len(b), _GRAM_BLOCK):
        rows = b[start:start + _GRAM_BLOCK]
        cols = np.flatnonzero(rows.any(axis=0))
        if cols.size:
            pieces.append((start, cols[0],
                           rows[:, cols[0]:cols[-1] + 1].copy()))
    return pieces


@pytest.mark.parametrize("name,b", [
    ("banded real", _ridge(4 * _GRAM_BLOCK, 600)),
    ("banded complex", _ridge(4 * _GRAM_BLOCK, 600, complex_phase=True)),
    ("all-zero row blocks", _ridge(
        4 * _GRAM_BLOCK, 600, zero_rows=slice(_GRAM_BLOCK, 3 * _GRAM_BLOCK))),
    ("n below block", _ridge(50, 400)),
    ("n % block != 0", _ridge(3 * _GRAM_BLOCK + 5, 450)),
    ("dense", np.random.default_rng(SEED).standard_normal((300, 200))),
])
def test_gram_matches_dense_product(name, b):
    dense = b @ b.conj().T
    gram = assemble(_gram_blocks([(0, 0, b.copy())]), len(b))
    scale = np.abs(dense).max()
    assert np.abs(gram - dense).max() <= 1e-13 * scale, name
    if np.iscomplexobj(b):
        assert np.abs(gram - gram.conj().T).max() <= 1e-15 * scale, name
    else:
        assert np.array_equal(gram, gram.T), name
    # the same matrix in row pieces, zero outside them, gives the same bits,
    # with or without its all-zero blocks
    assert np.array_equal(
        assemble(_gram_blocks(_row_pieces(b)), len(b)), gram), name


@pytest.mark.parametrize("complex_b", [False, True])
@pytest.mark.parametrize("banded", [False, True])
def test_gram_yields_only_row_blocks(banded, complex_b):
    # dense and band input alike come back as pairs of at most _GRAM_BLOCK
    # rows and columns, never as one n x n product
    rng = np.random.default_rng(SEED)
    n = 3 * _GRAM_BLOCK + 5
    if banded:
        b = _ridge(n, 450, complex_phase=complex_b)
    else:
        b = rng.standard_normal((n, 200))
        if complex_b:
            b = b + 1j * rng.standard_normal((n, 200))
    pairs = list(_gram_blocks([(0, 0, b.copy())]))
    assert len(pairs) > 1
    for rows_i, rows_j, block in pairs:
        assert block.shape == (rows_i.stop - rows_i.start,
                               rows_j.stop - rows_j.start)
        assert max(block.shape) <= _GRAM_BLOCK
    dense = b @ b.conj().T
    assert np.abs(assemble(pairs, n) - dense).max() <= (
        1e-13 * np.abs(dense).max())


_N_ARM = 3 * _GRAM_BLOCK + 5
_ARM_FORMS = {
    "band": _ridge(_N_ARM, 450, complex_phase=True),
    "band without blocks 1-2": _ridge(
        _N_ARM, 450, zero_rows=slice(_GRAM_BLOCK, 3 * _GRAM_BLOCK)),
    "whole": np.random.default_rng(SEED).standard_normal((_N_ARM, 60)),
}


@pytest.mark.parametrize("form_x", _ARM_FORMS)
@pytest.mark.parametrize("form_y", _ARM_FORMS)
def test_arm_overlaps_sum_the_shared_blocks(form_x, form_y):
    # band and dense states ("whole" is a dense B, whose state holds every
    # block), in either order and with blocks that only one state holds,
    # give the overlaps of the whole states
    rng = np.random.default_rng(SEED)
    x = np.linspace(-3.0, 3.0, _N_ARM)
    wx = rng.uniform(0.5, 1.5, _N_ARM)
    delays = np.linspace(-1.0, 1.0, 7)
    b_x, b_y = _ARM_FORMS[form_x], _ARM_FORMS[form_y]
    pairs_x = list(_gram_blocks([(0, 0, b_x.copy())]))
    pairs_y = list(_gram_blocks([(0, 0, b_y.copy())]))
    m_x, m_y = b_x @ b_x.conj().T, b_y @ b_y.conj().T
    u = wx * np.exp(1j * np.multiply.outer(delays, x))
    cross = np.einsum("da,ab,db->d", u, m_x * m_y.conj(), u.conj()).real
    expected = cross / ((wx @ np.diagonal(m_x).real)
                        * (wx @ np.diagonal(m_y).real))
    got = _arm_overlaps(x, wx, [pairs_x, pairs_y], delays)
    np.testing.assert_allclose(got, expected, rtol=0.0,
                               atol=1e-13 * np.abs(expected).max())
    # a one-state list is that state on both arms
    assert np.array_equal(_arm_overlaps(x, wx, [pairs_x], delays),
                          _arm_overlaps(x, wx, [pairs_x, pairs_x], delays))


def test_gram_zeroes_samples_below_the_underflow_floor():
    below = np.nextafter(_UNDERFLOW_FLOOR, 0.0)
    above = np.nextafter(_UNDERFLOW_FLOOR, 1.0)
    b = np.array([[below, above, 1.0], [-below, -above, 0.5]])
    gram = assemble(_gram_blocks([(0, 0, b)]), len(b))
    assert np.array_equal(b, [[0.0, above, 1.0], [0.0, -above, 0.5]])
    assert np.array_equal(gram, b @ b.T)
    # the floor applies to the modulus of a complex sample: both of these
    # have parts below it, but only the second has a modulus above it
    c = _UNDERFLOW_FLOOR * np.array([[0.7 + 0.7j, 0.75 + 0.75j]])
    list(_gram_blocks([(0, 0, c)]))
    assert c[0, 0] == 0.0
    assert c[0, 1] == 0.75 * _UNDERFLOW_FLOOR * (1 + 1j)


def test_gridded_jsa_copies_real_samples_once():
    # a float64 array is copied once, not once more by astype
    grid = np.linspace(-3.0, 3.0, 640)
    amplitudes = np.exp(-(grid[:, None] ** 2 + grid[None, :] ** 2))
    tracemalloc.start()
    try:
        gridded = hp.GriddedJsa(grid, grid, amplitudes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * amplitudes.nbytes
    assert np.array_equal(gridded.amplitudes, amplitudes)
    assert gridded.amplitudes.dtype == np.float64
    assert not np.shares_memory(gridded.amplitudes, amplitudes)


def test_normalize_allocates_one_grid():
    # the scaled samples are the only new grid-sized array, and the copy
    # shares the read-only grids
    grid = np.linspace(-3.0, 3.0, 640)
    gridded = hp.GriddedJsa(grid, grid, 3.0 * np.exp(
        -(grid[:, None] ** 2 + grid[None, :] ** 2)))
    tracemalloc.start()
    try:
        normed = gridded.normalize()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * gridded.amplitudes.nbytes
    assert normed.norm() == pytest.approx(1.0, rel=1e-14)
    assert normed.signal_grid is gridded.signal_grid
    assert normed.idler_grid is gridded.idler_grid
    assert not normed.amplitudes.flags.writeable
    assert not np.shares_memory(normed.amplitudes, gridded.amplitudes)


def test_discretize_flags_clipped_ridge(jsa_ktp):
    with pytest.raises(hp.GridCoverageError, match="half_extent"):
        hp.discretize(jsa_ktp, half_extent=6.0, n_points=1024)
    stretched = hp.DoubleGaussianJsa(1.0, 1.0, math.pi / 4, math.pi / 4 + 0.01)
    with pytest.raises(hp.GridCoverageError):
        hp.discretize(stretched, half_extent=4.0, n_points=256)


def test_discretize_warns_when_underresolved(jsa_ktp):
    extent, _ = hp.recommended_grid(jsa_ktp)
    with pytest.warns(UserWarning, match="n_points"):
        hp.discretize(jsa_ktp, half_extent=extent, n_points=300)


def test_recommended_grid_is_warning_free(jsa_k26, jsa_ktp):
    for jsa in (jsa_k26, jsa_ktp):
        extent, points = hp.recommended_grid(jsa)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = hp.discretize(jsa, half_extent=extent, n_points=points)
        assert grid.norm() == pytest.approx(1.0, abs=1e-9)


def test_recommended_grid_tracks_displaced_filter(jsa_separable):
    bare = hp.recommended_grid(jsa_separable)
    shifted = hp.recommended_grid(
        jsa_separable, herald_filter=hp.GaussianFilter(8.0, 0.3))
    assert shifted[0] > bare[0]
    with pytest.raises(TypeError):
        hp.recommended_grid(jsa_separable, herald_filter="flat")


def test_gridded_jsa_validation():
    good = np.linspace(-1, 1, 8)
    amps = np.ones((8, 8))
    uneven = good.copy()
    uneven[3] += 0.05
    with pytest.raises(ValueError):
        hp.GriddedJsa(uneven, good, amps)
    with pytest.raises(ValueError):
        hp.GriddedJsa(good, good, np.ones((8, 7)))
    amps[2, 5] = math.nan
    with pytest.raises(ValueError, match="^amplitudes must be finite$"):
        hp.GriddedJsa(good, good, amps)


@pytest.mark.parametrize("entry, message", [
    (math.nan, "signal_grid must be finite"),
    (math.inf, "signal_grid must be finite"),
    ("1.0", "signal_grid entry must be a number"),
], ids=["nan", "inf", "str"])
def test_gridded_jsa_refuses_non_finite_and_string_grids(entry, message):
    # each passed the spacing checks, and a NaN or inf grid gave figures
    grid = np.linspace(-1, 1, 8).astype(object)
    grid[-1] = entry
    with pytest.raises(ValueError, match=message):
        hp.GriddedJsa(grid, np.linspace(-1, 1, 8), np.ones((8, 8)))
    if isinstance(entry, float):  # the same entry in a float array
        with pytest.raises(ValueError, match=message):
            hp.GriddedJsa(grid.astype(float), np.linspace(-1, 1, 8),
                          np.ones((8, 8)))


@pytest.mark.parametrize("values", [
    [1.0, True],
    np.array([True, False]),
    np.array(["1.0", "2.0"]),
], ids=["bool-in-list", "bool-array", "numeric-str-array"])
def test_reals_checks_entries_unless_given_a_numeric_array(values):
    # np.asarray([1.0, True]) is a float array, so only an int, uint or
    # float array skips the entry loop
    with pytest.raises(ValueError, match="entry must be a number"):
        _reals("x", values)


@pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float32, float])
def test_reals_copies_numeric_arrays_to_float(dtype):
    values = np.arange(3, dtype=dtype)
    out = _reals("x", values)
    assert out.dtype == float and not np.shares_memory(out, values)
    np.testing.assert_array_equal(out, [0.0, 1.0, 2.0])


_EMPTY_HERALD = hp.GaussianFilter(500.0, 0.1)
_NEAR_FILTER = hp.GaussianFilter(0.0, 0.6)


@pytest.mark.parametrize("route, what", [
    (lambda jsa, modes: hp.filtered_purity(jsa, _EMPTY_HERALD),
     "heralding probability"),
    (lambda jsa, modes: hp.two_filter_quantities(jsa, _EMPTY_HERALD,
                                                 _NEAR_FILTER),
     "two-filter success"),
    (lambda jsa, modes: hp.heralding_report(jsa, _EMPTY_HERALD),
     "heralding probability"),
    (lambda jsa, modes: hp.schmidt_quantities(
        modes, hp.overlap_matrix(modes, _EMPTY_HERALD)),
     "heralding probability"),
    (lambda jsa, modes: hp.two_filter_schmidt(
        modes, hp.overlap_matrix(modes, _EMPTY_HERALD),
        hp.overlap_matrix(modes, _NEAR_FILTER, side="signal")),
     "two-filter success"),
], ids=["filtered_purity", "two_filter_quantities", "heralding_report",
        "schmidt_quantities", "two_filter_schmidt"])
def test_empty_herald_fails_the_one_success_gate(jsa_k26, k26_modes, route,
                                                 what):
    # a herald 500 rad/ps off the source passes nothing on either route
    with pytest.raises(hp.NumericalError,
                       match=f"^{what} evaluated to 0.0, not at least 1e-12;"):
        route(jsa_k26, k26_modes)


@pytest.fixture(scope="module")
def half_demo_grid(jsa_k26):
    """The demo grid and a copy at half its amplitude, norm 0.25."""
    grid = hp.discretize(jsa_k26, 4.0, 256)
    return grid, hp.GriddedJsa(grid.signal_grid, grid.idler_grid,
                               0.5 * grid.amplitudes)


@pytest.mark.parametrize("route", [
    hp.decompose,
    lambda grid: hp.herald_success(grid, _NEAR_FILTER),
    hp.unfiltered_purity,
    lambda grid: hp.filtered_purity(grid, _NEAR_FILTER),
    lambda grid: hp.two_filter_quantities(grid, _NEAR_FILTER, _NEAR_FILTER),
    lambda grid: hp.heralding_report(grid, _NEAR_FILTER),
    lambda grid: hp.solve_filter_for_target(grid, target_purity=0.9),
], ids=["decompose", "herald_success", "unfiltered_purity", "filtered_purity",
        "two_filter_quantities", "heralding_report",
        "solve_filter_for_target"])
def test_routes_refuse_an_unnormalized_grid(half_demo_grid, route):
    # only decompose refused it; the solve's success read 0.0505 for 0.2018
    with pytest.raises(ValueError, match=r"^amplitude norm is 0\.250000; "
                                         r"normalize\(\) it first$"):
        route(half_demo_grid[1])


@pytest.mark.parametrize("herald", [None, _NEAR_FILTER],
                         ids=["unfiltered", "filtered"])
def test_heralding_report_squares_the_grid_once(half_demo_grid, herald,
                                                monkeypatch):
    # norm() squares every sample, so a report checks it once
    calls, norm = [], hp.GriddedJsa.norm

    def counted(self):
        calls.append(self)
        return norm(self)
    monkeypatch.setattr(hp.GriddedJsa, "norm", counted)
    hp.heralding_report(half_demo_grid[0], herald)
    assert len(calls) == 1


def test_gridded_dip_does_not_depend_on_the_norm(half_demo_grid):
    # each arm's overlap is divided by its success, and 0.5 is a power of two
    delays = np.linspace(-3.0, 3.0, 41)
    grid, half = half_demo_grid
    assert np.array_equal(
        hp.hom_dip(half, _NEAR_FILTER, _NEAR_FILTER, delays).coincidences,
        hp.hom_dip(grid, _NEAR_FILTER, _NEAR_FILTER, delays).coincidences)


@pytest.mark.parametrize("samples", [
    np.ones((4, 4), dtype=bool),
    np.full((4, 4), "1.0"),
    [[True] * 4] * 4,
], ids=["bool-array", "str-array", "bool-list"])
def test_gridded_samples_refuse_bool_and_str(samples):
    # each built a float grid of ones
    grid = np.linspace(-1.0, 1.0, 4)
    with pytest.raises(ValueError, match="amplitudes entry must be a number"):
        hp.GriddedJsa(grid, grid, samples)
    for field in ("signal_modes", "idler_modes"):
        modes = {"signal_modes": np.eye(1, 4), "idler_modes": np.eye(1, 4),
                 field: samples[:1]}
        with pytest.raises(ValueError, match=f"{field} entry must be a number"):
            hp.SchmidtDecomposition([1.0], signal_grid=grid, idler_grid=grid,
                                    **modes)


@pytest.mark.parametrize("samples", [
    np.full((4, 4), 0.5 + 0.5j),
    np.full((4, 4), 0.5 + 0.5j, dtype=np.complex64),
    [[0.5 + 0.5j, 1, 0.5, 0.0]] * 4,
], ids=["complex128", "complex64", "list"])
def test_gridded_samples_stay_complex(samples):
    grid = np.linspace(-1.0, 1.0, 4)
    expected = np.asarray(samples)
    gridded = hp.GriddedJsa(grid, grid, samples)
    modes = hp.SchmidtDecomposition([1.0], samples[:1], samples[:1], grid, grid)
    for array in (gridded.amplitudes, modes.signal_modes, modes.idler_modes):
        assert array.dtype == expected.dtype
    np.testing.assert_array_equal(gridded.amplitudes, expected)


def test_delay_array_takes_arrays_as_given_and_0d_input_as_one_delay():
    delays = np.linspace(-1.0, 1.0, 5)
    out = _delay_array(delays)
    assert out.dtype == float and not np.shares_memory(out, delays)
    np.testing.assert_array_equal(out, delays)
    for one in (0.5, np.float64(0.5), np.array(0.5), 1):
        np.testing.assert_array_equal(_delay_array(one), [float(one)])
    for bad in (True, np.array(True), "0.5", np.bool_(False)):
        with pytest.raises(ValueError, match="delay entry must be a number"):
            _delay_array(bad)


def test_gridded_jsa_normalize(k26_grid):
    scaled = hp.GriddedJsa(k26_grid.signal_grid, k26_grid.idler_grid,
                           2.5 * k26_grid.amplitudes)
    renormed = scaled.normalize()
    assert renormed.norm() == pytest.approx(1.0, rel=1e-12)
    again = renormed.normalize()
    np.testing.assert_allclose(again.amplitudes, renormed.amplitudes, rtol=1e-14)
    area = k26_grid.signal_step * k26_grid.idler_step
    assert k26_grid.cell_area == pytest.approx(area, rel=1e-14)
    zero = hp.GriddedJsa(k26_grid.signal_grid, k26_grid.idler_grid,
                         np.zeros(k26_grid.amplitudes.shape))
    with pytest.raises(hp.NumericalError, match="numerically zero"):
        zero.normalize()


def test_hom_curve_summaries():
    delays = np.linspace(-6, 6, 2001)
    coincidences = 0.5 - 0.4 * np.exp(-(delays**2) / 2.0)
    curve = hp.HomCurve(delays, coincidences)
    assert curve.visibility() == pytest.approx(2.0 / 3.0, rel=1e-9)
    expected = 2.0 * math.sqrt(2.0 * math.log(2.0))
    assert curve.half_depth_width() == pytest.approx(expected, rel=1e-3)


def test_hom_curve_rejects_flat_or_unsorted():
    delays = np.linspace(-1, 1, 11)
    with pytest.raises(ValueError):
        hp.HomCurve(delays, np.full(11, 0.5)).half_depth_width()
    with pytest.raises(ValueError):
        hp.HomCurve(delays[::-1], np.full(11, 0.4)).half_depth_width()
    with pytest.raises(ValueError):
        hp.HomCurve(delays, np.zeros(5))
    # the dip at 0.1 never climbs back past half depth (0.3) on its right
    with pytest.raises(ValueError, match="half depth right of the dip"):
        hp.HomCurve([-1.0, 0.0, 1.0], [0.5, 0.1, 0.2]).half_depth_width()


@pytest.mark.parametrize("delays, coincidences", [
    ([], []),
    ([0.0, 1.0], [math.nan, 0.4]),
    ([0.0, math.inf], [0.3, 0.4]),
])
def test_hom_curve_rejects_empty_or_non_finite(delays, coincidences):
    # an empty curve used to fail later in numpy, and a NaN sample gave a
    # NaN visibility
    with pytest.raises(ValueError, match="non-empty and finite"):
        hp.HomCurve(delays, coincidences)


@pytest.mark.parametrize("delays, coincidences", [
    ([0.0, True], [0.3, 0.4]),
    ([0.0, 1.0], [0.3, "0.4"]),
    (np.array([0.0, 1.0]), np.array([True, False])),
], ids=["bool-delay", "str-coincidence", "bool-array"])
def test_hom_curve_refuses_bool_and_str(delays, coincidences):
    # these used to build, as float(True) = 1.0 and float("0.4") = 0.4
    with pytest.raises(ValueError, match="must be a number"):
        hp.HomCurve(delays, coincidences)


@pytest.mark.parametrize("coincidences", [
    [2.0, -1.0], [0.5, 1.0 + 1e-12], [-1e-300, 0.5],
], ids=["both", "above", "below"])
def test_hom_curve_refuses_coincidences_outside_the_unit_interval(
        coincidences):
    # [2.0, -1.0] built and failed later, in visibility()
    with pytest.raises(ValueError, match=r"coincidences must lie within "
                                         r"\[0, 1\]"):
        hp.HomCurve([0.0, 1.0], coincidences)


def test_hom_curve_keeps_its_splitter():
    delays = np.linspace(-6, 6, 2001)
    shape = np.exp(-(delays**2) / 2.0)
    balanced = hp.HomCurve(delays, 0.5 - 0.4 * shape)
    assert balanced.reflectivity == 0.5 and balanced.baseline == 0.5
    # R = 0.9 gives the baseline 1 - 2*0.09 = 0.82 and the same depth
    curve = hp.HomCurve(delays, 0.82 - 0.4 * shape, reflectivity=0.9)
    assert curve.baseline == pytest.approx(0.82, rel=1e-15)
    assert curve.visibility() == pytest.approx(0.4 / 1.24, rel=1e-12)
    assert curve.half_depth_width() == pytest.approx(
        balanced.half_depth_width(), rel=1e-12)
    # the baseline 1 - 2*R*T is at least 1/2, so even an all-zero curve has
    # a visibility on every splitter
    for reflectivity in (0.0, 0.5, 1.0):
        zero = hp.HomCurve([-1.0, 0.0, 1.0], np.zeros(3), reflectivity)
        assert zero.visibility() == 1.0


def _below(value):
    return float(np.nextafter(value, -math.inf))


def _above(value):
    return float(np.nextafter(value, math.inf))


# Each bounded argument, given the K = 26 source and its modes, as a call
# taking the value, the values at its ends, and those one step outside.
BOUND_SITES = {
    "reflectivity": lambda jsa, modes: (
        lambda r: hp.visibility(0.5, r), [0.0, 1.0], [_below(0.0), _above(1.0)]),
    "n_points": lambda jsa, modes: (
        lambda n: hp.discretize(hp.DoubleGaussianJsa(1.0, 1.0, 0.0, 1.5), 6.0, n),
        [64], [63]),
    "half_extent": lambda jsa, modes: (
        lambda e: hp.QuadratureSpec(half_extent=e), [4.0], [_below(4.0)]),
    "n_nodes": lambda jsa, modes: (
        lambda n: hp.QuadratureSpec(n_nodes=n), [32, 6000], [31, 6001]),
    "mode-number": lambda jsa, modes: (
        hp.thermal_schmidt_coefficients, [1.0], [_below(1.0)]),
    "thermal-n_modes": lambda jsa, modes: (
        lambda n: hp.thermal_schmidt_coefficients(2.0, n), [1], [0]),
    "analytic-mode-index": lambda jsa, modes: (
        lambda mu: hp.schmidt_mode_analytic(jsa, mu, [0.0]), [0], [-1]),
    "dip-purity": lambda jsa, modes: (
        lambda p: hp.hom_dip_analytic(jsa, p, [0.0]), [0.0, 1.0],
        [_below(0.0), _above(1.0)]),
    "reconstruct-n_modes": lambda jsa, modes: (
        modes.reconstruct, [0], [-1]),
    "projection-mode-index": lambda jsa, modes: (
        lambda i: hp.mode_projection_herald(modes, i), [0, modes.n_modes - 1],
        [-1, modes.n_modes]),
}


@pytest.mark.parametrize("site", BOUND_SITES.values(), ids=BOUND_SITES)
def test_bounds_accept_their_ends_and_refuse_one_step_outside(
        jsa_k26, k26_modes, site):
    call, ends, outside = site(jsa_k26, k26_modes)
    for value in ends:
        call(value)
    for value in outside:
        with pytest.raises(ValueError, match=r"must (lie in \[|be (finite and "
                                             r")?(non-negative|at least ))"):
            call(value)


@pytest.mark.parametrize("check", [_clip_unit, _require_success])
def test_figure_checks_reject_nan(check):
    with pytest.raises(hp.NumericalError):
        check(math.nan)


def test_one_gate_floors_success_then_clips_both_figures():
    purity, success = _figures(np.float64(1.0 + 5e-7), 2e-12)
    assert (purity, success) == (1.0, 2e-12)
    assert type(purity) is float and type(success) is float
    with pytest.raises(hp.NumericalError,
                       match="^dip success evaluated to 5e-13, not at least"):
        _figures(0.5, 5e-13, "dip success")
    for purity, success in ((math.nan, 0.5), (0.5, 1.0 + 2e-6)):
        with pytest.raises(hp.NumericalError, match="outside \\[0, 1\\]"):
            _figures(purity, success)


def test_dip_curve_gates_its_coincidences_as_figures():
    # 1 - 2*R*T*(1 + overlap) is -5e-7 here, within the figures' slack
    curve = _dip(np.zeros(1), 0.5, lambda tau: np.full(tau.shape, 1.0 + 1e-6))
    assert curve.coincidences[0] == 0.0
    with pytest.raises(hp.NumericalError,
                       match=r"^dip coincidences must lie within \[0, 1\]$"):
        _dip(np.zeros(1), 0.5, lambda tau: np.full(tau.shape, 1.5))


# Each [0, 1] array input as a call taking one entry, the name its message
# gives, the entries it keeps with what it stores for them, and the entries
# it refuses.
UNIT_SITES = {
    "transmission": (
        lambda t: hp.TabulatedFilter([0.0, 1.0], [0.5, t]).values[1],
        "transmission values", [(1.0 + 5e-13, 1.0), (-5e-13, 0.0)],
        [1.0 + 2e-12, -2e-12]),
    "overlap-diagonal": (
        lambda d: hp.OverlapMatrix(np.diag([0.5, d]), "idler").matrix[1, 1],
        "overlap diagonal", [(1.0 + 5e-10, 1.0 + 5e-10), (-5e-10, -5e-10)],
        [1.0 + 2e-9, -2e-9]),
    "purity": (hp.visibility, "purity", [(1.0, 1.0), (0.0, 0.0)],
               [1.0 + 1e-12, [0.5, 1.5], math.nan]),
}


@pytest.mark.parametrize("site", UNIT_SITES.values(), ids=UNIT_SITES)
def test_unit_entries_keep_their_slack_and_refuse_beyond_it(site):
    call, name, kept, refused = site
    for value, stored in kept:
        assert call(value) == stored
    for value in refused:
        with pytest.raises(ValueError,
                           match=rf"^{name} must lie within \[0, 1\]$"):
            call(value)


# Each call that names an arm, given the K = 26 source and its modes.
SIDE_SITES = {
    "OverlapMatrix": lambda jsa, modes, side: hp.OverlapMatrix(np.eye(2), side),
    "overlap_matrix": lambda jsa, modes, side: hp.overlap_matrix(
        modes, _NEAR_FILTER, side=side),
    "schmidt_mode_analytic": lambda jsa, modes, side: hp.schmidt_mode_analytic(
        jsa, 0, [0.0], side=side),
}


@pytest.mark.parametrize("site", SIDE_SITES.values(), ids=SIDE_SITES)
def test_sides_share_one_rule(jsa_k26, k26_modes, site):
    for side in ("idler", "signal"):
        site(jsa_k26, k26_modes, side)
    with pytest.raises(ValueError, match=r"^side must be 'idler' or 'signal', "
                                         r"got 'both'$"):
        site(jsa_k26, k26_modes, "both")


# Each array record with the arguments it is built from.
ARRAY_RECORDS = [
    (hp.HomCurve, lambda: ([0.0, 1.0], [0.2, 0.3])),
    (hp.TabulatedFilter, lambda: ([0.0, 1.0], [0.5, 0.5])),
    (hp.GriddedJsa, lambda: ([0.0, 1.0], [0.0, 1.0], np.ones((2, 2)))),
    (hp.SchmidtDecomposition, lambda: ([1.0], [[1.0, 0.0]], [[1.0, 0.0]],
                                       [0.0, 1.0], [0.0, 1.0])),
    (hp.OverlapMatrix, lambda: (np.eye(2), "idler")),
    (hp.ModeProjection, lambda: (0, 0.5, 1.0, np.array([1.0, 0.0]))),
    # list surfaces used to fail on their missing .shape
    (hp.SweepGrid, lambda: ("a", [1.0, 2.0], "b", [1.0], [[0.1], [0.2]],
                            [[0.3], [0.4]])),
]
RECORD_IDS = [record.__name__ for record, _ in ARRAY_RECORDS]


@pytest.mark.parametrize("record, args", ARRAY_RECORDS, ids=RECORD_IDS)
def test_array_records_compare_and_hash_by_identity(record, args):
    # field-wise equality would ask numpy arrays for a truth value
    first, second = record(*args()), record(*args())
    assert first == first and first != second
    assert len({first, second, first}) == 2


# ModeProjection holds no validated arrays, so it keeps what it is given.
FROZEN_RECORDS = [pair for pair in ARRAY_RECORDS
                  if pair[0] is not hp.ModeProjection]


@pytest.mark.parametrize("record, args", FROZEN_RECORDS,
                         ids=[record.__name__ for record, _ in FROZEN_RECORDS])
def test_array_records_keep_read_only_copies(record, args):
    inputs = [arg if isinstance(arg, str) else np.array(arg, dtype=float)
              for arg in args()]
    built = record(*inputs)
    arrays = {name: value for name, value in vars(built).items()
              if isinstance(value, np.ndarray)}
    assert len(arrays) == sum(not isinstance(arg, str) for arg in inputs)
    kept = {name: value.copy() for name, value in arrays.items()}
    assert not any(value.flags.writeable for value in arrays.values())
    for arg in inputs:
        if not isinstance(arg, str):
            arg += 1.0
    for name, value in arrays.items():
        np.testing.assert_array_equal(value, kept[name], err_msg=name)
