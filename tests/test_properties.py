"""Property tests of the closed-form kernel, the sweeps built on it and the
CLI's JSON writer."""

import io
import json
import math

import numpy as np
import pytest

import heraldpurity as hp
from heraldpurity.cli import _write_json

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

widths = st.floats(0.01, 100.0)
centers = st.floats(-5.0, 5.0)


@st.composite
def sources(draw):
    """Double-Gaussian amplitudes with ridges at least 0.05 rad apart."""
    sigma1, sigma2 = draw(st.floats(0.2, 10.0)), draw(st.floats(0.2, 10.0))
    theta1, theta2 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    assume(abs(math.sin(theta1 - theta2)) > 0.05)
    return hp.DoubleGaussianJsa(sigma1, sigma2, theta1, theta2)


@settings(max_examples=200, deadline=None)
@given(sources(), widths, centers)
def test_purity_lies_in_unit_interval(jsa, width, center):
    purity = hp.closed_form_purity(jsa, hp.GaussianFilter(center, width))
    assert 0.0 < purity <= 1.0


@settings(max_examples=200, deadline=None)
@given(sources(), widths, widths)
def test_wider_centered_filter_trades_purity_for_success(jsa, w1, w2):
    narrow, wide = min(w1, w2), max(w1, w2)
    p_narrow, s_narrow = hp.closed_form_pair(*jsa.intensity_coefficients(),
                                             narrow)
    p_wide, s_wide = hp.closed_form_pair(*jsa.intensity_coefficients(), wide)
    assert p_wide <= p_narrow
    # success is a ratio of two growing terms, so rounding may cost an ulp
    assert s_wide >= s_narrow * (1.0 - 1e-15)


@settings(max_examples=200, deadline=None)
@given(sources(), widths, centers)
def test_purity_does_not_depend_on_filter_center(jsa, width, center):
    centered = hp.closed_form_purity(jsa, hp.GaussianFilter(0.0, width))
    detuned = hp.closed_form_purity(jsa, hp.GaussianFilter(center, width))
    assert detuned == centered


@settings(max_examples=200, deadline=None)
@given(sources(), widths, centers)
def test_swapping_the_ridges_changes_nothing(jsa, width, center):
    swapped = hp.DoubleGaussianJsa(jsa.sigma2, jsa.sigma1, jsa.theta2,
                                   jsa.theta1)
    filt = hp.GaussianFilter(center, width)
    for closed_form in (hp.closed_form_purity, hp.closed_form_success):
        assert closed_form(swapped, filt) == closed_form(jsa, filt)
    assert hp.schmidt_number(swapped) == hp.schmidt_number(jsa)


@settings(max_examples=200, deadline=None)
@given(sources(), widths, centers, centers)
def test_infinite_signal_filter_is_the_single_filter_kernel(jsa, width, center,
                                                           signal_center):
    coefficients = jsa.intensity_coefficients()
    single = hp.closed_form_pair(*coefficients, width, center)
    double = hp.closed_form_two_filter(*coefficients, width, center, math.inf,
                                       signal_center)
    assert double == single


@settings(max_examples=200, deadline=None)
@given(sources(), widths, widths)
def test_second_centered_filter_keeps_success_at_fixed_purity(jsa, w1, w2):
    # the identity stated in closed_form_two_filter's docstring
    k = hp.schmidt_number(jsa)
    purity, success = hp.closed_form_two_filter(
        *jsa.intensity_coefficients(), w1, 0.0, w2, 0.0)
    # 1 - P**2 and K**2 - 1 cancel near one, which costs the reference digits
    assume(k > 1.001 and purity < 1.0 - 1e-6)
    expected = math.sqrt(1.0 - purity**2) / (purity * math.sqrt(k**2 - 1.0))
    assert success == pytest.approx(expected, rel=1e-9)


def assert_rows_equal_scalar_calls(grid, jsas):
    for jsa, purity, success in zip(jsas, grid.purity, grid.success):
        for width, p, s in zip(grid.axis2, purity, success):
            filt = hp.GaussianFilter(0.0, width)
            assert p == hp.closed_form_purity(jsa, filt)
            assert s == hp.closed_form_success(jsa, filt)
        points = hp.tradeoff_curve(jsa, filter_widths=grid.axis2)
        assert [point.purity for point in points] == purity.tolist()
        assert [point.success for point in points] == success.tolist()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(1.0, 10.0), min_size=1, max_size=4),
       st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=4),
       st.lists(widths, min_size=1, max_size=6))
# C pow rounds this width's square one ulp away from ``width * width``
@example([5.0], [math.pi / 4], [1.0107441205147965])
def test_sweeps_and_curve_equal_scalar_calls(ratios, thetas, filter_widths):
    filter_widths = np.array(filter_widths)
    assert_rows_equal_scalar_calls(
        hp.sweep_aspect_ratio(ratios=ratios, filter_widths=filter_widths),
        [hp.DoubleGaussianJsa(1.0, r, math.pi / 4, -math.pi / 4)
         for r in ratios])
    assert_rows_equal_scalar_calls(
        hp.sweep_orientation(theta1_values=thetas,
                             filter_widths=filter_widths),
        [hp.DoubleGaussianJsa(1.0, 5.0, t, t - math.pi / 2) for t in thetas])


@settings(max_examples=200, deadline=None)
@given(sources(), st.floats(0.01, 0.99))
def test_solver_meets_the_target_exactly(jsa, fraction):
    k = hp.schmidt_number(jsa)
    # K**2 - 1 cancels as K -> 1, which costs the reference its digits
    assume(k > 1.001)
    target = 1.0 / k + fraction * (1.0 - 1.0 / k)
    solution = hp.solve_filter_for_target(jsa, target_purity=target)
    assume(solution.method == "closed_form")
    assert solution.purity == pytest.approx(target, abs=1e-12)
    # the identity stated in closed_form_success's docstring
    expected = math.sqrt(1.0 - target**2) / (target * math.sqrt(k**2 - 1.0))
    assert solution.success == pytest.approx(expected, rel=1e-12)


numbers = st.integers() | st.floats()
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.floats().map(np.float64)
    | st.text(),
    lambda inner: (st.lists(numbers) | st.lists(inner)
                   | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example({"q\"u,o\u00e9\u2603": [0.0, -0.0, 5e-324, 1e16, math.nan,
                                   math.inf, -math.inf, 2**53 + 1, True],
          "": [[], {}, (), (1, 2.5), np.float64(0.1), None, "a,b"]})
@example([[1.5, -0.0], (math.nan,), [True, 2], [np.float64(-1e-300)],
          [3, "x,y"]])
def test_json_writer_matches_indented_dump(value):
    buffer = io.StringIO()
    _write_json(buffer, value)
    assert buffer.getvalue() == json.dumps(value, indent=2) + "\n"
