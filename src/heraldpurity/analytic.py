"""Closed-form results for double-Gaussian amplitudes and Gaussian filters.

Every expression is written through the intensity coefficients ``(a, b, c)``
and their determinant ``det = a*c - b**2``, formed exactly by
``DoubleGaussianJsa.intensity_coefficients``.  Gaussian integrals reduce to
ratios of positive terms, free of sign conventions and of cancellation.
"""

from __future__ import annotations

import math

import numpy as np

from .core import HeraldingReport, _dip, _integer, _real, _require_types, _side

__all__ = [
    "closed_form_pair",
    "closed_form_two_filter",
    "closed_form_success",
    "closed_form_purity",
    "closed_form_report",
    "schmidt_number",
    "thermal_schmidt_coefficients",
    "schmidt_mode_analytic",
    "mode_scales",
    "hom_dip_analytic",
]


def closed_form_pair(a, b, c, det, width, center=0.0):
    """Heralded purity and success for a Gaussian herald filter.

    The one closed-form kernel: every argument may be a float or a numpy
    array, and the results broadcast over all of them.  With intensity
    coefficients ``(a, b, c)`` and determinant ``det = a*c - b**2``, all
    four as ``DoubleGaussianJsa.intensity_coefficients`` returns them, filter
    variance ``z = 2*width**2``, ``phi = 1/z`` and center ``w0``::

        purity = sqrt(n / (n + b**2)),  n = det + a*phi
        success = sqrt(z*det / (a + z*det)) * exp(-w0**2 * det / (a + z*det))

    As ``n + b**2 = a*(c + phi)``, both lines sum positive terms only: they
    neither cancel nor round above one.  The scalar wrappers
    ``closed_form_purity`` and ``closed_form_success`` run their own line in
    float arithmetic, with the same operations in the same order
    (``math.sqrt`` rounds as ``np.sqrt`` does), so they equal this pair bit
    for bit.  A centered success skips its ``exp`` factor, exactly one
    there; an off-centre one takes numpy's ``exp``, whose last bit
    ``math.exp`` does not always match.

    Returns:
        Tuple ``(purity, success)`` of arrays (or numpy scalars).
    """
    # A product, not ``width**2``: on Python floats ``**`` is C ``pow``,
    # which misrounds some squares that numpy arrays square exactly.
    n = det + a * (0.5 / (width * width))
    z = 2.0 * (width * width)
    denom = a + z * det
    return (np.sqrt(n / (n + b * b)),
            np.sqrt(z * det / denom) * np.exp(-(center * center) * det / denom))


def closed_form_two_filter(a, b, c, det, width, center, signal_width,
                           signal_center):
    """``closed_form_pair`` with a second Gaussian filter, on the signal arm.

    Broadcasts like ``closed_form_pair``.  The signal filter turns the source
    into the double Gaussian ``(a + phi, b, c)``, displaced and attenuated,
    with ``phi = 1/(2*signal_width**2)``.  Its determinant is
    ``w_s = det + phi*c``, and with ``pull = phi*signal_center/w_s`` the
    result is ``closed_form_pair(a + phi, b, c, w_s, width, center + b*pull)``
    with its success times ``sqrt(det/w_s) * exp(-pull*signal_center*det)``.
    An infinite ``signal_width`` gives ``closed_form_pair`` bit for bit.  With
    both filters centered, at any two widths, the success at purity ``P`` is
    still ``sqrt(1 - P**2) / (P * sqrt(K**2 - 1))``.
    """
    phi = 0.5 / (signal_width * signal_width)
    w_s = det + phi * c
    pull = phi * signal_center / w_s
    purity, success = closed_form_pair(a + phi, b, c, w_s, width,
                                       center + b * pull)
    return (purity,
            success * np.sqrt(det / w_s) * np.exp(-pull * signal_center * det))


def closed_form_success(jsa, herald_filter):
    """Heralding probability for a Gaussian herald filter, in closed form.

    See ``closed_form_pair`` for the formula.  For a centered filter,
    eliminating the width against ``closed_form_purity`` gives the success
    at a fixed purity ``P`` from the Schmidt number ``K`` alone::

        success = sqrt(1 - P**2) / (P * sqrt(K**2 - 1))

    so no choice of filter-width convention changes the success reached at
    a given purity.

    Args:
        jsa: ``DoubleGaussianJsa`` of the source.
        herald_filter: ``GaussianFilter`` on the idler arm.

    Returns:
        Success probability in [0, 1].
    """
    _require_types(jsa, herald_filter)
    a, _, _, det = jsa.intensity_coefficients()
    width, center = herald_filter.width, herald_filter.center
    # ``closed_form_pair``'s success line in float arithmetic; centred, its
    # exp(-0.0 * det / denom) is 1.
    z = 2.0 * (width * width)
    denom = a + z * det
    success = math.sqrt(z * det / denom)
    if center:
        return float(success * np.exp(-(center * center) * det / denom))
    return success


def closed_form_purity(jsa, herald_filter):
    """Heralded-photon purity for a Gaussian herald filter, in closed form.

    See ``closed_form_pair`` for the formula.  The result does not depend
    on the filter center: detuning the passband costs heralding probability
    but conditions the same signal state shape.

    Args:
        jsa: ``DoubleGaussianJsa`` of the source.
        herald_filter: ``GaussianFilter`` on the idler arm.

    Returns:
        Purity in (0, 1].
    """
    _require_types(jsa, herald_filter)
    a, b, _, det = jsa.intensity_coefficients()
    width = herald_filter.width
    # ``closed_form_pair``'s purity line in float arithmetic.
    n = det + a * (0.5 / (width * width))
    return math.sqrt(n / (n + b * b))


def schmidt_number(jsa):
    """Mode number K of a double-Gaussian amplitude, in closed form.

    ``K = sqrt(a*c / det)``; the unfiltered purity is ``1/K``.
    """
    _require_types(jsa)
    a, _, c, det = jsa.intensity_coefficients()
    return math.sqrt(a * c / det)


def thermal_schmidt_coefficients(mode_number, n_modes=64):
    """Geometric (thermal) mode weights for a given mode number K.

    A double-Gaussian amplitude has weights
    ``p_mu = 2 * (K - 1)**mu / (K + 1)**(mu + 1)``; their squares sum to
    ``1/K``.

    Args:
        mode_number: Mode number K, at least 1.
        n_modes: Number of leading weights to return.

    Returns:
        Array of the first ``n_modes`` weights, descending.
    """
    k = _real("mode number", mode_number, low=1)
    n_modes = _integer("n_modes", n_modes, low=1)
    mu = np.arange(n_modes, dtype=float)
    ratio = (k - 1.0) / (k + 1.0)
    return 2.0 / (k + 1.0) * ratio**mu


def mode_scales(jsa):
    """Gaussian width scales of the signal and idler mode families.

    Returns:
        Tuple ``(signal_scale, idler_scale)`` in rad/ps: with intensity
        coefficients ``(a, b, c, det)``, the signal scale is
        ``(c / (det*a))**(1/4)`` and the idler scale ``(a / (det*c))**(1/4)``.
    """
    _require_types(jsa)
    a, _, c, det = jsa.intensity_coefficients()
    return (c / (det * a)) ** 0.25, (a / (det * c)) ** 0.25


def _hermite_function(order, x):
    """Orthonormal Hermite function h_order(x) by the stable recurrence.

    ``h_0 = pi**-0.25 * exp(-x**2/2)`` and
    ``h_n = x*sqrt(2/n)*h_{n-1} - sqrt((n-1)/n)*h_{n-2}``.  The recurrence
    propagates the already-normalized functions, so no factorials or large
    intermediate powers appear and orders of several hundred stay finite.
    """
    h_prev = np.zeros_like(x)
    h = math.pi**-0.25 * np.exp(-0.5 * x * x)
    for n in range(1, order + 1):
        h, h_prev = x * math.sqrt(2.0 / n) * h - math.sqrt((n - 1.0) / n) * h_prev, h
    return h


def schmidt_mode_analytic(jsa, mu, omega, side="signal"):
    """Sample one Schmidt mode of a double-Gaussian amplitude.

    The modes are Hermite-Gauss functions: with width scale ``s`` from
    ``mode_scales``,

        mode_mu(w) = (-1j)**mu * h_mu(w / s) / sqrt(s)

    where ``h_mu`` is the orthonormal Hermite function.  The ``(-1j)**mu``
    phases are chosen so that the weighted products of signal and idler
    modes reconstruct the amplitude when its frequencies are anticorrelated
    (cross coefficient ``b > 0``); for correlated amplitudes the odd modes
    carry an extra sign.

    Args:
        jsa: ``DoubleGaussianJsa`` whose modes are wanted.
        mu: Mode index, a non-negative integer.  Stable well beyond 200.
        omega: Frequencies at which to sample, rad/ps.
        side: ``"signal"`` or ``"idler"``.

    Returns:
        Complex array of mode samples.
    """
    scales = mode_scales(jsa)
    mu = _integer("mode index", mu, low=0)
    scale = scales[0 if _side(side) == "signal" else 1]
    x = np.asarray(omega, dtype=float) / scale
    values = _hermite_function(mu, x) / math.sqrt(scale)
    return (-1j) ** mu * values.astype(complex)


def hom_dip_analytic(jsa, purity, delays, reflectivity=0.5):
    """Closed-form coincidence dip for equal Gaussian-filtered sources.

    The dip is Gaussian in delay with a width set by the signal conditional
    width of the amplitude and a depth set by the heralded purity::

        c(tau) = 1 - 2*R*T*(1 + purity * exp(-tau**2 / (2*a)))

    where ``a`` is the leading intensity coefficient and ``T = 1 - R``.  The
    width does not depend on the herald filter; only the depth does.

    Args:
        jsa: ``DoubleGaussianJsa`` of both sources.
        purity: Heralded purity behind the (equal) herald filters.
        delays: Relative delays in ps.
        reflectivity: Beam splitter intensity reflectivity, in [0, 1].

    Returns:
        ``HomCurve`` sampled at the given delays, carrying ``reflectivity``.
    """
    _require_types(jsa)
    purity = _real("purity", purity, low=0, high=1)
    a = jsa.intensity_coefficients()[0]
    with np.errstate(over="ignore"):  # past |tau| = 1.3e154, tau * tau is inf
        return _dip(delays, reflectivity,
                    lambda tau: purity * np.exp(-tau * tau / (2.0 * a)))


def closed_form_report(jsa, herald_filter=None):
    """Closed-form scalar figures of merit for one source configuration.

    Args:
        jsa: ``DoubleGaussianJsa`` of the source.
        herald_filter: Optional ``GaussianFilter`` on the idler arm.
            Without one the success is 1 and the filtered purity is ``1/K``.

    Returns:
        ``HeraldingReport`` with success, purities, mode number, marginal
        g2, and balanced-splitter visibility.
    """
    p_raw = 1.0 / schmidt_number(jsa)
    if herald_filter is None:
        return HeraldingReport(1.0, p_raw, p_raw)
    _require_types(jsa, herald_filter)
    p_fil, success = map(float, closed_form_pair(
        *jsa.intensity_coefficients(), herald_filter.width,
        herald_filter.center))
    return HeraldingReport(success, p_fil, p_raw)
