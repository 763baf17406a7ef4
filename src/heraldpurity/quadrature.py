"""Heralding and interference integrals by windowed Gauss-Legendre quadrature.

Every quantity here reduces to one contraction.  With idler weights that
combine quadrature weights and a herald transmission, the matrix

    M(w, w~) = integral dw' |t(w')|^2 Phi(w, w') conj(Phi(w~, w'))

is the unnormalized reduced state of the heralded photon: the heralding
probability is its weighted trace, the purity the weighted sum of its
squared entries, and two-photon interference a delay-phased double sum over
it.  For parametric amplitudes the integration windows track the Gaussian
mass of each integrand (including the displacement caused by off-center
filters), and node counts scale with the window length measured in units of
the finest feature, so narrow filters and strongly elongated amplitudes
spend nodes only where structure lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    _SUCCESS_FLOOR,
    ConvergenceError,
    DoubleGaussianJsa,
    GaussianFilter,
    GriddedJsa,
    HomCurve,
    NumericalError,
    TabulatedFilter,
    _clip_unit,
    eval_double_gaussian,
    filter_transmission,
)

__all__ = [
    "QuadratureSpec",
    "HeraldingReport",
    "DEFAULT_SPEC",
    "unfiltered_purity",
    "herald_success",
    "filtered_purity",
    "two_filter_quantities",
    "hom_dip",
    "heralding_report",
]

# Nodes per unit window-length/feature ratio, and the flat safety margin.
# 5.2 nodes per feature width keeps Gauss-Legendre error below 1e-9 for
# Gaussian integrands; the margin covers short windows.
_NODES_PER_FEATURE = 5.2
_NODE_MARGIN = 32

# Interference is cut off where its envelope has decayed below exp(-49).
_DECAY_CUTOFF = 7.0

# Result tolerance for the doubled-node convergence check.
_CHECK_TOL = 1e-4


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the Gauss-Legendre integration engine.

    Attributes:
        n_nodes: Baseline nodes per axis; at least 32.
        half_extent: Window half-width in standard deviations of the
            windowed mass; at least 4.
        auto_nodes: When true, node counts grow with the window length
            measured in units of the finest integrand feature.  When false,
            exactly ``n_nodes`` per axis are used.
        max_nodes: Hard ceiling on automatic node counts.
    """

    n_nodes: int = 200
    half_extent: float = 8.0
    auto_nodes: bool = True
    max_nodes: int = 6000

    def __post_init__(self):
        if self.n_nodes < 32:
            raise ValueError(f"n_nodes must be at least 32, got {self.n_nodes}")
        if self.half_extent < 4.0:
            raise ValueError(
                f"half_extent must be at least 4, got {self.half_extent}"
            )
        if self.max_nodes < self.n_nodes:
            raise ValueError("max_nodes must not be below n_nodes")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class HeraldingReport:
    """Scalar figures of merit for one source and herald filter.

    Attributes:
        success: Heralding probability.
        purity_filtered: Purity of the heralded photon behind the filter.
        purity_unfiltered: Purity with no filtering.
        schmidt_number: Mode number K of the unfiltered amplitude.
        g2: Unheralded marginal second-order correlation, ``1 + 1/K``.
        visibility: Interference visibility of the filtered photon against
            an identical copy on a balanced splitter.
    """

    success: float
    purity_filtered: float
    purity_unfiltered: float
    schmidt_number: float
    g2: float
    visibility: float


@lru_cache(maxsize=128)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def _axis(lo, hi, n):
    x, w = _leggauss(int(n))
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid + half * x, half * w


def _node_count(spec, length, feature, refine, extra=0):
    """Nodes for one axis; raises when the automatic count is impossible."""
    if spec.auto_nodes:
        need = int(math.ceil(_NODES_PER_FEATURE * length / feature))
        need += _NODE_MARGIN + extra
        if need > spec.max_nodes:
            raise ConvergenceError(
                f"axis needs {need} nodes to resolve its window but "
                f"max_nodes is {spec.max_nodes}"
            )
        n = max(spec.n_nodes, need)
    else:
        n = spec.n_nodes + extra
    n = int(round(n * refine))
    return ((n + 15) // 16) * 16


def _clamp_window(lo, hi, scale):
    """Keep a window non-empty; a vanishing window means vanishing mass."""
    if hi - lo < 1e-12 * scale:
        mid = 0.5 * (lo + hi)
        return mid - 1e-12 * scale, mid + 1e-12 * scale
    return lo, hi


def _idler_window(jsa, herald, tail):
    """Window and feature size for the idler (heralding) axis."""
    _, s_idl = jsa.marginal_widths()
    _, w_idl = jsa.conditional_widths()
    lo, hi = -tail * s_idl, tail * s_idl
    feature = w_idl
    if isinstance(herald, GaussianFilter):
        # The filtered idler marginal is the product of two Gaussians.
        p_jsa = 1.0 / s_idl**2
        p_fil = 1.0 / herald.width**2
        center = herald.center * p_fil / (p_jsa + p_fil)
        width = 1.0 / math.sqrt(p_jsa + p_fil)
        lo, hi = center - tail * width, center + tail * width
        feature = min(w_idl, herald.width)
    elif isinstance(herald, TabulatedFilter):
        lo = max(lo, float(herald.grid[0]))
        hi = min(hi, float(herald.grid[-1]))
    lo, hi = _clamp_window(lo, hi, s_idl)
    return lo, hi, feature


def _signal_window(jsa, idler_window, heralded, tail):
    """Window and feature size for the signal axis, given the idler window."""
    a, b, _ = jsa.intensity_coefficients()
    s_sig, _ = jsa.marginal_widths()
    w_sig, _ = jsa.conditional_widths()
    slope = -b / a
    ends = (slope * idler_window[0], slope * idler_window[1])
    lo = min(ends) - tail * w_sig
    hi = max(ends) + tail * w_sig
    lo, hi = max(lo, -tail * s_sig), min(hi, tail * s_sig)
    feature = w_sig
    if isinstance(heralded, GaussianFilter):
        lo = max(lo, heralded.center - tail * heralded.width)
        hi = min(hi, heralded.center + tail * heralded.width)
        feature = min(w_sig, heralded.width)
    elif isinstance(heralded, TabulatedFilter):
        lo = max(lo, float(heralded.grid[0]))
        hi = min(hi, float(heralded.grid[-1]))
    lo, hi = _clamp_window(lo, hi, s_sig)
    return lo, hi, feature


def _problem(jsa, herald, heralded, spec, refine, osc_extra=0):
    """Nodes, weights, and sampled amplitude for one contraction."""
    if isinstance(jsa, GriddedJsa):
        x = np.asarray(jsa.signal_grid)
        y = np.asarray(jsa.idler_grid)
        wx = np.full(x.size, jsa.signal_step)
        wy = np.full(y.size, jsa.idler_step)
        phi = jsa.amplitudes
    elif isinstance(jsa, DoubleGaussianJsa):
        tail = spec.half_extent
        ylo, yhi, yfeat = _idler_window(jsa, herald, tail)
        xlo, xhi, xfeat = _signal_window(jsa, (ylo, yhi), heralded, tail)
        ny = _node_count(spec, yhi - ylo, yfeat, refine)
        nx = _node_count(spec, xhi - xlo, xfeat, refine, extra=osc_extra)
        y, wy = _axis(ylo, yhi, ny)
        x, wx = _axis(xlo, xhi, nx)
        phi = eval_double_gaussian(jsa, x[:, None], y[None, :])
    else:
        raise TypeError(f"not a joint spectral amplitude: {type(jsa).__name__}")
    return x, wx, y, wy, phi


def _weighted(weights, grid, filt):
    if filt is None:
        return weights
    return weights * filter_transmission(filt, grid)


def _reduced_state(phi, wty):
    return (phi * wty) @ phi.conj().T


def _pair_from_state(m, wtx):
    """(purity, success) from a reduced-state matrix and signal weights."""
    diag = np.real(np.diagonal(m))
    success = float(wtx @ diag)
    if not math.isfinite(success) or success <= 0.0:
        raise NumericalError(
            f"heralding probability evaluated to {success}; the filtered "
            "state carries no numerical weight"
        )
    if np.iscomplexobj(m):
        sq = m.real**2 + m.imag**2
    else:
        sq = m * m
    numerator = float(wtx @ sq @ wtx)
    purity = numerator / success**2
    if not math.isfinite(purity):
        raise NumericalError("purity evaluated to a non-finite value")
    return purity, success


def _single_pair(jsa, herald, heralded, spec, refine):
    x, wx, y, wy, phi = _problem(jsa, herald, heralded, spec, refine)
    wty = _weighted(wy, y, herald)
    wtx = _weighted(wx, x, heralded)
    return _pair_from_state(_reduced_state(phi, wty), wtx)


def _checked_pair(jsa, herald, heralded, spec, check):
    purity, success = _single_pair(jsa, herald, heralded, spec, 1.0)
    if check:
        if isinstance(jsa, GriddedJsa):
            raise ValueError(
                "convergence checks need a parametric amplitude; gridded "
                "samples cannot be refined"
            )
        fine_p, fine_s = _single_pair(jsa, herald, heralded, spec, 2.0)
        if abs(fine_p - purity) > _CHECK_TOL:
            raise ConvergenceError(
                f"purity moved by {abs(fine_p - purity):.3e} when node "
                "counts were doubled; increase n_nodes or half_extent"
            )
        purity, success = fine_p, fine_s
    return purity, success


def unfiltered_purity(jsa, spec=None, check=False):
    """Spectral purity of the heralded photon with no filtering.

    This equals the inverse Schmidt mode number of the amplitude and is the
    interference ceiling of an unfiltered source.

    Args:
        jsa: ``DoubleGaussianJsa`` or normalized ``GriddedJsa``.
        spec: Optional ``QuadratureSpec``; defaults to ``DEFAULT_SPEC``.
        check: Recompute with doubled node counts and raise
            ``ConvergenceError`` if the purity moves by more than 1e-4.

    Returns:
        Purity in (0, 1].
    """
    spec = spec if spec is not None else DEFAULT_SPEC
    purity, _ = _checked_pair(jsa, None, None, spec, check)
    return _clip_unit(purity)


def herald_success(jsa, herald_filter, spec=None, check=False):
    """Probability that the idler passes the herald filter.

    Args:
        jsa: ``DoubleGaussianJsa`` or normalized ``GriddedJsa``.
        herald_filter: Filter on the idler (heralding) arm.
        spec: Optional ``QuadratureSpec``.
        check: Doubled-node convergence check.

    Returns:
        Success probability in [0, 1].
    """
    spec = spec if spec is not None else DEFAULT_SPEC
    if herald_filter is None:
        raise ValueError("herald_success requires a herald filter")
    _, success = _checked_pair(jsa, herald_filter, None, spec, check)
    return _clip_unit(success)


def filtered_purity(jsa, herald_filter, spec=None, check=False):
    """Purity of the heralded photon when the idler is filtered.

    Args:
        jsa: ``DoubleGaussianJsa`` or normalized ``GriddedJsa``.
        herald_filter: Filter on the idler (heralding) arm.
        spec: Optional ``QuadratureSpec``.
        check: Doubled-node convergence check.

    Returns:
        Purity in (0, 1].

    Raises:
        NumericalError: If the heralding probability falls below 1e-12, in
            which case the conditional state is numerically meaningless.
    """
    spec = spec if spec is not None else DEFAULT_SPEC
    if herald_filter is None:
        raise ValueError("filtered_purity requires a herald filter")
    purity, success = _checked_pair(jsa, herald_filter, None, spec, check)
    if success < _SUCCESS_FLOOR:
        raise NumericalError(
            f"heralding probability {success:.3e} is below {_SUCCESS_FLOOR}; "
            "the filtered state is numerically empty"
        )
    return _clip_unit(purity)


def two_filter_quantities(jsa, herald_filter, heralded_filter, spec=None,
                          check=False):
    """Purity and success probability with filters on both arms.

    The heralded (signal) photon keeps only the amplitude passed by its own
    filter, so a pair is counted when both photons pass.

    Args:
        jsa: ``DoubleGaussianJsa`` or normalized ``GriddedJsa``.
        herald_filter: Filter on the idler (heralding) arm.
        heralded_filter: Filter on the signal (heralded) arm.
        spec: Optional ``QuadratureSpec``.
        check: Doubled-node convergence check.

    Returns:
        Tuple ``(purity, success)``.

    Raises:
        NumericalError: If the two-filter success falls below 1e-12.
    """
    spec = spec if spec is not None else DEFAULT_SPEC
    if herald_filter is None or heralded_filter is None:
        raise ValueError("two_filter_quantities requires both filters")
    purity, success = _checked_pair(jsa, herald_filter, heralded_filter,
                                    spec, check)
    if success < _SUCCESS_FLOOR:
        raise NumericalError(
            f"two-filter success {success:.3e} is below {_SUCCESS_FLOOR}"
        )
    return _clip_unit(purity), _clip_unit(success)


def _hom_samples(jsa, herald_x, herald_y, delays, rt_product, spec, refine):
    """Coincidence samples for one node-count refinement level."""
    baseline = 1.0 - 2.0 * rt_product
    out = np.full(delays.shape, baseline)

    if isinstance(jsa, DoubleGaussianJsa):
        w_sig, _ = jsa.conditional_widths()
        cutoff = _DECAY_CUTOFF / w_sig
        resolved = np.abs(delays) <= cutoff
    else:
        step = jsa.signal_step
        worst = float(np.abs(delays).max())
        if worst * step > math.pi / 3.0:
            raise ConvergenceError(
                f"delay {worst:.3g} ps cannot be resolved by a signal grid "
                f"step of {step:.3g} rad/ps"
            )
        resolved = np.ones(delays.shape, dtype=bool)
    if not np.any(resolved):
        return out

    max_delay = float(np.abs(delays[resolved]).max())
    if isinstance(jsa, DoubleGaussianJsa):
        # The delay phase must be resolved across the shared signal window.
        tail = spec.half_extent
        ylo_x, yhi_x, _ = _idler_window(jsa, herald_x, tail)
        ylo_y, yhi_y, _ = _idler_window(jsa, herald_y, tail)
        hull = (min(ylo_x, ylo_y), max(yhi_x, yhi_y))
        xlo, xhi, _ = _signal_window(jsa, hull, None, tail)
        osc = int(math.ceil(0.4 * max_delay * (xhi - xlo))) + 16
        x, wx, y_x, wy_x, phi_x = _problem(jsa, herald_x, None, spec, refine,
                                           osc_extra=osc)
        state_x = _reduced_state(phi_x, _weighted(wy_x, y_x, herald_x))
        # Second arm reuses the signal axis; only the idler axis changes.
        tailspec = spec
        ylo, yhi, yfeat = _idler_window(jsa, herald_y, tailspec.half_extent)
        ny = _node_count(tailspec, yhi - ylo, yfeat, refine)
        y_y, wy_y = _axis(ylo, yhi, ny)
        phi_y = eval_double_gaussian(jsa, x[:, None], y_y[None, :])
        state_y = _reduced_state(phi_y, _weighted(wy_y, y_y, herald_y))
    else:
        x, wx, y, wy, phi = _problem(jsa, herald_x, None, spec, refine)
        state_x = _reduced_state(phi, _weighted(wy, y, herald_x))
        state_y = _reduced_state(phi, _weighted(wy, y, herald_y))

    success_x = float(wx @ np.real(np.diagonal(state_x)))
    success_y = float(wx @ np.real(np.diagonal(state_y)))
    if min(success_x, success_y) < _SUCCESS_FLOOR:
        raise NumericalError(
            "an interferometer arm heralds with probability below 1e-12"
        )

    cross = state_x * state_y.conj()
    norm = success_x * success_y
    for i in np.nonzero(resolved)[0]:
        u = wx * np.exp(1j * x * delays[i])
        overlap = float(np.real(u @ cross @ u.conj()))
        out[i] = 1.0 - 2.0 * rt_product * (1.0 + overlap / norm)
    return np.clip(out, 0.0, 1.0)


def hom_dip(jsa, herald_x, herald_y, delays, reflectivity=0.5,
            transmissivity=0.5, spec=None, check=False):
    """Coincidence dip of heralded photons from two identical sources.

    Each source is heralded through its own idler filter; the heralded
    photons meet on a beam splitter with the given intensity reflectivity
    and transmissivity, and one photon is delayed.  Far from zero delay the
    coincidence probability is the distinguishable baseline ``1 - 2*R*T``;
    at zero delay with equal filters it reaches
    ``1 - 2*R*T*(1 + purity)``.

    For parametric amplitudes, delays beyond the point where the
    interference envelope has decayed below ``exp(-49)`` are returned at
    the baseline exactly rather than integrated, since oscillatory
    quadrature adds only noise there.  For gridded amplitudes every delay
    is integrated, and delays the grid spacing cannot resolve raise
    ``ConvergenceError``.

    Args:
        jsa: ``DoubleGaussianJsa`` or normalized ``GriddedJsa``.
        herald_x: Herald filter of the first source.
        herald_y: Herald filter of the second source.
        delays: Relative delays in ps.
        reflectivity: Beam splitter intensity reflectivity.
        transmissivity: Beam splitter intensity transmissivity; must sum to
            one with ``reflectivity``.
        spec: Optional ``QuadratureSpec``.
        check: Doubled-node convergence check on the whole curve.

    Returns:
        ``HomCurve`` sampled at the given delays.
    """
    spec = spec if spec is not None else DEFAULT_SPEC
    if herald_x is None or herald_y is None:
        raise ValueError("hom_dip requires a herald filter for each source")
    if not (0.0 <= reflectivity <= 1.0 and 0.0 <= transmissivity <= 1.0):
        raise ValueError("reflectivity and transmissivity must lie in [0, 1]")
    if abs(reflectivity + transmissivity - 1.0) > 1e-9:
        raise ValueError("reflectivity and transmissivity must sum to one")
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    if delays.ndim != 1 or delays.size == 0:
        raise ValueError("delays must be a non-empty 1-D array")

    rt = reflectivity * transmissivity
    samples = _hom_samples(jsa, herald_x, herald_y, delays, rt, spec, 1.0)
    if check:
        if isinstance(jsa, GriddedJsa):
            raise ValueError(
                "convergence checks need a parametric amplitude; gridded "
                "samples cannot be refined"
            )
        fine = _hom_samples(jsa, herald_x, herald_y, delays, rt, spec, 2.0)
        drift = float(np.abs(fine - samples).max())
        if drift > _CHECK_TOL:
            raise ConvergenceError(
                f"dip samples moved by {drift:.3e} when node counts were "
                "doubled; increase n_nodes or half_extent"
            )
        samples = fine
    return HomCurve(delays, samples)


def heralding_report(jsa, herald_filter=None, spec=None):
    """Collect the scalar figures of merit for one source configuration.

    Args:
        jsa: ``DoubleGaussianJsa`` or normalized ``GriddedJsa``.
        herald_filter: Optional filter on the idler arm.  Without one the
            success probability is 1 and the filtered purity equals the
            unfiltered purity.
        spec: Optional ``QuadratureSpec``.

    Returns:
        ``HeraldingReport`` with success, purities, mode number, marginal
        g2, and balanced-splitter visibility.
    """
    spec = spec if spec is not None else DEFAULT_SPEC
    p_raw = unfiltered_purity(jsa, spec=spec)
    if herald_filter is None:
        p_fil, success = p_raw, 1.0
    else:
        p_fil, success = _checked_pair(jsa, herald_filter, None, spec, False)
        if success < _SUCCESS_FLOOR:
            raise NumericalError(
                f"heralding probability {success:.3e} is below {_SUCCESS_FLOOR}"
            )
        p_fil, success = _clip_unit(p_fil), _clip_unit(success)
    k = 1.0 / p_raw
    return HeraldingReport(
        success=success,
        purity_filtered=p_fil,
        purity_unfiltered=p_raw,
        schmidt_number=k,
        g2=1.0 + p_raw,
        visibility=p_fil / (2.0 - p_fil),
    )
