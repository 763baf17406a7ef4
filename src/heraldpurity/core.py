"""Joint spectral amplitudes and spectral filters for photon-pair sources.

Frequencies throughout are detunings from the signal and idler carriers in
rad/ps, so delays and pulse durations are in ps.  A joint spectral amplitude
``Phi(w, w')`` takes the signal (heralded) frequency as its first argument
and the idler (heralding) frequency as its second, and is normalized so that
``|Phi|**2`` integrates to one over the plane.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "ConvergenceError",
    "GridCoverageError",
    "DoubleGaussianJsa",
    "GriddedJsa",
    "GaussianFilter",
    "TabulatedFilter",
    "SourcePhysicalParams",
    "HomCurve",
    "eval_double_gaussian",
    "filter_transmission",
    "filter_amplitude",
    "discretize",
    "recommended_grid",
    "from_physical",
    "parse_angle",
    "jsa_from_dict",
    "filter_from_dict",
]

SQRT_LN2 = math.sqrt(math.log(2.0))

# Antiparallel tilt tolerance: below this |sin(theta1 - theta2)| the two
# Gaussian ridges are parallel and the amplitude is not normalizable.
MIN_ANGLE_SINE = 1e-9


class NumericalError(RuntimeError):
    """A computation could not produce a trustworthy numerical result."""


class ConvergenceError(NumericalError):
    """Refining the discretization changed the result beyond tolerance."""


class GridCoverageError(NumericalError):
    """A frequency grid clips or under-resolves the amplitude placed on it."""


# Minimum heralding probability considered numerically meaningful.
_SUCCESS_FLOOR = 1e-12


def _clip_unit(value, slack=1e-6):
    if value < -slack or value > 1.0 + slack:
        raise NumericalError(f"result {value} lies outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def parse_angle(value):
    """Interpret an angle given as a number or a compact ``pi`` expression.

    Strings such as ``"pi/4"``, ``"-3pi/8"``, ``"0.5*pi"``, or plain numbers
    like ``"0.97"`` are accepted.

    Args:
        value: Angle in radians, as a number or string.

    Returns:
        The angle as a float, in radians.

    Raises:
        ValueError: If the string cannot be interpreted as an angle.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, str):
        raise ValueError(f"cannot interpret angle from {type(value).__name__}")
    text = value.strip().replace(" ", "")
    try:
        return float(text)
    except ValueError:
        pass
    match = re.fullmatch(r"([+-]?)(\d*\.?\d*)\*?pi(?:/(\d+\.?\d*))?", text)
    if match is None:
        raise ValueError(f"cannot interpret angle {value!r}")
    sign = -1.0 if match.group(1) == "-" else 1.0
    coeff = float(match.group(2)) if match.group(2) else 1.0
    denom = float(match.group(3)) if match.group(3) else 1.0
    if denom == 0.0:
        raise ValueError(f"zero denominator in angle {value!r}")
    return sign * coeff * math.pi / denom


@dataclass(frozen=True)
class DoubleGaussianJsa:
    """Normalized two-Gaussian joint spectral amplitude.

    The amplitude is the product of two Gaussian ridges with widths
    ``sigma1``, ``sigma2`` (rad/ps) tilted by ``theta1``, ``theta2`` in the
    (signal, idler) frequency plane::

        Phi(w, w') = sqrt(|sin(theta1 - theta2)| / (pi*sigma1*sigma2))
                     * exp(-(w*sin(theta1) + w'*cos(theta1))**2 / (2*sigma1**2))
                     * exp(-(w*sin(theta2) + w'*cos(theta2))**2 / (2*sigma2**2))

    The prefactor makes ``|Phi|**2`` integrate to one exactly.  The first
    ridge usually encodes the pump envelope and the second the phase-matching
    response, but the type is symmetric: swapping ``(sigma1, theta1)`` with
    ``(sigma2, theta2)`` leaves the amplitude unchanged.
    """

    sigma1: float
    sigma2: float
    theta1: float
    theta2: float

    def __post_init__(self):
        for name in ("sigma1", "sigma2"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {value}")
            object.__setattr__(self, name, value)
        for name in ("theta1", "theta2"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if abs(math.sin(self.theta1 - self.theta2)) < MIN_ANGLE_SINE:
            raise ValueError(
                "theta1 and theta2 coincide modulo pi; the two ridges are "
                "parallel and the amplitude is not normalizable"
            )

    def angle_sine(self):
        """Return ``|sin(theta1 - theta2)|``, the ridge opening factor."""
        return abs(math.sin(self.theta1 - self.theta2))

    def intensity_coefficients(self):
        """Quadratic-form coefficients of the joint intensity.

        Returns:
            Tuple ``(a, b, c)`` such that ``|Phi(w, w')|**2`` is proportional
            to ``exp(-(a*w**2 + 2*b*w*w' + c*w'**2))``.  The determinant
            ``a*c - b**2`` equals ``sin(theta1 - theta2)**2 / (sigma1*sigma2)**2``.
        """
        s1, c1 = math.sin(self.theta1), math.cos(self.theta1)
        s2, c2 = math.sin(self.theta2), math.cos(self.theta2)
        v1 = 1.0 / self.sigma1**2
        v2 = 1.0 / self.sigma2**2
        a = s1 * s1 * v1 + s2 * s2 * v2
        b = s1 * c1 * v1 + s2 * c2 * v2
        c = c1 * c1 * v1 + c2 * c2 * v2
        return a, b, c

    def marginal_widths(self):
        """Standard deviations of the signal and idler intensity marginals."""
        a, b, c = self.intensity_coefficients()
        det = a * c - b * b
        return math.sqrt(c / (2.0 * det)), math.sqrt(a / (2.0 * det))

    def conditional_widths(self):
        """Intensity widths of one frequency at fixed value of the other.

        Returns:
            Tuple ``(w_signal, w_idler)``: the standard deviation of the
            signal frequency at fixed idler frequency, and vice versa.  These
            set the fine structure an integration grid has to resolve.
        """
        a, _, c = self.intensity_coefficients()
        return 1.0 / math.sqrt(2.0 * a), 1.0 / math.sqrt(2.0 * c)


def eval_double_gaussian(jsa, omega_signal, omega_idler):
    """Evaluate a double-Gaussian amplitude at the given frequencies.

    Args:
        jsa: The ``DoubleGaussianJsa`` to sample.
        omega_signal: Signal detuning(s), rad/ps.  Broadcast against
            ``omega_idler``.
        omega_idler: Idler detuning(s), rad/ps.

    Returns:
        Array of real amplitude values, shaped by broadcasting.
    """
    ws = np.asarray(omega_signal, dtype=float)
    wi = np.asarray(omega_idler, dtype=float)
    norm = math.sqrt(jsa.angle_sine() / (math.pi * jsa.sigma1 * jsa.sigma2))
    u1 = (ws * math.sin(jsa.theta1) + wi * math.cos(jsa.theta1)) / jsa.sigma1
    u2 = (ws * math.sin(jsa.theta2) + wi * math.cos(jsa.theta2)) / jsa.sigma2
    return norm * np.exp(-0.5 * (u1 * u1 + u2 * u2))


@dataclass(frozen=True)
class SourcePhysicalParams:
    """Laboratory-facing description of a pulsed parametric pair source.

    Attributes:
        pulse_duration: Pump intensity FWHM duration in ps.
        pump_angle: Tilt of the pump ridge in the frequency plane, radians.
        pm_bandwidth: Phase-matching intensity FWHM bandwidth in rad/ps.
        pm_angle: Tilt of the phase-matching ridge, radians.
    """

    pulse_duration: float
    pump_angle: float
    pm_bandwidth: float
    pm_angle: float

    def __post_init__(self):
        if not (math.isfinite(self.pulse_duration) and self.pulse_duration > 0.0):
            raise ValueError("pulse_duration must be positive and finite")
        if not (math.isfinite(self.pm_bandwidth) and self.pm_bandwidth > 0.0):
            raise ValueError("pm_bandwidth must be positive and finite")


def from_physical(params):
    """Build the double-Gaussian amplitude for measured source parameters.

    FWHM quantities are converted to Gaussian ridge widths through
    ``sigma = fwhm_rate / sqrt(ln 2)`` with ``fwhm_rate = 1/pulse_duration``
    for the pump and the stated bandwidth for phase matching.

    Args:
        params: ``SourcePhysicalParams`` with durations in ps, bandwidths in
            rad/ps, angles in radians.

    Returns:
        The corresponding ``DoubleGaussianJsa``.

    Raises:
        ValueError: If the two tilt angles coincide modulo pi.
    """
    sigma1 = (1.0 / params.pulse_duration) / SQRT_LN2
    sigma2 = params.pm_bandwidth / SQRT_LN2
    return DoubleGaussianJsa(sigma1, sigma2, params.pump_angle, params.pm_angle)


@dataclass(frozen=True)
class GaussianFilter:
    """Gaussian intensity transmission ``exp(-(w - center)**2 / (2*width**2))``.

    The amplitude response is the positive square root,
    ``exp(-(w - center)**2 / (4*width**2))``, with no spectral phase.

    Attributes:
        center: Passband center detuning, rad/ps.
        width: Standard deviation of the intensity transmission, rad/ps.
    """

    center: float
    width: float

    def __post_init__(self):
        if not (math.isfinite(self.width) and self.width > 0.0):
            raise ValueError("filter width must be positive and finite")
        if not math.isfinite(self.center):
            raise ValueError("filter center must be finite")
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "width", float(self.width))

    def transmission(self, omega):
        w = np.asarray(omega, dtype=float)
        z = (w - self.center) / self.width
        return np.exp(-0.5 * z * z)

    def amplitude(self, omega):
        w = np.asarray(omega, dtype=float)
        z = (w - self.center) / self.width
        return np.exp(-0.25 * z * z)


@dataclass(frozen=True)
class TabulatedFilter:
    """Measured intensity transmission on a frequency grid.

    Transmission between samples is linearly interpolated; outside the
    tabulated range it is zero.  The amplitude response is the positive
    square root of the interpolated transmission.

    Attributes:
        grid: Strictly increasing frequency samples, rad/ps.
        values: Transmission at each sample, within [0, 1].
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float, copy=True)
        values = np.array(self.values, dtype=float, copy=True)
        if grid.ndim != 1 or values.ndim != 1 or grid.size != values.size:
            raise ValueError("grid and values must be 1-D arrays of equal length")
        if grid.size < 2:
            raise ValueError("a tabulated filter needs at least two samples")
        if not np.all(np.diff(grid) > 0.0):
            raise ValueError("filter grid must be strictly increasing")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("filter samples must be finite")
        if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
            raise ValueError("transmission values must lie within [0, 1]")
        values = np.clip(values, 0.0, 1.0)
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def transmission(self, omega):
        w = np.asarray(omega, dtype=float)
        return np.interp(w, self.grid, self.values, left=0.0, right=0.0)

    def amplitude(self, omega):
        return np.sqrt(self.transmission(omega))


def filter_transmission(filt, omega):
    """Intensity transmission of a filter at the given frequencies."""
    if not isinstance(filt, (GaussianFilter, TabulatedFilter)):
        raise TypeError(f"not a spectral filter: {type(filt).__name__}")
    return filt.transmission(omega)


def filter_amplitude(filt, omega):
    """Amplitude (field) transmission of a filter at the given frequencies."""
    if not isinstance(filt, (GaussianFilter, TabulatedFilter)):
        raise TypeError(f"not a spectral filter: {type(filt).__name__}")
    return filt.amplitude(omega)


@dataclass(frozen=True)
class GriddedJsa:
    """Joint spectral amplitude sampled on a uniform rectangular grid.

    Attributes:
        signal_grid: Strictly increasing, uniformly spaced signal detunings.
        idler_grid: Strictly increasing, uniformly spaced idler detunings.
        amplitudes: Complex or real samples, shape
            ``(signal_grid.size, idler_grid.size)``.
    """

    signal_grid: np.ndarray
    idler_grid: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        signal = np.array(self.signal_grid, dtype=float, copy=True)
        idler = np.array(self.idler_grid, dtype=float, copy=True)
        amps = np.array(self.amplitudes, copy=True)
        if not np.iscomplexobj(amps):
            amps = amps.astype(float)
        for name, grid in (("signal_grid", signal), ("idler_grid", idler)):
            if grid.ndim != 1 or grid.size < 2:
                raise ValueError(f"{name} must be a 1-D array with >= 2 points")
            steps = np.diff(grid)
            if np.any(steps <= 0.0):
                raise ValueError(f"{name} must be strictly increasing")
            mean = steps.mean()
            if np.abs(steps - mean).max() > 1e-12 * abs(mean):
                raise ValueError(f"{name} must be uniformly spaced")
        if amps.shape != (signal.size, idler.size):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match grids "
                f"({signal.size}, {idler.size})"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        for arr in (signal, idler, amps):
            arr.setflags(write=False)
        object.__setattr__(self, "signal_grid", signal)
        object.__setattr__(self, "idler_grid", idler)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def signal_step(self):
        return float(self.signal_grid[1] - self.signal_grid[0])

    @property
    def idler_step(self):
        return float(self.idler_grid[1] - self.idler_grid[0])

    @property
    def cell_area(self):
        return self.signal_step * self.idler_step

    def norm(self):
        """Discrete value of the double integral of ``|Phi|**2``."""
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.cell_area)

    def normalize(self):
        """Return a copy rescaled so that ``norm()`` equals one.

        Raises:
            NumericalError: If the sampled amplitude is numerically zero.
        """
        n = self.norm()
        if n < 1e-300:
            raise NumericalError("cannot normalize a numerically zero amplitude")
        return GriddedJsa(self.signal_grid, self.idler_grid,
                          self.amplitudes / math.sqrt(n))


def discretize(jsa, half_extent=6.0, n_points=512):
    """Sample a double-Gaussian amplitude on a square uniform grid.

    Both axes span ``[-L, L]`` with ``L = half_extent * max(sigma1, sigma2)``.
    Before renormalizing, the discrete norm is compared with the exact unit
    norm: a deviation beyond 5% means the grid clips or under-resolves the
    amplitude, and a decomposition of such samples would be silently wrong,
    so the call fails instead.  A warning is issued when the grid step
    exceeds a quarter of the narrow transverse width of the amplitude.

    Args:
        jsa: ``DoubleGaussianJsa`` to sample.
        half_extent: Grid half-width in units of ``max(sigma1, sigma2)``;
            at least 4.
        n_points: Samples per axis; at least 64.

    Returns:
        A normalized ``GriddedJsa``.

    Raises:
        ValueError: If ``half_extent`` or ``n_points`` is below its minimum.
        GridCoverageError: If the discrete norm deviates from one by more
            than 5%.
    """
    if n_points < 64:
        raise ValueError(f"n_points must be at least 64, got {n_points}")
    if half_extent < 4.0:
        raise ValueError(f"half_extent must be at least 4, got {half_extent}")
    smax = max(jsa.sigma1, jsa.sigma2)
    limit = half_extent * smax
    grid = np.linspace(-limit, limit, int(n_points))
    step = grid[1] - grid[0]

    a, b, c = jsa.intensity_coefficients()
    lam_max = 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)
    thin_width = 1.0 / math.sqrt(lam_max)
    if step > thin_width / 4.0:
        warnings.warn(
            f"grid step {step:.4g} rad/ps exceeds a quarter of the narrow "
            f"transverse width {thin_width:.4g} rad/ps; increase n_points",
            stacklevel=2,
        )

    amps = eval_double_gaussian(jsa, grid[:, None], grid[None, :])
    raw_norm = float(np.sum(amps * amps) * step * step)
    if abs(raw_norm - 1.0) > 0.05:
        extent, points = recommended_grid(jsa)
        raise GridCoverageError(
            f"discrete norm {raw_norm:.4f} deviates from 1 by more than 5%; "
            f"the grid clips or under-resolves the amplitude "
            f"(try half_extent={extent:.1f}, n_points={points})"
        )
    return GriddedJsa(grid, grid, amps / math.sqrt(raw_norm))


def recommended_grid(jsa, herald_filter=None, points_per_width=4.2,
                     tail=6.5, n_min=256, n_max=4096):
    """Suggest discretization arguments that capture a given amplitude.

    The half-extent covers ``tail`` marginal standard deviations on the wider
    axis, and the step resolves the narrowest of the conditional widths and
    the transverse width with ``points_per_width`` samples.  When a Gaussian
    herald filter is supplied, the extent additionally covers the filtered
    idler mass (which an off-center passband can displace) and the step
    resolves the passband.

    Args:
        jsa: ``DoubleGaussianJsa`` whose grid is being sized.
        herald_filter: Optional ``GaussianFilter`` applied on the idler arm.
        points_per_width: Samples across the narrowest feature.
        tail: Marginal standard deviations of coverage per side.
        n_min: Lower bound on the suggested point count.
        n_max: Upper bound on the suggested point count.

    Returns:
        Tuple ``(half_extent, n_points)`` in the units accepted by
        ``discretize``.
    """
    s_sig, s_idl = jsa.marginal_widths()
    w_sig, w_idl = jsa.conditional_widths()
    a, b, c = jsa.intensity_coefficients()
    lam_max = 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)
    limit = tail * max(s_sig, s_idl)
    feature = min(w_sig, w_idl, 1.0 / math.sqrt(lam_max))
    if herald_filter is not None:
        if not isinstance(herald_filter, GaussianFilter):
            raise TypeError("only GaussianFilter is supported for grid sizing")
        p_jsa = 1.0 / s_idl**2
        p_fil = 1.0 / herald_filter.width**2
        center = herald_filter.center * p_fil / (p_jsa + p_fil)
        prod_width = 1.0 / math.sqrt(p_jsa + p_fil)
        limit = max(limit, abs(center) + 9.0 * prod_width)
        # Heralded-arm mass conditioned on the displaced idler window.
        limit = max(limit, abs(b / a) * abs(center) + 9.0 * w_sig)
        feature = min(feature, herald_filter.width)
    smax = max(jsa.sigma1, jsa.sigma2)
    half_extent = max(4.0, limit / smax)
    n_points = int(math.ceil(2.0 * half_extent * smax * points_per_width / feature)) + 1
    n_points = int(min(max(n_points, n_min), n_max))
    return half_extent, n_points


@dataclass(frozen=True)
class HomCurve:
    """Two-photon coincidence probability versus relative delay.

    Attributes:
        delays: Delay samples in ps.
        coincidences: Coincidence probability at each delay, within [0, 1].
    """

    delays: np.ndarray
    coincidences: np.ndarray

    def __post_init__(self):
        delays = np.array(self.delays, dtype=float, copy=True)
        coincidences = np.array(self.coincidences, dtype=float, copy=True)
        if delays.ndim != 1 or coincidences.shape != delays.shape:
            raise ValueError("delays and coincidences must be matching 1-D arrays")
        delays.setflags(write=False)
        coincidences.setflags(write=False)
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "coincidences", coincidences)

    def visibility(self, reflectivity=0.5, transmissivity=0.5):
        """Interference visibility against the distinguishable baseline.

        The baseline is ``1 - 2*R*T`` and the visibility is
        ``(baseline - minimum) / (baseline + minimum)``.
        """
        base = 1.0 - 2.0 * reflectivity * transmissivity
        dip = float(self.coincidences.min())
        if base + dip <= 0.0:
            raise NumericalError("degenerate curve: baseline plus minimum is zero")
        return (base - dip) / (base + dip)

    def half_depth_width(self, reflectivity=0.5, transmissivity=0.5):
        """Full width of the dip at half its depth, by linear interpolation.

        Requires strictly increasing delays that bracket the dip.

        Raises:
            ValueError: If the curve has no dip or does not cross the
                half-depth level on both sides.
        """
        if np.any(np.diff(self.delays) <= 0.0):
            raise ValueError("delays must be strictly increasing")
        base = 1.0 - 2.0 * reflectivity * transmissivity
        values = self.coincidences
        i_min = int(np.argmin(values))
        depth = base - values[i_min]
        if depth <= 0.0:
            raise ValueError("curve has no dip below the baseline")
        level = base - 0.5 * depth

        def crossing(side):
            if side == "left":
                idx = np.nonzero(values[: i_min + 1] > level)[0]
                if idx.size == 0:
                    raise ValueError("curve does not reach half depth left of the dip")
                i = idx[-1]
                x0, x1 = self.delays[i], self.delays[i + 1]
                y0, y1 = values[i], values[i + 1]
            else:
                idx = np.nonzero(values[i_min:] > level)[0]
                if idx.size == 0:
                    raise ValueError("curve does not reach half depth right of the dip")
                i = i_min + idx[0]
                x0, x1 = self.delays[i - 1], self.delays[i]
                y0, y1 = values[i - 1], values[i]
            return x0 + (level - y0) * (x1 - x0) / (y1 - y0)

        return float(crossing("right") - crossing("left"))


def jsa_from_dict(config):
    """Build a double-Gaussian amplitude from a configuration mapping.

    Two key sets are accepted: direct ridge parameters ``sigma1``,
    ``sigma2``, ``theta1``, ``theta2``, or laboratory parameters
    ``pulse_duration``, ``pump_angle``, ``pm_bandwidth``, ``pm_angle``.
    Angles may be numbers or strings such as ``"pi/4"``.

    Raises:
        ValueError: If the mapping matches neither key set or has extras.
    """
    direct = {"sigma1", "sigma2", "theta1", "theta2"}
    physical = {"pulse_duration", "pump_angle", "pm_bandwidth", "pm_angle"}
    keys = set(config)
    if keys == direct:
        return DoubleGaussianJsa(
            sigma1=float(config["sigma1"]),
            sigma2=float(config["sigma2"]),
            theta1=parse_angle(config["theta1"]),
            theta2=parse_angle(config["theta2"]),
        )
    if keys == physical:
        params = SourcePhysicalParams(
            pulse_duration=float(config["pulse_duration"]),
            pump_angle=parse_angle(config["pump_angle"]),
            pm_bandwidth=float(config["pm_bandwidth"]),
            pm_angle=parse_angle(config["pm_angle"]),
        )
        return from_physical(params)
    raise ValueError(
        f"jsa keys {sorted(keys)} match neither {sorted(direct)} nor "
        f"{sorted(physical)}"
    )


def filter_from_dict(config):
    """Build a spectral filter from a configuration mapping.

    Accepts either ``{"center", "width"}`` for a Gaussian passband or
    ``{"grid", "transmission"}`` for a tabulated one.

    Raises:
        ValueError: If the mapping matches neither key set.
    """
    keys = set(config)
    if keys == {"center", "width"}:
        return GaussianFilter(center=float(config["center"]),
                              width=float(config["width"]))
    if keys == {"grid", "transmission"}:
        return TabulatedFilter(grid=config["grid"], values=config["transmission"])
    raise ValueError(
        f"filter keys {sorted(keys)} match neither ['center', 'width'] nor "
        f"['grid', 'transmission']"
    )
