"""Joint spectral amplitudes and spectral filters for photon-pair sources.

Frequencies throughout are detunings from the signal and idler carriers in
rad/ps, so delays and pulse durations are in ps.  A joint spectral amplitude
``Phi(w, w')`` takes the signal (heralded) frequency as its first argument
and the idler (heralding) frequency as its second, and is normalized so that
``|Phi|**2`` integrates to one over the plane.
"""

from __future__ import annotations

import copy
import math
import re
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

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
    "HeraldingReport",
    "eval_double_gaussian",
    "discretize",
    "recommended_grid",
    "from_physical",
    "parse_angle",
    "jsa_from_dict",
    "filter_from_dict",
    "visibility",
]

SQRT_LN2 = math.sqrt(math.log(2.0))

# Antiparallel tilt tolerance: below this |sin(theta1 - theta2)| the two
# Gaussian ridges are parallel and the amplitude is not normalizable.
MIN_ANGLE_SINE = 1e-9

# The ridge gate.  Subtracted, a*c - b**2 loses about eps*a*c: at or below
# this share of a*c (K above about 1.7e7) the published (a, b, c) are a
# rank-one form to rounding.  The formulas read the exact det instead.
_DET_FLOOR = 16.0 * np.finfo(float).eps

# Accepted widths, rad/ps.  The intensity determinant a*c - b**2 scales as
# width**-4; (tiny / eps)**(1/4) = 1.0e-73 and (max * eps)**(1/4) = 1.4e73
# keep it, and its products with filter variances and squared centres, a
# factor 1/eps inside the normal doubles.  Rounded inward to powers of ten.
_WIDTH_RANGE = (1e-72, 1e72)


class NumericalError(RuntimeError):
    """A computation could not produce a trustworthy numerical result."""


class ConvergenceError(NumericalError):
    """Refining the discretization changed the result beyond tolerance."""


class GridCoverageError(NumericalError):
    """A frequency grid clips or under-resolves the amplitude placed on it."""


# Minimum heralding probability considered numerically meaningful, and how
# far a figure may round outside [0, 1] before it is refused.
_SUCCESS_FLOOR = 1e-12
_UNIT_SLACK = 1e-6


def _clip_unit(value):
    if not -_UNIT_SLACK <= value <= 1.0 + _UNIT_SLACK:
        raise NumericalError(f"result {value} lies outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def _require_success(success, what="heralding probability"):
    """Return ``success``; raise, naming it ``what``, below the floor or NaN."""
    if not success >= _SUCCESS_FLOOR:
        raise NumericalError(
            f"{what} evaluated to {success}, not at least {_SUCCESS_FLOOR}; "
            "the filtered state is numerically empty or undefined"
        )
    return success


def _figures(purity, success, what="heralding probability"):
    """Floor ``success`` (named ``what``), then clip both figures to [0, 1]."""
    success = _require_success(float(success), what)
    return _clip_unit(float(purity)), _clip_unit(success)


def _unit_entries(name, values, slack=0.0, error=ValueError):
    """``values`` clipped into [0, 1]; raise ``error`` on NaN or beyond ``slack``."""
    if not np.all((values >= -slack) & (values <= 1.0 + slack)):
        raise error(f"{name} must lie within [0, 1]")
    return np.clip(values, 0.0, 1.0)


def _bounded(name, value, low, high):
    """``value`` if in ``[low, high]``; a float with no ``high`` also finite.

    One message form: "must lie in [low, high]", or with no ``high`` "must
    be [finite and ]at least low", "non-negative" for a low of 0.
    """
    if high is not None:
        if not low <= value <= high:
            raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    elif not low <= value < math.inf:
        finite = "finite and " if isinstance(value, float) else ""
        least = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {finite}{least}, got {value}")
    return value


def _real(name, value, positive=False, low=None, high=None):
    """``value`` as a finite float; refuses bool and str.

    With ``positive`` the value must exceed zero; with ``low`` it must lie
    in ``[low, high]`` (``_bounded``).
    """
    if isinstance(value, (bool, np.bool_, str)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if low is not None:
        return _bounded(name, value, low, high)
    if not math.isfinite(value) or (positive and value <= 0.0):
        kind = "positive and finite" if positive else "finite"
        raise ValueError(f"{name} must be {kind}, got {value}")
    return value


def _width(name, value):
    """``value`` as a positive finite float within ``_WIDTH_RANGE``.

    The one width rule: zero, negative and non-finite widths keep
    ``_real``'s messages, and a width outside the range, where the
    Gaussian figures lose their digits or overflow, is refused after them.
    """
    value = _real(name, value, positive=True)
    low, high = _WIDTH_RANGE
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    return value


def _integer(name, value, low=None, high=None):
    """``value`` as an int, bounded as in ``_real``; refuses bool and non-ints."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    return value if low is None else _bounded(name, value, low, high)


def _numbers(name, values):
    """``values`` as a new float or complex array; no bool or str entries."""
    # a numeric array holds neither; np.asarray([1.0, True]) hides its bool
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iufc"):
        for value in np.asarray(values, dtype=object).flat:
            if isinstance(value, (bool, np.bool_, str)):
                raise ValueError(f"{name} entry must be a number, got {value!r}")
    return np.array(values, dtype=None if np.iscomplexobj(values) else float)


def _reals(name, values):
    """``values`` as a new float array; refuses bool and str entries."""
    return _numbers(name, values).astype(float, copy=False)


def _axis(name, values, positive=False):
    """``values`` as a non-empty 1-D array of finite floats, positive if asked.

    Entries go through ``_reals``; every failure raises ``ValueError``.
    """
    axis = _reals(name, values)
    if axis.ndim != 1 or axis.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D array, got shape "
                         f"{axis.shape}")
    valid = np.isfinite(axis)
    if positive:
        valid &= axis > 0.0
    if not valid.all():
        kind = "positive and finite" if positive else "finite"
        raise ValueError(f"{name} must be {kind}")
    return axis


def _increasing_axis(name, values):
    """An ``_axis`` of at least two strictly increasing points."""
    axis = _axis(name, values)
    if axis.size < 2:
        raise ValueError(f"{name} must be a 1-D array with >= 2 points")
    if np.any(np.diff(axis) <= 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    return axis


def _uniform_axis(name, values):
    """An ``_increasing_axis`` of evenly spaced points."""
    axis = _increasing_axis(name, values)
    steps = np.diff(axis)
    mean = steps.mean()
    if np.abs(steps - mean).max() > 1e-12 * abs(mean):
        raise ValueError(f"{name} must be uniformly spaced")
    return axis


def _side(side):
    """``side`` if it names an arm, ``"idler"`` or ``"signal"``."""
    if side not in ("idler", "signal"):
        raise ValueError(f"side must be 'idler' or 'signal', got {side!r}")
    return side


def _freeze(record, **arrays):
    """Set each array, made read-only, as a field of the frozen ``record``."""
    for name, array in arrays.items():
        array.setflags(write=False)
        object.__setattr__(record, name, array)


# Samples below this modulus are zeroed before a product: its square is the
# smallest normal double, so no product of two kept samples underflows into
# subnormal arithmetic, which slows BLAS about twofold.
_UNDERFLOW_FLOOR = math.sqrt(np.finfo(float).tiny)

# Rows per block of the band-aware Gram product.
_GRAM_BLOCK = 128


def _flush_underflow(b):
    """Zero, in place, the entries of ``b`` with modulus below the floor.

    The floor is ``_UNDERFLOW_FLOOR``, the one sample floor of the package.
    A zeroed sample moves any product sum by less than that floor times the
    largest sample, which is below 1e-150 for normalized data.  Returns
    ``b``.
    """
    np.copyto(b, 0.0, where=np.abs(b) < _UNDERFLOW_FLOOR)
    return b


def _gram_blocks(pieces):
    """Yield the block products ``(rows_i, rows_j, B_i B_j^H)`` of ``B B^H``.

    ``B`` is given as row pieces, and its products are band-aware and
    underflow-free.  Each piece ``(start, offset, block)`` holds, as a
    writable 2-D array, the rows ``start:start + len(block)`` of ``B`` at
    the columns from ``offset``; ``B`` is zero outside its pieces, and no
    two pieces share a row.  A dense ``B`` is the one piece ``(0, 0, B)``.
    Pieces are flushed by ``_flush_underflow`` in place.  Their rows are
    split into blocks of ``_GRAM_BLOCK``, each trimmed to its nonzero column
    span, and each pair ``i <= j`` of blocks is contracted only over the
    overlap of their spans, so a tilted ridge costs the work inside its
    band; ``rows_i`` and ``rows_j`` are the pair's row slices, and the
    blocks ``j > i`` are the conjugate transposes of those given.  Each
    product is a new array of at most ``_GRAM_BLOCK`` rows and columns.
    Pieces at multiples of ``_GRAM_BLOCK`` give every state on one axis the
    same rows.
    """
    blocks, spans = [], []
    for start, offset, piece in pieces:
        for r in range(0, len(piece), _GRAM_BLOCK):
            block = piece[r:r + _GRAM_BLOCK]
            # Flushed block by block, so the span is read while it is in cache.
            cols = np.flatnonzero(_flush_underflow(block).any(axis=0))
            if cols.size:
                lo, hi = cols[0], cols[-1] + 1
                blocks.append(block[:, lo:hi])
                spans.append((start + r, len(block), offset + lo, offset + hi))
    for i, (start_i, n_i, lo_i, hi_i) in enumerate(spans):
        for j in range(i, len(spans)):
            start_j, n_j, lo_j, hi_j = spans[j]
            lo, hi = max(lo_i, lo_j), min(hi_i, hi_j)
            if lo < hi:
                block = blocks[i][:, lo - lo_i:hi - lo_i]
                other = block if i == j else blocks[j][:, lo - lo_j:hi - lo_j]
                yield (slice(start_i, start_i + n_i),
                       slice(start_j, start_j + n_j), block @ other.conj().T)


def _squared_modulus(state):
    """``|M|**2`` entry by entry: ``m * m`` if real, ``re**2 + im**2`` if not."""
    if np.iscomplexobj(state):
        return state.real**2 + state.imag**2
    return state * state


def _purity_success(pairs, weights):
    """``(purity, success)`` of an unnormalized state ``M`` under weights ``w``.

    ``M`` is Hermitian and comes as block pairs ``(rows_i, rows_j, M_ij)``
    over pairs ``i <= j`` of row slices, as ``_gram_blocks`` yields them;
    a whole state is the one pair ``(rows, rows, M)``.  A pair may carry
    ``|M_ij|**2`` as a fourth entry, for a caller that keeps ``M_ij`` or
    reduces it many times.  Otherwise ``M_ij`` is the reduction's own: a
    real block is squared in place, to the same bits, so no second array of
    its size is allocated.  ``w`` is one row of diagonal weights or a stack
    of rows, each reduced alone: ``success = w @ diag(M)`` over the
    diagonal pairs, ``purity = w @ |M|**2 @ w / success**2``, where each
    off-diagonal pair counts twice.  The sums are numpy floats, so an empty
    state or row gives a non-finite purity without a warning.
    """
    success = np.zeros(weights.shape[:-1])
    numerator = np.zeros(weights.shape[:-1])
    for rows_i, rows_j, block, *kept in pairs:
        # Each row is a 1 x n matrix, so it takes the same vector-matrix
        # products alone as in any stack.
        left = weights[..., None, rows_i]
        diagonal = rows_i == rows_j
        if diagonal:
            success = success + (left @ np.real(np.diagonal(block)))[..., 0]
        if kept:
            (squared,) = kept
        elif np.iscomplexobj(block):
            squared = _squared_modulus(block)
        else:
            squared = np.multiply(block, block, out=block)
        term = (left @ squared @ weights[..., rows_j, None])[..., 0, 0]
        numerator = numerator + (term if diagonal else 2.0 * term)
    with np.errstate(divide="ignore", invalid="ignore"):
        return numerator / success**2, success


def _splitter_product(reflectivity):
    """``R*T`` of a lossless beam splitter, ``T = 1 - R``; R must lie in [0, 1]."""
    reflectivity = _real("reflectivity", reflectivity, low=0, high=1)
    return reflectivity * (1.0 - reflectivity)


def visibility(purity, reflectivity=0.5):
    """Interference visibility of two equal sources of given purity.

    ``V = R*T*purity / (1 - 2*R*T - R*T*purity)`` with ``T = 1 - R``; on a
    balanced splitter this reduces to ``purity / (2 - purity)``, bit for
    bit.  ``purity`` may be an array; a scalar purity gives a float.
    """
    p = _unit_entries("purity", _reals("purity", purity))
    rt = _splitter_product(reflectivity)
    v = rt * p / (1.0 - 2.0 * rt - rt * p)
    return float(v) if v.ndim == 0 else v


def _delay_array(delays):
    """Delays as an ``_axis`` of finite floats; a 0-d input is one delay."""
    return _axis("delay", delays if np.ndim(delays) else np.reshape(delays, 1))


def _check_delay_step(delays, step):
    """Raise ``ConvergenceError`` if a signal step cannot resolve a delay."""
    worst = float(np.abs(delays).max())
    if worst * step > math.pi / 3.0:
        raise ConvergenceError(
            f"delay {worst:.3g} ps cannot be resolved by a signal grid step "
            f"of {step:.3g} rad/ps"
        )


def _arm_overlaps(x, wx, states, delays):
    """Normalized two-arm overlap at each delay from unnormalized heralded states.

    ``states`` holds one state per arm, or one state that both arms share.
    Each state ``M(w, w~)`` on signal nodes ``x`` with weights ``wx`` comes
    as the block pairs of ``_gram_blocks``, and its success is summed over
    the diagonal pairs.  ``M_x * conj(M_y)`` is formed only on blocks both
    states hold, and all delays come from one product of each with the
    phase matrix ``u = wx*exp(i*tau*x)``; the sum is real, so an
    off-diagonal pair counts twice.
    """
    pairs_x, pairs_y = states[0], states[-1]
    successes = [sum(float(wx[rows_i] @ np.real(np.diagonal(block)))
                     for rows_i, rows_j, block in pairs if rows_i == rows_j)
                 for pairs in states]
    success_x, success_y = successes[0], successes[-1]
    _require_success(min(success_x, success_y),
                     "interferometer arm heralding probability")
    u = np.zeros((delays.size, x.size), dtype=complex)
    np.multiply.outer(delays, x, out=u.imag)
    np.exp(u, out=u)
    u *= wx
    held = {(i.start, j.start): m_y for i, j, m_y in pairs_y}
    overlap = np.zeros(delays.size)
    for rows_i, rows_j, m_x in pairs_x:
        m_y = held.get((rows_i.start, rows_j.start))
        if m_y is not None:
            terms = u[:, rows_i] @ (m_x * m_y.conj())
            # conj(t) u has the real part of t conj(u), with no copy of u
            np.conjugate(terms, out=terms)
            terms *= u[:, rows_j]
            sums = terms.real.sum(axis=1)
            overlap += sums if rows_i == rows_j else 2.0 * sums
    return overlap / (success_x * success_y)


def _dip(delays, reflectivity, overlap):
    """``HomCurve`` of ``1 - 2*R*T*(1 + overlap(delays))``: every dip route.

    The splitter, then the delays, are checked before ``overlap`` runs on
    the delay array, and its samples are clipped as a figure is.
    """
    rt = _splitter_product(reflectivity)
    delays = _delay_array(delays)
    samples = _unit_entries("dip coincidences",
                            1.0 - 2.0 * rt * (1.0 + overlap(delays)),
                            _UNIT_SLACK, NumericalError)
    return HomCurve(delays, samples, reflectivity)


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
    match = re.fullmatch(r"([+-]?)(\d+\.?\d*|\.\d+)?\*?pi(?:/(\d+\.?\d*))?",
                         text)
    if match is None:
        raise ValueError(f"cannot interpret angle {value!r}")
    sign = -1.0 if match.group(1) == "-" else 1.0
    coeff = float(match.group(2)) if match.group(2) else 1.0
    denom = float(match.group(3)) if match.group(3) else 1.0
    if denom == 0.0:
        raise ValueError(f"zero denominator in angle {value!r}")
    return sign * coeff * math.pi / denom


# Margin in the exponent of the live band (a factor exp(-1/2) in amplitude,
# far above the rounding of the quadratic form and of exp), and the delay
# cutoff over the signal's conditional width (interference below exp(-49)).
_BAND_MARGIN = 1.0
_DECAY_CUTOFF = 7.0


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
            object.__setattr__(self, name, _width(name, getattr(self, name)))
        for name in ("theta1", "theta2"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.angle_sine() < MIN_ANGLE_SINE:
            raise ValueError(
                "theta1 and theta2 coincide modulo pi; the two ridges are "
                "parallel and the amplitude is not normalizable"
            )
        a, b, c, _ = self.intensity_coefficients()
        if a * c - b * b <= _DET_FLOOR * (a * c):
            raise ValueError(
                "theta1 and theta2 are too nearly parallel: a*c - b**2 "
                "cancels to rounding (Schmidt number above about 1.7e7)"
            )

    def angle_sine(self):
        """Return ``|sin(theta1 - theta2)|``, the ridge opening factor."""
        return abs(math.sin(self.theta1 - self.theta2))

    def intensity_coefficients(self):
        """Quadratic-form coefficients of the joint intensity.

        Returns:
            Tuple ``(a, b, c, det)`` such that ``|Phi(w, w')|**2`` is
            proportional to ``exp(-(a*w**2 + 2*b*w*w' + c*w'**2))``, with
            ``det = a*c - b**2`` formed exactly, without that subtraction,
            as ``(sin(theta1 - theta2) / (sigma1*sigma2))**2``.
        """
        return self._coefficients

    @cached_property
    def _coefficients(self):
        # Computed once per amplitude: the sweeps make two closed-form
        # calls per grid point on each row's amplitude.
        s1, c1 = math.sin(self.theta1), math.cos(self.theta1)
        s2, c2 = math.sin(self.theta2), math.cos(self.theta2)
        v1 = 1.0 / self.sigma1**2
        v2 = 1.0 / self.sigma2**2
        a = s1 * s1 * v1 + s2 * s2 * v2
        b = s1 * c1 * v1 + s2 * c2 * v2
        c = c1 * c1 * v1 + c2 * c2 * v2
        det = (self.angle_sine() / (self.sigma1 * self.sigma2)) ** 2
        return a, b, c, det

    def marginal_widths(self):
        """Standard deviations of the signal and idler intensity marginals."""
        a, _, c, det = self.intensity_coefficients()
        return math.sqrt(c / (2.0 * det)), math.sqrt(a / (2.0 * det))

    def conditional_widths(self):
        """Intensity widths of one frequency at fixed value of the other.

        Returns:
            Tuple ``(w_signal, w_idler)``: the standard deviation of the
            signal frequency at fixed idler frequency, and vice versa.  These
            set the fine structure an integration grid has to resolve.
        """
        a, _, c, _ = self.intensity_coefficients()
        return 1.0 / math.sqrt(2.0 * a), 1.0 / math.sqrt(2.0 * c)

    def norm(self):
        """Exactly 1.0: the prefactor normalizes the amplitude."""
        return 1.0

    def _idler_window(self, herald, tail):
        """Window and feature size for the idler (heralding) axis."""
        _, s_idl = self.marginal_widths()
        _, w_idl = self.conditional_widths()
        if isinstance(herald, GaussianFilter):
            # Marginal times passband; a cut to it moves off-centre ones.
            center, width = _filtered_idler(self, herald)
            return _restrict(center - tail * width, center + tail * width,
                             min(w_idl, herald.width), None, tail, s_idl)
        return _restrict(-tail * s_idl, tail * s_idl, w_idl, herald, tail,
                         s_idl)

    def _signal_window(self, idler_window, heralded, tail):
        """Window and feature size for the signal axis, given the idler's."""
        a, b, _, _ = self.intensity_coefficients()
        s_sig, _ = self.marginal_widths()
        w_sig, _ = self.conditional_widths()
        slope = -b / a
        ends = (slope * idler_window[0], slope * idler_window[1])
        lo = max(min(ends) - tail * w_sig, -tail * s_sig)
        hi = min(max(ends) + tail * w_sig, tail * s_sig)
        return _restrict(lo, hi, w_sig, heralded, tail, s_sig)

    def axes(self, heralds, heralded, spec, max_delay=None):
        """Signal nodes and weights, and an idler ``(nodes, weights)`` per
        herald; each axis's weights include its filter's transmission.

        ``spec.axis`` places nodes on windows that track each integrand's
        Gaussian mass; with ``max_delay`` (ps) the signal axis gains the
        nodes the interference phase needs up to that delay.
        """
        tail = spec.half_extent
        windows = [self._idler_window(h, tail) for h in heralds]
        idler_axes = [spec.axis(*window, h)
                      for h, window in zip(heralds, windows)]
        hull = (min(w[0] for w in windows), max(w[1] for w in windows))
        lo, hi, feature = self._signal_window(hull, heralded, tail)
        osc = 0
        if max_delay is not None:
            osc = int(math.ceil(0.4 * max_delay * (hi - lo))) + 16
        x, wx = spec.axis(lo, hi, feature, heralded, osc, signal=True)
        return x, wx, idler_axes

    def row_pieces(self, x, y, root):
        """Row pieces of ``B = Phi(x, y) * root`` for ``_gram_blocks``.

        ``|B|`` can reach the underflow floor only inside the ellipse
        ``a x^2 + 2 b x y + c y^2 <= L``, ``L = 2 ln(Phi(0, 0) max(root) /
        floor)``, so each block of ``_GRAM_BLOCK`` signal rows is evaluated
        only over the hull of its rows' idler intervals, widened by
        ``_BAND_MARGIN`` in ``L`` and one node on each side against rounding.
        """
        ny = y.size
        _, b, c, det = self.intensity_coefficients()
        peak = float(eval_double_gaussian(self, 0.0, 0.0) * root.max())
        reach = (2.0 * math.log(peak / _UNDERFLOW_FLOOR) + _BAND_MARGIN
                 if peak > 0.0 else -math.inf)
        disc = c * reach - det * x * x
        live = disc >= 0.0
        half = np.sqrt(np.where(live, disc, 0.0))
        lo = np.searchsorted(y, (-b * x - half) / c) - 1
        hi = np.searchsorted(y, (-b * x + half) / c, side="right") + 1
        starts = range(0, x.size, _GRAM_BLOCK)
        lo = np.minimum.reduceat(np.where(live, np.maximum(lo, 0), ny), starts)
        hi = np.maximum.reduceat(np.where(live, np.minimum(hi, ny), 0), starts)
        pieces = []
        for start, span_lo, span_hi in zip(starts, lo.tolist(), hi.tolist()):
            if span_lo < span_hi:
                block = eval_double_gaussian(
                    self, x[start:start + _GRAM_BLOCK, None],
                    y[None, span_lo:span_hi])
                block *= root[span_lo:span_hi]
                pieces.append((start, span_lo, block))
        return pieces

    def resolved(self, delays):
        """Mask of the ``delays`` to integrate, ``|tau| <= _DECAY_CUTOFF /
        w_sig``; beyond, quadrature of the decayed envelope adds only noise."""
        w_sig, _ = self.conditional_widths()
        return np.abs(delays) <= _DECAY_CUTOFF / w_sig


def eval_double_gaussian(jsa, omega_signal, omega_idler):
    """Evaluate a double-Gaussian amplitude at the given frequencies.

    Args:
        jsa: The ``DoubleGaussianJsa`` to sample.
        omega_signal: Signal detuning(s), rad/ps.  Broadcast against
            ``omega_idler``.
        omega_idler: Idler detuning(s), rad/ps.

    Returns:
        Array of real amplitude values, shaped by broadcasting.

    The exponent is ``log N - (sqrt(a/2) (w + (b/a) w'))**2 - det w'**2 /
    (2a)``, ``det = (sin(theta1 - theta2) / (sigma1 sigma2))**2``, in four
    grid passes; its terms cannot cancel, as ``a w**2 + 2b w w' + c w'**2``
    does on correlated sources (7.5e-12 relative at K = 30).
    """
    _require_types(jsa, what="sampling is defined")
    ws = np.asarray(omega_signal, dtype=float)
    wi = np.asarray(omega_idler, dtype=float)
    a, b, _, det = jsa.intensity_coefficients()
    root = math.sqrt(0.5 * a)
    log_norm = 0.5 * math.log(math.sqrt(det) / math.pi)
    u = ws * root + wi * (b / a * root)
    out = u if np.ndim(u) else None  # a scalar stays a scalar
    u = np.multiply(u, u, out=out)
    u = np.subtract(log_norm - det / (2.0 * a) * wi * wi, u, out=out)
    return np.exp(u, out=out)


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
        for name in ("pulse_duration", "pm_bandwidth"):
            object.__setattr__(self, name, _real(
                name, getattr(self, name), positive=True))


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

    Its integration rules: no ``knots``, the passband ``center -+ tail*width``
    as ``window(tail)``, feature ``width``, and cell-centre ``cell_weights``.

    Attributes:
        center: Passband center detuning, rad/ps.
        width: Standard deviation of the intensity transmission, rad/ps.
    """

    center: float
    width: float
    knots = ()

    def __post_init__(self):
        object.__setattr__(self, "width", _width("filter width", self.width))
        object.__setattr__(self, "center",
                           _real("filter center", self.center))

    def transmission(self, omega):
        w = np.asarray(omega, dtype=float)
        z = (w - self.center) / self.width
        return np.exp(-0.5 * z * z)

    def window(self, tail):
        return (self.center - tail * self.width,
                self.center + tail * self.width, self.width)

    def cell_weights(self, grid, step):
        return self.transmission(grid) * step


@dataclass(frozen=True, eq=False)
class TabulatedFilter:
    """Measured intensity transmission on a frequency grid.

    Transmission is linearly interpolated between the ``knots`` (the grid)
    and zero outside them.  ``window(tail)`` is that range, with no feature
    size, and ``cell_weights`` the exact cell integrals: differences of the
    piecewise-quadratic antiderivative at the cell edges.

    Attributes:
        grid: Strictly increasing frequency samples, rad/ps.
        values: Transmission at each sample, within [0, 1].
    """

    grid: np.ndarray
    values: np.ndarray
    knots = property(lambda self: self.grid)

    def __post_init__(self):
        grid = _increasing_axis("filter grid", self.grid)
        values = _axis("filter transmission", self.values)
        if grid.size != values.size:
            raise ValueError("grid and values must be 1-D arrays of equal length")
        _freeze(self, grid=grid,
                values=_unit_entries("transmission values", values, 1e-12))

    def transmission(self, omega):
        w = np.asarray(omega, dtype=float)
        return np.interp(w, self.grid, self.values, left=0.0, right=0.0)

    def window(self, tail):
        return float(self.grid[0]), float(self.grid[-1]), math.inf

    def cell_weights(self, grid, step):
        knots, t = self.grid, self.values
        area = np.append(0.0, np.cumsum(0.5 * (t[1:] + t[:-1]) * np.diff(knots)))
        edges = np.clip(np.append(grid - 0.5 * step, grid[-1] + 0.5 * step),
                        knots[0], knots[-1])
        k = np.minimum(np.searchsorted(knots, edges, "right"), knots.size - 1) - 1
        d = edges - knots[k]
        slope = (t[k + 1] - t[k]) / (knots[k + 1] - knots[k])
        return np.diff(area[k] + d * (t[k] + 0.5 * slope * d))


def _gate(value, kinds, what):
    """``value`` itself, or ``TypeError`` "not {what}: <type>" unless it is
    one of ``kinds``."""
    if not isinstance(value, kinds):
        raise TypeError(f"not {what}: {type(value).__name__}")
    return value


def _spectral_filter(filt):
    """``filt`` itself, or ``TypeError`` if it is not a filter."""
    return _gate(filt, (GaussianFilter, TabulatedFilter), "a spectral filter")


def _closed_forms(jsa, filt=None):
    """The one rule of the Gaussian closed forms: whether they cover ``jsa``
    and ``filt``, a double-Gaussian amplitude with a Gaussian filter or none."""
    return isinstance(jsa, DoubleGaussianJsa) and (
        filt is None or isinstance(filt, GaussianFilter))


def _require_types(jsa, filt=None, what="closed forms exist"):
    """The Gaussian types' one gate: ``TypeError`` unless ``_closed_forms``;
    ``what`` opens its message, the closed forms' need or sampling's."""
    if not _closed_forms(jsa, filt):
        kind = ("Gaussian filters" if _closed_forms(jsa)
                else "double-Gaussian amplitudes")
        raise TypeError(f"{what} only for {kind}")


def _cell_weights(filt, grid, step):
    """Weights of the cells of a uniform ``grid``: ``step``, or ``filt``'s."""
    return (np.full(grid.size, step) if filt is None
            else _spectral_filter(filt).cell_weights(grid, step))


def _grid_step(grid):
    """The step of a uniform ``grid``, as a float."""
    return float(grid[1] - grid[0])


class _GridSteps:
    """Steps and cell area of a record's uniform signal and idler grids."""

    signal_step = property(lambda self: _grid_step(self.signal_grid))
    idler_step = property(lambda self: _grid_step(self.idler_grid))
    cell_area = property(lambda self: self.signal_step * self.idler_step)


@dataclass(frozen=True, eq=False)
class GriddedJsa(_GridSteps):
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
        signal = _uniform_axis("signal_grid", self.signal_grid)
        idler = _uniform_axis("idler_grid", self.idler_grid)
        amps = _numbers("amplitudes", self.amplitudes)
        if amps.shape != (signal.size, idler.size):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match grids "
                f"({signal.size}, {idler.size})"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        _freeze(self, signal_grid=signal, idler_grid=idler, amplitudes=amps)

    def axes(self, heralds, heralded, spec, max_delay=None):
        """The grids as ``DoubleGaussianJsa.axes``, with ``_cell_weights``;
        ``spec`` is unused, and the signal step must resolve ``max_delay``."""
        if max_delay is not None:
            _check_delay_step(max_delay, self.signal_step)
        x, y = self.signal_grid, self.idler_grid
        return x, _cell_weights(heralded, x, self.signal_step), [
            (y, _cell_weights(h, y, self.idler_step)) for h in heralds]

    def row_pieces(self, x, y, root):
        """The grid as one row piece of ``B = Phi * root``, a fresh array."""
        return [(0, 0, self.amplitudes * root)]

    def resolved(self, delays):
        """Every delay: the grid integrates each, or ``axes`` refuses it."""
        return np.ones(delays.shape, dtype=bool)

    def norm(self):
        """Discrete value of the double integral of ``|Phi|**2``."""
        return float(np.sum(_squared_modulus(self.amplitudes)) * self.cell_area)

    def normalize(self):
        """Return a copy, sharing the grids, rescaled so ``norm()`` is one.

        Raises:
            NumericalError: If the sampled amplitude is numerically zero.
        """
        n = self.norm()
        if n < 1e-300:
            raise NumericalError("cannot normalize a numerically zero amplitude")
        out = copy.copy(self)
        _freeze(out, amplitudes=self.amplitudes / math.sqrt(n))
        return out


def _amplitude(jsa):
    """``jsa`` itself, or ``TypeError`` if it is not an amplitude."""
    return _gate(jsa, (DoubleGaussianJsa, GriddedJsa),
                 "a joint spectral amplitude")


def _require_unit_norm(jsa):
    """Raise ``ValueError`` if an amplitude's norm is not one within 1e-6."""
    norm = _amplitude(jsa).norm()
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"amplitude norm is {norm:.6f}; normalize() it first")


def _thin_width(jsa):
    """``1/sqrt(lam_max)``, lam_max the top eigenvalue of ``[[a, b], [b, c]]``."""
    a, b, c, _ = jsa.intensity_coefficients()
    lam_max = 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)
    return 1.0 / math.sqrt(lam_max)


def _filtered_idler(jsa, herald_filter):
    """Center and s.d. of the idler marginal times a Gaussian transmission."""
    _, s_idl = jsa.marginal_widths()
    p_jsa = 1.0 / s_idl**2
    p_fil = 1.0 / herald_filter.width**2
    center = herald_filter.center * p_fil / (p_jsa + p_fil)
    return center, 1.0 / math.sqrt(p_jsa + p_fil)


def _restrict(lo, hi, feature, filt, tail, scale):
    """Window and feature size cut to ``filt``; a vanishing window is widened."""
    if filt is not None:
        f_lo, f_hi, f_feature = _spectral_filter(filt).window(tail)
        lo, hi, feature = max(lo, f_lo), min(hi, f_hi), min(feature, f_feature)
    if hi - lo < 1e-12 * scale:
        mid = 0.5 * (lo + hi)
        lo, hi = mid - 1e-12 * scale, mid + 1e-12 * scale
    return lo, hi, feature


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
            finite and at least 4.
        n_points: Samples per axis; an integer, at least 64.

    Returns:
        A normalized ``GriddedJsa``.

    Raises:
        ValueError: If ``half_extent`` is not a finite number or
            ``n_points`` not an integer, or either is below its minimum.
        GridCoverageError: If the discrete norm deviates from one by more
            than 5%.
    """
    _require_types(jsa, what="sampling is defined")
    n_points = _integer("n_points", n_points, low=64)
    half_extent = _real("half_extent", half_extent, low=4)
    smax = max(jsa.sigma1, jsa.sigma2)
    limit = half_extent * smax
    grid = np.linspace(-limit, limit, n_points)
    step = _grid_step(grid)

    thin_width = _thin_width(jsa)
    if step > thin_width / 4.0:
        warnings.warn(
            f"grid step {step:.4g} rad/ps exceeds a quarter of the narrow "
            f"transverse width {thin_width:.4g} rad/ps; increase n_points",
            stacklevel=2,
        )

    amps = eval_double_gaussian(jsa, grid[:, None], grid[None, :])
    raw_norm = float(np.sum(_squared_modulus(amps)) * step * step)
    if abs(raw_norm - 1.0) > 0.05:
        extent, points = recommended_grid(jsa)
        raise GridCoverageError(
            f"discrete norm {raw_norm:.4f} deviates from 1 by more than 5%; "
            f"the grid clips or under-resolves the amplitude "
            f"(try half_extent={extent:.1f}, n_points={points})"
        )
    amps /= math.sqrt(raw_norm)
    return GriddedJsa(grid, grid, amps)


# recommended_grid: marginal standard deviations covered per side, samples
# across the narrowest feature, and the bounds on the point count.
_GRID_TAIL = 6.5
_GRID_POINTS_PER_WIDTH = 4.2
_GRID_N_MIN = 256
_GRID_N_MAX = 4096


def recommended_grid(jsa, herald_filter=None):
    """Suggest discretization arguments that capture a given amplitude.

    The half-extent covers 6.5 marginal standard deviations on the wider
    axis, and the step resolves the narrowest of the conditional widths and
    the transverse width with 4.2 samples; the point count is kept within
    [256, 4096].  When a Gaussian herald filter is supplied, the extent
    additionally covers the filtered idler mass (which an off-center
    passband can displace) and the step resolves the passband.

    Args:
        jsa: ``DoubleGaussianJsa`` whose grid is being sized.
        herald_filter: Optional ``GaussianFilter`` applied on the idler arm.

    Returns:
        Tuple ``(half_extent, n_points)`` in the units accepted by
        ``discretize``.
    """
    _require_types(jsa, herald_filter)
    s_sig, s_idl = jsa.marginal_widths()
    w_sig, w_idl = jsa.conditional_widths()
    a, b, _, _ = jsa.intensity_coefficients()
    limit = _GRID_TAIL * max(s_sig, s_idl)
    feature = min(w_sig, w_idl, _thin_width(jsa))
    if herald_filter is not None:
        center, prod_width = _filtered_idler(jsa, herald_filter)
        limit = max(limit, abs(center) + 9.0 * prod_width)
        # Heralded-arm mass conditioned on the displaced idler window.
        limit = max(limit, abs(b / a) * abs(center) + 9.0 * w_sig)
        feature = min(feature, herald_filter.width)
    smax = max(jsa.sigma1, jsa.sigma2)
    half_extent = max(4.0, limit / smax)
    n_points = int(math.ceil(
        2.0 * half_extent * smax * _GRID_POINTS_PER_WIDTH / feature)) + 1
    n_points = int(min(max(n_points, _GRID_N_MIN), _GRID_N_MAX))
    return half_extent, n_points


@dataclass(frozen=True, eq=False)
class HomCurve:
    """Two-photon coincidence probability versus relative delay.

    Attributes:
        delays: Delay samples in ps.
        coincidences: Coincidence probability at each delay, within [0, 1].
        reflectivity: Intensity reflectivity R of the lossless beam splitter
            the curve was computed for; its transmissivity is ``1 - R``.
    """

    delays: np.ndarray
    coincidences: np.ndarray
    reflectivity: float = 0.5

    def __post_init__(self):
        delays = _reals("delays", self.delays)
        coincidences = _reals("coincidences", self.coincidences)
        if delays.ndim != 1 or coincidences.shape != delays.shape:
            raise ValueError("delays and coincidences must be matching 1-D arrays")
        if delays.size == 0 or not np.isfinite([delays, coincidences]).all():
            raise ValueError("delays and coincidences must be non-empty and finite")
        coincidences = _unit_entries("coincidences", coincidences)
        _splitter_product(self.reflectivity)
        _freeze(self, delays=delays, coincidences=coincidences)

    @property
    def baseline(self):
        """Distinguishable-photon coincidence level ``1 - 2*R*T``."""
        return 1.0 - 2.0 * _splitter_product(self.reflectivity)

    def visibility(self):
        """Interference visibility against the distinguishable baseline.

        The visibility is ``(baseline - minimum) / (baseline + minimum)``;
        the baseline is at least 1/2 and the minimum at least 0.
        """
        base = self.baseline
        dip = float(self.coincidences.min())
        return (base - dip) / (base + dip)

    def half_depth_width(self):
        """Full width of the dip at half its depth, by linear interpolation.

        Requires strictly increasing delays that bracket the dip.

        Raises:
            ValueError: If the curve has no dip or does not cross the
                half-depth level on both sides.
        """
        if np.any(np.diff(self.delays) <= 0.0):
            raise ValueError("delays must be strictly increasing")
        base = self.baseline
        values = self.coincidences
        i_min = int(np.argmin(values))
        depth = base - values[i_min]
        if depth <= 0.0:
            raise ValueError("curve has no dip below the baseline")
        level = base - 0.5 * depth
        edges = []
        for step, side in ((-1, "left"), (1, "right")):
            # The first sample above half depth out from the dip, and its
            # inner neighbour, bracket the crossing.
            above = np.flatnonzero(values[i_min::step] > level)
            if above.size == 0:
                raise ValueError(
                    f"curve does not reach half depth {side} of the dip")
            outer = i_min + step * int(above[0])
            lo = min(outer, outer - step)
            (x0, x1), (y0, y1) = self.delays[lo:lo + 2], values[lo:lo + 2]
            edges.append(x0 + (level - y0) * (x1 - x0) / (y1 - y0))
        return float(edges[1] - edges[0])


@dataclass(frozen=True)
class HeraldingReport:
    """Scalar figures of merit for one source and herald filter.

    ``closed_form_report`` and ``heralding_report`` both return this type;
    without a herald filter, success is one and the two purities are equal.

    Attributes:
        success: Heralding probability.
        purity_filtered: Purity of the heralded photon behind the filter.
        purity_unfiltered: Purity with no filtering, ``1/K``.
    """

    success: float
    purity_filtered: float
    purity_unfiltered: float

    @property
    def schmidt_number(self):
        """Mode number K of the unfiltered amplitude."""
        return 1.0 / self.purity_unfiltered

    @property
    def g2(self):
        """Unheralded marginal second-order correlation, ``1 + 1/K``."""
        return 1.0 + self.purity_unfiltered

    @property
    def visibility(self):
        """Balanced-splitter visibility of the filtered photon with a copy."""
        return visibility(self.purity_filtered)


def _from_keys(what, config, forms):
    """Build from the one ``(names, build)`` form whose keys ``config`` holds.

    ``build`` takes the values of ``names`` in order; a ``config`` that is not
    a mapping, or whose key set matches no form, raises ``ValueError``.
    """
    if not isinstance(config, Mapping):
        raise ValueError(
            f"{what} config must be a mapping, got {type(config).__name__}")
    keys = set(config)
    for names, build in forms:
        if keys == set(names):
            return build(*(config[name] for name in names))
    raise ValueError(f"{what} keys {sorted(keys)} match neither "
                     + " nor ".join(str(sorted(names)) for names, _ in forms))


def jsa_from_dict(config):
    """Build a double-Gaussian amplitude from a configuration mapping.

    Two key sets are accepted: direct ridge parameters ``sigma1``,
    ``sigma2``, ``theta1``, ``theta2``, or laboratory parameters
    ``pulse_duration``, ``pump_angle``, ``pm_bandwidth``, ``pm_angle``.
    Angles may be numbers or strings such as ``"pi/4"``.

    Raises:
        ValueError: If the mapping matches neither key set or has extras.
    """
    return _from_keys("jsa", config, [
        (("sigma1", "sigma2", "theta1", "theta2"),
         lambda sigma1, sigma2, theta1, theta2: DoubleGaussianJsa(
             sigma1, sigma2, parse_angle(theta1), parse_angle(theta2))),
        (("pulse_duration", "pump_angle", "pm_bandwidth", "pm_angle"),
         lambda duration, pump, bandwidth, pm: from_physical(SourcePhysicalParams(
             duration, parse_angle(pump), bandwidth, parse_angle(pm)))),
    ])


def filter_from_dict(config):
    """Build a spectral filter from a configuration mapping.

    Accepts either ``{"center", "width"}`` for a Gaussian passband or
    ``{"grid", "transmission"}`` for a tabulated one.

    Raises:
        ValueError: If the mapping matches neither key set.
    """
    return _from_keys("filter", config, [
        (("center", "width"), GaussianFilter),
        (("grid", "transmission"), TabulatedFilter),
    ])
