"""Schmidt-mode route to heralding statistics for sampled amplitudes.

A normalized gridded amplitude is factored by a truncated singular value
decomposition into weighted mode pairs
``Phi = sum_mu sqrt(p_mu) G_mu(w) T_mu(w')``.  Only the modes above the
weight threshold are computed: a randomized range finder (Halko, Martinsson
& Tropp, arXiv:0909.4061) with a fixed-seed Gaussian sketch captures them,
and a full SVD takes over when the amplitude has too many significant modes
for a sketch to pay off.  Both paths are deterministic.  Filters then enter
only through their overlap matrices on the mode family of the filtered arm,
and purity, heralding probability, and interference become small matrix
contractions over mode indices.  Results agree with the direct quadrature
route on the same grid to within the truncation error.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _SUCCESS_FLOOR,
    ConvergenceError,
    GriddedJsa,
    HomCurve,
    NumericalError,
    _clip_unit,
    filter_transmission,
)

__all__ = [
    "SchmidtDecomposition",
    "OverlapMatrix",
    "ModeProjection",
    "decompose",
    "overlap_matrix",
    "schmidt_quantities",
    "two_filter_schmidt",
    "hom_dip_schmidt",
    "mode_projection_herald",
    "export_modes_csv",
]

# Coefficients closer than this (relative to the leading weight) are
# treated as degenerate when ordering.
_DEGENERACY_TOL = 1e-12

# Signal samples whose magnitudes lie within this fraction of a mode's peak
# tie for fixing its phase.
_PEAK_TIE = 1e-9

# Truncated SVD.  The sketch starts at _SKETCH_START columns and carries
# _OVERSAMPLE columns beyond the modes it is sized for; its Gaussian test
# matrix comes from a fixed seed, so equal inputs factor identically.  The
# smallest captured weight must fall below _ACCURACY_FLOOR times
# min(rel_threshold, 1e-12) times the leading weight, which keeps every
# retained weight accurate to far below the threshold.
_SKETCH_SEED = 20090922
_SKETCH_START = 32
_OVERSAMPLE = 10
_ACCURACY_FLOOR = 1e-3

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Mode decomposition of a gridded joint spectral amplitude.

    Attributes:
        coefficients: Mode weights ``p_mu``, descending.  They sum to the
            squared norm of the decomposed amplitude minus any truncated
            tail; no renormalization is applied after truncation.
        signal_modes: Array of shape ``(n_modes, signal_grid.size)``; row
            ``mu`` samples the signal mode ``G_mu``.
        idler_modes: Array of shape ``(n_modes, idler_grid.size)``.
        signal_grid: Signal frequency samples, rad/ps.
        idler_grid: Idler frequency samples, rad/ps.
    """

    coefficients: np.ndarray
    signal_modes: np.ndarray
    idler_modes: np.ndarray
    signal_grid: np.ndarray
    idler_grid: np.ndarray

    def __post_init__(self):
        p = np.array(self.coefficients, dtype=float, copy=True)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D array")
        if np.any(p < 0.0) or np.any(np.diff(p) > _DEGENERACY_TOL):
            raise ValueError("coefficients must be non-negative and descending")
        arrays = {"coefficients": p}
        for name in ("signal_modes", "idler_modes", "signal_grid", "idler_grid"):
            arr = np.array(getattr(self, name), copy=True)
            arrays[name] = arr
        if arrays["signal_modes"].shape != (p.size, arrays["signal_grid"].size):
            raise ValueError("signal_modes shape does not match grid and weights")
        if arrays["idler_modes"].shape != (p.size, arrays["idler_grid"].size):
            raise ValueError("idler_modes shape does not match grid and weights")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_modes(self):
        return int(self.coefficients.size)

    @property
    def signal_step(self):
        return float(self.signal_grid[1] - self.signal_grid[0])

    @property
    def idler_step(self):
        return float(self.idler_grid[1] - self.idler_grid[0])

    def purity(self):
        """Unfiltered heralded purity, the sum of squared weights."""
        return float(np.sum(self.coefficients**2))

    def schmidt_number(self):
        """Mode number K, the inverse of the unfiltered purity."""
        return 1.0 / self.purity()

    def reconstruct(self, n_modes=None):
        """Rebuild the amplitude samples from the leading modes."""
        m = self.n_modes if n_modes is None else min(int(n_modes), self.n_modes)
        sqp = np.sqrt(self.coefficients[:m])
        return (self.signal_modes[:m].T * sqp) @ self.idler_modes[:m]


@dataclass(frozen=True)
class OverlapMatrix:
    """Filter overlaps on one Schmidt mode family.

    Entry ``(mu, nu)`` is the integral of the intensity transmission against
    ``mode_mu * conj(mode_nu)`` over the filtered arm.  The matrix is
    Hermitian with diagonal (and eigenvalues) in [0, 1].

    Attributes:
        matrix: Square overlap array.
        side: ``"idler"`` for a herald filter, ``"signal"`` for a filter on
            the heralded photon.
    """

    matrix: np.ndarray
    side: str

    def __post_init__(self):
        m = np.array(self.matrix, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("overlap matrix must be square")
        if self.side not in ("idler", "signal"):
            raise ValueError(f"side must be 'idler' or 'signal', got {self.side!r}")
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise ValueError("overlap matrix must be Hermitian within 1e-12")
        diag = np.real(np.diagonal(m))
        if diag.min() < -1e-9 or diag.max() > 1.0 + 1e-9:
            raise ValueError("overlap diagonal must lie within [0, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class ModeProjection:
    """Heralding on one Schmidt mode of the idler.

    Projecting the idler onto a single mode (an ideal pulse gate matched to
    it) leaves the signal photon in exactly one mode, so the conditional
    purity is one identically and the success probability is the weight of
    the selected mode.

    Attributes:
        index: Selected mode index.
        success: Heralding probability, ``p_index``.
        purity: Conditional purity; exactly one by construction.
        heralded_mode: Signal-mode samples the heralded photon occupies.
    """

    index: int
    success: float
    purity: float
    heralded_mode: np.ndarray


def _first_sign_key(row):
    """0 for a leading positive real part, 1 otherwise; for tie ordering."""
    magnitudes = np.abs(row)
    peak = magnitudes.max()
    if peak == 0.0:
        return 1
    first = row[np.nonzero(magnitudes > 1e-9 * peak)[0][0]]
    return 0 if first.real > 0.0 else 1


def _order_degenerate(p, signal, idler):
    """Stable, deterministic ordering inside degenerate weight groups."""
    order = np.arange(p.size)
    tol = _DEGENERACY_TOL * p[0]
    start = 0
    while start < p.size:
        stop = start + 1
        while stop < p.size and p[start] - p[stop] <= tol:
            stop += 1
        if stop - start > 1:
            block = sorted(range(start, stop),
                           key=lambda i: (_first_sign_key(signal[i]), i))
            order[start:stop] = block
        start = stop
    return p[order], signal[order], idler[order]


def _sketch(scaled, rank, rng):
    """Rank-``rank`` range sketch with one power iteration.

    Returns the orthonormal basis ``q`` of the sketched column space and the
    projection ``q^H scaled``.
    """
    shape = (scaled.shape[1], rank)
    omega = rng.standard_normal(shape)
    if np.iscomplexobj(scaled):
        omega = omega + 1j * rng.standard_normal(shape)
    q = np.linalg.qr(scaled @ omega)[0]
    # (q^H A)^H is A^H q without a conjugated copy of A.
    back = np.linalg.qr((q.conj().T @ scaled).conj().T)[0]
    q = np.linalg.qr(scaled @ back)[0]
    return q, q.conj().T @ scaled


def _next_rank(p, rank, floor):
    """Sketch rank whose captured weights should reach ``floor * p[0]``.

    Extrapolates the geometric decay of the trustworthy head of the
    captured weights (the trailing ``_OVERSAMPLE`` are less accurate) down
    to the floor, plus oversampling, and grows by at least half.
    """
    head = max(rank - _OVERSAMPLE, 2) - 1
    ratio = p[head] / p[0]
    needed = 0.0
    if 0.0 < ratio < 1.0:
        needed = math.log(floor) / math.log(ratio) * head + _OVERSAMPLE
    return int(max(needed, 1.5 * rank))


def _truncated_svd(scaled, rel_threshold):
    """Thin SVD factors holding at least every mode above the threshold.

    Returns ``(u, s, vh, ranks, residual)``: ``u``, ``s`` and ``vh`` as
    from ``np.linalg.svd(scaled, full_matrices=False)`` but possibly with
    fewer triplets, the sketch ranks tried, and the squared Frobenius norm
    of the part of ``scaled`` outside the returned column space (zero for
    the full SVD).  A sketch is accepted once its smallest captured weight
    lies below the accuracy floor and its residual weight, which bounds the
    weight of any mode it missed, lies below ``rel_threshold * p0``.
    Once the rank would reach half the smaller grid dimension the full SVD
    is cheaper and is used instead.  Keeping every mode (``rel_threshold``
    not positive) needs the full SVD from the start.
    """
    floor = _ACCURACY_FLOOR * min(rel_threshold, 1e-12)
    limit = min(scaled.shape) // 2 if rel_threshold > 0.0 else 0
    rng = np.random.default_rng(_SKETCH_SEED)
    ranks = []
    rank = _SKETCH_START
    while rank < limit:
        ranks.append(rank)
        q, b = _sketch(scaled, rank, rng)
        ub, s, vh = np.linalg.svd(b, full_matrices=False)
        p = s * s
        if p[-1] < floor * p[0]:
            rest = q @ b
            rest -= scaled
            residual = float(np.vdot(rest, rest).real)
            if residual < rel_threshold * p[0]:
                return q @ ub, s, vh, ranks, residual
        rank = _next_rank(p, rank, floor)
    u, s, vh = np.linalg.svd(scaled, full_matrices=False)
    return u, s, vh, ranks, 0.0


def decompose(gridded, rel_threshold=1e-12):
    """Schmidt-decompose a normalized gridded amplitude.

    Modes with weights below ``rel_threshold`` times the leading weight are
    dropped; the retained weights are not rescaled, so their sum reports the
    captured norm; a threshold of zero keeps every mode.  Mode phases are
    fixed by making the first signal sample whose magnitude is within 1e-9
    of the mode's peak real and positive, and ties between
    numerically equal weights are broken by the sign of the first
    significant signal sample, so equal inputs decompose identically.

    The factorization is a truncated SVD: a randomized range finder with a
    fixed-seed Gaussian sketch and one power iteration grows its rank until
    the captured weights reach 1e-3 of ``min(rel_threshold, 1e-12)`` times
    the leading weight and the weight left outside the sketch is below
    ``rel_threshold`` times it, so no mode above the threshold is missed
    and retained weights match a full SVD to well below the threshold.
    When that rank would reach half the smaller grid dimension, or when
    ``rel_threshold`` is not positive, the full SVD runs instead.  Results
    are deterministic: repeated calls return bit-identical arrays, and the
    global numpy random state is neither read nor changed.  Samples below
    the smallest normal double are set to zero before factoring, which
    changes the amplitude by less than 2.3e-308 and keeps subnormal
    arithmetic out of the linear algebra.  One DEBUG
    record per call on the ``heraldpurity.schmidt`` logger reports the grid
    shape, sketch ranks, fallback, modes kept and residual weight.

    Args:
        gridded: ``GriddedJsa`` with ``norm()`` equal to one within 1e-6.
        rel_threshold: Relative weight below which modes are dropped.

    Returns:
        ``SchmidtDecomposition`` with descending weights.

    Raises:
        ValueError: If the amplitude is not normalized.
        NumericalError: If the factorization fails or degenerates.
    """
    if not isinstance(gridded, GriddedJsa):
        raise TypeError("decompose expects a GriddedJsa")
    if abs(gridded.norm() - 1.0) > 1e-6:
        raise ValueError(
            f"amplitude norm is {gridded.norm():.6f}; normalize() it first"
        )
    scaled = gridded.amplitudes * math.sqrt(gridded.cell_area)
    scaled[np.abs(scaled) < np.finfo(float).tiny] = 0.0
    try:
        u, s, vh, ranks, residual = _truncated_svd(scaled, rel_threshold)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular value decomposition failed: {exc}") from exc
    p = s * s
    if p[0] <= 0.0:
        raise NumericalError("amplitude has no numerical weight to decompose")
    keep = int(np.count_nonzero(p >= rel_threshold * p[0]))
    _log.debug(
        "decompose: grid %dx%d, sketch ranks %s, full SVD %s, "
        "modes kept %d, residual weight %.3e",
        *scaled.shape, ranks, s.size == min(scaled.shape), keep, residual,
    )
    p = p[:keep]
    signal = u[:, :keep].T / math.sqrt(gridded.signal_step)
    idler = vh[:keep] / math.sqrt(gridded.idler_step)

    # Canonical per-mode phase: the first signal sample within _PEAK_TIE of
    # the largest magnitude is made real and positive.  A centred source on
    # a symmetric grid has modes of definite parity whose two extremal
    # samples tie to rounding; taking the first fixes an odd mode's sign by
    # the amplitude rather than by the factorization's rounding.
    magnitudes = np.abs(signal)
    tops = magnitudes >= (1.0 - _PEAK_TIE) * magnitudes.max(axis=1)[:, None]
    peaks = np.take_along_axis(
        signal, np.argmax(tops, axis=1)[:, None], axis=1
    )[:, 0]
    phases = peaks / np.abs(peaks)
    signal = signal * phases.conj()[:, None]
    idler = idler * phases[:, None]
    p, signal, idler = _order_degenerate(p, signal, idler)

    head = min(12, keep)
    for modes, step in ((signal, gridded.signal_step),
                        (idler, gridded.idler_step)):
        gram = modes[:head] @ modes[:head].conj().T * step
        if np.abs(gram - np.eye(head)).max() > 1e-8:
            raise NumericalError("decomposed modes lost discrete orthonormality")

    return SchmidtDecomposition(
        coefficients=p,
        signal_modes=signal,
        idler_modes=idler,
        signal_grid=gridded.signal_grid,
        idler_grid=gridded.idler_grid,
    )


def overlap_matrix(decomposition, filt, side="idler"):
    """Filter overlap matrix on one mode family of a decomposition.

    Args:
        decomposition: ``SchmidtDecomposition`` providing the modes.
        filt: Spectral filter applied on that arm.
        side: ``"idler"`` (herald arm) or ``"signal"`` (heralded arm).

    Returns:
        ``OverlapMatrix`` for use in the quantity contractions.
    """
    if side == "idler":
        modes = decomposition.idler_modes
        grid = decomposition.idler_grid
        step = decomposition.idler_step
    elif side == "signal":
        modes = decomposition.signal_modes
        grid = decomposition.signal_grid
        step = decomposition.signal_step
    else:
        raise ValueError(f"side must be 'idler' or 'signal', got {side!r}")
    weights = filter_transmission(filt, grid) * step
    q = (modes * weights) @ modes.conj().T
    q = 0.5 * (q + q.conj().T)
    return OverlapMatrix(matrix=q, side=side)


def _success_from(p, overlap):
    value = float(p @ np.real(np.diagonal(overlap)))
    if value < _SUCCESS_FLOOR:
        raise NumericalError(
            f"heralding probability {value:.3e} is below {_SUCCESS_FLOOR}; "
            "the filtered state is numerically empty"
        )
    return value


def schmidt_quantities(decomposition, herald_overlap):
    """Heralded purity and success probability from mode overlaps.

    Args:
        decomposition: ``SchmidtDecomposition`` of the source.
        herald_overlap: ``OverlapMatrix`` of the herald filter on the idler
            modes.

    Returns:
        Tuple ``(purity, success)``.

    Raises:
        NumericalError: If the success probability falls below 1e-12.
    """
    if herald_overlap.side != "idler":
        raise ValueError("herald overlaps must be built on the idler modes")
    p = decomposition.coefficients
    q = herald_overlap.matrix
    success = _success_from(p, q)
    squared = q.real**2 + q.imag**2 if np.iscomplexobj(q) else q * q
    numerator = float(p @ squared @ p)
    return _clip_unit(numerator / success**2), _clip_unit(success)


def two_filter_schmidt(decomposition, herald_overlap, heralded_overlap):
    """Purity and success with filters on both arms, from mode overlaps.

    Args:
        decomposition: ``SchmidtDecomposition`` of the source.
        herald_overlap: ``OverlapMatrix`` on the idler modes.
        heralded_overlap: ``OverlapMatrix`` on the signal modes.

    Returns:
        Tuple ``(purity, success)``.

    Raises:
        NumericalError: If the two-filter success falls below 1e-12.
    """
    if herald_overlap.side != "idler":
        raise ValueError("herald overlaps must be built on the idler modes")
    if heralded_overlap.side != "signal":
        raise ValueError("heralded overlaps must be built on the signal modes")
    sqp = np.sqrt(decomposition.coefficients)
    q = herald_overlap.matrix
    qp = heralded_overlap.matrix
    success = float(np.real(sqp @ (q * qp) @ sqp))
    if success < _SUCCESS_FLOOR:
        raise NumericalError(
            f"two-filter success {success:.3e} is below {_SUCCESS_FLOOR}"
        )
    linked = q.T @ (sqp[:, None] * qp)
    numerator = float(np.real(np.sum((sqp[:, None] * linked * sqp) * linked.T)))
    return _clip_unit(numerator / success**2), _clip_unit(success)


def hom_dip_schmidt(decomposition, herald_x, herald_y, delays,
                    reflectivity=0.5, transmissivity=0.5):
    """Coincidence dip of two identical sources, from mode overlaps.

    The mode-space analogue of the direct quadrature dip: each arm
    contributes its weighted herald overlap, and the delay enters through
    the phased Gram matrix of the signal modes.

    Args:
        decomposition: ``SchmidtDecomposition`` of both sources.
        herald_x: ``OverlapMatrix`` (idler side) of the first source.
        herald_y: ``OverlapMatrix`` (idler side) of the second source.
        delays: Relative delays in ps.
        reflectivity: Beam splitter intensity reflectivity.
        transmissivity: Beam splitter intensity transmissivity.

    Returns:
        ``HomCurve`` sampled at the given delays.

    Raises:
        ConvergenceError: If a delay is too large for the grid spacing to
            resolve its phase.
    """
    for overlap in (herald_x, herald_y):
        if overlap.side != "idler":
            raise ValueError("herald overlaps must be built on the idler modes")
    if abs(reflectivity + transmissivity - 1.0) > 1e-9:
        raise ValueError("reflectivity and transmissivity must sum to one")
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    step = decomposition.signal_step
    worst = float(np.abs(delays).max())
    if worst * step > math.pi / 3.0:
        raise ConvergenceError(
            f"delay {worst:.3g} ps cannot be resolved by a signal grid step "
            f"of {step:.3g} rad/ps"
        )
    p = decomposition.coefficients
    sqp = np.sqrt(p)
    success_x = _success_from(p, herald_x.matrix)
    success_y = _success_from(p, herald_y.matrix)
    weighted_x = sqp[:, None] * herald_x.matrix * sqp
    weighted_y = sqp[:, None] * herald_y.matrix * sqp
    modes = decomposition.signal_modes
    rt = reflectivity * transmissivity
    norm = success_x * success_y

    samples = np.empty(delays.shape)
    for i, tau in enumerate(delays):
        phased = modes * np.exp(1j * decomposition.signal_grid * tau)
        gram = phased @ modes.conj().T * step
        overlap = float(np.real(
            np.sum((weighted_x @ gram.conj() @ weighted_y) * gram)
        ))
        samples[i] = 1.0 - 2.0 * rt * (1.0 + overlap / norm)
    return HomCurve(delays, np.clip(samples, 0.0, 1.0))


def mode_projection_herald(decomposition, index):
    """Herald by projecting the idler onto a single Schmidt mode.

    Args:
        decomposition: ``SchmidtDecomposition`` of the source.
        index: Idler mode selected by the (ideal) projective gate.

    Returns:
        ``ModeProjection`` with success ``p_index``, purity exactly one,
        and the signal mode the heralded photon occupies.
    """
    if not 0 <= index < decomposition.n_modes:
        raise ValueError(
            f"mode index {index} outside the {decomposition.n_modes} "
            "retained modes"
        )
    return ModeProjection(
        index=int(index),
        success=float(decomposition.coefficients[index]),
        purity=1.0,
        heralded_mode=decomposition.signal_modes[index],
    )


def _format(value):
    return format(value, ".12g")


def _write_mode_section(handle, title, grid, modes, n_modes):
    handle.write(f"# {title}\n")
    header = ["omega"]
    for mu in range(n_modes):
        header += [f"mode{mu}_re", f"mode{mu}_im"]
    handle.write(",".join(header) + "\n")
    for i, omega in enumerate(grid):
        row = [_format(omega)]
        for mu in range(n_modes):
            row += [_format(modes[mu, i].real), _format(modes[mu, i].imag)]
        handle.write(",".join(row) + "\n")


def export_modes_csv(decomposition, handle, n_modes=None, reference=None):
    """Write weights and mode samples as sectioned CSV.

    The first section lists ``mu, p_mu`` (plus an optional reference weight
    column); the following sections list the signal and idler mode samples,
    one grid point per row and two columns (re, im) per mode.

    Args:
        decomposition: ``SchmidtDecomposition`` to export.
        handle: Writable text file object.
        n_modes: Number of modes to include; defaults to all retained
            weights but at most 16 sampled mode columns.
        reference: Optional array of reference weights written next to
            ``p_mu`` (for example the geometric law for the same K).
    """
    p = decomposition.coefficients
    n_rows = p.size if n_modes is None else min(int(n_modes), p.size)
    n_cols = min(n_rows, 16) if n_modes is None else n_rows
    header = "mu,p_mu"
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
        header += ",reference_p_mu"
    handle.write(header + "\n")
    for mu in range(n_rows):
        row = f"{mu},{_format(p[mu])}"
        if reference is not None:
            ref = reference[mu] if mu < reference.size else 0.0
            row += f",{_format(ref)}"
        handle.write(row + "\n")
    handle.write("\n")
    _write_mode_section(handle, "signal modes",
                        decomposition.signal_grid,
                        decomposition.signal_modes, n_cols)
    handle.write("\n")
    _write_mode_section(handle, "idler modes",
                        decomposition.idler_grid,
                        decomposition.idler_modes, n_cols)
