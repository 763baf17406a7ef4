"""Schmidt-mode route to heralding statistics for sampled amplitudes.

A normalized gridded amplitude is factored by a truncated singular value
decomposition into weighted mode pairs
``Phi = sum_mu sqrt(p_mu) G_mu(w) T_mu(w')``.  Only the modes above the
weight threshold are computed: a randomized range finder (Halko, Martinsson
& Tropp, arXiv:0909.4061) with a fixed-seed Gaussian sketch captures them,
and a full SVD takes over when the amplitude has too many significant modes
for a sketch to pay off.  Both paths are deterministic.  Filters then enter
only through their overlap matrices on the mode family of the filtered arm,
and purity and heralding probability become small matrix contractions over
mode indices; for interference, the overlaps map each arm's heralded state
back onto the signal grid.  Results agree with the direct quadrature route
on the same grid to within the truncation error.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GriddedJsa,
    _GRAM_BLOCK,
    _GridSteps,
    NumericalError,
    _arm_overlaps,
    _axis,
    _cell_weights,
    _check_delay_step,
    _dip,
    _figures,
    _flush_underflow,
    _freeze,
    _gate,
    _integer,
    _numbers,
    _purity_success,
    _real,
    _require_unit_norm,
    _side,
    _spectral_filter,
    _squared_modulus,
    _uniform_axis,
    _unit_entries,
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
]

# A weight may exceed its predecessor by this fraction of the predecessor,
# so that weights equal to rounding pass as descending in any order.
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


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition(_GridSteps):
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
        p = _axis("coefficients", self.coefficients)
        if p.min() < 0.0 or np.any(p[1:] > p[:-1] * (1.0 + _DEGENERACY_TOL)):
            raise ValueError("coefficients must be finite, non-negative, descending")
        arrays = {name: check(name, getattr(self, name)) for name, check in (
            ("signal_modes", _numbers), ("idler_modes", _numbers),
            ("signal_grid", _uniform_axis), ("idler_grid", _uniform_axis))}
        if arrays["signal_modes"].shape != (p.size, arrays["signal_grid"].size):
            raise ValueError("signal_modes shape does not match grid and weights")
        if arrays["idler_modes"].shape != (p.size, arrays["idler_grid"].size):
            raise ValueError("idler_modes shape does not match grid and weights")
        _freeze(self, coefficients=p, **arrays)

    @property
    def n_modes(self):
        return int(self.coefficients.size)

    def purity(self):
        """Unfiltered heralded purity, the sum of squared weights."""
        return float(np.sum(self.coefficients**2))

    def schmidt_number(self):
        """Mode number K, the inverse of the unfiltered purity."""
        return 1.0 / self.purity()

    def reconstruct(self, n_modes=None):
        """Rebuild the amplitude samples from the leading modes.

        ``n_modes`` is a non-negative integer; all modes when ``None``.
        """
        m = self.n_modes
        if n_modes is not None:
            m = min(_integer("n_modes", n_modes, low=0), m)
        sqp = np.sqrt(self.coefficients[:m])
        return (self.signal_modes[:m].T * sqp) @ self.idler_modes[:m]


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """Filter overlaps on one Schmidt mode family.

    Entry ``(mu, nu)`` is the integral of the intensity transmission against
    ``mode_mu * conj(mode_nu)`` over the filtered arm.  It is checked to be
    finite and Hermitian, with its diagonal in [0, 1]; its eigenvalues, in
    [0, 1] for a filter on orthonormal modes, would cost an ``eigvalsh``
    and are not checked.

    Attributes:
        matrix: Square overlap array.
        side: ``"idler"`` for a herald filter, ``"signal"`` for a filter on
            the heralded photon.
    """

    matrix: np.ndarray
    side: str

    def __post_init__(self):
        m = _numbers("overlap matrix", self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("overlap matrix must be square")
        _side(self.side)
        if not np.isfinite(m).all():
            raise ValueError("overlap matrix entries must be finite")
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise ValueError("overlap matrix must be Hermitian within 1e-12")
        _unit_entries("overlap diagonal", np.real(np.diagonal(m)), 1e-9)
        _freeze(self, matrix=m)


@dataclass(frozen=True, eq=False)
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


def _decomposition(decomposition):
    """``decomposition`` itself, or ``TypeError`` if it is not one."""
    return _gate(decomposition, SchmidtDecomposition,
                 "a Schmidt decomposition")


def _overlap(overlap):
    """``overlap`` itself, or ``TypeError`` if it is not an overlap matrix."""
    return _gate(overlap, OverlapMatrix, "an overlap matrix")


def _deflate(block, basis):
    """Project ``block`` off the orthonormal ``basis`` in place, twice."""
    for _ in range(2 if basis.size else 0):
        block -= basis @ (basis.conj().T @ block)
    return block


def _sketch(scaled, q, back, b, rank, rng):
    """The range sketch ``(q, back, b)`` grown to ``rank`` columns.

    ``q`` and ``back`` are orthonormal bases of the sketched column space
    and of the row space of its one power iteration, and ``b = q^H scaled``.
    """
    shape = (scaled.shape[1], rank - q.shape[1])
    omega = rng.standard_normal(shape)
    if np.iscomplexobj(scaled):
        omega = omega + 1j * rng.standard_normal(shape)
    new = np.linalg.qr(_deflate(scaled @ omega, q))[0]
    # (q^H A)^H is A^H q without a conjugated copy of A.
    new_back = np.linalg.qr(_deflate((new.conj().T @ scaled).conj().T, back))[0]
    new = np.linalg.qr(_deflate(scaled @ new_back, q))[0]
    return (np.hstack((q, new)), np.hstack((back, new_back)),
            np.vstack((b, new.conj().T @ scaled)))


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
    weight of any mode it missed, lies below ``rel_threshold * p0``.  A
    sketch that falls short grows: only the missing test columns are drawn,
    and their blocks are projected twice off the kept bases before each QR.
    Once the rank would reach half the smaller grid dimension the full SVD
    is cheaper and is used instead.  Keeping every mode (``rel_threshold``
    not positive) needs the full SVD from the start.
    """
    floor = _ACCURACY_FLOOR * min(rel_threshold, 1e-12)
    limit = min(scaled.shape) // 2 if rel_threshold > 0.0 else 0
    rng = np.random.default_rng(_SKETCH_SEED)
    ranks = []
    rank = _SKETCH_START
    q, back, b = (np.zeros(shape, scaled.dtype) for shape in (
        (len(scaled), 0), (scaled.shape[1], 0), (0, scaled.shape[1])))
    while rank < limit:
        ranks.append(rank)
        q, back, b = _sketch(scaled, q, back, b, rank, rng)
        ub, s, vh = np.linalg.svd(b, full_matrices=False)
        p = s * s
        if p[-1] < floor * p[0]:
            # Summed over row blocks, so no second grid-sized array is made.
            residual = 0.0
            for r in range(0, len(scaled), _GRAM_BLOCK):
                rest = q[r:r + _GRAM_BLOCK] @ b
                rest -= scaled[r:r + _GRAM_BLOCK]
                residual += float(np.vdot(rest, rest).real)
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
    of the mode's peak real and positive.  Modes keep the SVD's descending
    order; inside an exactly degenerate weight group the SVD's basis is
    only fixed up to a unitary rotation, so no order there is canonical.

    The factorization is a truncated SVD: a randomized range finder with a
    fixed-seed Gaussian sketch and one power iteration grows its rank until
    the captured weights reach 1e-3 of ``min(rel_threshold, 1e-12)`` times
    the leading weight and the weight left outside the sketch is below
    ``rel_threshold`` times it, so no mode above the threshold is missed
    and retained weights match a full SVD to well below the threshold.
    When that rank would reach half the smaller grid dimension, or when
    ``rel_threshold`` is not positive, the full SVD runs instead.  Results
    are deterministic: repeated calls return bit-identical arrays, and the
    global numpy random state is neither read nor changed.  Scaled samples
    below ``core._UNDERFLOW_FLOOR`` (``sqrt(tiny)``, about 1.5e-154) are
    set to zero before factoring, by the same ``core._flush_underflow``
    that floors the quadrature states and the gridded solve; this keeps
    subnormal arithmetic, which slows the SVD, out of the linear algebra.
    On the signal rows and idler columns the flush leaves empty, the modes
    hold only SVD rounding noise, and those mode samples are set to exact
    zero.  One DEBUG record per call on the ``heraldpurity.schmidt`` logger
    reports the grid shape, sketch ranks, fallback, modes kept and residual
    weight.

    Args:
        gridded: ``GriddedJsa`` with ``norm()`` equal to one within 1e-6.
        rel_threshold: Relative weight below which modes are dropped; at
            most 1.

    Returns:
        ``SchmidtDecomposition`` with descending weights.

    Raises:
        ValueError: If the amplitude is not normalized or ``rel_threshold``
            is not a number of at most 1.
        NumericalError: If the factorization fails.
    """
    _require_unit_norm(_gate(gridded, GriddedJsa, "a gridded amplitude"))
    rel_threshold = _real("rel_threshold", rel_threshold)
    if rel_threshold > 1.0:  # no mode outweighs the leading one
        raise ValueError(f"rel_threshold must be at most 1, got {rel_threshold}")
    scaled = gridded.amplitudes * math.sqrt(gridded.cell_area)
    _flush_underflow(scaled)
    dead_rows, dead_cols = ~scaled.any(axis=1), ~scaled.any(axis=0)
    try:
        u, s, vh, ranks, residual = _truncated_svd(scaled, rel_threshold)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular value decomposition failed: {exc}") from exc
    p = s * s
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
    # On rows and columns the flush emptied, the true modes are below about
    # 1e-140, and the SVD leaves only its rounding noise there.
    signal[:, dead_rows] = 0.0
    idler[:, dead_cols] = 0.0

    head = min(12, keep)
    for modes, step in ((signal, gridded.signal_step),
                        (idler, gridded.idler_step)):
        lead = modes[:head]
        gram = (lead @ lead.conj().T) * step
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

    Each grid cell is weighted by the filter's ``cell_weights``.

    Args:
        decomposition: ``SchmidtDecomposition`` providing the modes.
        filt: Spectral filter applied on that arm.
        side: ``"idler"`` (herald arm) or ``"signal"`` (heralded arm).

    Returns:
        ``OverlapMatrix`` for use in the quantity contractions.
    """
    _decomposition(decomposition)
    modes, grid, step = (getattr(decomposition, f"{_side(side)}_{field}")
                         for field in ("modes", "grid", "step"))
    weights = _spectral_filter(filt).cell_weights(grid, step)
    q = (modes * weights) @ modes.conj().T
    q = 0.5 * (q + q.conj().T)
    return OverlapMatrix(matrix=q, side=side)


def _side_matrix(overlap, side="idler"):
    """The matrix of ``overlap``, which must be built on the ``side`` modes."""
    if _overlap(overlap).side != side:
        role = "herald" if side == "idler" else "heralded"
        raise ValueError(f"{role} overlaps must be built on the {side} modes")
    return overlap.matrix


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
    weights = _decomposition(decomposition).coefficients
    q, whole = _side_matrix(herald_overlap), slice(None)
    return _figures(*_purity_success([(whole, whole, q, _squared_modulus(q))],
                                     weights))


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
    sqp = np.sqrt(_decomposition(decomposition).coefficients)
    q = _side_matrix(herald_overlap)
    qp = _side_matrix(heralded_overlap, "signal")
    success = np.real(sqp @ (q * qp) @ sqp)
    linked = q.T @ (sqp[:, None] * qp)
    numerator = np.real(np.sum((sqp[:, None] * linked * sqp) * linked.T))
    # numpy scalars: a zero success reaches _figures, not ZeroDivisionError
    with np.errstate(divide="ignore", invalid="ignore"):
        purity = numerator / success**2
    return _figures(purity, success, "two-filter success")


def _signal_state_pairs(decomposition, q):
    """Block pairs ``G[:, rows_i].T @ KG[:, rows_j]`` of one heralded state."""
    sqp = np.sqrt(decomposition.coefficients)
    modes = decomposition.signal_modes
    kg = (sqp[:, None] * q * sqp) @ modes.conj()
    rows = [slice(r, r + _GRAM_BLOCK)
            for r in range(0, modes.shape[1], _GRAM_BLOCK)]
    return [(rows_i, rows_j, modes[:, rows_i].T @ kg[:, rows_j])
            for i, rows_i in enumerate(rows) for rows_j in rows[i:]]


def hom_dip_schmidt(decomposition, herald_x, herald_y, delays,
                    reflectivity=0.5):
    """Coincidence dip of two identical sources, from mode overlaps.

    Each arm's herald overlap ``Q``, weighted by the mode amplitudes, maps
    back onto the signal grid as that arm's heralded state
    ``G.T @ (sqrt(p) Q sqrt(p)) @ conj(G)``, with ``G`` the signal modes;
    the dip is then the same contraction as the direct route on the grid.
    With ``KG = (sqrt(p) Q sqrt(p)) @ conj(G)`` formed once, each state is
    built as the block pairs ``G[:, rows_i].T @ KG[:, rows_j]``, ``i <= j``,
    of ``_GRAM_BLOCK`` signal rows each, so the two states together hold
    about one ``n x n`` array of their dtype and no product of them is
    formed whole: 41 MB traced on a 1754-point real grid with 481 delays.
    Equal heralds (the same object) share one state: 28 MB there.

    Args:
        decomposition: ``SchmidtDecomposition`` of both sources.
        herald_x: ``OverlapMatrix`` (idler side) of the first source.
        herald_y: ``OverlapMatrix`` (idler side) of the second source.
        delays: Relative delays in ps.
        reflectivity: Beam splitter intensity reflectivity, in [0, 1].

    Returns:
        ``HomCurve`` sampled at the given delays, carrying ``reflectivity``.

    Raises:
        ConvergenceError: If a delay is too large for the grid spacing to
            resolve its phase.
    """
    grid = _decomposition(decomposition).signal_grid
    step = decomposition.signal_step
    matrices = [_side_matrix(overlap) for overlap in (herald_x, herald_y)]

    def overlaps(tau):
        _check_delay_step(tau, step)
        states = [_signal_state_pairs(decomposition, q) for q in
                  (matrices[:1] if herald_y is herald_x else matrices)]
        return _arm_overlaps(grid, _cell_weights(None, grid, step), states, tau)

    return _dip(delays, reflectivity, overlaps)


def mode_projection_herald(decomposition, index):
    """Herald by projecting the idler onto a single Schmidt mode.

    Args:
        decomposition: ``SchmidtDecomposition`` of the source.
        index: Idler mode selected by the (ideal) projective gate.

    Returns:
        ``ModeProjection`` with success ``p_index``, purity exactly one,
        and the signal mode the heralded photon occupies.
    """
    last = _decomposition(decomposition).n_modes - 1
    index = _integer("mode index", index, low=0, high=last)
    return ModeProjection(
        index=index,
        success=float(decomposition.coefficients[index]),
        purity=1.0,
        heralded_mode=decomposition.signal_modes[index],
    )
