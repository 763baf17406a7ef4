"""Heralding and interference integrals by windowed Gauss-Legendre quadrature.

Every quantity here reduces to one contraction.  With idler weights that
combine quadrature weights and a herald transmission, the matrix

    M(w, w~) = integral dw' |t(w')|^2 Phi(w, w') conj(Phi(w~, w'))

is the unnormalized reduced state of the heralded photon, ``M = B B^H``
with the root-weighted amplitude ``B = Phi * sqrt(w)`` on one signal axis
(``_heralded_axes``).  Samples of ``B`` with modulus below ``sqrt(tiny)``
are zeroed first: their products would underflow, and subnormal
arithmetic slows BLAS about twofold, while a state entry moves by less
than about 1e-150.  On a strongly correlated source most of ``B`` lies
below that floor, and the rest is a tilted ridge, so ``core._gram_blocks``
contracts each pair of 128-row blocks only over the overlap of their
nonzero column spans; on the unfiltered K = 22 KTP source that is about
10% of the dense work.  A sample below the floor need not be computed
either: ``|B|`` can reach it only inside an ellipse of the intensity's
quadratic form, so ``_root_weighted`` evaluates the double Gaussian, whose
``exp`` was the largest cost of a pass, only over each row block's hull of
that ellipse, about 30% of the unfiltered KTP node grid, and hands those
blocks on as row pieces.  A narrow herald's state fills every block pair
and is contracted the same way.  The heralding probability is the weighted
trace of ``M`` (``herald_success`` sums it as ``wx |B|^2`` over the pieces)
and the purity the weighted sum of its squared entries; ``_single_pair``
reduces both straight from the block products (``core._purity_success``).
Two-photon interference is a delay-phased double sum over both arms'
states, which ``core._arm_overlaps`` sums over the blocks the two states
share, from the same block pairs (``_state_pairs``); equal heralds (the
same object) share one state.

For parametric amplitudes the integration windows track the Gaussian mass
of each integrand (including the displacement caused by off-center
filters), and node counts scale with the window length measured in units
of the finest feature, so narrow filters and strongly elongated amplitudes
spend nodes only where structure lives.  The density,
``_NODES_PER_FEATURE``, is set from a measured knee: results stop moving at
about 1.9 nodes per feature.  A tabulated filter's knots split its axis into
panels, each with Gauss-Legendre nodes of its own (``_arm_axis``): the
transmission is linear on a panel, so every integrand is smooth where it is
sampled and every result comes from one pass.

Nodes and weights come from Newton's method on the Legendre three-term
recurrence, in O(n^2) time and O(n) memory, not from numpy's eigen-solve of
the dense n x n companion matrix, which costs O(n^3) time and O(n^2) memory.
Asymptotic first guesses put every node within 5e-12 of its root at
n = 208 and within rounding at n = 1888, so from n = 40 on one Newton step,
one O(n^2) recurrence sweep, gives both the nodes and the weights.  A pass
over a filter ladder on the K = 22 KTP source builds seven fresh node sets
of 208 to 960 nodes, which then take about a sixth of its time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    ConvergenceError,
    DoubleGaussianJsa,
    GaussianFilter,
    GriddedJsa,
    HeraldingReport,
    NumericalError,
    _GRAM_BLOCK,
    _UNDERFLOW_FLOOR,
    _arm_overlaps,
    _cell_weights,
    _check_delay_step,
    _clip_unit,
    _dip,
    _figures,
    _filtered_idler,
    _flush_underflow,
    _gram_blocks,
    _integer,
    _purity_success,
    _real,
    _require_unit_norm,
    _spectral_filter,
    eval_double_gaussian,
)

__all__ = [
    "QuadratureSpec",
    "DEFAULT_SPEC",
    "unfiltered_purity",
    "herald_success",
    "filtered_purity",
    "two_filter_quantities",
    "hom_dip",
    "heralding_report",
]

# Nodes per unit window-length/feature ratio, the flat safety margin, and
# the node ceiling per axis.  Measured against 5.2 nodes per feature on 200
# random draws, an off-centre KTP filter ladder and unfiltered KTP (one and
# two filters), results stop moving at about 1.9 nodes per feature: from
# 1.95 up every result is within 6e-15 relative, while the worst case, the
# unfiltered KTP purity, moves by 1.2e-14 at 1.9 and by 2e-13 at 1.82.  2.6
# is 1.4 times that knee; the margin covers short windows.
_NODES_PER_FEATURE = 2.6
_NODE_MARGIN = 32
_MAX_NODES = 6000

# Margin in the exponent of the live band (a factor exp(-1/2) in amplitude),
# far above the rounding of the quadratic form and of exp.
_BAND_MARGIN = 1.0

# Interference is cut off where its envelope has decayed below exp(-49).
_DECAY_CUTOFF = 7.0

# Newton on the Legendre recurrence stops once its error bound for the
# stepped nodes is below _NEWTON_TOL, a tenth of the rounding unit near +-1;
# from the asymptotic guesses that takes one step for n >= 40 and two below.
_NEWTON_TOL = 1e-17
_NEWTON_MAX_STEPS = 20

# The first ten positive zeros of the Bessel function J_0, for the nodes
# nearest +-1 (``_bessel_j0_zeros``).
_J0_ZEROS = np.array([
    2.4048255576957724, 5.520078110286311, 8.653727912911013,
    11.791534439014281, 14.930917708487787, 18.071063967910924,
    21.21163662987926, 24.352471530749302, 27.493479132040253,
    30.634606468431976,
])


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the Gauss-Legendre integration engine.

    Attributes:
        n_nodes: Integer floor on the nodes per axis, in [32, 6000];
            counts grow from it at 2.6 nodes per finest integrand feature of
            the window.  The signal axis holds the n x n states, so the cap
            holds there after a tabulated heralded filter's knot panels too.
        half_extent: Window half-width in standard deviations of the
            windowed mass; finite and at least 4.
    """

    n_nodes: int = 200
    half_extent: float = 8.0

    def __post_init__(self):
        object.__setattr__(self, "n_nodes", _integer(
            "n_nodes", self.n_nodes, low=32, high=_MAX_NODES))
        object.__setattr__(self, "half_extent", _real(
            "half_extent", self.half_extent, low=4))


DEFAULT_SPEC = QuadratureSpec()


def _legendre_pair(x, n):
    """``(P_n(x), P_{n-1}(x))`` by the three-term recurrence, in place."""
    p_prev = np.ones_like(x)
    p = x.copy()
    scratch = np.empty_like(x)
    for k in range(1, n):
        # P_{k+1} = ((2k+1) x P_k - k P_{k-1}) / (k+1)
        np.multiply(x, p, out=scratch)
        scratch *= (2 * k + 1) / (k + 1)
        p_prev *= -k / (k + 1)
        p_prev += scratch
        p, p_prev = p_prev, p
    return p, p_prev


def _bessel_j0_zeros(m):
    """The first ``m`` positive zeros of ``J_0``.

    Tabulated up to ``_J0_ZEROS``; McMahon's expansion beyond, where it is
    within 1e-15 relative (it is 4e-3 off at the first zero).
    """
    b = (np.arange(1, m + 1) - 0.25) * math.pi
    r = 1.0 / (b * b)
    j = b + (1 / 8 + r * (-31 / 384 + r * (3779 / 15360 + r * (
        -6277237 / 3440640 + r * 2092163573 / 82575360)))) / b
    top = min(m, _J0_ZEROS.size)
    j[:top] = _J0_ZEROS[:top]
    return j


def _node_guess(n):
    """The non-negative Gauss-Legendre nodes, descending, before Newton.

    Tricomi's expansion to the n^-4 term in the interior, and Gatteschi's
    Bessel-zero formula where ``x > 1/2``, where it is the more accurate.
    The largest error is 3e-9 at n = 40, 5e-12 at n = 208 and 1e-15 at
    n = 1888.
    """
    nu = n + 0.5
    phi = (np.arange(1, (n + 1) // 2 + 1) - 0.25) * (math.pi / nu)
    x = (1.0 - (n - 1) / (8.0 * n**3)
         - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n**4)) * np.cos(phi)
    edge = int(np.count_nonzero(phi < math.pi / 3))
    psi = _bessel_j0_zeros(edge) / nu
    x[:edge] = np.cos(psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * nu * nu))
    if n % 2:
        x[-1] = 0.0
    return x


@lru_cache(maxsize=128)
def _leggauss(n):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Newton's method on the Legendre recurrence (Hale and Townsend, SIAM J.
    Sci. Comput. 35, A652, 2013), run on the non-negative nodes from their
    asymptotic expansions (``_node_guess``) and mirrored, so the rule is
    exactly symmetric.  Newton stops on its own error bound: a step ``dx``
    leaves an error of about ``|x| dx^2 / (1 - x^2)``, since
    ``P_n'' / P_n' = 2x / (1 - x^2)`` at a root.  From n = 40 on the first
    step meets ``_NEWTON_TOL``, so one recurrence sweep gives the nodes and,
    with ``P_n'`` carried to the stepped node to first order (``P_n''`` from
    Legendre's equation), the weights too.  O(n^2) time and O(n) memory.
    The arrays are cached and shared, hence read-only.
    """
    x = _node_guess(n)
    for _ in range(_NEWTON_MAX_STEPS):
        p, q = _legendre_pair(x, n)
        # 1 - x^2 as a product: exact to rounding near +-1
        one_minus = (1.0 - x) * (1.0 + x)
        slope = n * (q - x * p) / one_minus
        dx = p / slope
        if (np.abs(x) / one_minus * dx * dx).max() < _NEWTON_TOL:
            break
        x -= dx
    else:
        raise ConvergenceError(
            f"Gauss-Legendre nodes for n = {n} did not converge in "
            f"{_NEWTON_MAX_STEPS} Newton steps"
        )
    # w = 2 / ((1 - x^2) P_n'(x)^2) at the stepped node x - dx: P_n' to first
    # order, with (1 - x^2) P_n'' = 2x P_n' - n(n+1) P_n, and 1 - (x - dx)^2
    # from 1 - x^2, since the rounding of the stepped node would move the
    # weights next to +-1 by up to 5e-10.
    slope -= dx * (2.0 * x * slope - n * (n + 1) * p) / one_minus
    one_minus += dx * (2.0 * x - dx)
    x -= dx
    w = 2.0 / (one_minus * slope * slope)
    half = n // 2
    nodes = np.concatenate((-x[:half], x[::-1]))
    weights = np.concatenate((w[:half], w[::-1]))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _arm_axis(spec, lo, hi, feature, filt, extra=0):
    """Gauss-Legendre nodes on ``[lo, hi]``, and weights times ``filt``.

    The node rule gives the window ``n`` nodes: ``_NODES_PER_FEATURE`` per
    ``feature`` of its length plus ``_NODE_MARGIN`` and ``extra``, at least
    ``spec.n_nodes``, rounded up to a multiple of 16, at most ``_MAX_NODES``.
    A ``filt`` with ``knots`` (a table) splits the window at those inside it,
    and a panel of length ``l`` gets ``ceil(n l / (hi - lo)) + 2`` nodes: the
    transmission is linear there, so the integrand is smooth.
    """
    need = int(math.ceil(_NODES_PER_FEATURE * (hi - lo) / feature))
    n = max(spec.n_nodes, need + _NODE_MARGIN + extra)
    n = ((n + 15) // 16) * 16
    if n > _MAX_NODES:
        raise ConvergenceError(
            f"axis needs {n} nodes to resolve its window but at most "
            f"{_MAX_NODES} are allowed"
        )
    edges, counts = (lo, hi), (n,)
    if filt is not None and len(filt.knots):
        knots = filt.knots[(filt.knots > lo) & (filt.knots < hi)]
        edges = np.concatenate(([lo], knots, [hi]))
        counts = np.ceil(n * np.diff(edges) / (hi - lo)).astype(int) + 2
    nodes, weights = [], []
    for a, b, count in zip(edges[:-1], edges[1:], counts):
        x, w = _leggauss(int(count))
        half = 0.5 * (b - a)
        nodes.append(0.5 * (b + a) + half * x)
        weights.append(half * w)
    x, w = np.concatenate(nodes), np.concatenate(weights)
    return x, w if filt is None else w * filt.transmission(x)


def _restrict(lo, hi, feature, filt, tail, scale):
    """Window and feature size cut to ``filt``; a vanishing window is widened."""
    if filt is not None:
        f_lo, f_hi, f_feature = _spectral_filter(filt).window(tail)
        lo, hi, feature = max(lo, f_lo), min(hi, f_hi), min(feature, f_feature)
    if hi - lo < 1e-12 * scale:
        mid = 0.5 * (lo + hi)
        lo, hi = mid - 1e-12 * scale, mid + 1e-12 * scale
    return lo, hi, feature


def _idler_window(jsa, herald, tail):
    """Window and feature size for the idler (heralding) axis."""
    _, s_idl = jsa.marginal_widths()
    _, w_idl = jsa.conditional_widths()
    if isinstance(herald, GaussianFilter):
        # Marginal times passband; a cut to the passband moves off-centre ones.
        center, width = _filtered_idler(jsa, herald)
        return _restrict(center - tail * width, center + tail * width,
                         min(w_idl, herald.width), None, tail, s_idl)
    return _restrict(-tail * s_idl, tail * s_idl, w_idl, herald, tail, s_idl)


def _signal_window(jsa, idler_window, heralded, tail):
    """Window and feature size for the signal axis, given the idler window."""
    a, b, _ = jsa.intensity_coefficients()
    s_sig, _ = jsa.marginal_widths()
    w_sig, _ = jsa.conditional_widths()
    slope = -b / a
    ends = (slope * idler_window[0], slope * idler_window[1])
    lo = max(min(ends) - tail * w_sig, -tail * s_sig)
    hi = min(max(ends) + tail * w_sig, tail * s_sig)
    return _restrict(lo, hi, w_sig, heralded, tail, s_sig)


def _root_weighted(jsa, x, y, root):
    """Row pieces of ``B = Phi(x, y) * root`` on node axes, for
    ``core._gram_blocks``.

    A gridded amplitude gives its whole grid as one piece.  For a parametric
    one, ``|B|`` can reach the underflow floor only inside the ellipse
    ``a x^2 + 2 b x y + c y^2 <= L``, ``L = 2 ln(Phi(0, 0) max(root) / floor)``,
    so each block of ``_GRAM_BLOCK`` signal rows is evaluated only over the
    hull of its rows' idler intervals, widened by ``_BAND_MARGIN`` in ``L``
    and one node on each side against rounding.
    """
    if isinstance(jsa, GriddedJsa):
        # Gridded amplitudes are read-only, so the product is a fresh array.
        return [(0, 0, jsa.amplitudes * root)]
    ny = y.size
    a, b, c = jsa.intensity_coefficients()
    peak = float(eval_double_gaussian(jsa, 0.0, 0.0) * root.max())
    reach = (2.0 * math.log(peak / _UNDERFLOW_FLOOR) + _BAND_MARGIN
             if peak > 0.0 else -math.inf)
    disc = c * reach - (a * c - b * b) * x * x
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
            block = eval_double_gaussian(jsa, x[start:start + _GRAM_BLOCK, None],
                                         y[None, span_lo:span_hi])
            block *= root[span_lo:span_hi]
            pieces.append((start, span_lo, block))
    return pieces


def _heralded_axes(jsa, heralds, heralded, spec, max_delay=None):
    """Signal nodes, signal weights, and one idler axis per herald.

    Each idler axis is ``(nodes, weights)``, its weights including the
    herald's transmission; the signal weights include the ``heralded``
    filter.  For a parametric amplitude the signal window covers the hull of
    the heralds' idler windows, and with ``max_delay`` (ps) the axis gains
    the nodes the interference phase needs up to that delay.  A gridded
    amplitude keeps its grid, whose signal step must then resolve
    ``max_delay``.
    """
    if isinstance(jsa, GriddedJsa):
        if max_delay is not None:
            _check_delay_step(max_delay, jsa.signal_step)
        x, y = jsa.signal_grid, jsa.idler_grid
        wx = _cell_weights(heralded, x, jsa.signal_step)
        return x, wx, [(y, _cell_weights(h, y, jsa.idler_step))
                       for h in heralds]
    if not isinstance(jsa, DoubleGaussianJsa):
        raise TypeError(f"not a joint spectral amplitude: {type(jsa).__name__}")
    spec = spec if spec is not None else DEFAULT_SPEC
    tail = spec.half_extent
    windows = [_idler_window(jsa, h, tail) for h in heralds]
    idler_axes = [_arm_axis(spec, *window, h)
                  for h, window in zip(heralds, windows)]
    hull = (min(w[0] for w in windows), max(w[1] for w in windows))
    xlo, xhi, xfeat = _signal_window(jsa, hull, heralded, tail)
    osc = 0
    if max_delay is not None:
        osc = int(math.ceil(0.4 * max_delay * (xhi - xlo))) + 16
    x, wx = _arm_axis(spec, xlo, xhi, xfeat, heralded, osc)
    if x.size > _MAX_NODES:  # the n x n states live on this axis
        raise ConvergenceError(f"signal axis needs {x.size} nodes across "
                               f"knots; at most {_MAX_NODES} are allowed")
    return x, wx, idler_axes


def _state_pairs(jsa, x, y, wy):
    """Block pairs of the heralded state ``B B^H``, ``B = Phi * sqrt(wy)``.

    ``B`` goes straight into ``core._gram_blocks``, so no caller holds it
    while the products are reduced.
    """
    return _gram_blocks(_root_weighted(jsa, x, y, np.sqrt(wy)))


def _single_pair(jsa, herald, heralded, spec, what="heralding probability"):
    """``(purity, success)`` of one herald, reduced from block products.

    ``core._purity_success`` squares each product of ``_state_pairs`` in
    place, so peak memory is ``B``'s band and one block product.
    """
    x, wx, ((y, wy),) = _heralded_axes(jsa, (herald,), heralded, spec)
    return _figures(*_purity_success(_state_pairs(jsa, x, y, wy), wx), what)


def unfiltered_purity(jsa, spec=None):
    """Spectral purity of the heralded photon with no filtering.

    This equals the inverse Schmidt mode number of the amplitude and is the
    interference ceiling of an unfiltered source.

    Args:
        jsa: ``DoubleGaussianJsa`` or normalized ``GriddedJsa``.
        spec: Optional ``QuadratureSpec``; defaults to ``DEFAULT_SPEC``.

    Returns:
        Purity in (0, 1].

    Raises:
        ValueError: If a ``GriddedJsa`` is not normalized within 1e-6.
    """
    _require_unit_norm(jsa)
    return _single_pair(jsa, None, None, spec)[0]


def herald_success(jsa, herald_filter, spec=None):
    """Probability that the idler passes the herald filter.

    Args:
        jsa: ``DoubleGaussianJsa`` or normalized ``GriddedJsa``.
        herald_filter: Filter on the idler (heralding) arm.
        spec: Optional ``QuadratureSpec``.

    Returns:
        Success probability in [0, 1].

    Raises:
        ValueError: If the filter is missing or a ``GriddedJsa`` is unnormalized.
    """
    if herald_filter is None:
        raise ValueError("herald_success requires a herald filter")
    _require_unit_norm(jsa)
    x, wx, ((y, wy),) = _heralded_axes(jsa, (herald_filter,), None, spec)
    success = 0.0
    for start, _, block in _root_weighted(jsa, x, y, np.sqrt(wy)):
        # wx times the row sums of |B|**2: the trace of B B^H alone
        flat = _flush_underflow(block).view(float)
        success += float(wx[start:start + len(block)]
                         @ np.einsum("ij,ij->i", flat, flat))
    # any positive success is a result here: nothing is conditioned on it
    if not (math.isfinite(success) and success > 0.0):
        raise NumericalError(f"heralding probability evaluated to {success}; "
                             "the filtered state carries no numerical weight")
    return _clip_unit(success)


def filtered_purity(jsa, herald_filter, spec=None):
    """Purity of the heralded photon when the idler is filtered.

    Args:
        jsa: ``DoubleGaussianJsa`` or normalized ``GriddedJsa``.
        herald_filter: Filter on the idler (heralding) arm.
        spec: Optional ``QuadratureSpec``.

    Returns:
        Purity in (0, 1].

    Raises:
        ValueError: If the filter is missing or a ``GriddedJsa`` is unnormalized.
        NumericalError: If the heralding probability falls below 1e-12, in
            which case the conditional state is numerically meaningless.
    """
    if herald_filter is None:
        raise ValueError("filtered_purity requires a herald filter")
    _require_unit_norm(jsa)
    return _single_pair(jsa, herald_filter, None, spec)[0]


def two_filter_quantities(jsa, herald_filter, heralded_filter, spec=None):
    """Purity and success probability with filters on both arms.

    The heralded (signal) photon keeps only the amplitude passed by its own
    filter, so a pair is counted when both photons pass.

    Args:
        jsa: ``DoubleGaussianJsa`` or normalized ``GriddedJsa``.
        herald_filter: Filter on the idler (heralding) arm.
        heralded_filter: Filter on the signal (heralded) arm.
        spec: Optional ``QuadratureSpec``.

    Returns:
        Tuple ``(purity, success)``.

    Raises:
        ValueError: If a filter is missing or a ``GriddedJsa`` is unnormalized.
        NumericalError: If the two-filter success falls below 1e-12.
    """
    if herald_filter is None or heralded_filter is None:
        raise ValueError("two_filter_quantities requires both filters")
    _require_unit_norm(jsa)
    return _single_pair(jsa, herald_filter, heralded_filter, spec,
                        "two-filter success")


def _hom_overlaps(jsa, herald_x, herald_y, delays, spec):
    """Two-arm overlaps at each delay."""
    out = np.zeros(delays.shape)
    resolved = np.ones(delays.shape, dtype=bool)
    if isinstance(jsa, DoubleGaussianJsa):
        w_sig, _ = jsa.conditional_widths()
        resolved = np.abs(delays) <= _DECAY_CUTOFF / w_sig
        if not np.any(resolved):
            return out
    heralds = (herald_x,) if herald_y is herald_x else (herald_x, herald_y)
    x, wx, idler_axes = _heralded_axes(
        jsa, heralds, None, spec,
        max_delay=float(np.abs(delays[resolved]).max()))
    states = [list(_state_pairs(jsa, x, y, wy)) for y, wy in idler_axes]
    out[resolved] = _arm_overlaps(x, wx, states, delays[resolved])
    return out


def hom_dip(jsa, herald_x, herald_y, delays, reflectivity=0.5, spec=None):
    """Coincidence dip of heralded photons from two identical sources.

    Each source is heralded through its own idler filter; the heralded
    photons meet on a lossless beam splitter with the given intensity
    reflectivity R (transmissivity ``T = 1 - R``), and one photon is
    delayed.  Far from zero delay the coincidence probability is the
    distinguishable baseline ``1 - 2*R*T``; at zero delay with equal filters
    it reaches ``1 - 2*R*T*(1 + purity)``.

    For parametric amplitudes, delays beyond the point where the
    interference envelope has decayed below ``exp(-49)`` are returned at
    the baseline exactly rather than integrated, since oscillatory
    quadrature adds only noise there.  For gridded amplitudes every delay
    is integrated, and delays the grid spacing cannot resolve raise
    ``ConvergenceError``; its norm is not checked, since each arm's overlap
    is divided by its success, so the dip does not depend on its scale.

    Args:
        jsa: ``DoubleGaussianJsa`` or normalized ``GriddedJsa``.
        herald_x: Herald filter of the first source.
        herald_y: Herald filter of the second source.
        delays: Relative delays in ps.
        reflectivity: Beam splitter intensity reflectivity, in [0, 1].
        spec: Optional ``QuadratureSpec``.

    Returns:
        ``HomCurve`` sampled at the given delays, carrying ``reflectivity``.
    """
    if herald_x is None or herald_y is None:
        raise ValueError("hom_dip requires a herald filter for each source")
    return _dip(delays, reflectivity,
                lambda tau: _hom_overlaps(jsa, herald_x, herald_y, tau, spec))


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

    Raises:
        ValueError: If a ``GriddedJsa`` is not normalized within 1e-6.
    """
    p_raw = unfiltered_purity(jsa, spec=spec)
    if herald_filter is None:
        return HeraldingReport(1.0, p_raw, p_raw)
    purity, success = _single_pair(jsa, herald_filter, None, spec)
    return HeraldingReport(success, purity, p_raw)
