"""Heralding and interference integrals by windowed Gauss-Legendre quadrature.

Every quantity here reduces to one contraction.  With idler weights that
combine quadrature weights and a herald transmission, the matrix

    M(w, w~) = integral dw' |t(w')|^2 Phi(w, w') conj(Phi(w~, w'))

is the unnormalized reduced state of the heralded photon, ``M = B B^H``
with the root-weighted amplitude ``B = Phi * sqrt(w)`` on one signal axis;
the amplitude's ``axes`` and ``row_pieces`` supply them.  Samples of ``B``
with modulus below ``sqrt(tiny)`` are zeroed first: their products would
underflow, and subnormal arithmetic slows BLAS about twofold, while a state
entry moves by less than about 1e-150.  On a strongly correlated source
most of ``B`` lies below that floor, and the rest is a tilted ridge, so
``core._gram_blocks`` contracts each pair of 128-row blocks only over the
overlap of their nonzero column spans; on the unfiltered K = 22 KTP source
that is about 10% of the dense work.  A sample below the floor need not be
computed either: ``|B|`` can reach it only inside an ellipse of the
intensity's quadratic form, so ``DoubleGaussianJsa.row_pieces`` evaluates
the double Gaussian, whose ``exp`` was the largest cost of a pass, only
over each row block's hull of that ellipse, about 30% of the unfiltered KTP
node grid.  A narrow herald's state fills every block pair and is
contracted the same way.  The heralding probability is the weighted trace
of ``M`` (``herald_success`` sums it as ``wx |B|^2`` over the pieces) and
the purity the weighted sum of its squared entries; ``_single_pair``
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
panels, each with Gauss-Legendre nodes of its own (``QuadratureSpec.axis``):
the transmission is linear on a panel, so every integrand is smooth where it
is sampled and every result comes from one pass.

Nodes and weights come from Bogaert's iteration-free formulas, each node
and weight in O(1) from a zero of ``J_0`` and six short polynomials, so a
rule costs O(n) time, about 190 numpy operations on arrays of n/2 entries
(warm, one BLAS thread, Xeon: 0.10 ms at 208 nodes and 0.38 ms at 6000,
against 0.94 and 56 ms for the Newton sweep on the Legendre recurrence
they replace).  numpy's eigen-solve of the dense n x n companion matrix,
O(n^3) time and O(n^2) memory, is never used.  Below 100 nodes, where the
formulas are only a first guess, Newton polishes them: one recurrence
sweep from 7 nodes on, two below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    ConvergenceError,
    HeraldingReport,
    NumericalError,
    _amplitude,
    _arm_overlaps,
    _clip_unit,
    _dip,
    _figures,
    _flush_underflow,
    _gate,
    _gram_blocks,
    _integer,
    _purity_success,
    _real,
    _require_unit_norm,
    _spectral_filter,
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

# Rules of _FORMULA_NODES nodes and more come straight from Bogaert's
# formulas (``_bogaert``).  Smaller ones are polished by Newton on the
# Legendre recurrence, which stops once its error bound for the stepped nodes
# is below _NEWTON_TOL, a tenth of the rounding unit near +-1; from the
# formulas' guesses that takes one step for n >= 7 and two below.
_FORMULA_NODES = 100
_NEWTON_TOL = 1e-17
_NEWTON_MAX_STEPS = 20

# Offsets j_k - (k - 1/4) pi of the first twenty positive zeros j_k of the
# Bessel function J_0, and J_1(j_k)^2 at the first twenty-one, from 40-digit
# values (``_bessel_j0_offsets``, ``_bessel_j1_squared``).
_J0_OFFSETS = np.array([
    0.04863106750342784, 0.022290966504172484, 0.014348115539080811,
    0.010561988052556969, 0.008352603936268065, 0.006906209769611422,
    0.005886218148154599, 0.005128465428405139, 0.004543413129563959,
    0.004078095931491043, 0.003699187483291371, 0.003384673983973428,
    0.0031194313583755044, 0.0028927263170733285, 0.0026967312123637515,
    0.0025256033585736677, 0.002374893485959285, 0.002241153801149329,
    0.0021216712723189117, 0.0020142818287534232,
])
_J1_SQUARED = np.array([
    0.2695141239419169, 0.11578013858220369, 0.07368635113640822,
    0.05403757319811628, 0.04266142901724309, 0.0352421034909961,
    0.030021070103054673, 0.02614739149530809, 0.023159121824691393,
    0.02078382912226786, 0.01885045066931767, 0.017246157569665008,
    0.0158935181059236, 0.01473762609647219, 0.013738465145387117,
    0.012866181737615133, 0.012098051548626797, 0.011416471224491609,
    0.010807592791180204, 0.010260372926280762, 0.009765897139791051,
])

# Polynomial coefficients, highest power first (``_horner``).  Beyond the
# tables: McMahon's series of the offsets over r^2, times r = 1/((k - 1/4) pi),
# and the series of J_1(j_k)^2 over x^2, times x = 1/(k - 1/4).
_MCMAHON = (
    50922546.24022268, -849353.5802991488, 18690.476528232066,
    -567.6444121351834, 25.336414797343906, -1.824438767206101,
    0.24602864583333334, -0.08072916666666667, 0.125,
)
_J1_SERIES = (
    0.18539539820634562, -0.026683739370232377, 0.0049610142326888314,
    -0.001236323497271754, 0.0004337107191307463, -0.00022896990277211166,
    0.0001989243642459693, -0.00030338042971129027, 0.0,
    0.20264236728467555,
)
# Bogaert's node and weight corrections: three polynomials each in
# alpha^2, alpha = j_k / (n + 1/2) (Chebyshev interpolants on [0, pi/2]).
_NODE_POLYS = ((
    -1.2905299627428051e-12, 2.4072468586433013e-10, -3.1314865463599204e-08,
    2.7557316896206124e-06, -0.00014880952371390914, 0.004166666666651934,
    -0.0416666666666663,
), (
    2.20639421781871e-09, -7.530367713737693e-08, 1.6196925945383627e-06,
    -2.53300326008232e-05, 0.00028211688605756045, -0.002090222483878529,
    0.008159722217729322,
), (
    -2.9705822537552623e-08, 5.558453302237962e-07, -5.677978413568331e-06,
    4.184981003295046e-05, -0.0002513952932839659, 0.0012865419854284513,
    -0.004160121656202043,
))
_WEIGHT_POLYS = ((
    -2.2090286104461664e-14, 2.3036572686037738e-12, -1.752577007354238e-10,
    1.037560669279168e-08, -4.639686475532213e-07, 1.4964459362502864e-05,
    -0.0003262786595944122, 0.004365079365075981, -0.0305555555555553,
    0.08333333333333333,
), (
    3.631174121526548e-12, 7.676435450698932e-11, -7.129128572336422e-09,
    2.1148388068594716e-07, -3.818179186800454e-06, 4.659695306949684e-05,
    -0.00040729718561133575, 0.002689594356947297, -0.011111111111121492,
), (
    2.018267912567033e-09, -4.386471225202067e-08, 5.088983472886716e-07,
    -3.9793331651913525e-06, 2.0055932639645834e-05, -4.228880592829212e-05,
    -0.00010564605025407614, -9.479693089585773e-05, 0.006569664899264848,
))


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

    def axis(self, lo, hi, feature, filt, extra=0, signal=False):
        """Gauss-Legendre nodes on ``[lo, hi]``, and weights times ``filt``.

        The node rule gives the window ``n`` nodes: ``_NODES_PER_FEATURE``
        per ``feature`` of its length plus ``_NODE_MARGIN`` and ``extra``,
        at least ``n_nodes``, rounded up to a multiple of 16, at most
        ``_MAX_NODES``.  A ``filt`` with ``knots`` (a table) splits the
        window at those inside it, and a panel of length ``l`` gets
        ``ceil(n l / (hi - lo)) + 2`` nodes: the transmission is linear
        there, so the integrand is smooth.  A ``signal`` axis is capped
        after its panels too.
        """
        need = int(math.ceil(_NODES_PER_FEATURE * (hi - lo) / feature))
        n = max(self.n_nodes, need + _NODE_MARGIN + extra)
        n = ((n + 15) // 16) * 16
        if n > _MAX_NODES:
            raise ConvergenceError(f"axis needs {n} nodes to resolve its window"
                                   f" but at most {_MAX_NODES} are allowed")
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
        if signal and x.size > _MAX_NODES:
            raise ConvergenceError(f"signal axis needs {x.size} nodes across "
                                   f"knots; at most {_MAX_NODES} are allowed")
        return x, w if filt is None else w * filt.transmission(x)


DEFAULT_SPEC = QuadratureSpec()


def _spec(spec):
    """``spec``, checked, or ``DEFAULT_SPEC`` for ``None``."""
    return (DEFAULT_SPEC if spec is None
            else _gate(spec, QuadratureSpec, "a quadrature spec"))


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


def _horner(coefficients, x):
    """The polynomial with ``coefficients``, highest power first, at ``x``."""
    out = coefficients[0]
    for c in coefficients[1:]:
        out = out * x + c
    return out


def _corrections(polys, t, u2):
    """``P1(t) + u2 (P2(t) + u2 P3(t))`` for Bogaert's three ``polys``."""
    p1, p2, p3 = (_horner(c, t) for c in polys)
    return p1 + u2 * (p2 + u2 * p3)


def _bessel_j0_offsets(base):
    """Offsets ``j_k - b_k`` of the zeros ``j_k`` of ``J_0`` from McMahon's
    bases ``b_k = (k - 1/4) pi``, given as ``base``.

    Tabulated up to ``_J0_OFFSETS``; McMahon's series beyond, where it is
    within 1e-20 relative.  The offset, not the zero, is kept, since the
    nodes near x = 0 need it to full precision (``_bogaert``).
    """
    r = 1.0 / base
    offsets = r * _horner(_MCMAHON, r * r)
    top = min(base.size, _J0_OFFSETS.size)
    offsets[:top] = _J0_OFFSETS[:top]
    return offsets


def _bessel_j1_squared(quarter):
    """``J_1(j_k)^2`` at the zeros of ``J_0``, ``quarter`` holding ``k - 1/4``.

    Tabulated up to ``_J1_SQUARED``; an asymptotic series beyond, where it
    is within 4e-17 relative.
    """
    x = 1.0 / quarter
    out = x * _horner(_J1_SERIES, x * x)
    top = min(quarter.size, _J1_SQUARED.size)
    out[:top] = _J1_SQUARED[:top]
    return out


def _split(a):
    """Dekker's split of ``a`` into a 26-bit head and an exact rest."""
    t = a * 134217729.0  # 2**27 + 1
    head = t - (t - a)
    return head, a - head


# math.pi as head + rest (exact halves) and the tail pi - math.pi.
_PI_HEAD, _PI_REST = _split(math.pi)
_PI_TAIL = 1.2246467991473532e-16


def _bogaert(n):
    """The non-negative Gauss-Legendre nodes, descending, and their weights.

    Bogaert's iteration-free formulas (SIAM J. Sci. Comput. 36, A1008,
    2014): node k is ``cos(theta_k)``, ``theta_k = (j_k + c_k) / (n + 1/2)``
    with ``j_k`` the k-th zero of ``J_0`` and ``c_k`` a correction from three
    polynomials in ``alpha^2``, ``alpha = j_k / (n + 1/2)``; the weight
    comes from ``J_1(j_k)^2`` and three more.  From n = 100 on, nodes are
    within 2.3e-16 and weights within 4e-16 relative of 40-digit values;
    below, they are Newton's first guesses (5.7e-14 off at n = 32).

    The last digit of a node needs more than doubles.  The node is
    ``sin(phi)``, ``phi = pi/2 - theta_k``, and with ``o_k = j_k - (k - 1/4) pi``

        phi = pi (n + 1 - 2k) / (2n + 1) - (o_k + c_k) / (n + 1/2),

    whose leading term is formed in double-double arithmetic (an exact
    division remainder and Dekker's exact product with pi) and carried
    into the sine to first order.  ``cos(theta_k)`` in doubles put nodes
    near x = 0 up to 4.7e-16 off.
    """
    k = np.arange(1.0, (n + 1) // 2 + 1)
    quarter = k - 0.25
    base = quarter * math.pi
    offset = _bessel_j0_offsets(base)
    step = 1.0 / (n + 0.5)
    nu = base + offset
    alpha = step * nu
    t = alpha * alpha
    nu_sin = nu / np.sin(alpha)
    u = step * step * nu_sin
    u2 = u * u
    shift = (offset + alpha * u * _corrections(_NODE_POLYS, t, u2)) * step
    denom = (_bessel_j1_squared(quarter) * nu_sin
             * (1.0 + u2 * _corrections(_WEIGHT_POLYS, t, u2)))
    weights = 2.0 * step / denom
    # pi (num / den) as angle + low, to about 2**-100 relative; the division
    # remainder num - ratio * den is exact while den < 2**26
    num = n + 1.0 - 2.0 * k
    den = 2.0 * n + 1.0
    ratio = num / den
    head, rest = _split(ratio)
    tail = ((num - head * den) - rest * den) / den
    angle = math.pi * ratio
    low = ((((_PI_HEAD * head - angle) + _PI_HEAD * rest + _PI_REST * head)
            + _PI_REST * rest) + (math.pi * tail + _PI_TAIL * ratio))
    phi = angle - shift
    low += (angle - phi) - shift
    nodes = np.sin(phi) + np.cos(phi) * low
    if n % 2:
        nodes[-1] = 0.0
    return nodes, weights


def _newton(x, n):
    """Nodes ``x`` polished by Newton on the Legendre recurrence, and weights.

    Newton stops on its own error bound: a step ``dx`` leaves an error of
    about ``|x| dx^2 / (1 - x^2)``, since ``P_n'' / P_n' = 2x / (1 - x^2)``
    at a root (Hale and Townsend, SIAM J. Sci. Comput. 35, A652, 2013).
    When the first step meets ``_NEWTON_TOL``, one O(n^2) recurrence sweep
    gives the nodes and, with ``P_n'`` carried to the stepped node to first
    order (``P_n''`` from Legendre's equation), the weights too.
    """
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
    return x - dx, 2.0 / (one_minus * slope * slope)


@lru_cache(maxsize=128)
def _leggauss(n):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    The non-negative nodes and their weights come from Bogaert's formulas
    (``_bogaert``) in O(n) time; below ``_FORMULA_NODES`` nodes, Newton
    polishes them (``_newton``).  The rule is mirrored, so it is exactly
    symmetric.  The arrays are cached and shared, hence read-only.
    """
    x, w = _bogaert(n)
    if n < _FORMULA_NODES:
        x, w = _newton(x, n)
    half = n // 2
    nodes = np.concatenate((-x[:half], x[::-1]))
    weights = np.concatenate((w[:half], w[::-1]))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _state_pairs(jsa, x, y, wy):
    """Block pairs of the heralded state ``B B^H``, ``B = Phi * sqrt(wy)``.

    ``B`` goes straight into ``core._gram_blocks``, so no caller holds it
    while the products are reduced.
    """
    return _gram_blocks(jsa.row_pieces(x, y, np.sqrt(wy)))


def _single_pair(jsa, herald, heralded, spec, what="heralding probability"):
    """``(purity, success)`` of one herald, reduced from block products.

    ``core._purity_success`` squares each product of ``_state_pairs`` in
    place, so peak memory is ``B``'s band and one block product.
    """
    x, wx, ((y, wy),) = jsa.axes((herald,), heralded, _spec(spec))
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
    x, wx, ((y, wy),) = jsa.axes((herald_filter,), None, _spec(spec))
    success = 0.0
    for start, _, block in jsa.row_pieces(x, y, np.sqrt(wy)):
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
    """Two-arm overlaps at each delay, zero where ``jsa.resolved`` is false;
    the arguments are checked even when no delay is resolved."""
    out = np.zeros(delays.shape)
    resolved = _amplitude(jsa).resolved(delays)
    spec = _spec(spec)
    heralds = (herald_x,) if herald_y is herald_x else (herald_x, herald_y)
    for herald in heralds:
        _spectral_filter(herald)
    if not np.any(resolved):
        return out
    x, wx, idler_axes = jsa.axes(heralds, None, spec,
                                 float(np.abs(delays[resolved]).max()))
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
