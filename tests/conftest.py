"""Shared fixtures and random-draw helpers for the test suite."""

import math

import numpy as np
import pytest

import heraldpurity as hp

SEED = 20260825

# Benchmark sources reused across files.  The ratio-5 source has a Schmidt
# number of exactly 2.6; the narrowband-pumped crystal source is strongly
# multimode (K near 22.1).
K26_PARAMS = (1.0, 5.0, math.pi / 4, -math.pi / 4)
KTP_PARAMS = (6.0, 0.70, math.pi / 4, 0.97)


def draw_source(rng, k_max=8.0):
    """Random double-Gaussian amplitude with a bounded mode count."""
    while True:
        sigma1 = 10.0 ** rng.uniform(math.log10(0.2), 1.0)
        sigma2 = 10.0 ** rng.uniform(math.log10(0.2), 1.0)
        theta1 = rng.uniform(0.1, math.pi - 0.1)
        offset = rng.uniform(0.1, math.pi - 0.1)
        if rng.random() < 0.5:
            offset = -offset
        jsa = hp.DoubleGaussianJsa(sigma1, sigma2, theta1, theta1 - offset)
        if hp.schmidt_number(jsa) <= k_max:
            return jsa


def draw_case(rng, k_max=8.0, n_budget=1100):
    """Random (jsa, filter, half_extent, n_points) tractable on every route.

    Redraws until the closed-form heralding probability is meaningful and
    the recommended grid stays small enough for a quick decomposition.
    """
    while True:
        jsa = draw_source(rng, k_max=k_max)
        width = 10.0 ** rng.uniform(math.log10(0.05), math.log10(20.0))
        filt = hp.GaussianFilter(rng.uniform(-3.0, 3.0), width)
        if hp.closed_form_success(jsa, filt) < 1e-8:
            continue
        half_extent, n_points = hp.recommended_grid(jsa, herald_filter=filt)
        if n_points > n_budget:
            continue
        return jsa, filt, half_extent, n_points


def identity_filter(jsa, tails=12.0):
    """Flat unit-transmission tabulated filter covering the idler marginal."""
    _, s_idl = jsa.marginal_widths()
    grid = np.linspace(-tails * s_idl, tails * s_idl, 41)
    return hp.TabulatedFilter(grid, np.ones_like(grid))


def _panels(jsa, knots, nodes, tails):
    """Gauss-Legendre nodes and weights on the panels between ``knots``.

    Knots are clipped to ``tails`` marginal idler s.d.; a panel gets two
    nodes plus ``nodes`` per conditional idler width of its length, so long
    panels converge and short ones stay cheap.
    """
    _, s_idl = jsa.marginal_widths()
    _, w_idl = jsa.conditional_widths()
    knots = np.unique(np.clip(knots, -tails * s_idl, tails * s_idl))
    ys, ws = [], []
    for lo, hi in zip(knots[:-1], knots[1:]):
        x, w = np.polynomial.legendre.leggauss(
            2 + math.ceil(nodes * (hi - lo) / w_idl))
        ys.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
        ws.append(0.5 * (hi - lo) * w)
    return np.concatenate(ys), np.concatenate(ws)


def _idler_sums(jsa, y, u, v):
    """``(u diag(rho), v diag(rho), u rho^2 v)`` of the closed-form idler state.

    For a real double Gaussian with intensity coefficients ``(a, b, c)`` the
    unnormalized idler state is
    ``rho(y, y') = exp(-(c/2)(y^2 + y'^2) + b^2 (y + y')^2 / (4a))``; its
    square is contracted a block of rows at a time.
    """
    a, b, c, _ = jsa.intensity_coefficients()

    def rho(p, q):
        return np.exp(-0.5 * c * (p * p + q * q) + b * b * (p + q) ** 2 / (4 * a))

    diag = rho(y, y)
    cross = sum(u[i:i + 512] @ rho(y[i:i + 512, None], y[None, :]) ** 2 @ v
                for i in range(0, y.size, 512))
    return u @ diag, v @ diag, cross


def tabulated_reference(jsa, filt, nodes=20, tails=40.0):
    """Exact ``(success, purity)`` of a tabulated idler herald, numpy only.

    The transmission is linear between knots, so Gauss-Legendre panels
    between them (``_panels``) integrate the closed-form idler state to
    rounding: with weights ``w`` (nodes times transmission),
    ``P = w rho^2 w / tr^2`` and ``S = tr * sqrt((ac - b^2) / (pi a))``,
    with ``tr = sum(w diag(rho))``.
    """
    a, b, c, _ = jsa.intensity_coefficients()
    y, w = _panels(jsa, filt.grid, nodes, tails)
    w = w * filt.transmission(y)
    trace, _, cross = _idler_sums(jsa, y, w, w)
    return trace * math.sqrt((a * c - b * b) / (math.pi * a)), cross / trace**2


def tabulated_overlap(jsa, fx, fy, nodes=20, tails=40.0):
    """Exact zero-delay overlap of two tabulated idler heralds, numpy only.

    ``sum(T_x T_y rho^2) / (S_x S_y)`` in the terms of
    ``tabulated_reference``, on panels between the knots of both heralds;
    equal heralds overlap by the purity.
    """
    y, w = _panels(jsa, np.concatenate((fx.grid, fy.grid)), nodes, tails)
    trace_x, trace_y, cross = _idler_sums(jsa, y, w * fx.transmission(y),
                                          w * fy.transmission(y))
    return cross / (trace_x * trace_y)


def assemble(pairs, n):
    """The whole ``n x n`` state from its block pairs ``(rows_i, rows_j, M)``.

    Off-diagonal blocks are mirrored, so a real state is exactly symmetric,
    and no pairs give zeros.
    """
    out = None
    for rows_i, rows_j, block in pairs:
        if out is None:
            out = np.zeros((n, n), np.result_type(float, block))
        out[rows_i, rows_j] = block
        if rows_i != rows_j:
            out[rows_j, rows_i] = block.conj().T
    return np.zeros((n, n)) if out is None else out


def idler_line_grid(shoulder):
    """A 64 x 65 grid over [-3, 3] whose idler marginal is one sharp line.

    The amplitude is ``exp(-ws**2/2)`` on the ``wi = 0`` column and
    ``shoulder`` times that on its two neighbours, normalized.  A shoulder
    of 1e-4 puts the RMS idler frequency at 1.33e-5 rad/ps, so 1e3 times it
    lies below twice the 0.094 rad/ps idler step; a shoulder of 0 puts it
    at zero.
    """
    ws, wi = np.linspace(-3.0, 3.0, 64), np.linspace(-3.0, 3.0, 65)
    line = np.exp(-0.5 * ws**2)
    amps = np.zeros((ws.size, wi.size))
    amps[:, 32] = line
    amps[:, [31, 33]] = shoulder * line[:, None]
    return hp.GriddedJsa(ws, wi, amps).normalize()


def chirped_copy(grid, seed_phase=(0.21, -0.13, 0.17, 0.4)):
    """Same intensity as ``grid`` with a smooth complex spectral phase."""
    ws = grid.signal_grid[:, None]
    wi = grid.idler_grid[None, :]
    c2s, c2i, cx, c1s = seed_phase
    phase = c2s * ws**2 + c2i * wi**2 + cx * ws * wi + c1s * ws
    amps = grid.amplitudes * np.exp(1j * phase)
    return hp.GriddedJsa(grid.signal_grid, grid.idler_grid, amps).normalize()


@pytest.fixture(scope="session")
def jsa_k26():
    return hp.DoubleGaussianJsa(*K26_PARAMS)


@pytest.fixture(scope="session")
def jsa_ktp():
    return hp.DoubleGaussianJsa(*KTP_PARAMS)


@pytest.fixture(scope="session")
def jsa_separable():
    return hp.DoubleGaussianJsa(1.0, 1.0, math.pi / 4, -math.pi / 4)


@pytest.fixture(scope="session")
def k26_grid(jsa_k26):
    extent, points = hp.recommended_grid(jsa_k26)
    return hp.discretize(jsa_k26, half_extent=extent, n_points=points)


@pytest.fixture(scope="session")
def chirped_grid(jsa_k26):
    return chirped_copy(hp.discretize(jsa_k26, half_extent=6.0, n_points=400))


@pytest.fixture(scope="session")
def k26_modes(k26_grid):
    return hp.decompose(k26_grid)


@pytest.fixture(scope="session")
def ktp_grid(jsa_ktp):
    extent, points = hp.recommended_grid(jsa_ktp)
    return hp.discretize(jsa_ktp, half_extent=extent, n_points=points)


@pytest.fixture(scope="session")
def ktp_modes(ktp_grid):
    return hp.decompose(ktp_grid)
