"""Tests for the sampled-mode decomposition route."""

import io
import logging
import math

import numpy as np
import pytest

import heraldpurity as hp
import heraldpurity.schmidt as schmidt_module
from conftest import identity_filter


def chirped_copy(grid, seed_phase=(0.21, -0.13, 0.17, 0.4)):
    """Same intensity as ``grid`` with a smooth complex spectral phase."""
    ws = grid.signal_grid[:, None]
    wi = grid.idler_grid[None, :]
    c2s, c2i, cx, c1s = seed_phase
    phase = c2s * ws**2 + c2i * wi**2 + cx * ws * wi + c1s * ws
    amps = grid.amplitudes * np.exp(1j * phase)
    return hp.GriddedJsa(grid.signal_grid, grid.idler_grid, amps).normalize()


def full_svd_weights(grid, rel_threshold=1e-12):
    """Retained weights of a full SVD of the samples ``decompose`` factors.

    ``decompose`` flushes subnormal samples to zero before factoring, so the
    reference does the same to see the identical matrix.
    """
    scaled = grid.amplitudes * math.sqrt(grid.cell_area)
    scaled[np.abs(scaled) < np.finfo(float).tiny] = 0.0
    p = np.linalg.svd(scaled, full_matrices=False)[1] ** 2
    return p[p >= rel_threshold * p[0]]


def descending(weights):
    # decompose orders modes inside numerically degenerate weight groups by
    # the sign of their first sample; compare weights as sorted sets.
    return np.sort(weights)[::-1]


@pytest.fixture(scope="module")
def chirped_grid(jsa_k26):
    return chirped_copy(hp.discretize(jsa_k26, half_extent=6.0, n_points=400))


@pytest.fixture(scope="module")
def chirped_modes(chirped_grid):
    return hp.decompose(chirped_grid)


@pytest.fixture(scope="module")
def separable_grid(jsa_separable):
    extent, points = hp.recommended_grid(jsa_separable)
    return hp.discretize(jsa_separable, half_extent=extent, n_points=points)


GRIDS = ("k26_grid", "ktp_grid", "chirped_grid", "separable_grid")


@pytest.mark.parametrize("name", GRIDS)
def test_truncated_weights_match_full_svd(name, request):
    grid = request.getfixturevalue(name)
    modes = hp.decompose(grid)
    reference = full_svd_weights(grid)
    assert modes.n_modes == reference.size
    np.testing.assert_allclose(descending(modes.coefficients), reference,
                               rtol=0.0, atol=1e-12 * reference[0])


@pytest.mark.filterwarnings("ignore:grid step")
def test_rank_past_half_the_grid_uses_full_svd(jsa_ktp, caplog):
    extent, _ = hp.recommended_grid(jsa_ktp)
    grid = hp.discretize(jsa_ktp, half_extent=extent, n_points=256)
    reference = full_svd_weights(grid)
    assert reference.size > 256 // 2
    with caplog.at_level(logging.DEBUG, logger="heraldpurity"):
        modes = hp.decompose(grid)
    assert "full SVD True" in caplog.records[-1].getMessage()
    assert modes.n_modes == reference.size
    np.testing.assert_array_equal(descending(modes.coefficients), reference)


@pytest.mark.parametrize("rel_threshold", (0.0, -1.0))
def test_threshold_at_or_below_zero_keeps_every_mode(k26_grid, rel_threshold):
    reference = full_svd_weights(k26_grid, rel_threshold)
    assert reference.size == k26_grid.signal_grid.size
    modes = hp.decompose(k26_grid, rel_threshold=rel_threshold)
    assert modes.n_modes == reference.size
    np.testing.assert_array_equal(descending(modes.coefficients), reference)


def test_truncated_and_full_svd_give_the_same_modes(k26_grid, monkeypatch):
    # Odd modes of this symmetric source have two extremal samples of equal
    # magnitude; the phase rule must give them the same sign on both paths.
    truncated = hp.decompose(k26_grid)
    monkeypatch.setattr(schmidt_module, "_SKETCH_START", 10**9)
    full = hp.decompose(k26_grid)
    assert truncated.n_modes == full.n_modes
    p = full.coefficients
    for field in ("signal_modes", "idler_modes"):
        a = getattr(truncated, field)
        b = getattr(full, field)
        # A mode of weight p is fixed by the SVD to about eps sqrt(p0 / p).
        bound = 1e-13 * np.sqrt(p[0] / p) * np.abs(b).max(axis=1)
        assert np.all(np.abs(a - b).max(axis=1) <= bound)


@pytest.mark.parametrize("name", ("k26_grid", "chirped_grid"))
def test_decompose_is_deterministic(name, request):
    grid = request.getfixturevalue(name)
    np.random.seed(1)
    first = hp.decompose(grid)
    np.random.seed(2)
    second = hp.decompose(grid)
    # The global stream was neither read nor advanced.
    assert np.random.random() == np.random.RandomState(2).random_sample()
    for field in ("coefficients", "signal_modes", "idler_modes"):
        np.testing.assert_array_equal(getattr(first, field),
                                      getattr(second, field))


@pytest.mark.parametrize("name", ("ktp_modes", "chirped_modes"))
def test_every_retained_mode_is_orthonormal(name, request):
    # decompose itself checks the leading 12 modes; check all of them here.
    modes = request.getfixturevalue(name)
    assert modes.n_modes > 12
    for mode_set, step in ((modes.signal_modes, modes.signal_step),
                           (modes.idler_modes, modes.idler_step)):
        gram = (mode_set * step) @ mode_set.conj().T
        np.testing.assert_allclose(gram, np.eye(modes.n_modes), atol=1e-8)


def test_decompose_logs_at_debug_only(k26_grid, caplog):
    package = logging.getLogger("heraldpurity")
    assert any(isinstance(handler, logging.NullHandler)
               for handler in package.handlers)
    hp.decompose(k26_grid)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="heraldpurity"):
        modes = hp.decompose(k26_grid)
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG
    assert record.name.startswith("heraldpurity")
    message = record.getMessage()
    assert "grid 256x256" in message
    assert "sketch ranks [32" in message
    assert "full SVD False" in message
    assert f"modes kept {modes.n_modes}," in message
    assert "residual weight" in message


def test_separable_amplitude_is_single_mode(jsa_separable):
    extent, points = hp.recommended_grid(jsa_separable)
    grid = hp.discretize(jsa_separable, half_extent=extent, n_points=points)
    modes = hp.decompose(grid)
    assert modes.coefficients[0] == pytest.approx(1.0, abs=1e-10)
    if modes.n_modes > 1:
        assert modes.coefficients[1] < 1e-12


def test_weights_sum_and_order(k26_modes):
    p = k26_modes.coefficients
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(p) <= 1e-12 * p[0])
    assert k26_modes.purity() == pytest.approx(5.0 / 13.0, rel=1e-6)
    assert k26_modes.schmidt_number() == pytest.approx(2.6, rel=1e-6)


def test_modes_are_orthonormal(k26_modes):
    for mode_set, step in ((k26_modes.signal_modes, k26_modes.signal_step),
                           (k26_modes.idler_modes, k26_modes.idler_step)):
        gram = (mode_set * step) @ mode_set.conj().T
        np.testing.assert_allclose(gram, np.eye(mode_set.shape[0]), atol=1e-8)


def test_modes_rebuild_samples(k26_grid, k26_modes):
    rebuilt = k26_modes.reconstruct()
    err = np.linalg.norm(rebuilt - k26_grid.amplitudes)
    assert err / np.linalg.norm(k26_grid.amplitudes) < 1e-6
    # keeping the two leading modes accounts for most of the weight
    partial = k26_modes.reconstruct(n_modes=2)
    captured = np.linalg.norm(partial) ** 2 * k26_grid.cell_area
    assert captured == pytest.approx(np.sum(k26_modes.coefficients[:2]), rel=1e-9)


def test_weights_follow_thermal_law(k26_modes, ktp_modes, jsa_ktp):
    thermal = hp.thermal_schmidt_coefficients(2.6, n_modes=11)
    np.testing.assert_allclose(k26_modes.coefficients[:11], thermal, atol=1e-3)
    k_ktp = hp.schmidt_number(jsa_ktp)
    thermal = hp.thermal_schmidt_coefficients(k_ktp, n_modes=11)
    np.testing.assert_allclose(ktp_modes.coefficients[:11], thermal, atol=1e-3)
    assert ktp_modes.purity() == pytest.approx(0.04521723, abs=1e-3)
    assert ktp_modes.schmidt_number() == pytest.approx(k_ktp, rel=1e-3)


def test_leading_mode_matches_closed_shape(k26_modes, jsa_k26):
    analytic = hp.schmidt_mode_analytic(jsa_k26, 0, k26_modes.signal_grid)
    sampled = k26_modes.signal_modes[0]
    residual = np.sum(np.abs(sampled - analytic) ** 2) * k26_modes.signal_step
    assert residual < 1e-6


def test_decompose_rejects_unnormalized(k26_grid):
    doubled = hp.GriddedJsa(k26_grid.signal_grid, k26_grid.idler_grid,
                            2.0 * k26_grid.amplitudes)
    with pytest.raises(ValueError):
        hp.decompose(doubled)


def test_truncation_keeps_weights_unrescaled(k26_grid):
    full = hp.decompose(k26_grid)
    coarse = hp.decompose(k26_grid, rel_threshold=1e-2)
    assert coarse.n_modes < full.n_modes
    assert coarse.coefficients.sum() < 1.0
    assert coarse.coefficients.sum() > 0.9
    np.testing.assert_allclose(
        coarse.coefficients, full.coefficients[:coarse.n_modes], rtol=1e-12)


def test_decomposition_validation(k26_modes):
    with pytest.raises(ValueError):
        hp.SchmidtDecomposition(
            coefficients=np.array([0.2, 0.8]),
            signal_modes=k26_modes.signal_modes[:2],
            idler_modes=k26_modes.idler_modes[:2],
            signal_grid=k26_modes.signal_grid,
            idler_grid=k26_modes.idler_grid,
        )


def test_overlap_identity_filter(k26_modes, jsa_k26):
    overlap = hp.overlap_matrix(k26_modes, identity_filter(jsa_k26))
    np.testing.assert_allclose(
        overlap.matrix, np.eye(k26_modes.n_modes), atol=1e-8)
    assert overlap.side == "idler"


def test_overlap_matrix_properties(k26_modes):
    filt = hp.GaussianFilter(0.3, 0.8)
    overlap = hp.overlap_matrix(k26_modes, filt)
    matrix = overlap.matrix
    np.testing.assert_allclose(matrix, matrix.conj().T, atol=1e-12)
    diag = np.real(np.diag(matrix))
    assert np.all(diag >= -1e-9)
    assert np.all(diag <= 1.0 + 1e-9)
    eigenvalues = np.linalg.eigvalsh(matrix)
    assert eigenvalues.min() >= -1e-9
    assert eigenvalues.max() <= 1.0 + 1e-9


def test_overlap_matrix_validation(k26_modes):
    n = k26_modes.n_modes
    lopsided = np.zeros((n, n))
    lopsided[0, 1] = 0.5
    with pytest.raises(ValueError):
        hp.OverlapMatrix(matrix=lopsided, side="idler")
    overweight = np.eye(n) * 1.5
    with pytest.raises(ValueError):
        hp.OverlapMatrix(matrix=overweight, side="idler")


def test_schmidt_quantities_match_quadrature(k26_grid, k26_modes):
    filt = hp.GaussianFilter(0.2, 0.8)
    overlap = hp.overlap_matrix(k26_modes, filt)
    purity, success = hp.schmidt_quantities(k26_modes, overlap)
    assert purity == pytest.approx(hp.filtered_purity(k26_grid, filt), abs=1e-10)
    assert success == pytest.approx(hp.herald_success(k26_grid, filt), abs=1e-10)


def test_schmidt_quantities_known_value(k26_modes, jsa_k26):
    filt = hp.GaussianFilter(0.0, 0.6)
    purity, success = hp.schmidt_quantities(
        k26_modes, hp.overlap_matrix(k26_modes, filt))
    assert purity == pytest.approx(0.8762919181, abs=1e-6)
    assert success == pytest.approx(
        hp.closed_form_success(jsa_k26, filt), rel=1e-5)


def test_schmidt_quantities_empty_filter(k26_modes):
    grid = np.linspace(-30.0, 30.0, 11)
    dark = hp.TabulatedFilter(grid, np.zeros(11))
    with pytest.raises(hp.NumericalError):
        hp.schmidt_quantities(k26_modes, hp.overlap_matrix(k26_modes, dark))


def test_two_filter_schmidt_reduces_and_validates(k26_grid, k26_modes, jsa_k26):
    herald = hp.overlap_matrix(k26_modes, hp.GaussianFilter(0.0, 0.8))
    wide = hp.overlap_matrix(k26_modes, identity_filter(jsa_k26), side="signal")
    purity2, success2 = hp.two_filter_schmidt(k26_modes, herald, wide)
    single_p, single_s = hp.schmidt_quantities(k26_modes, herald)
    assert purity2 == pytest.approx(single_p, abs=1e-8)
    assert success2 == pytest.approx(single_s, abs=1e-8)
    with pytest.raises(ValueError):
        hp.two_filter_schmidt(k26_modes, herald, herald)
    with pytest.raises(ValueError):
        hp.two_filter_schmidt(k26_modes, wide, wide)


def test_two_filter_schmidt_benchmark(ktp_modes):
    herald = hp.overlap_matrix(ktp_modes, hp.GaussianFilter(0.0, 6.0))
    heralded = hp.overlap_matrix(
        ktp_modes, hp.GaussianFilter(0.0, 6.0), side="signal")
    purity2, success2 = hp.two_filter_schmidt(ktp_modes, herald, heralded)
    assert purity2 == pytest.approx(0.17892707, rel=1e-4)
    assert success2 == pytest.approx(0.24888958, rel=1e-4)


def test_hom_dip_schmidt_matches_quadrature(k26_grid, k26_modes):
    filt_x = hp.GaussianFilter(0.0, 1.0)
    filt_y = hp.GaussianFilter(-0.2, 1.4)
    overlap_x = hp.overlap_matrix(k26_modes, filt_x)
    overlap_y = hp.overlap_matrix(k26_modes, filt_y)
    delays = np.linspace(-2.5, 2.5, 11)
    modal = hp.hom_dip_schmidt(k26_modes, overlap_x, overlap_y, delays)
    direct = hp.hom_dip(k26_grid, filt_x, filt_y, delays)
    np.testing.assert_allclose(
        modal.coincidences, direct.coincidences, atol=1e-8)


def test_hom_dip_schmidt_dip_depth(k26_grid, k26_modes):
    filt = hp.GaussianFilter(0.0, 1.0)
    overlap = hp.overlap_matrix(k26_modes, filt)
    curve = hp.hom_dip_schmidt(k26_modes, overlap, overlap, np.array([0.0]))
    purity, _ = hp.schmidt_quantities(k26_modes, overlap)
    assert curve.coincidences[0] == pytest.approx(
        0.5 * (1.0 - purity), abs=1e-8)
    with pytest.raises(hp.ConvergenceError):
        hp.hom_dip_schmidt(k26_modes, overlap, overlap, np.array([1e4]))


def test_mode_projection(k26_modes, jsa_separable):
    projection = hp.mode_projection_herald(k26_modes, 0)
    assert projection.index == 0
    assert projection.success == pytest.approx(2.0 / 3.6, abs=1e-3)
    assert projection.purity == pytest.approx(1.0, abs=1e-10)
    assert projection.heralded_mode.shape == k26_modes.signal_modes[0].shape
    second = hp.mode_projection_herald(k26_modes, 1)
    assert second.success == pytest.approx(k26_modes.coefficients[1], rel=1e-12)
    for bad in (-1, 10**6):
        with pytest.raises(ValueError):
            hp.mode_projection_herald(k26_modes, bad)


def test_global_phase_does_not_change_results(k26_grid):
    p_ref = hp.decompose(k26_grid).coefficients
    rotated = hp.GriddedJsa(
        k26_grid.signal_grid, k26_grid.idler_grid,
        k26_grid.amplitudes * np.exp(0.7j))
    modes = hp.decompose(rotated)
    np.testing.assert_allclose(modes.coefficients, p_ref, atol=1e-12)
    repeat = hp.decompose(rotated)
    np.testing.assert_array_equal(modes.coefficients, repeat.coefficients)
    np.testing.assert_array_equal(modes.signal_modes, repeat.signal_modes)


def test_chirped_amplitude_routes_agree(jsa_k26):
    base = hp.discretize(jsa_k26, half_extent=6.0, n_points=400)
    grid = chirped_copy(base)
    modes = hp.decompose(grid)
    assert modes.purity() == pytest.approx(
        hp.unfiltered_purity(grid), abs=1e-10)
    herald = hp.GaussianFilter(0.3, 0.8)
    heralded = hp.GaussianFilter(-0.2, 1.4)
    overlap_i = hp.overlap_matrix(modes, herald)
    overlap_s = hp.overlap_matrix(modes, heralded, side="signal")
    purity, success = hp.schmidt_quantities(modes, overlap_i)
    assert purity == pytest.approx(hp.filtered_purity(grid, herald), abs=1e-9)
    assert success == pytest.approx(hp.herald_success(grid, herald), abs=1e-9)
    purity2, success2 = hp.two_filter_schmidt(modes, overlap_i, overlap_s)
    direct2 = hp.two_filter_quantities(grid, herald, heralded)
    assert purity2 == pytest.approx(direct2[0], abs=1e-8)
    assert success2 == pytest.approx(direct2[1], abs=1e-8)
    delays = np.linspace(-2.0, 2.0, 9)
    overlap_y = hp.overlap_matrix(modes, heralded)
    modal = hp.hom_dip_schmidt(modes, overlap_i, overlap_y, delays)
    direct = hp.hom_dip(grid, herald, heralded, delays)
    np.testing.assert_allclose(
        modal.coincidences, direct.coincidences, atol=1e-8)


def test_export_modes_csv_round_trip(k26_modes):
    thermal = hp.thermal_schmidt_coefficients(2.6, n_modes=3)
    buffer = io.StringIO()
    hp.export_modes_csv(k26_modes, buffer, n_modes=3, reference=thermal)
    text = buffer.getvalue()
    blocks = text.split("\n\n")
    assert len(blocks) == 3

    weight_lines = blocks[0].strip().splitlines()
    assert weight_lines[0] == "mu,p_mu,reference_p_mu"
    for mu, line in enumerate(weight_lines[1:]):
        index, weight, reference = line.split(",")
        assert int(index) == mu
        assert float(weight) == pytest.approx(
            k26_modes.coefficients[mu], rel=1e-11)
        assert float(reference) == pytest.approx(thermal[mu], rel=1e-11)

    signal_lines = blocks[1].strip().splitlines()
    assert signal_lines[0] == "# signal modes"
    assert signal_lines[1].split(",")[:3] == ["omega", "mode0_re", "mode0_im"]
    row = signal_lines[2].split(",")
    assert float(row[0]) == pytest.approx(k26_modes.signal_grid[0], rel=1e-11)
    assert float(row[1]) == pytest.approx(
        k26_modes.signal_modes[0, 0].real, rel=1e-9, abs=1e-14)
    assert blocks[2].strip().splitlines()[0] == "# idler modes"
    assert len(signal_lines) == 2 + k26_modes.signal_grid.size
