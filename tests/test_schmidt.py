"""Tests for the sampled-mode decomposition route."""

import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import heraldpurity as hp
import heraldpurity.schmidt as schmidt_module
from conftest import chirped_copy, identity_filter
from heraldpurity.core import _UNDERFLOW_FLOOR, _flush_underflow


def full_svd_weights(grid, rel_threshold=1e-12):
    """Retained weights of a full SVD of the samples ``decompose`` factors.

    ``decompose`` flushes samples below the underflow floor to zero before
    factoring, so the reference does the same to see the identical matrix.
    """
    scaled = _flush_underflow(grid.amplitudes * math.sqrt(grid.cell_area))
    p = np.linalg.svd(scaled, full_matrices=False)[1] ** 2
    return p[p >= rel_threshold * p[0]]


def descending(weights):
    # decompose keeps the SVD's own descending order; sorting makes the
    # comparison independent of it, comparing weights as sorted sets.
    return np.sort(weights)[::-1]


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


def test_a_short_sketch_grows_without_redrawing(monkeypatch, caplog):
    # K = 12 needs a second sketch rank on its recommended grid; the grown
    # sketch draws only the missing test columns and keeps the ranks, the
    # mode count and the full SVD's weights
    jsa = hp.DoubleGaussianJsa(1.0, 12.0, math.pi / 4, -math.pi / 4)
    extent, points = hp.recommended_grid(jsa)
    grid = hp.discretize(jsa, half_extent=extent, n_points=points)
    default_rng = np.random.default_rng
    drawn = []

    class CountedRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, shape):
            drawn.append(shape[1])
            return self.rng.standard_normal(shape)

    monkeypatch.setattr(np.random, "default_rng", CountedRng)
    with caplog.at_level(logging.DEBUG, logger="heraldpurity"):
        modes = hp.decompose(grid)
    message = caplog.records[-1].getMessage()
    assert "grid 406x406, sketch ranks [32, 113], full SVD False" in message
    assert modes.n_modes == 83
    assert drawn == [32, 81]
    reference = full_svd_weights(grid)
    assert modes.n_modes == reference.size
    np.testing.assert_allclose(descending(modes.coefficients), reference,
                               rtol=0.0, atol=1e-12 * reference[0])
    u = modes.signal_modes.T * math.sqrt(modes.signal_step)
    assert np.abs(u.T @ u - np.eye(modes.n_modes)).max() < 1e-13


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


def test_modes_vanish_where_the_amplitude_underflows(jsa_k26, monkeypatch):
    # the grid reaches about 47 marginal widths, so its outer rows and
    # columns lie wholly below the underflow floor
    axis = np.linspace(-120.0, 120.0, 400)
    grid = hp.GriddedJsa(axis, axis, hp.eval_double_gaussian(
        jsa_k26, axis[:, None], axis[None, :])).normalize()
    scaled = np.abs(grid.amplitudes) * math.sqrt(grid.cell_area)
    dead_rows = np.all(scaled < _UNDERFLOW_FLOOR, axis=1)
    dead_cols = np.all(scaled < _UNDERFLOW_FLOOR, axis=0)
    assert dead_rows.any() and dead_cols.any()
    truncated_svd, factors = schmidt_module._truncated_svd, []

    def recording(*args):
        factors.append(truncated_svd(*args))
        return factors[-1]
    monkeypatch.setattr(schmidt_module, "_truncated_svd", recording)
    modes = hp.decompose(grid)
    assert not modes.signal_modes[:, dead_rows].any()
    assert not modes.idler_modes[:, dead_cols].any()
    # without the zeroing those samples hold SVD rounding noise, and
    # everything else is unchanged; on this real amplitude each mode's
    # phase is an exact sign
    (u, s, vh, _, _), = factors
    keep = modes.n_modes
    noisy_signal = u[:, :keep].T / math.sqrt(grid.signal_step)
    noisy_idler = vh[:keep] / math.sqrt(grid.idler_step)
    assert noisy_signal[:, dead_rows].any()
    peak = np.argmax(np.abs(modes.signal_modes), axis=1)[:, None]
    signs = (np.take_along_axis(modes.signal_modes, peak, axis=1)
             / np.take_along_axis(noisy_signal, peak, axis=1))
    assert np.array_equal(np.abs(signs), np.ones_like(signs))
    assert np.array_equal((s * s)[:keep], modes.coefficients)
    assert np.array_equal((noisy_signal * signs)[:, ~dead_rows],
                          modes.signal_modes[:, ~dead_rows])
    assert np.array_equal((noisy_idler * signs)[:, ~dead_cols],
                          modes.idler_modes[:, ~dead_cols])
    noisy = hp.SchmidtDecomposition(modes.coefficients, noisy_signal,
                                    noisy_idler, grid.signal_grid,
                                    grid.idler_grid)
    assert np.abs(noisy.reconstruct() - modes.reconstruct()).max() <= 1e-15


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


def test_decompose_rejects_unnormalized(k26_grid, jsa_k26):
    doubled = hp.GriddedJsa(k26_grid.signal_grid, k26_grid.idler_grid,
                            2.0 * k26_grid.amplitudes)
    with pytest.raises(ValueError):
        hp.decompose(doubled)
    with pytest.raises(TypeError,
                       match="^not a gridded amplitude: DoubleGaussianJsa$"):
        hp.decompose(jsa_k26)


def test_decompose_wraps_a_failed_factorization(k26_grid, monkeypatch):
    # safety code for a LAPACK failure, which no valid grid provokes
    def failing(*args):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(schmidt_module, "_truncated_svd", failing)
    with pytest.raises(hp.NumericalError, match="^singular value "
                       "decomposition failed: SVD did not converge$"):
        hp.decompose(k26_grid)


def test_decompose_checks_its_modes_are_orthonormal(k26_grid, monkeypatch):
    # signal factors off by a factor 2 give mode norms of 4 on the grid
    truncated_svd = schmidt_module._truncated_svd

    def scaled(*args):
        u, s, vh, ranks, residual = truncated_svd(*args)
        return 2.0 * u, s, vh, ranks, residual
    monkeypatch.setattr(schmidt_module, "_truncated_svd", scaled)
    with pytest.raises(hp.NumericalError,
                       match="^decomposed modes lost discrete orthonormality$"):
        hp.decompose(k26_grid)


@pytest.mark.parametrize("threshold", [True, "1e-12", math.nan],
                         ids=["bool", "str", "nan"])
def test_decompose_requires_a_numeric_threshold(k26_grid, threshold):
    # true ran as a threshold of 1 and a string raised TypeError
    with pytest.raises(ValueError, match="rel_threshold must be"):
        hp.decompose(k26_grid, threshold)


def test_truncation_keeps_weights_unrescaled(k26_grid):
    full = hp.decompose(k26_grid)
    coarse = hp.decompose(k26_grid, rel_threshold=1e-2)
    assert coarse.n_modes < full.n_modes
    assert coarse.coefficients.sum() < 1.0
    assert coarse.coefficients.sum() > 0.9
    np.testing.assert_allclose(
        coarse.coefficients, full.coefficients[:coarse.n_modes], rtol=1e-12)


def test_decomposition_validation(k26_modes):
    # The second set rises by a factor of five far below the leading weight.
    for weights in ([0.2, 0.8], [1.0, 1e-13, 5e-13]):
        n = len(weights)
        with pytest.raises(ValueError):
            hp.SchmidtDecomposition(
                coefficients=np.array(weights),
                signal_modes=k26_modes.signal_modes[:n],
                idler_modes=k26_modes.idler_modes[:n],
                signal_grid=k26_modes.signal_grid,
                idler_grid=k26_modes.idler_grid,
            )
    # three modes of each side against two weights
    for side in ("signal", "idler"):
        modes = {"signal_modes": k26_modes.signal_modes[:2],
                 "idler_modes": k26_modes.idler_modes[:2]}
        modes[f"{side}_modes"] = getattr(k26_modes, f"{side}_modes")[:3]
        with pytest.raises(ValueError, match=f"^{side}_modes shape does not"):
            hp.SchmidtDecomposition(
                coefficients=k26_modes.coefficients[:2], **modes,
                signal_grid=k26_modes.signal_grid,
                idler_grid=k26_modes.idler_grid)


@pytest.mark.parametrize("weights", [[math.nan], [math.inf], [1.0, math.nan]])
def test_decomposition_refuses_non_finite_weights(weights):
    # NaN passed the sign and order checks, since it compares false
    n = len(weights)
    with pytest.raises(ValueError, match="finite"):
        hp.SchmidtDecomposition(weights, np.eye(n, 2), np.eye(n, 2),
                                [0.0, 1.0], [0.0, 1.0])


@pytest.mark.parametrize("grid, message", [
    ([0.0, 1.0, 5.0], "must be uniformly spaced"),
    ([0.0], "must be a 1-D array with >= 2 points"),
    ([0.0, math.nan, 2.0], "must be finite"),
    (["0", "1", "2"], "entry must be a number"),
], ids=["uneven", "one-point", "nan", "str"])
@pytest.mark.parametrize("side", ["signal", "idler"])
def test_decomposition_refuses_malformed_grids(side, grid, message):
    # each built: an uneven grid then weighted every cell by its first step,
    # and a one-point grid failed later, on its step
    n = len(grid)
    grids = {"signal_grid": [0.0, 1.0], "idler_grid": [0.0, 1.0],
             f"{side}_grid": grid}
    modes = {"signal_modes": np.eye(1, 2), "idler_modes": np.eye(1, 2),
             f"{side}_modes": np.eye(1, n)}
    with pytest.raises(ValueError, match=f"^{side}_grid {message}"):
        hp.SchmidtDecomposition([1.0], **modes, **grids)


def test_overlap_identity_filter(k26_modes, jsa_k26):
    overlap = hp.overlap_matrix(k26_modes, identity_filter(jsa_k26))
    np.testing.assert_allclose(
        overlap.matrix, np.eye(k26_modes.n_modes), atol=1e-8)
    assert overlap.side == "idler"


def test_tabulated_herald_cells_are_integrated(jsa_k26):
    # the demo box herald on 1024 points: point samples of its transmission
    # were 1.6e-2 off in success; cells integrated exactly are within
    # 1.8e-5 (success) and 7.4e-5 (purity) of the exact figures, on the
    # Schmidt and the gridded quadrature route alike
    box = hp.TabulatedFilter([-5.0, -1.0 - 1e-6, -1.0, 1.0, 1.0 + 1e-6, 5.0],
                             [0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    extent, _ = hp.recommended_grid(jsa_k26)
    grid = hp.discretize(jsa_k26, half_extent=extent, n_points=1024)
    modes = hp.decompose(grid)
    purity, success = hp.schmidt_quantities(
        modes, hp.overlap_matrix(modes, box))
    assert success == pytest.approx(0.305113542520, rel=2e-4)
    assert purity == pytest.approx(0.877079709208, rel=2e-4)
    assert hp.herald_success(grid, box) == pytest.approx(success, rel=1e-10)
    assert hp.filtered_purity(grid, box) == pytest.approx(purity, rel=1e-10)


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


_MODAL_ROUTES = {
    "schmidt_quantities": lambda modes, q: hp.schmidt_quantities(modes, q),
    "two_filter_schmidt": lambda modes, q: hp.two_filter_schmidt(
        modes, q, q),
    "hom_dip_schmidt": lambda modes, q: hp.hom_dip_schmidt(
        modes, q, q, [0.0]),
    "mode_projection_herald": lambda modes, q: hp.mode_projection_herald(
        modes, 0),
    "overlap_matrix": lambda modes, q: hp.overlap_matrix(
        modes, hp.GaussianFilter(0.0, 1.0)),
}
_NOT_MODES = [hp.DoubleGaussianJsa(1.0, 5.0, 0.7, -0.7), "modes"]
_NOT_OVERLAPS = [hp.GaussianFilter(0.0, 1.0), "flat"]


@pytest.mark.parametrize("route, modes_bad, bad", [
    *((route, True, bad) for route in _MODAL_ROUTES for bad in _NOT_MODES),
    *((route, False, bad) for route in list(_MODAL_ROUTES)[:3]
      for bad in _NOT_OVERLAPS),
])
def test_every_modal_route_refuses_a_wrong_type(k26_modes, route, modes_bad,
                                               bad):
    # each raised AttributeError on 'coefficients', 'idler_modes' or 'side';
    # one gate per kind words the refusal, the decomposition checked first
    overlap = hp.overlap_matrix(k26_modes, hp.GaussianFilter(0.0, 1.0))
    kind = "a Schmidt decomposition" if modes_bad else "an overlap matrix"
    with pytest.raises(TypeError, match=f"^not {kind}: {type(bad).__name__}$"):
        _MODAL_ROUTES[route](*((bad, overlap) if modes_bad
                               else (k26_modes, bad)))


def test_overlap_matrix_validation(k26_modes):
    n = k26_modes.n_modes
    lopsided = np.zeros((n, n))
    lopsided[0, 1] = 0.5
    with pytest.raises(ValueError):
        hp.OverlapMatrix(matrix=lopsided, side="idler")
    overweight = np.eye(n) * 1.5
    with pytest.raises(ValueError):
        hp.OverlapMatrix(matrix=overweight, side="idler")
    with pytest.raises(TypeError, match="not a spectral filter"):
        hp.overlap_matrix(k26_modes, None)
    with pytest.raises(ValueError, match="must be square"):
        hp.OverlapMatrix(matrix=np.zeros((2, 3)), side="idler")
    # NaN passes every comparison above, and would reach the figures
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            hp.OverlapMatrix(matrix=np.full((2, 2), bad), side="idler")
    # a bool entry built as 1.0, and a str entry raised TypeError
    for bad in (True, "1.0"):
        with pytest.raises(ValueError, match="must be a number"):
            hp.OverlapMatrix(matrix=[[bad, 0], [0, 1.0]], side="idler")


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


def test_two_filter_schmidt_benchmark(ktp_modes, jsa_ktp):
    herald = hp.overlap_matrix(ktp_modes, hp.GaussianFilter(0.0, 6.0))
    heralded = hp.overlap_matrix(
        ktp_modes, hp.GaussianFilter(0.0, 6.0), side="signal")
    purity2, success2 = hp.two_filter_schmidt(ktp_modes, herald, heralded)
    assert purity2 == pytest.approx(0.17892707, rel=1e-4)
    assert success2 == pytest.approx(0.24888958, rel=1e-4)
    closed = hp.closed_form_two_filter(*jsa_ktp.intensity_coefficients(),
                                       6.0, 0.0, 6.0, 0.0)
    assert (purity2, success2) == pytest.approx(closed, rel=1e-4)


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


def test_hom_dip_schmidt_never_builds_a_whole_state(ktp_modes):
    # 1754 signal samples: the two real states' block pairs stay below one
    # 1754 x 1754 complex array (about 0.66 of it; 2.5 times it when each
    # state and their product were whole), and the curve is the dense
    # double sum's
    herald_x = hp.overlap_matrix(ktp_modes, hp.GaussianFilter(0.0, 6.0))
    herald_y = hp.overlap_matrix(ktp_modes, hp.GaussianFilter(0.5, 4.0))
    delays = np.linspace(-2.0, 2.0, 41)
    n = ktp_modes.signal_grid.size
    assert n == 1754
    tracemalloc.start()
    try:
        curve = hp.hom_dip_schmidt(ktp_modes, herald_x, herald_y, delays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16
    sqp = np.sqrt(ktp_modes.coefficients)
    modes = ktp_modes.signal_modes
    m_x, m_y = (modes.T @ (sqp[:, None] * h.matrix * sqp) @ modes.conj()
                for h in (herald_x, herald_y))
    w = np.full(n, ktp_modes.signal_step)
    u = w * np.exp(1j * np.multiply.outer(delays, ktp_modes.signal_grid))
    cross = np.einsum("da,ab,db->d", u, m_x * m_y.conj(), u.conj()).real
    overlap = cross / ((w @ np.diagonal(m_x).real)
                       * (w @ np.diagonal(m_y).real))
    np.testing.assert_allclose(curve.coincidences, 0.5 * (1.0 - overlap),
                               rtol=0.0, atol=1e-15)


def test_hom_dip_schmidt_builds_one_state_for_equal_heralds(k26_modes,
                                                            monkeypatch):
    # the same overlap object on both arms forms its KG product once, to
    # the bits of two equal states formed apart
    filt = hp.GaussianFilter(0.2, 0.7)
    herald = hp.overlap_matrix(k26_modes, filt)
    twin = hp.overlap_matrix(k26_modes, filt)
    other = hp.overlap_matrix(k26_modes, hp.GaussianFilter(-0.3, 1.1))
    delays = np.linspace(-3.0, 3.0, 41)
    formed = []
    state_pairs = schmidt_module._signal_state_pairs

    def counted(decomposition, q):
        formed.append(q)
        return state_pairs(decomposition, q)

    monkeypatch.setattr(schmidt_module, "_signal_state_pairs", counted)
    shared = hp.hom_dip_schmidt(k26_modes, herald, herald, delays)
    assert len(formed) == 1
    apart = hp.hom_dip_schmidt(k26_modes, herald, twin, delays)
    assert len(formed) == 3
    assert np.array_equal(shared.coincidences, apart.coincidences)
    hp.hom_dip_schmidt(k26_modes, herald, other, delays)
    assert len(formed) == 5


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


@pytest.mark.parametrize("call", [
    lambda jsa, modes: hp.thermal_schmidt_coefficients(2.6, 2.5),
    lambda jsa, modes: hp.thermal_schmidt_coefficients(2.6, n_modes=True),
    lambda jsa, modes: hp.schmidt_mode_analytic(jsa, True, 0.0),
    lambda jsa, modes: hp.schmidt_mode_analytic(jsa, "1", 0.0),
    lambda jsa, modes: hp.schmidt_mode_analytic(jsa, 1.0, 0.0),
    lambda jsa, modes: modes.reconstruct(n_modes=2.5),
    lambda jsa, modes: modes.reconstruct(n_modes=True),
    lambda jsa, modes: hp.mode_projection_herald(modes, 1.5),
    lambda jsa, modes: hp.mode_projection_herald(modes, True),
    lambda jsa, modes: hp.mode_projection_herald(modes, "0"),
], ids=["thermal-fraction", "thermal-bool", "mode-bool", "mode-str",
        "mode-float", "reconstruct-fraction", "reconstruct-bool",
        "projection-fraction", "projection-bool", "projection-str"])
def test_integer_arguments_refuse_fractions_and_bools(jsa_k26, k26_modes,
                                                      call):
    # each was truncated, taken as 1, or raised TypeError or IndexError
    with pytest.raises(ValueError, match="must be an integer"):
        call(jsa_k26, k26_modes)


def test_reconstruct_refuses_a_negative_mode_count(k26_modes):
    # -1 dropped the last mode silently
    with pytest.raises(ValueError, match="non-negative"):
        k26_modes.reconstruct(n_modes=-1)
    assert not k26_modes.reconstruct(n_modes=0).any()
    assert np.array_equal(k26_modes.reconstruct(np.int64(2)),
                          k26_modes.reconstruct(2))


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


@pytest.mark.parametrize("n_points", [400, 1024])
def test_weights_descend_along_a_geometric_tail(n_points):
    # K = 12: far down the tail consecutive weights differ by less than
    # 1e-12 of the leading weight, but by ~15% of their own size, so they
    # are not degenerate and must stay in descending order.
    jsa = hp.DoubleGaussianJsa(1.0, 24.0, math.pi / 4, -math.pi / 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        grid = hp.discretize(jsa, half_extent=8.0, n_points=n_points)
    p = hp.decompose(grid).coefficients
    assert np.all(p[1:] <= p[:-1] * (1.0 + 1e-12))


def test_degenerate_weights_keep_the_svd_order():
    # Two modes of exactly equal weight: (h0 h0 + h1 h1) / sqrt(2) with
    # Hermite-Gauss functions h0 and h1 normalized on the grid.
    x = np.linspace(-6.0, 6.0, 128)
    h0 = np.exp(-0.5 * x * x)
    h1 = x * h0
    h0, h1 = (h / math.sqrt(np.sum(h * h) * (x[1] - x[0])) for h in (h0, h1))
    amplitude = (np.outer(h0, h0) + np.outer(h1, h1)) / math.sqrt(2.0)
    grid = hp.GriddedJsa(x, x, amplitude).normalize()
    p = hp.decompose(grid).coefficients
    np.testing.assert_allclose(p, [0.5, 0.5], rtol=1e-12)
    assert np.all(np.diff(p) <= 0.0)
