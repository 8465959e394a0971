import functools

import numpy as np
import pytest

from nfisac import bounds, estimators, geometry
from nfisac.errors import InvalidArgumentError

GEOM = geometry.ArrayGeometry(n_tx=8, n_rx=8, n_rf=4, carrier_freq=28e9)
GRID = estimators.GridSpec(r_min=0.1, r_max=0.8, n_r=60, n_phi=91)


def _on_grid_target(i_r=30, i_p=55, mu=0.05):
    r = float(GRID.distances()[i_r])
    phi = float(GRID.angles()[i_p])
    return geometry.PointTarget(distance=r, angle=phi, reflection=mu)


def _matched_w(target, power=100.0):
    b = geometry.steering_vector(GEOM, target.distance, target.angle)
    return (np.sqrt(power) * b / np.linalg.norm(b))[:, None]


def test_simulate_echo_shapes_and_power():
    rng = np.random.default_rng(0)
    target = _on_grid_target()
    B = bounds.point_trm(GEOM, target).B
    W = _matched_w(target)
    echo = estimators.simulate_echo(B, W, 64, 0.0, rng)
    assert echo.Y.shape == (8, 64)
    assert echo.X.shape == (8, 64)
    # unit-variance symbols: average probe power approaches ||W||_F^2
    assert np.mean(np.abs(echo.X) ** 2) * 8 == pytest.approx(100.0, rel=0.3)


def test_simulate_echo_validation():
    rng = np.random.default_rng(2)
    with pytest.raises(InvalidArgumentError):
        estimators.simulate_echo(np.eye(4, dtype=complex), np.ones((4, 8)), 4, 1.0, rng)
    with pytest.raises(InvalidArgumentError):
        estimators.simulate_echo(np.eye(4, dtype=complex), np.ones((4, 2)), 8, -1.0, rng)


def test_trial_rng_reproducible_and_distinct():
    a = estimators.trial_rng(7, 3).standard_normal(4)
    b = estimators.trial_rng(7, 3).standard_normal(4)
    c = estimators.trial_rng(7, 4).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_mle_noiseless_recovers_on_grid_truth():
    target = _on_grid_target()
    trm = bounds.point_trm(GEOM, target)
    rng = np.random.default_rng(3)
    echo = estimators.simulate_echo(trm.B, _matched_w(target), 32, 0.0, rng)
    r_hat, phi_hat, mu_hat = estimators.mle_point(echo, GEOM, GRID)
    assert r_hat == pytest.approx(target.distance, rel=1e-12)
    assert phi_hat == pytest.approx(target.angle, abs=1e-12)
    assert mu_hat == pytest.approx(complex(target.reflection), rel=1e-8)


def test_unrefined_distance_returned_exactly():
    # at the first grid distance the distance is never refined, and every
    # angle of the grid must give back rs[0] itself from both estimators
    rs = GRID.distances()
    for i_p in range(GRID.n_phi):
        target = _on_grid_target(i_r=0, i_p=i_p)
        trm = bounds.point_trm(GEOM, target)
        rng = np.random.default_rng(3)
        echo = estimators.simulate_echo(trm.B, _matched_w(target), 32, 0.0, rng)
        assert estimators.mle_point(echo, GEOM, GRID)[0] == rs[0]
        assert estimators.music_2d(echo, GEOM, GRID)[0] == rs[0]


def test_mle_refinement_beats_grid_off_grid():
    rs = GRID.distances()
    r_true = float(np.sqrt(rs[30] * rs[31]))  # halfway between nodes in log space
    target = geometry.PointTarget(distance=r_true, angle=float(GRID.angles()[55]),
                                  reflection=0.05)
    trm = bounds.point_trm(GEOM, target)
    rng = np.random.default_rng(4)
    echo = estimators.simulate_echo(trm.B, _matched_w(target), 32, 0.0, rng)
    r_hat, _, _ = estimators.mle_point(echo, GEOM, GRID)
    nearest = rs[np.argmin(np.abs(rs - r_true))]
    assert abs(r_hat - r_true) < abs(nearest - r_true)


def test_music_noiseless_argmax_at_truth():
    target = _on_grid_target()
    trm = bounds.point_trm(GEOM, target)
    rng = np.random.default_rng(5)
    echo = estimators.simulate_echo(trm.B, _matched_w(target), 32, 0.0, rng)
    r_hat, phi_hat = estimators.music_2d(echo, GEOM, GRID)
    assert r_hat == pytest.approx(target.distance, rel=5e-2)
    assert phi_hat == pytest.approx(target.angle, abs=2e-2)


def test_music_global_phase_invariant():
    target = _on_grid_target()
    trm = bounds.point_trm(GEOM, target)
    rng = np.random.default_rng(6)
    echo = estimators.simulate_echo(trm.B, _matched_w(target), 32, 0.5, rng)
    rotated = estimators.EchoBatch(Y=np.exp(0.7j) * echo.Y, X=echo.X,
                                   noise_power=echo.noise_power)
    a = estimators.music_2d(echo, GEOM, GRID)
    b = estimators.music_2d(rotated, GEOM, GRID)
    assert a[0] == pytest.approx(b[0], rel=1e-9)
    assert a[1] == pytest.approx(b[1], abs=1e-9)


def test_music_validation():
    rng = np.random.default_rng(7)
    g1 = geometry.ArrayGeometry(n_tx=4, n_rx=1, n_rf=1, carrier_freq=28e9)
    echo = estimators.EchoBatch(Y=np.ones((1, 8), dtype=complex),
                                X=np.ones((4, 8), dtype=complex), noise_power=1.0)
    with pytest.raises(InvalidArgumentError):
        estimators.music_2d(echo, g1, GRID)
    echo1 = estimators.EchoBatch(Y=np.ones((8, 1), dtype=complex),
                                 X=np.ones((8, 1), dtype=complex), noise_power=1.0)
    with pytest.raises(InvalidArgumentError):
        estimators.music_2d(echo1, GEOM, GRID)


# ---------------------------------------------------------------------------
# rank-k grid scoring against the dense n x n contractions it replaces


@functools.cache
def _steering_grid(side):
    """Oracle grid: one geometry.steering_vector call per grid point."""
    return np.stack([geometry.steering_vector(GEOM, r, phi, side=side)
                     for r in GRID.distances() for phi in GRID.angles()], axis=1)


_REFINE = estimators._refine


def _oracle_estimate(grid_score, point_score):
    """Grid argmax, refinement and acceptance check as the estimators do them."""
    rs, phis = GRID.distances(), GRID.angles()
    grid_score = grid_score.reshape(GRID.n_r, GRID.n_phi)
    ir, ip = np.unravel_index(np.argmax(grid_score), grid_score.shape)
    r, phi = _REFINE(grid_score, ir, ip, rs, phis)
    if point_score(r, phi) < grid_score[ir, ip]:
        r, phi = float(rs[ir]), float(phis[ip])
    return (ir, ip), r, phi


def _dense_mle(echo):
    """Oracle MLE scoring with M = Y X^H and G = X X^H."""
    M = echo.Y @ echo.X.conj().T
    G = echo.X @ echo.X.conj().T

    def terms(bt, br):
        return (np.sum(br.conj() * (M @ bt), axis=0),
                GEOM.n_rx * np.real(np.sum(bt.conj() * (G @ bt), axis=0)))

    def score(bt, br):
        num, den = terms(bt, br)
        return np.abs(num) ** 2 / np.maximum(den, 1e-300)

    def point(r, phi):
        return (geometry.steering_vector(GEOM, r, phi, side="tx"),
                geometry.steering_vector(GEOM, r, phi, side="rx"))

    cell, r, phi = _oracle_estimate(score(_steering_grid("tx"), _steering_grid("rx")),
                                    lambda r, phi: score(*point(r, phi)))
    num, den = terms(*point(r, phi))
    return cell, (r, phi, num / max(den, 1e-300))


def _dense_music(echo):
    """Oracle MUSIC scoring with the full (n_rx - 1)-column noise subspace."""
    _, vecs = np.linalg.eigh(echo.Y @ echo.Y.conj().T / echo.Y.shape[1])
    En = vecs[:, :-1]

    def score(br):
        return 1.0 / np.maximum(np.sum(np.abs(En.conj().T @ br) ** 2, axis=0), 1e-300)

    cell, r, phi = _oracle_estimate(
        score(_steering_grid("rx")),
        lambda r, phi: score(geometry.steering_vector(GEOM, r, phi, side="rx")))
    return cell, (r, phi)


@pytest.fixture
def refined_cells(monkeypatch):
    """Grid argmax cells the estimators hand to the refinement, in call order."""
    cells = []

    def recording(score, ir, ip, rs, phis):
        cells.append((ir, ip))
        return _REFINE(score, ir, ip, rs, phis)

    monkeypatch.setattr(estimators, "_refine", recording)
    return cells


def _probe(kind, target):
    """Probing beams of rank 1 (matched), 2 (random) and n_tx (random)."""
    if kind == "matched":
        return _matched_w(target)
    rng = np.random.default_rng(12)
    k = 2 if kind == "random2" else GEOM.n_tx
    W = rng.standard_normal((GEOM.n_tx, k)) + 1j * rng.standard_normal((GEOM.n_tx, k))
    return 10.0 * W / np.linalg.norm(W)


def _echo(probe, snr_db, target, seed, L=32):
    """Echo of the target at the given radar SNR |mu|^2 L P / sigma^2 (None: noiseless)."""
    W = _probe(probe, target)
    noise = 0.0
    if snr_db is not None:
        noise = abs(target.reflection) ** 2 * L * np.linalg.norm(W) ** 2 / 10 ** (snr_db / 10)
    B = bounds.point_trm(GEOM, target).B
    return estimators.simulate_echo(B, W, L, noise, np.random.default_rng(seed))


PROBES = ("matched", "random2", "full")
OFF_GRID = geometry.PointTarget(distance=0.3, angle=0.41, reflection=0.05 - 0.02j)


@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("snr_db", [None, 30.0])
@pytest.mark.parametrize("target", [_on_grid_target(), OFF_GRID], ids=["on", "off"])
def test_mle_rank_k_scoring_matches_dense(refined_cells, probe, snr_db, target):
    echo = _echo(probe, snr_db, target, seed=13)
    if probe == "full":
        assert np.linalg.matrix_rank(echo.X) == GEOM.n_tx
    r, phi, mu = estimators.mle_point(echo, GEOM, GRID)
    ref_cell, (r_ref, phi_ref, mu_ref) = _dense_mle(echo)
    assert refined_cells == [ref_cell]
    assert r == pytest.approx(r_ref, rel=1e-9)
    assert phi == pytest.approx(phi_ref, rel=1e-9)
    assert mu == pytest.approx(mu_ref, rel=1e-9)


@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("target", [_on_grid_target(), OFF_GRID], ids=["on", "off"])
def test_music_rank_one_projection_matches_dense_30db(refined_cells, probe, target):
    echo = _echo(probe, 30.0, target, seed=14)
    r, phi = estimators.music_2d(echo, GEOM, GRID)
    ref_cell, (r_ref, phi_ref) = _dense_music(echo)
    assert refined_cells == [ref_cell]
    assert r == pytest.approx(r_ref, rel=1e-9)
    assert phi == pytest.approx(phi_ref, rel=1e-9)


def test_music_rank_one_projection_matches_dense_noiseless_across_grid(refined_cells):
    for i_r in (0, 14, 30, 47, GRID.n_r - 1):
        for i_p in (0, 1, 23, 45, 70, GRID.n_phi - 1):
            target = _on_grid_target(i_r, i_p)
            echo = _echo("matched", None, target, seed=i_r * GRID.n_phi + i_p)
            estimate = estimators.music_2d(echo, GEOM, GRID)
            ref_cell, ref = _dense_music(echo)
            assert refined_cells.pop() == ref_cell == (i_r, i_p)
            assert estimate == pytest.approx(ref, rel=1e-9)
            assert estimate == pytest.approx((target.distance, target.angle), rel=1e-12)


def test_grid_steering_shared_between_equal_apertures():
    Bt, Bt_sq = estimators._grid_steering(GEOM, GRID, "tx")
    Br, Br_sq = estimators._grid_steering(GEOM, GRID, "rx")
    assert Br is Bt and Br_sq is Bt_sq
    # the grid's columns are geometry.steering_vector's, bit for bit
    np.testing.assert_array_equal(Br, _steering_grid("rx"))
    np.testing.assert_allclose(Br_sq, GEOM.n_rx, rtol=1e-12)
    # a different receive aperture gets its own grid; the transmit one is shared
    g = geometry.ArrayGeometry(n_tx=8, n_rx=5, n_rf=4, carrier_freq=28e9)
    assert estimators._grid_steering(g, GRID, "tx")[0] is Bt
    B5 = estimators._grid_steering(g, GRID, "rx")[0]
    r, phi = GRID.distances()[7], GRID.angles()[60]
    np.testing.assert_array_equal(B5[:, 7 * GRID.n_phi + 60],
                                  geometry.steering_vector(g, r, phi, side="rx"))


def test_lmmse_noiseless_exact():
    rng = np.random.default_rng(8)
    B = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    X = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    echo = estimators.EchoBatch(Y=B @ X, X=X, noise_power=0.0)
    B_hat = estimators.lmmse_trm(echo, prior_variance=1.0)
    np.testing.assert_allclose(B_hat, B, atol=1e-9 * np.linalg.norm(B))


def test_lmmse_shrinks_under_heavy_noise():
    rng = np.random.default_rng(9)
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    X = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    echo = estimators.EchoBatch(Y=B @ X, X=X, noise_power=0.0)
    B_big_noise = estimators.lmmse_trm(echo, prior_variance=1.0, noise_power=1e9)
    assert np.linalg.norm(B_big_noise) < 1e-3 * np.linalg.norm(B)


def test_lmmse_empirical_mse_matches_bayesian_bound():
    # Gaussian response entries, Gaussian probing: the average squared error
    # over trials should approach the closed-form Bayesian trace
    rng = np.random.default_rng(10)
    n_rx, n_tx, L = 2, 3, 4
    prior, noise = 1.0, 0.5
    W = rng.standard_normal((n_tx, n_tx)) + 1j * rng.standard_normal((n_tx, n_tx))
    W *= np.sqrt(10.0) / np.linalg.norm(W)
    params = bounds.BcrbParams(noise_power=noise, prior_variance=prior,
                               frame_length=L, n_rx=n_rx)
    errs = []
    refs = []
    for _ in range(2000):
        B = np.sqrt(prior / 2) * (rng.standard_normal((n_rx, n_tx))
                                  + 1j * rng.standard_normal((n_rx, n_tx)))
        echo = estimators.simulate_echo(B, W, L, noise, rng)
        B_hat = estimators.lmmse_trm(echo, prior, noise)
        errs.append(np.linalg.norm(B_hat - B) ** 2)
        # the bound conditions on the realized probing signal of the trial
        refs.append(bounds.bcrb_extended_trace(echo.X @ echo.X.conj().T / L, params))
    assert np.mean(errs) == pytest.approx(np.mean(refs), rel=0.1)


def test_grid_spec_validation():
    with pytest.raises(InvalidArgumentError):
        estimators.GridSpec(r_min=0.0, r_max=1.0, n_r=10, n_phi=10)
    with pytest.raises(InvalidArgumentError):
        estimators.GridSpec(r_min=1.0, r_max=0.5, n_r=10, n_phi=10)
    with pytest.raises(InvalidArgumentError):
        estimators.GridSpec(r_min=0.1, r_max=1.0, n_r=2, n_phi=10)


def test_default_grid_spans_near_field():
    g = estimators.default_grid(GEOM)
    assert g.r_max == pytest.approx(1.5 * geometry.rayleigh_distance(GEOM))
