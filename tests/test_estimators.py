import functools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from nfisac import bounds, config, estimators, geometry
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


@pytest.mark.parametrize("W", [np.ones(4), np.ones((3, 1)), np.ones((4, 1, 1))],
                         ids=["1-D", "wrong-rows", "3-D"])
def test_simulate_echo_rejects_a_beamformer_of_the_wrong_shape(W):
    with pytest.raises(InvalidArgumentError):
        estimators.simulate_echo(np.eye(4, dtype=complex), W, 8, 1.0, np.random.default_rng(2))


@pytest.mark.parametrize("noise", [np.nan, np.inf, -np.inf])
def test_simulate_echo_rejects_a_noise_power_that_is_not_finite(noise):
    with pytest.raises(InvalidArgumentError):
        estimators.simulate_echo(np.eye(4, dtype=complex), np.ones((4, 1)), 8, noise,
                                 np.random.default_rng(2))


def test_simulate_echo_draws_symbols_then_noise_from_the_stream():
    # S takes the stream's first 2 K L normals (real parts, then imaginary
    # parts), N the next 2 n_rx L, each scaled as numpy's complex arithmetic
    # scales them: bit for bit the complex expressions they stand for
    B = np.arange(12.0).reshape(3, 4) + 1j
    W = np.ones((4, 2)) - 0.5j
    echo = estimators.simulate_echo(B, W, 5, 0.3, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    S = (rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))) / np.sqrt(2.0)
    N = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    np.testing.assert_array_equal(echo.X, W @ S)
    np.testing.assert_array_equal(echo.Y, B @ (W @ S) + np.sqrt(0.3 / 2.0) * N)


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


_VERTEX = estimators._vertex


def _oracle_estimate(grid_score, points_score):
    """The estimators' own search on dense scores.

    points_score(bt, br) scores the columns of tx and rx steering matrices;
    local grids get theirs from one geometry.steering_vector call per point.
    """
    def local(rs, phis):
        cols = [(geometry.steering_vector(GEOM, r, phi, side="tx"),
                 geometry.steering_vector(GEOM, r, phi, side="rx")) for r in rs for phi in phis]
        bt, br = (np.stack(side, axis=1) for side in zip(*cols))
        return points_score(bt, br).reshape(len(rs), len(phis))

    return estimators._search(GRID, grid_score.reshape(GRID.n_r, GRID.n_phi), local)


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

    r, phi = _oracle_estimate(score(_steering_grid("tx"), _steering_grid("rx")), score)
    num, den = terms(geometry.steering_vector(GEOM, r, phi, side="tx"),
                     geometry.steering_vector(GEOM, r, phi, side="rx"))
    return r, phi, num / max(den, 1e-300)


def _dense_music(echo):
    """Oracle MUSIC scoring with the full (n_rx - 1)-column noise subspace."""
    _, vecs = np.linalg.eigh(echo.Y @ echo.Y.conj().T / echo.Y.shape[1])
    En = vecs[:, :-1]

    def score(bt, br):
        return -np.sum(np.abs(En.conj().T @ br) ** 2, axis=0)

    return _oracle_estimate(score(None, _steering_grid("rx")), score)


@pytest.fixture
def vertex_cells(monkeypatch):
    """Local grid points the searches fit vertices at, one list per search."""
    cells = []

    def recording(score, jr, jp):
        cells.append((int(jr), int(jp)))
        return _VERTEX(score, jr, jp)

    monkeypatch.setattr(estimators, "_vertex", recording)

    def searches():
        out = [cells[i: i + estimators.ZOOM_STEPS]
               for i in range(0, len(cells), estimators.ZOOM_STEPS)]
        cells.clear()
        return out

    return searches


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
def test_mle_rank_k_scoring_matches_dense(vertex_cells, probe, snr_db, target):
    echo = _echo(probe, snr_db, target, seed=13)
    if probe == "full":
        assert np.linalg.matrix_rank(echo.X) == GEOM.n_tx
    r, phi, mu = estimators.mle_point(echo, GEOM, GRID)
    r_ref, phi_ref, mu_ref = _dense_mle(echo)
    cells, ref_cells = vertex_cells()
    assert cells == ref_cells
    assert r == pytest.approx(r_ref, rel=1e-9)
    assert phi == pytest.approx(phi_ref, rel=1e-9)
    assert mu == pytest.approx(mu_ref, rel=1e-9)


@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("target", [_on_grid_target(), OFF_GRID], ids=["on", "off"])
def test_music_rank_one_projection_matches_dense_30db(vertex_cells, probe, target):
    echo = _echo(probe, 30.0, target, seed=14)
    r, phi = estimators.music_2d(echo, GEOM, GRID)
    r_ref, phi_ref = _dense_music(echo)
    cells, ref_cells = vertex_cells()
    assert cells == ref_cells
    assert r == pytest.approx(r_ref, rel=1e-9)
    assert phi == pytest.approx(phi_ref, rel=1e-9)


def test_music_rank_one_projection_matches_dense_noiseless_across_grid(vertex_cells):
    for i_r in (0, 14, 30, 47, GRID.n_r - 1):
        for i_p in (0, 1, 23, 45, 70, GRID.n_phi - 1):
            target = _on_grid_target(i_r, i_p)
            echo = _echo("matched", None, target, seed=i_r * GRID.n_phi + i_p)
            estimate = estimators.music_2d(echo, GEOM, GRID)
            ref = _dense_music(echo)
            cells, ref_cells = vertex_cells()
            assert cells == ref_cells
            assert estimate == pytest.approx(ref, rel=1e-9)
            assert estimate == pytest.approx((target.distance, target.angle), rel=1e-12)


def _cells(r, phi, ir, ip):
    """Offsets of (r, phi) from grid point (ir, ip) of GRID, in grid cells."""
    rs, phis = GRID.distances(), GRID.angles()
    return np.log(r / rs[ir]) / np.log(rs[1] / rs[0]), (phi - phis[ip]) / (phis[1] - phis[0])


@pytest.mark.parametrize("ir, ip", [(20, 45), (0, 0), (GRID.n_r - 2, GRID.n_phi - 1)])
def test_search_stays_within_its_span_of_the_coarse_argmax(ir, ip):
    # a score that keeps rising toward r_max outside the argmax's cell, as
    # the likelihood does toward the far field at low SNR: the estimate
    # stops where the search's span, or the grid, ends
    coarse = np.zeros((GRID.n_r, GRID.n_phi))
    coarse[ir, ip] = 1.0

    def rising(rs, phis):
        return np.broadcast_to(rs[:, None], (len(rs), len(phis)))

    du, dp = _cells(*estimators._search(GRID, coarse, rising), ir, ip)
    span_r, span_p = estimators.ZOOM_SPAN
    assert du == pytest.approx(min(span_r, GRID.n_r - 1 - ir), abs=1e-9)
    assert -min(span_p, ip) <= dp <= min(span_p, GRID.n_phi - 1 - ip)


def test_search_follows_a_tilted_ridge_off_the_argmax_cell():
    # a quadratic score whose ridge is tilted in (log r, phi), as the
    # near-field likelihood's is: the coarse argmax lies 1.3 distance cells
    # from the peak, and the search still lands on the peak
    rs, phis = GRID.distances(), GRID.angles()
    peak = (30.3, 45.45)  # in grid cells from (rs[0], phis[0])

    def tilted(r, phi):
        u, v = _cells(r[:, None], phi[None, :], 0, 0)
        u, v = u - peak[0], v - peak[1]
        return -(u * u - 7.6 * u * v + 16.0 * v * v)

    coarse = tilted(rs, phis)
    ir, ip = np.unravel_index(np.argmax(coarse), coarse.shape)
    assert (ir, ip) == (29, 45)
    found = _cells(*estimators._search(GRID, coarse, tilted), 0, 0)
    assert found == pytest.approx(peak, abs=1e-9)


def _reference_search(grid, coarse, score):
    """The coarse-to-fine search one score at a time, on the ragged local grids.

    The reference _search must reproduce: the same steps, spans and vertex
    fits, with each local grid cut off at the reach of the search.
    """
    rs, phis = grid.distances(), grid.angles()
    ir, ip = np.unravel_index(np.argmax(coarse), coarse.shape)
    span = np.array(estimators.ZOOM_SPAN)
    lo = np.maximum(-np.array([ir, ip]), -span)
    hi = np.minimum([grid.n_r - 1 - ir, grid.n_phi - 1 - ip], span)

    def point(w):
        return rs[ir] * np.exp(w[0] * np.log(rs[1] / rs[0])), phis[ip] + w[1] * (phis[1] - phis[0])

    mid, half = np.zeros(2), span
    for _ in range(estimators.ZOOM_STEPS):
        cell = half / ((estimators.ZOOM_POINTS - 1) // 2)
        u, v = (c * np.arange(np.ceil(a / c), np.floor(b / c) + 1)
                for c, a, b in zip(cell, np.maximum(lo, mid - half), np.minimum(hi, mid + half)))
        local = score(*point((u, v)))
        jr, jp = np.unravel_index(np.argmax(local), local.shape)
        best = np.array([u[jr], v[jp]])
        shift = cell * _VERTEX(local, jr, jp)
        w = np.clip(best + shift, lo, hi)
        if score(*(np.array([x]) for x in point(w)))[0, 0] < local[jr, jp]:
            w, shift = best, np.zeros(2)
        mid, half = np.clip(best + np.round(shift / cell) * cell, lo, hi), cell
    return tuple(float(x) for x in point(w))


def _tilted(peak):
    """A quadratic score peaked at `peak` (grid cells from (rs[0], phis[0])),
    its ridge tilted in (log r, phi) as the near-field likelihood's is;
    peak may carry leading batch axes, one peak per search."""
    def score(r, phi):
        u, v = _cells(r[..., :, None], phi[..., None, :], 0, 0)
        u, v = u - peak[..., 0, None, None], v - peak[..., 1, None, None]
        return -(u * u - 7.6 * u * v + 16.0 * v * v)
    return score


def test_search_over_batch_axes_matches_the_reference_search():
    # a (2, 4) batch of tilted scores, most peaked just off the grid's edges
    # and corners, so the local grids are cut off differently and the vertex
    # fits sit on their edges: one batched search returns what the reference
    # returns for each score alone
    peaks = np.array([[(30.3, 45.45), (0.2, 0.3), (58.6, 89.8), (-0.4, 45.3)],
                      [(1.4, 88.9), (12.7, -0.3), (59.3, 90.2), (30.2, 90.4)]])
    rs, phis = GRID.distances(), GRID.angles()
    coarse = _tilted(peaks)(np.broadcast_to(rs, (2, 4, GRID.n_r)),
                            np.broadcast_to(phis, (2, 4, GRID.n_phi)))
    r_hat, phi_hat = estimators._search(GRID, coarse, _tilted(peaks))
    assert r_hat.shape == phi_hat.shape == (2, 4)
    for i in np.ndindex(2, 4):
        alone = _reference_search(GRID, coarse[i], _tilted(peaks[i]))
        assert (r_hat[i], phi_hat[i]) == alone
        assert estimators._search(GRID, coarse[i], _tilted(peaks[i])) == alone


def _assert_block_is_per_echo(echoes):
    r, phi, mu = estimators.mle_points(echoes, GEOM, GRID)
    assert r.shape == phi.shape == mu.shape == (len(echoes),)
    for e, echo in enumerate(echoes):
        assert (r[e], phi[e], mu[e]) == estimators.mle_point(echo, GEOM, GRID)


def test_mle_block_of_mixed_probe_ranks_is_per_echo():
    # probes of rank 1, 2 and n_tx in one block, on targets inside the grid
    # and on its edges and corners, so k and the local grids differ by echo
    targets = [OFF_GRID, _on_grid_target(0, 0), _on_grid_target(GRID.n_r - 1, 45),
               _on_grid_target(30, GRID.n_phi - 1), _on_grid_target(1, 1)]
    echoes = [_echo(probe, snr_db, target, seed=20 + i)
              for i, (probe, snr_db, target) in enumerate(
                  (p, s, t) for t in targets for p in PROBES for s in (None, 30.0))]
    ranks = {np.linalg.matrix_rank(echo.X) for echo in echoes}
    assert ranks == {1, 2, GEOM.n_tx}
    _assert_block_is_per_echo(echoes)


def test_mle_block_with_a_zero_power_probe_is_per_echo():
    # a silent probe keeps no singular value (k = 0): its echo scores zero
    # everywhere, next to echoes of rank 1 and n_tx
    target = _on_grid_target()
    silent = estimators.simulate_echo(bounds.point_trm(GEOM, target).B, np.zeros((GEOM.n_tx, 1)),
                                      32, 1e-3, np.random.default_rng(21))
    assert not silent.X.any() and silent.Y.any()
    echoes = [_echo("matched", 30.0, target, seed=22), silent, _echo("full", 30.0, OFF_GRID, 23)]
    _assert_block_is_per_echo(echoes)
    assert estimators.mle_point(silent, GEOM, GRID)[2] == 0


def test_mle_of_no_echoes_is_three_empty_arrays():
    r, phi, mu = estimators.mle_points([], GEOM, GRID)
    assert r.shape == phi.shape == mu.shape == (0,)
    assert (r.dtype, phi.dtype, mu.dtype) == (np.float64, np.float64, np.complex128)
    assert [len(a) for a in estimators.mle_points(iter(()), GEOM, GRID)] == [0, 0, 0]


# ---------------------------------------------------------------------------
# the local-window steering cache


@pytest.fixture
def window_builds(monkeypatch):
    """A cold grid cache, and the windows steered while it is in use:
    (side, the bytes of the window's distances and angles, its points)."""
    monkeypatch.setattr(estimators, "_GRID_CACHE", {})
    built = []
    steer = estimators._product_steering

    def recording(geom, rs, phis, side):
        built.append((side, rs.tobytes() + phis.tobytes(), len(rs) * len(phis)))
        return steer(geom, rs, phis, side)

    monkeypatch.setattr(estimators, "_product_steering", recording)
    return built


def _windows(geom=GEOM, grid=GRID):
    """The cached windows of each side's aperture, side -> {key: matrix}."""
    return {side: estimators._GRID_CACHE.get(estimators._grid_key(geom, grid, side)
                                             + ("windows",), {})
            for side in ("tx", "rx")}


def _cache_echoes(geom=GEOM, targets=(OFF_GRID, _on_grid_target(), _on_grid_target(1, 1)),
                  snrs_db=(30.0, 0.0, None)):
    """Echoes of each target at each radar SNR (None: noiseless), from matched probes."""
    echoes = []
    for i, target in enumerate(targets):
        b = geometry.steering_vector(geom, target.distance, target.angle)
        W = (10.0 * b / np.linalg.norm(b))[:, None]
        B = bounds.point_trm(geom, target).B
        for j, snr_db in enumerate(snrs_db):
            noise = 0.0 if snr_db is None else (
                abs(target.reflection) ** 2 * 32 * 100.0 / 10 ** (snr_db / 10))
            echoes.append(estimators.simulate_echo(B, W, 32, noise,
                                                   np.random.default_rng(40 + 3 * i + j)))
    return echoes


def _cold(estimate, echoes, geom=GEOM):
    """Each echo's estimate from an empty cache, and the windows each steered."""
    cache, out, steered = estimators._GRID_CACHE, [], set()
    try:
        for echo in echoes:
            estimators._GRID_CACHE = {}
            out.append(estimate(echo, geom, GRID))
            steered |= set(_windows(geom)["rx"])
    finally:
        estimators._GRID_CACHE = cache
    return out, steered


@pytest.mark.parametrize("first", ["mle", "music"])
def test_estimates_equal_with_the_window_cache_cold_and_warm(window_builds, first):
    # each estimate from an empty cache, then all of them again through a
    # cache that the other estimator filled first (the MLE in one block and
    # one echo at a time): bit for bit equal, and the second estimator
    # steers only the windows the first did not
    echoes = _cache_echoes(targets=(OFF_GRID, _on_grid_target()))
    cold = {"mle": _cold(estimators.mle_point, echoes),
            "music": _cold(estimators.music_2d, echoes)}
    # the cache holds every window of both estimators, so none is dropped
    window = GEOM.n_rx * estimators.ZOOM_POINTS**2 * 16
    budget = estimators.WINDOW_SHARE * GEOM.n_rx * GRID.n_r * GRID.n_phi * 16
    assert len(cold["mle"][1] | cold["music"][1]) * window <= budget
    window_builds.clear()

    def mle():
        r, phi, mu = estimators.mle_points(echoes, GEOM, GRID)
        assert list(zip(r, phi, mu)) == cold["mle"][0]
        assert [estimators.mle_point(echo, GEOM, GRID) for echo in echoes] == cold["mle"][0]

    def music():
        assert [estimators.music_2d(echo, GEOM, GRID) for echo in echoes] == cold["music"][0]

    second = "music" if first == "mle" else "mle"
    {"mle": mle, "music": music}[first]()
    before = len(window_builds)
    {"mle": mle, "music": music}[second]()
    shared = cold[first][1] & cold[second][1]
    assert shared, "the estimators share no window"
    assert {key for _, key, _ in window_builds[before:]} == cold[second][1] - cold[first][1]
    # a warm cache answers every window: nothing more is steered
    window_builds.clear()
    mle()
    music()
    assert window_builds == []


def test_tx_and_rx_windows_are_never_shared_between_apertures(window_builds):
    geom = RX5_GEOM
    echoes = _cache_echoes(geom)
    cold = list(zip(_cold(estimators.mle_point, echoes, geom)[0],
                    _cold(estimators.music_2d, echoes, geom)[0]))
    window_builds.clear()
    r, phi, mu = estimators.mle_points(echoes, geom, GRID)
    warm = [((r[e], phi[e], mu[e]), estimators.music_2d(echo, geom, GRID))
            for e, echo in enumerate(echoes)]
    assert warm == cold
    windows = _windows(geom)
    assert windows["tx"] is not windows["rx"]
    assert {B.shape for B in windows["tx"].values()} == {(geom.n_tx, estimators.ZOOM_POINTS**2)}
    assert {B.shape for B in windows["rx"].values()} == {(geom.n_rx, estimators.ZOOM_POINTS**2)}
    # a window the MLE scores is steered once for each aperture
    assert set(windows["tx"]) & set(windows["rx"])
    assert {side for side, _, _ in window_builds} == {"tx", "rx"}


def test_window_cache_stays_within_its_budget(window_builds):
    # about 40 targets across the grid's distances and angles, so many more
    # windows are steered than the budget holds: the oldest are dropped
    rs, phis = GRID.distances(), GRID.angles()
    targets = [geometry.PointTarget(distance=float(rs[i]) * 1.01, angle=float(phis[j]) + 0.003,
                                    reflection=0.05)
               for i in range(2, GRID.n_r - 2, 7) for j in range(3, GRID.n_phi - 3, 18)]
    assert 35 <= len(targets) <= 45
    echoes = _cache_echoes(targets=targets, snrs_db=(30.0,))
    estimators.mle_points(echoes, GEOM, GRID)
    for echo in echoes:
        estimators.music_2d(echo, GEOM, GRID)
    windows = _windows()["tx"]
    held = sum(B.nbytes for B in windows.values())
    grid_bytes = estimators._grid_steering(GEOM, GRID, "tx")[0].nbytes
    assert 0 < held <= estimators.WINDOW_SHARE * grid_bytes
    assert len(window_builds) > 2 * len(windows)
    # the windows kept are the last ones steered
    kept = [key for _, key, _ in window_builds[-len(windows):]]
    assert list(windows) == kept


def test_window_cache_shared_by_threads(monkeypatch, window_builds):
    # four threads on two cores, switching every 10 us, each estimating its
    # own targets through one cache that holds two windows, so nearly every
    # window steered drops another: no thread fails, every estimate is the
    # serial one, and the cache ends within its budget
    monkeypatch.setattr(estimators, "WINDOW_SHARE", 2.5 * 81 / (GRID.n_r * GRID.n_phi))
    rs, phis = GRID.distances(), GRID.angles()
    targets = [geometry.PointTarget(distance=float(rs[i]) * 1.01, angle=float(phis[j]),
                                    reflection=0.05)
               for i in range(4, GRID.n_r - 4, 9) for j in (20, 50, 80)]
    echoes = _cache_echoes(targets=targets, snrs_db=(30.0,))
    serial = list(zip(_cold(estimators.music_2d, echoes)[0], _cold(estimators.mle_point, echoes)[0]))
    results, errors = [None] * 4, []

    def work(t):
        try:
            mine = echoes[t::4]
            music = [estimators.music_2d(echo, GEOM, GRID) for echo in mine]
            results[t] = list(zip(music, zip(*estimators.mle_points(mine, GEOM, GRID))))
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for t in range(4):
        assert results[t] == serial[t::4]
    held = sum(B.nbytes for B in _windows()["rx"].values())
    assert held <= estimators.WINDOW_SHARE * estimators._grid_steering(GEOM, GRID, "rx")[0].nbytes
    assert len(window_builds) > len(_windows()["rx"])


def test_single_point_evaluations_never_enter_the_window_cache(monkeypatch, window_builds):
    sizes = []
    cached_steering = estimators._window_steering

    def recording(geom, grid, side, rs, phis):
        sizes.append(rs.shape[1] * phis.shape[1])
        return cached_steering(geom, grid, side, rs, phis)

    monkeypatch.setattr(estimators, "_window_steering", recording)
    echoes = _cache_echoes()
    estimators.mle_points(echoes, GEOM, GRID)
    for echo in echoes:
        estimators.music_2d(echo, GEOM, GRID)
        estimators.mle_point(echo, GEOM, GRID)
    assert set(sizes) == {estimators.ZOOM_POINTS**2}
    cached = [B for side in _windows().values() for B in side.values()]
    assert {B.shape[1] for B in cached} == {estimators.ZOOM_POINTS**2}
    assert all(not B.flags.writeable for B in cached)


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


def _one_shot_grid(geom, grid, side, rows=None):
    """The grid as broadcasts over `rows` distance rows at a time (all of
    them when None), side by side, and its column norms."""
    rs, phis = grid.distances(), grid.angles()
    step = len(rs) if rows is None else rows
    B = np.hstack([
        geometry.steering_vectors(geom, rs[i:i + step, None], phis[None, :], side)
        .reshape(-1, len(rs[i:i + step]) * len(phis))
        for i in range(0, len(rs), step)])
    return B, estimators._abs2(B).sum(axis=0)


DESK_GEOM = geometry.ArrayGeometry(n_tx=16, n_rx=16, n_rf=4, carrier_freq=28e9)
RX5_GEOM = geometry.ArrayGeometry(n_tx=8, n_rx=5, n_rf=4, carrier_freq=28e9)


@pytest.mark.parametrize("rows", [None, 1, 7])
@pytest.mark.parametrize("geom, grid, side", [
    (DESK_GEOM, estimators.default_grid(DESK_GEOM), "tx"),
    (RX5_GEOM, GRID, "rx"),
    (RX5_GEOM, estimators.GridSpec(r_min=0.1, r_max=0.8, n_r=61, n_phi=91), "tx"),
], ids=["desk-tx", "rx5", "n_r-61"])
def test_blocked_grid_equals_one_shot_build(monkeypatch, rows, geom, grid, side):
    # the cached grid, built in one broadcast, equals the grid assembled from
    # blocks of `rows` distance rows: its columns run angle-fastest, and no
    # column depends on the rows built beside it
    monkeypatch.setattr(estimators, "_GRID_CACHE", {})
    B, B_sq = estimators._grid_steering(geom, grid, side)
    ref, ref_sq = _one_shot_grid(geom, grid, side, rows)
    np.testing.assert_array_equal(B, ref)
    np.testing.assert_array_equal(B_sq, ref_sq)
    np.testing.assert_array_equal(B_sq, estimators._abs2(B).sum(axis=0))


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_default_grid_build_peaks_near_twice_its_cache(monkeypatch, scale):
    # one broadcast exponentiated in place: the complex phase array becomes
    # B, and the real path differences beside it are half its size
    monkeypatch.setattr(estimators, "_GRID_CACHE", {})
    geom = config.config_to_scenario(config.default_config(scale)).geom
    grid = estimators.default_grid(geom)
    tracemalloc.start()
    try:
        B, B_sq = estimators._grid_steering(geom, grid, "tx")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * (B.nbytes + B_sq.nbytes)


def test_grid_axes_computed_once_and_read_only():
    grid = estimators.GridSpec(r_min=0.1, r_max=0.8, n_r=60, n_phi=91)
    rs, phis = grid.distances(), grid.angles()
    assert grid.distances() is rs and grid.angles() is phis
    np.testing.assert_array_equal(rs, np.geomspace(0.1, 0.8, 60))
    np.testing.assert_array_equal(phis, np.linspace(-np.pi / 2, np.pi / 2, 93)[1:-1])
    for axis in rs, phis:
        with pytest.raises(ValueError):
            axis[0] = 1.0
    # the cached axes are not fields: equal specs stay equal and hash alike
    assert grid == GRID and hash(grid) == hash(GRID)


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
