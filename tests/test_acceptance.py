"""End-to-end acceptance suite.

Each test prints a single pass/fail line with its measured runtime and
asserts both the numerical criterion and the runtime budget.  The suite
is deterministic: every Monte Carlo section derives its randomness from
fixed seeds through trial_rng.
"""

import json
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from nfisac import bounds, config, estimators, geometry, harness, hybrid, metrics, sca


def _scenario(scale="desk", **overrides):
    """The default scenario of a scale, with some fields replaced."""
    return replace(config.config_to_scenario(config.default_config(scale)), **overrides)


def _report(num, name, ok, t, limit, detail=""):
    line = (f"criterion {num:02d} {name}: {'PASS' if ok and t < limit else 'FAIL'}"
            f" ({t:.2f}s / {limit:.0f}s limit{'; ' + detail if detail else ''})")
    print(line, file=sys.stderr)
    assert ok, line
    assert t < limit, line


def _response_matrix(geom, r, phi, mu):
    br = geometry.steering_vector(geom, r, phi, side="rx")
    bt = geometry.steering_vector(geom, r, phi, side="tx")
    return mu * np.outer(br, bt.conj())


# ---------------------------------------------------------------------------


def test_criterion_01_rayleigh_distance():
    geom = _scenario("paper").geom
    t0 = time.perf_counter()
    d = geometry.rayleigh_distance(geom)
    t = time.perf_counter() - t0
    _report(1, "rayleigh_distance", abs(d - 21.92) <= 0.01, t, 1e-3,
            f"d={d:.4f} m")


def test_criterion_02_fim_definition_oracle():
    t0 = time.perf_counter()
    geom = geometry.ArrayGeometry(n_tx=4, n_rx=4, n_rf=2, carrier_freq=28e9)
    target = geometry.PointTarget(distance=0.2, angle=0.25,
                                  reflection=0.05 * np.exp(0.3j))
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    R = A @ A.conj().T
    L, noise = 8, 1.0
    trm = bounds.point_trm(geom, target)
    fim = bounds.fim_point(trm, R, noise, L)

    r, phi, mu = target.distance, target.angle, complex(target.reflection)
    theta0 = np.array([r, phi, mu.real, mu.imag])
    steps = np.array([1e-7 * r, 1e-8, 1e-8 * abs(mu), 1e-8 * abs(mu)])
    D = []
    for i in range(4):
        e = np.zeros(4)
        e[i] = steps[i]
        up = _response_matrix(geom, *(theta0 + e)[:2], (theta0 + e)[2] + 1j * (theta0 + e)[3])
        dn = _response_matrix(geom, *(theta0 - e)[:2], (theta0 - e)[2] + 1j * (theta0 - e)[3])
        D.append((up - dn) / (2 * steps[i]))
    J = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            J[i, j] = 2.0 * L / noise * np.real(np.trace(D[i] @ R @ D[j].conj().T))
    J = 0.5 * (J + J.T)
    full = np.block([[fim.J_phiphi, fim.J_phimu], [fim.J_phimu.T, fim.J_mumu]])
    err = np.abs(full - J).max() / np.abs(J).max()
    t = time.perf_counter() - t0
    _report(2, "fim_definition_oracle", err <= 1e-6, t, 10.0, f"rel_err={err:.2e}")


def test_criterion_03_derivative_oracle():
    t0 = time.perf_counter()
    geom = _scenario().geom
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        r = float(rng.uniform(0.3, 2.0))
        phi = float(rng.uniform(-1.0, 1.0))
        mu = 0.05 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        trm = bounds.point_trm(geom, geometry.PointTarget(distance=r, angle=phi,
                                                          reflection=mu))
        eps = 1e-6 * r
        fd_r = (_response_matrix(geom, r + eps, phi, mu)
                - _response_matrix(geom, r - eps, phi, mu)) / (2 * eps)
        eps = 1e-7
        fd_phi = (_response_matrix(geom, r, phi + eps, mu)
                  - _response_matrix(geom, r, phi - eps, mu)) / (2 * eps)
        worst = max(worst,
                    np.linalg.norm(trm.dB_dr - fd_r) / np.linalg.norm(fd_r),
                    np.linalg.norm(trm.dB_dphi - fd_phi) / np.linalg.norm(fd_phi))
    t = time.perf_counter() - t0
    _report(3, "derivative_oracle", worst <= 1e-4, t, 5.0, f"worst_rel={worst:.2e}")


def test_criterion_04_bcrb_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    n_tx, n_rx, L = 3, 2, 4
    A = rng.standard_normal((n_tx, n_tx)) + 1j * rng.standard_normal((n_tx, n_tx))
    R = A @ A.conj().T
    params = bounds.BcrbParams(noise_power=0.7, prior_variance=1.3,
                               frame_length=L, n_rx=n_rx)
    closed = bounds.bcrb_extended_trace(R, params)
    full = float(np.trace(np.linalg.inv(bounds.extended_fim_bayesian(R, params))))
    err = abs(closed - full) / abs(full)
    t = time.perf_counter() - t0
    _report(4, "bcrb_closed_form", err <= 1e-8, t, 5.0, f"rel_err={err:.2e}")


def test_criterion_05_rank_deficiency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(10):
        n_tx = int(rng.integers(3, 9))
        K = int(rng.integers(1, n_tx))
        A = rng.standard_normal((n_tx, K)) + 1j * rng.standard_normal((n_tx, K))
        R = A @ A.conj().T
        J = bounds.extended_fim_prior_free(R, 1.0, 8, n_rx=4)
        evals = np.linalg.eigvalsh(J)
        worst = max(worst, evals.min() / evals.max())
    t = time.perf_counter() - t0
    _report(5, "rank_deficiency", worst < 1e-9, t, 10.0, f"worst_ratio={worst:.2e}")


@pytest.mark.slow
def test_criterion_06_sca_descent_and_feasibility():
    t0 = time.perf_counter()
    scn = _scenario()
    opts = sca.ScaOptions(max_iter=12, sdp_max_iter=2500)
    W, W_list, trace, bound = sca.solve_point_sca(scn, opts)
    objs = np.array(trace.objectives)
    descent = bool(np.all(np.diff(objs) <= 10 * opts.sdp_tol))
    rank_ok = trace.rank_residuals[-1] <= 1e-6
    slack_ok = min(trace.slacks[-1].values()) >= -1e-6
    t = time.perf_counter() - t0
    _report(6, "sca_descent_feasibility", descent and rank_ok and slack_ok, t, 600.0,
            f"bound={bound:.4g} rank={trace.rank_residuals[-1]:.1e} "
            f"min_slack={min(trace.slacks[-1].values()):.1e}")


def test_criterion_07_focusing_heatmap():
    t0 = time.perf_counter()
    scn = _scenario(
        users=(geometry.UserSpec(distance=10.0, angle=np.deg2rad(-30.0), id=0),),
        sinr_threshold=0.0, ee_threshold=0.0,
        target=geometry.PointTarget(distance=0.5, angle=0.0, reflection=0.05))
    W, _, _, bound = sca.solve_point_sca(scn, sca.ScaOptions(max_iter=12,
                                                             sdp_max_iter=2500))
    grid = harness.HeatmapGrid(x_min=-1.0, x_max=1.0, y_min=0.0, y_max=2.0,
                               n_x=21, n_y=21)
    gain = harness.beamfocusing_heatmap(W, scn.geom, grid)
    i, j = np.unravel_index(np.argmax(gain), gain.shape)
    x_peak, y_peak = grid.xs()[i], grid.ys()[j]
    x_s = scn.target.distance * np.sin(scn.target.angle)
    y_s = scn.target.distance * np.cos(scn.target.angle)
    dx = (grid.x_max - grid.x_min) / (grid.n_x - 1)
    dy = (grid.y_max - grid.y_min) / (grid.n_y - 1)
    ok = abs(x_peak - x_s) <= dx + 1e-9 and abs(y_peak - y_s) <= dy + 1e-9
    t = time.perf_counter() - t0
    _report(7, "focusing_heatmap", ok, t, 900.0,
            f"peak=({x_peak:.2f},{y_peak:.2f}) target=({x_s:.2f},{y_s:.2f})")


def _matched_design(scn):
    b = geometry.steering_vector(scn.geom, scn.target.distance, scn.target.angle)
    return (np.sqrt(scn.power_budget) * b / np.linalg.norm(b))[:, None]


def _mle_ratio(scn, W, trials, seed):
    table = harness.ResultTable()
    harness.estimator_trial_rows(table, scn, "none", 0.0, W, trials, seed)
    rm = table.select(metric="mle_rmse_angle")[0]
    crb = table.select(metric="crb_rmse_angle")[0].value
    return rm.value / crb, rm.stderr / crb


def test_criterion_08_bound_achievability():
    t0 = time.perf_counter()
    base = _scenario(sinr_threshold=0.0, ee_threshold=0.0)
    W = _matched_design(base)
    ratios, sigma_top = [], 0.0
    for snr_db in (10.0, 20.0, 30.0):
        scn = harness._apply_sweep(base, "radar_snr_db", snr_db)
        ratio, sigma = _mle_ratio(scn, W, trials=500, seed=8)
        ratios.append(ratio)
        sigma_top = sigma
    window_ok = (1.0 - 3.0 * sigma_top) <= ratios[-1] <= 2.0
    trend_ok = bool(np.all(np.diff(ratios) <= 3.0 * sigma_top))

    # linear Bayesian estimator against the closed-form bound, conditioned
    # per trial on the realized probing signal
    rng = np.random.default_rng(80)
    n_rx, n_tx, L = 2, 3, 4
    prior, noise = 1.0, 0.5
    Wp = rng.standard_normal((n_tx, n_tx)) + 1j * rng.standard_normal((n_tx, n_tx))
    Wp *= np.sqrt(10.0) / np.linalg.norm(Wp)
    params = bounds.BcrbParams(noise_power=noise, prior_variance=prior,
                               frame_length=L, n_rx=n_rx)
    errs, refs = [], []
    for _ in range(2000):
        B = np.sqrt(prior / 2) * (rng.standard_normal((n_rx, n_tx))
                                  + 1j * rng.standard_normal((n_rx, n_tx)))
        echo = estimators.simulate_echo(B, Wp, L, noise, rng)
        B_hat = estimators.lmmse_trm(echo, prior, noise)
        errs.append(np.linalg.norm(B_hat - B) ** 2)
        refs.append(bounds.bcrb_extended_trace(echo.X @ echo.X.conj().T / L, params))
    lmmse_ok = abs(np.mean(errs) - np.mean(refs)) <= 0.10 * np.mean(refs)
    t = time.perf_counter() - t0
    _report(8, "bound_achievability", window_ok and trend_ok and lmmse_ok, t, 1200.0,
            f"ratios={[f'{r:.3f}' for r in ratios]} sigma={sigma_top:.3f} "
            f"lmmse={np.mean(errs):.3f} vs {np.mean(refs):.3f}")


def _sweep_config(variable, values, archs):
    d = {"sweep": {"variable": variable, "values": list(values)},
         "architectures": list(archs), "trials": 0}
    return config.loads_config(json.dumps(d), scale="desk")


@pytest.mark.slow
def test_criterion_09_orderings_and_tradeoffs():
    t0 = time.perf_counter()
    # architecture ordering along the radar-SNR sweep
    table = harness.run_sweep(_sweep_config("radar_snr_db", [10.0, 20.0, 30.0],
                                            ("digital", "fully", "partially")))
    assert not table.select(metric="status", arch="none")
    dig = dict(table.values("bound_trace", arch="digital"))
    ful = dict(table.values("bound_trace", arch="fully"))
    par = dict(table.values("bound_trace", arch="partially"))
    order_ok = all(dig[v] <= ful[v] * (1 + 1e-6) and ful[v] <= par[v] * (1 + 1e-6)
                   for v in dig)

    # achieved bound nondecreasing in the energy-efficiency threshold
    table_ee = harness.run_sweep(_sweep_config("ee_threshold", [2.0, 2.5, 4.0],
                                               ("digital",)))
    ee_vals = [v for _, v in table_ee.values("bound_trace", arch="digital")]
    ee_ok = bool(np.all(np.diff(ee_vals) >= -1e-6 * np.abs(ee_vals[:-1])))

    # distance bound nondecreasing in range with a knee near the boundary
    d_r = geometry.rayleigh_distance(_scenario().geom)
    vals = [0.5, 0.8 * d_r, 1.2 * d_r, 2.0]
    table_d = harness.run_sweep(_sweep_config("target_distance", vals, ("digital",)))
    bd = dict(table_d.values("bound_distance", arch="digital"))
    seq = [bd[v] for v in sorted(bd)]
    dist_ok = bool(np.all(np.diff(seq) >= -1e-6 * np.abs(seq[:-1])))
    knee = bd[1.2 * d_r] / bd[0.8 * d_r]
    t = time.perf_counter() - t0
    _report(9, "orderings_and_tradeoffs", order_ok and ee_ok and dist_ok and knee > 2.0,
            t, 1800.0, f"knee={knee:.2f} ee={[f'{v:.3g}' for v in ee_vals]}")


def test_criterion_10_hybrid_factorization():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        T_A = np.exp(1j * rng.uniform(0, 2 * np.pi, (16, 4)))
        T_D = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        W = T_A @ T_D
        fac = hybrid.factorize(W, 4, architecture="fully")
        p = np.linalg.norm(W) ** 2
        worst = max(worst, fac.residual)
        ok = ok and fac.residual <= 1e-3
        ok = ok and bool(np.all(np.abs(np.abs(fac.analog) - 1.0) <= 1e-9))
        ok = ok and abs(np.linalg.norm(fac.analog @ fac.digital) ** 2 - p) <= 1e-8 * p
        ok = ok and bool(np.all(np.diff(fac.trace) <= 1e-12))
    t = time.perf_counter() - t0
    _report(10, "hybrid_factorization", ok, t, 120.0, f"worst_residual={worst:.2e}")


def test_criterion_11_music_ordering():
    t0 = time.perf_counter()
    base = _scenario(sinr_threshold=0.0, ee_threshold=0.0)
    scn = harness._apply_sweep(base, "radar_snr_db", 30.0)
    W = _matched_design(scn)
    trm = bounds.point_trm(scn.geom, scn.target)
    C = bounds.scenario_bound(scn, W @ W.conj().T)
    grid = estimators.default_grid(scn.geom)
    mle_sq, music_sq = [], []
    for trial in range(500):
        rng = estimators.trial_rng(11, trial)
        echo = estimators.simulate_echo(trm.B, W, scn.frame_length,
                                        scn.sensing_noise, rng)
        _, phi_m, _ = estimators.mle_point(echo, scn.geom, grid)
        _, phi_u = estimators.music_2d(echo, scn.geom, grid)
        mle_sq.append((phi_m - scn.target.angle) ** 2)
        music_sq.append((phi_u - scn.target.angle) ** 2)
    mle_sq, music_sq = np.array(mle_sq), np.array(music_sq)
    rmse_mle = float(np.sqrt(mle_sq.mean()))
    rmse_music = float(np.sqrt(music_sq.mean()))
    crb_root = float(np.sqrt(C[1, 1]))
    se_mle = float(mle_sq.std(ddof=1) / (2 * rmse_mle * np.sqrt(500)))
    se_music = float(music_sq.std(ddof=1) / (2 * rmse_music * np.sqrt(500)))
    ordering = rmse_music >= rmse_mle - 3 * (se_mle + se_music)
    above = (rmse_mle >= crb_root - 3 * se_mle
             and rmse_music >= crb_root - 3 * se_music)
    t = time.perf_counter() - t0
    _report(11, "music_ordering", ordering and above, t, 600.0,
            f"music={rmse_music:.4g} mle={rmse_mle:.4g} sqrt_crb={crb_root:.4g}")
