import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize_scalar

from nfisac import bounds, config, geometry, harness, metrics, sca
from nfisac.conic import ConicProgram, LinExpr, real_trace, solve, solver
from nfisac.errors import (
    InvalidArgumentError,
    RankViolationError,
    ScenarioInfeasibleError,
)
from nfisac.scenario import Scenario

GEOM4 = geometry.ArrayGeometry(n_tx=4, n_rx=4, n_rf=2, carrier_freq=28e9)


def _small_scenario(**overrides):
    base = dict(
        geom=GEOM4,
        users=(geometry.UserSpec(distance=5.0, angle=0.3, id=0),),
        target=geometry.PointTarget(distance=0.2, angle=0.25, reflection=0.05),
        power_budget=100.0,
        sinr_threshold=0.0,
        ee_threshold=0.0,
        amplifier_eff=0.5,
        static_power=30.0,
        comm_noise=1e-7,
        sensing_noise=1.0,
        frame_length=8,
    )
    base.update(overrides)
    return Scenario(**base)


def _random_psd(rng, n, rank=None):
    A = rng.standard_normal((n, rank or n)) + 1j * rng.standard_normal((n, rank or n))
    return A @ A.conj().T


# ---------------------------------------------------------------------------
# options and tangents


def test_options_validation():
    with pytest.raises(InvalidArgumentError):
        sca.ScaOptions(gamma=0.0)
    with pytest.raises(InvalidArgumentError):
        sca.ScaOptions(max_iter=0)
    # sdp_max_iter=0 used to hand the SCA an all-zero "solution"
    for bad in (dict(sdp_max_iter=0), dict(sdp_max_iter=-1), dict(sdp_tol=0.0),
                dict(sdp_tol=-1e-4), dict(rank_tol=-1e-9)):
        with pytest.raises(InvalidArgumentError):
            sca.ScaOptions(**bad)
    sca.ScaOptions(sdp_max_iter=1, sdp_tol=1e-12, rank_tol=0.0)
    sca.ScaOptions(rank_tol=np.inf)


def test_spectral_surrogate_is_tangent_minorant():
    # the built penalty is (1/(gamma P)) (Tr W - u^H W u), u from W_prev:
    # equal to (1/(gamma P)) (||W||_* - ||W||_2) at W_prev and above it
    # elsewhere, as u^H W u is a tangent minorant of the spectral norm
    rng = np.random.default_rng(0)
    W_prev = _random_psd(rng, 5)
    gamma, budget = 0.3, 7.0
    state = sca.ScaState(W_prev=[W_prev], channels=None, basis=np.eye(5), gamma=gamma)
    prog = ConicProgram()
    var = prog.add_matrix_var("W0", 5)
    penalty = sca._penalty_expr(state, [var], budget)

    def gap(W):
        evals = np.linalg.eigvalsh(W)
        return (evals.sum() - evals[-1]) / (gamma * budget)

    assert penalty.evaluate({"W0": W_prev}, prog) == pytest.approx(gap(W_prev), rel=1e-12)
    for _ in range(20):
        W = _random_psd(rng, 5)
        assert penalty.evaluate({"W0": W}, prog) >= gap(W) - 1e-10


def test_rate_surrogate_is_tangent_minorant():
    # the EE row's tangent of user k's rate, built from the interference
    # that metrics.signal_and_interference reads at W_prev: exact there,
    # below the true rate elsewhere
    scn = _small_scenario(users=(geometry.UserSpec(distance=5.0, angle=0.3, id=0),
                                 geometry.UserSpec(distance=7.0, angle=-0.4, id=1)),
                          frame_length=8)
    channels = scn.channels()
    noise = scn.comm_noise
    rng = np.random.default_rng(1)
    W_prev = [_random_psd(rng, 4) for _ in range(2)]
    _, interf_prev = metrics.signal_and_interference(channels, W_prev)
    for k, h in enumerate(channels.vectors):
        oracle = sum(np.real(h.conj() @ W @ h) for i, W in enumerate(W_prev) if i != k)
        assert interf_prev[k] == pytest.approx(oracle, rel=1e-12)

    def true_rate(k, W_list):
        return np.log2(1.0 + metrics.sinrs(channels, W_list, noise)[k])

    def tangent_rate(k, W_list):
        signal, interf = metrics.signal_and_interference(channels, W_list)
        v = interf_prev[k] + noise
        return (np.log2(signal[k] + interf[k] + noise) - np.log2(v)
                - sca.LOG2E / v * (interf[k] - interf_prev[k]))

    for k in range(2):
        assert tangent_rate(k, W_prev) == pytest.approx(true_rate(k, W_prev), rel=1e-10)
        for _ in range(15):
            W = [_random_psd(rng, 4) for _ in range(2)]
            assert tangent_rate(k, W) <= true_rate(k, W) + 1e-9


def test_chord_envelope_underestimates_log():
    noise, reach = 0.5, 200.0
    intercepts, slopes = sca.chord_envelope(noise, reach, 32)
    u = np.linspace(noise, noise + reach, 500)
    env = np.min(intercepts[:, None] + slopes[:, None] * u[None, :], axis=0)
    assert np.all(env <= np.log2(u) + 1e-12)
    # tight at the interval ends
    assert env[0] == pytest.approx(np.log2(noise), abs=1e-9)
    assert env[-1] == pytest.approx(np.log2(noise + reach), abs=1e-9)


# ---------------------------------------------------------------------------
# initialization and slack bookkeeping


def test_init_feasible_sensing_only_is_target_matched():
    scn = _small_scenario()
    W0 = sca.init_feasible(scn)
    total = sum(np.real(np.trace(W)) for W in W0)
    assert total == pytest.approx(scn.power_budget, rel=1e-10)
    b = geometry.steering_vector(scn.geom, scn.target.distance, scn.target.angle)
    R = sum(W0)
    overlap = np.real(b.conj() @ R @ b) / (np.linalg.norm(b) ** 2 * np.trace(R))
    assert overlap == pytest.approx(1.0, rel=1e-10)


def _two_user_scenario(**overrides):
    users = (geometry.UserSpec(distance=5.0, angle=0.3, id=0),
             geometry.UserSpec(distance=7.0, angle=-0.4, id=1))
    return _small_scenario(**{"users": users, "sinr_threshold": 5.0, **overrides})


def _min_power_sdp(scn, channels):
    """Reference: the SINR-constrained power minimization as a conic program.

    Its relaxation is tight, so its optimum is the closed-form start.
    """
    prog = ConicProgram()
    w_vars = [prog.add_matrix_var(f"W{k}", scn.geom.n_tx) for k in range(channels.n_users)]
    for var in w_vars:
        prog.psd_var(var)
    obj = LinExpr()
    for var in w_vars:
        obj = obj + real_trace(np.eye(var.side), var)
    prog.set_objective(obj)
    for k in range(channels.n_users):
        e = LinExpr(-scn.comm_noise)
        for i, var in enumerate(w_vars):
            scale = 1.0 / scn.sinr_threshold if i == k else -1.0
            h = channels.vectors[k]
            e = e + real_trace(scale * np.outer(h, h.conj()), var)
        prog.add_ineq(e)
    prog.add_ineq(LinExpr(scn.power_budget) - obj)
    sol = solve(prog, tol=1e-10)
    assert sol.optimal
    return [sca._psd_cleanup(sol.assignments[f"W{k}"]) for k in range(channels.n_users)]


def test_min_power_start_matches_sdp_oracle():
    scn = _two_user_scenario()
    channels = scn.channels()
    W_ref = _min_power_sdp(scn, channels)
    W_min = sca._min_power_covariances(channels, scn.sinr_threshold, scn.comm_noise,
                                       scn.power_budget)
    for W, R in zip(W_min, W_ref):
        assert np.linalg.norm(W - R) <= 1e-6 * np.linalg.norm(R)
    assert sca.rank_residual(W_min) <= 1e-12
    slacks = sca.evaluate_slacks(scn, channels, W_min)
    for k in range(2):
        assert slacks[f"sinr{k}"] == pytest.approx(0.0, abs=1e-12)


def _monotone_dual_powers(channels, gamma_th, noise, budget, rel_step=1e-15):
    """Reference: the fixed-point iteration on the dual powers from 0, one n x n solve a step.

    None once an iterate's sum passes the budget: the iteration rises
    monotonically to the least total power, so the floors are out of reach.
    """
    Q = np.stack(channels.vectors, axis=1) / np.sqrt(noise)
    n, K = Q.shape
    lam = np.zeros(K)
    while True:
        X = np.linalg.solve(np.eye(n) + (Q * lam) @ Q.conj().T, Q)
        d = (1.0 + 1.0 / gamma_th) * np.real(np.sum(Q.conj() * X, axis=0))
        if np.any(d * budget <= 1.0) or np.sum(1.0 / d) > budget:
            return None
        lam, prev = 1.0 / d, lam
        if np.sum(lam - prev) <= rel_step * np.sum(lam):
            return lam


def _dual_gram(channels, gamma_th, noise):
    """(G, c) of sca._newton_dual_powers: G = Q^H Q, q_k = h_k / sqrt(noise), c = 1 + 1/gamma."""
    Q = np.stack(channels.vectors, axis=1) / np.sqrt(noise)
    return Q.conj().T @ Q, 1.0 + 1.0 / gamma_th


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_min_power_start_reaches_the_monotone_fixed_point(scale, monkeypatch):
    # Newton on K unknowns lands on the fixed point the monotone iteration
    # rises to, and the whole start takes a dozen solves where the
    # iteration takes one n x n solve per step (about 290)
    scn = config.config_to_scenario(config.default_config(scale))
    channels = scn.channels()
    args = (channels, scn.sinr_threshold, scn.comm_noise, scn.power_budget)
    ref = _monotone_dual_powers(*args)
    lam = sca._newton_dual_powers(*_dual_gram(*args[:3]))
    np.testing.assert_allclose(lam, ref, rtol=1e-11)

    linalg_solve, calls = np.linalg.solve, []

    def counting_solve(*a, **kw):
        calls.append(a[0].shape)
        return linalg_solve(*a, **kw)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    sca._min_power_covariances(*args)
    assert len(calls) <= 12, calls


def test_min_power_start_rejects_the_thresholds_the_monotone_iteration_rejects():
    # the largest SINR floor the budget reaches, as the reference finds it
    # by bisection, then a scan across it: the start raises exactly where
    # the reference passes the budget, including 1e-9 either side of the edge
    scn = _two_user_scenario()
    channels = scn.channels()

    def reachable(g):
        return _monotone_dual_powers(channels, g, scn.comm_noise, scn.power_budget) is not None

    lo, hi = 1.0, 2.0
    while reachable(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if reachable(mid) else (lo, mid)
    factors = np.concatenate([np.geomspace(0.5, 2.0, 24), [1.0 - 1e-9, 1.0 + 1e-9]])
    verdicts = []
    for g in lo * factors:
        try:
            sca._min_power_covariances(channels, g, scn.comm_noise, scn.power_budget)
            raised = False
        except ScenarioInfeasibleError as err:
            assert err.violated == "sinr"
            raised = True
        assert raised == (not reachable(g)), g / lo
        verdicts.append(raised)
    assert verdicts[-2:] == [False, True]
    assert 0 < sum(verdicts[:-2]) < 24


def test_min_power_start_at_one_spot_falls_back_from_a_singular_newton_step():
    # two users on one channel at SINR 1: the first Newton matrix
    # I - |G|^2 / (2 G_kk^2) is singular and no power meets both floors,
    # so the monotone iteration decides
    user = geometry.UserSpec(distance=5.0, angle=0.3, id=0)
    scn = _small_scenario(users=(user, replace(user, id=1)), sinr_threshold=1.0)
    channels = scn.channels()
    assert sca._newton_dual_powers(*_dual_gram(channels, 1.0, scn.comm_noise)) is None
    with pytest.raises(ScenarioInfeasibleError) as err:
        sca._min_power_covariances(channels, 1.0, scn.comm_noise, scn.power_budget)
    assert err.value.violated == "sinr"


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_min_power_start_without_newton_steps_takes_the_monotone_iteration(scale, monkeypatch):
    # with no Newton steps the monotone iteration finds the dual powers,
    # and the covariances match those of the Newton start
    scn = config.config_to_scenario(config.default_config(scale))
    args = (scn.channels(), scn.sinr_threshold, scn.comm_noise, scn.power_budget)
    newton = sca._min_power_covariances(*args)
    monkeypatch.setattr(sca, "NEWTON_STEPS", 0)
    assert sca._newton_dual_powers(*_dual_gram(*args[:3])) is None
    for W, R in zip(sca._min_power_covariances(*args), newton):
        assert np.linalg.norm(W - R) <= 1e-12 * np.linalg.norm(R)


def test_init_feasible_with_sinr_meets_every_constraint():
    scn = _two_user_scenario(ee_threshold=1.0)
    channels = scn.channels()
    W0 = sca.init_feasible(scn, channels)
    slacks = sca.evaluate_slacks(scn, channels, W0)
    assert set(slacks) == {"power", "sinr0", "sinr1", "ee"}
    assert min(slacks.values()) >= -1e-6


def test_init_feasible_is_unit_free():
    # SINR rows read the channels only through h_k / sqrt(noise)
    scn = _two_user_scenario(ee_threshold=1.0)
    channels = scn.channels()
    small = geometry.ChannelSet(vectors=tuple(1e-4 * h for h in channels.vectors))
    W0 = sca.init_feasible(scn, channels)
    W1 = sca.init_feasible(replace(scn, comm_noise=1e-8 * scn.comm_noise), small)
    for W, V in zip(W0, W1):
        assert np.linalg.norm(W - V) <= 1e-12 * np.linalg.norm(W)


def test_init_feasible_at_paper_scale():
    scn = config.config_to_scenario(config.default_config("paper"))
    channels = scn.channels()
    W0 = sca.init_feasible(scn, channels)
    assert min(sca.evaluate_slacks(scn, channels, W0).values()) >= 0.0


def test_init_feasible_rejects_unreachable_sinr():
    scn = _small_scenario(sinr_threshold=1e30)
    with pytest.raises(ScenarioInfeasibleError) as err:
        sca.init_feasible(scn)
    assert err.value.violated == "sinr"


@pytest.mark.parametrize("scale", ["desk", "paper"])
@pytest.mark.parametrize("ee", [1.0, 2.0, 3.0, 4.0, 4.5])
def test_power_scan_picks_the_scale_of_a_scan_over_scaled_covariances(scale, ee):
    # scoring each candidate scale from one signal-and-interference pass
    # picks the scale that evaluating every scaled covariance list picks
    scn = replace(config.config_to_scenario(config.default_config(scale)), ee_threshold=ee)
    channels = scn.channels()
    W0 = sca._min_power_covariances(channels, scn.sinr_threshold, scn.comm_noise,
                                    scn.power_budget)
    total = sca._total_trace(W0)
    slacks = []
    scales = np.geomspace(1.0, max(scn.power_budget / total, 1.0), 200)
    for t in scales:
        W_t = [t * W for W in W0]
        slacks.append(sca._ee_slack(scn, metrics.sinrs(channels, W_t, scn.comm_noise),
                                    sca._total_trace(W_t))[0])
    best = scales[int(np.argmax(slacks))]
    for W, V in zip(sca._power_scan(scn, channels, W0), W0):
        np.testing.assert_array_equal(W, best * V)


def test_init_feasible_rejects_unreachable_ee():
    scn = replace(config.config_to_scenario(config.default_config("desk")), ee_threshold=1e3)
    with pytest.raises(ScenarioInfeasibleError) as err:
        sca.init_feasible(scn)
    assert err.value.violated == "energy-efficiency"


def test_init_feasible_users_at_one_spot():
    # two users share one channel: SINR 10 is beyond any power, SINR 0.5 is met
    user = geometry.UserSpec(distance=5.0, angle=0.3, id=0)
    scn = _small_scenario(users=(user, replace(user, id=1)), sinr_threshold=10.0)
    with pytest.raises(ScenarioInfeasibleError) as err:
        sca.init_feasible(scn)
    assert err.value.violated == "sinr"
    scn = replace(scn, sinr_threshold=0.5)
    channels = scn.channels()
    W0 = sca.init_feasible(scn, channels)
    assert min(sca.evaluate_slacks(scn, channels, W0).values()) >= -1e-12


def test_evaluate_slacks_power_formula():
    scn = _small_scenario()
    channels = scn.channels()
    W = [np.eye(4, dtype=complex) * 10.0]
    slacks = sca.evaluate_slacks(scn, channels, W)
    assert slacks["power"] == pytest.approx((100.0 - 40.0) / 100.0)


# ---------------------------------------------------------------------------
# polish: largest feasible uniform scale


def _polish_case(kind):
    """(scenario, channels, W_list) for one path of sca._polish."""
    scn = _small_scenario(**{"ee": dict(ee_threshold=50.0),
                             "sinr": dict(sinr_threshold=1e30)}.get(kind, {}))
    channels = scn.channels()
    h = channels.vectors[0]
    if kind == "ee":
        # matched beam of power 10: EE 73 at scale 1, 30 at the budget scale 10
        W = 10.0 * np.outer(h, h.conj()) / np.linalg.norm(h) ** 2
    else:
        W = _random_psd(np.random.default_rng(7), 4, rank=2)
        W *= {"budget": 40.0, "over": 105.0, "sinr": 40.0, "grow": 40.0}[kind] / np.real(np.trace(W))
    if kind == "grow":
        # SINR row violated by 1e-6 at scale 1: shrinking cannot repair it, growing can
        (sinr,) = metrics.sinrs(channels, [W], scn.comm_noise)
        scn = _small_scenario(sinr_threshold=sinr / (1.0 - 1e-6))
    return scn, channels, [W]


def _polish_scale(W_out, W_in):
    scale = np.real(np.trace(W_out)) / np.real(np.trace(W_in))
    np.testing.assert_allclose(W_out, scale * W_in, rtol=1e-14)
    return scale


def test_polish_feasible_at_budget_scales_to_budget():
    scn, channels, W_list = _polish_case("budget")
    (W,) = sca._polish(scn, channels, W_list)
    t_max = scn.power_budget / float(np.real(np.trace(W_list[0])))
    np.testing.assert_array_equal(W, t_max * W_list[0])


def test_polish_ee_binding_returns_bisected_edge():
    scn, channels, W_list = _polish_case("ee")
    (W,) = sca._polish(scn, channels, W_list)
    scale = _polish_scale(W, W_list[0])
    assert 1.0 < scale < 10.0
    assert min(sca.evaluate_slacks(scn, channels, [W]).values()) >= 0.0
    assert sca.evaluate_slacks(scn, channels, [(1.0 + 1e-12) * W])["ee"] < 0.0


def test_polish_over_budget_shrinks_into_bracket():
    scn, channels, W_list = _polish_case("over")
    (W,) = sca._polish(scn, channels, W_list)
    scale = _polish_scale(W, W_list[0])
    assert 0.9 <= scale < 1.0
    assert scale == pytest.approx(100.0 / 105.0, rel=1e-14)
    assert sca.evaluate_slacks(scn, channels, [W])["power"] >= 0.0


def test_polish_grows_sinr_violated_iterate_to_budget():
    scn, channels, W_list = _polish_case("grow")
    slacks = sca.evaluate_slacks(scn, channels, W_list)
    assert -2e-6 < slacks["sinr0"] < 0.0
    assert sca.evaluate_slacks(scn, channels, [0.9 * W_list[0]])["sinr0"] < 0.0
    (W,) = sca._polish(scn, channels, W_list)
    np.testing.assert_array_equal(W, 2.5 * W_list[0])
    assert min(sca.evaluate_slacks(scn, channels, [W]).values()) >= 0.0


def test_polish_keeps_iterate_not_repairable_by_scaling():
    scn, channels, W_list = _polish_case("sinr")
    assert sca.evaluate_slacks(scn, channels, W_list)["sinr0"] < 0.0
    assert sca._polish(scn, channels, W_list) is W_list


def _matrix_polish_scale(scn, channels, W_list):
    """Reference: _polish's scale by 60-step bisections over scaled covariance lists."""
    def feasible(t):
        return min(sca.evaluate_slacks(scn, channels, [t * W for W in W_list]).values()) >= 0.0

    def upper_edge(lo, hi):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
        return lo

    ok, t = feasible(1.0), 1.0
    if not ok and feasible(0.9):
        ok, t = True, upper_edge(0.9, 1.0)
    t_max = scn.power_budget / sca._total_trace(W_list)
    if t_max <= t:
        return t
    if feasible(t_max):
        return t_max
    return upper_edge(t, t_max) if ok else 1.0


@pytest.mark.parametrize("scale", ["desk", "paper"])
@pytest.mark.parametrize("ee", [1.0, 2.0, 3.0, 4.0, 4.5])
def test_polish_on_per_user_scalars_finds_the_edge_of_scaled_covariances(scale, ee):
    # the start grown to its energy-efficiency edge or the budget (or kept
    # where the scan's scale is that edge already), and that edge grown by
    # 5% shrunk back: the bisection on signal, interference and trace
    # returns the scale that bisecting over scaled covariance lists
    # returns, and its matrices meet every row
    scn = replace(config.config_to_scenario(config.default_config(scale)), ee_threshold=ee)
    channels = scn.channels()
    W0 = sca.init_feasible(scn, channels)
    grown = sca._polish(scn, channels, W0)
    over = [1.05 * W for W in grown]
    for W_in, lo, hi in ((W0, 1.0 - 1e-16, np.inf), (over, 0.9, 1.0)):
        W_out = sca._polish(scn, channels, W_in)
        scale_out = _polish_scale(W_out[0], W_in[0])
        for W, V in zip(W_out, W_in):
            assert _polish_scale(W, V) == pytest.approx(scale_out, rel=1e-14)
        assert lo < scale_out < hi
        assert scale_out == pytest.approx(_matrix_polish_scale(scn, channels, W_in), rel=1e-14)
        assert min(sca.evaluate_slacks(scn, channels, W_out).values()) >= 0.0


# ---------------------------------------------------------------------------
# beamformer extraction


def test_extract_beamformer_rank_one():
    rng = np.random.default_rng(2)
    w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    W = np.outer(w, w.conj())
    v = sca.extract_beamformer(W)
    np.testing.assert_allclose(np.outer(v, v.conj()), W, atol=1e-10 * np.linalg.norm(W))
    # first significant entry rotated to the nonnegative real axis
    assert np.imag(v[0]) == pytest.approx(0.0, abs=1e-12)
    assert np.real(v[0]) >= 0


def test_extract_beamformer_rejects_rank_two():
    W = np.diag([1.0, 1.0, 0.0]).astype(complex)
    with pytest.raises(RankViolationError):
        sca.extract_beamformer(W, rank_tol=1e-6)


def test_rank_residual_values():
    assert sca.rank_residual([np.diag([1.0, 0.0]).astype(complex)]) == pytest.approx(0.0)
    assert sca.rank_residual([np.eye(2, dtype=complex)]) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# point-target driver


def test_point_sca_descends_and_stays_feasible():
    # one user, SINR and EE floors: the first iterate at the default gamma
    # is not rank one, so gamma drops straight to GAMMA_FALLBACK, and the
    # run still ends rank one and feasible
    scn = _small_scenario(sinr_threshold=3.0, ee_threshold=1.0)
    opts = sca.ScaOptions(max_iter=6, sdp_tol=1e-5, sdp_max_iter=20000)
    W, W_list, trace, bound = sca.solve_point_sca(scn, opts)
    assert np.isfinite(bound) and bound > 0
    objs = np.array(trace.objectives)
    assert np.all(np.diff(objs) <= 10 * opts.sdp_tol)
    assert trace.rank_residuals[0] > opts.rank_tol
    assert trace.gammas[:2] == [sca.ScaOptions().gamma, sca.GAMMA_FALLBACK]
    assert trace.status == "converged"
    assert min(trace.slacks[-1].values()) >= 0.0
    assert trace.rank_residuals[-1] <= opts.rank_tol
    assert sca.rank_residual(W_list) <= 1e-12
    assert W.shape == (4, 1)


def _rescaled_polish(monkeypatch, scales):
    """Scale the i-th polished iterate by scales[i] (the last scale thereafter)."""
    polish = sca._polish
    calls = []

    def rescaled(scenario, channels, W_list):
        t = scales[min(len(calls), len(scales) - 1)]
        calls.append(t)
        return [t * W for W in polish(scenario, channels, W_list)]

    monkeypatch.setattr(sca, "_polish", rescaled)


def test_point_sca_returns_its_best_rank_one_iterate(monkeypatch):
    # iterates after the first are polished to half the power, so their
    # bound doubles: the design returned is the first iterate's
    _rescaled_polish(monkeypatch, [1.0, 0.5])
    _, W_list, trace, bound = sca.solve_point_sca(_small_scenario(), sca.ScaOptions(max_iter=3))
    assert trace.bounds[1] == pytest.approx(2.0 * trace.bounds[0], rel=1e-6)
    assert trace.status == "converged" and len(trace.bounds) == 3
    assert bound == pytest.approx(trace.bounds[0], rel=1e-6)
    assert sca._total_trace(W_list) == pytest.approx(_small_scenario().power_budget, rel=1e-9)


def test_point_sca_marks_a_design_that_breaks_a_floor_degraded(monkeypatch):
    # every iterate polished to twice the budget: none meets the power row,
    # so the run cannot converge and ends "degraded" on the best of them
    _rescaled_polish(monkeypatch, [2.0])
    _, _, trace, bound = sca.solve_point_sca(_small_scenario(), sca.ScaOptions(max_iter=3))
    assert all(s["power"] == pytest.approx(-1.0) for s in trace.slacks)
    assert len(trace.objectives) == 3 and trace.status == "degraded"
    assert bound == pytest.approx(min(trace.bounds), rel=1e-6)


def test_point_sca_keeps_its_design_past_a_misreported_subproblem(monkeypatch):
    # the second subproblem, built at the feasible first iterate, comes back
    # "infeasible": the run stops short of convergence but keeps that
    # iterate's design rather than marking the run degraded
    conic_solve = sca.solve
    calls = []

    def misreporting_solve(*args, **kwargs):
        sol = conic_solve(*args, **kwargs)
        calls.append(sol)
        return replace(sol, status="infeasible") if len(calls) == 2 else sol

    monkeypatch.setattr(sca, "solve", misreporting_solve)
    _, W_list, trace, bound = sca.solve_point_sca(_small_scenario(), sca.ScaOptions(max_iter=3))
    assert [rec.status for rec in trace.solves] == ["optimal", "infeasible"]
    assert len(trace.objectives) == 1 and trace.status == "max_iter"
    assert min(trace.slacks[0].values()) >= 0.0
    assert bound == pytest.approx(trace.bounds[0], rel=1e-6)
    assert sca.rank_residual(W_list) <= 1e-12


def test_point_sca_with_an_infeasible_first_subproblem_raises(monkeypatch):
    # no iterate at all: the run has no design to fall back on
    conic_solve = sca.solve
    monkeypatch.setattr(sca, "solve", lambda *args, **kwargs: replace(
        conic_solve(*args, **kwargs), status="infeasible"))
    with pytest.raises(ScenarioInfeasibleError) as err:
        sca.solve_point_sca(_small_scenario(), sca.ScaOptions(max_iter=3))
    assert err.value.violated == "subproblem"


def test_point_sca_without_a_rank_one_iterate_raises():
    # at rank_tol = 0 the desk design's one iterate, rank one to about
    # 1e-7, is not rank one
    scn = config.config_to_scenario(config.default_config("desk"))
    with pytest.raises(RankViolationError) as err:
        sca.solve_point_sca(scn, sca.ScaOptions(max_iter=1, rank_tol=0.0))
    assert err.value.residual > 0


def test_point_sca_bound_improves_with_power():
    opts = sca.ScaOptions(max_iter=4, sdp_max_iter=3000)
    _, _, _, b1 = sca.solve_point_sca(_small_scenario(), opts)
    _, _, _, b4 = sca.solve_point_sca(_small_scenario(power_budget=400.0), opts)
    assert b4 < b1


def _recording_solve(monkeypatch):
    """Record (program, keyword arguments, solution) of each solve sca runs."""
    calls = []
    conic_solve = sca.solve

    def recording_solve(prog, **kwargs):
        sol = conic_solve(prog, **kwargs)
        calls.append((prog, kwargs, sol))
        return sol

    monkeypatch.setattr(sca, "solve", recording_solve)
    return calls


def test_point_sca_records_each_solve(monkeypatch):
    # one record per SCA iteration, holding what solve returned; only the
    # first solve starts cold, each later one from the solve before it
    calls = _recording_solve(monkeypatch)
    opts = sca.ScaOptions(max_iter=3)
    _, _, trace, _ = sca.solve_point_sca(_small_scenario(sinr_threshold=3.0), opts)
    assert len(trace.solves) == len(trace.objectives) == len(calls) == 2
    for rec, (_, _, sol) in zip(trace.solves, calls):
        assert rec == sca.SolveRecord(sol.status, sol.iterations, sol.primal_residual,
                                      sol.dual_residual, sol.duality_gap)
        assert rec.status == "optimal" and rec.iterations < opts.sdp_max_iter
    assert [kwargs["start"] for _, kwargs, _ in calls] == [None, calls[0][2]]


def test_desk_subproblem_started_from_the_last_solve_keeps_its_optimum(monkeypatch):
    # the desk design's second subproblem, solved from the first solution
    # as the SCA solves it and solved cold: the same optimum, in fewer
    # Newton steps from the start
    calls = _recording_solve(monkeypatch)
    scn = config.config_to_scenario(config.default_config("desk"))
    sca.solve_point_sca(scn, harness._sweep_options(scn))
    prog, kwargs, warm = calls[1]
    assert kwargs["start"] is calls[0][2]
    cold = solve(prog, **dict(kwargs, start=None))
    assert warm.optimal and cold.optimal
    assert warm.objective == pytest.approx(cold.objective, rel=1e-8)
    assert warm.iterations < cold.iterations


def test_desk_design_descends_on_exact_steps():
    # the desk design of a sweep on the rank-penalty continuation (started
    # at GAMMA_FALLBACK): every subproblem solved to optimality, and the
    # bound of each accepted iterate no larger than the last
    scn = config.config_to_scenario(config.default_config("desk"))
    options = replace(harness._sweep_options(scn), gamma=sca.GAMMA_FALLBACK)
    _, W_list, trace, bound = sca.solve_point_sca(scn, options)
    assert [rec.status for rec in trace.solves] == ["optimal"] * len(trace.solves)
    assert len(trace.bounds) == len(trace.objectives) == 12
    assert all(b <= a for a, b in zip(trace.bounds, trace.bounds[1:]))
    assert trace.bounds[-1] == pytest.approx(bound, rel=1e-6)
    assert sca.rank_residual(W_list) <= 1e-12


def test_desk_design_exits_once_the_relaxation_is_rank_one():
    # the desk design of a sweep: at the default gamma the first iterate is
    # already rank one, and one confirming iteration ends the run
    scn = config.config_to_scenario(config.default_config("desk"))
    options = harness._sweep_options(scn)
    _, W_list, trace, bound = sca.solve_point_sca(scn, options)
    assert trace.status == "converged"
    assert [rec.status for rec in trace.solves] == ["optimal", "optimal"]
    assert sum(rec.iterations for rec in trace.solves) <= 50
    assert trace.gammas == [1e4, 1e4]
    assert max(trace.rank_residuals) <= options.rank_tol
    assert abs(trace.bounds[1] - trace.bounds[0]) <= sca.TOL * trace.bounds[1]
    assert bound == pytest.approx(trace.bounds[-1], rel=1e-6)
    assert min(trace.slacks[-1].values()) >= 0.0


def test_full_power_congruence_keeps_xi_of_order_one(monkeypatch):
    # the congruence is sized at the start plus isotropic full power: the
    # first desk subproblem's solved Xi reads O(1) (5,765 and 29 when sized
    # at the start alone), and the designs take few Newton steps
    calls = _recording_solve(monkeypatch)
    steps = {}
    for scale in ("desk", "paper"):
        scn = config.config_to_scenario(config.default_config(scale))
        _, _, trace, _ = sca.solve_point_sca(scn, harness._sweep_options(scn))
        assert [rec.status for rec in trace.solves] == ["optimal"] * len(trace.solves)
        steps[scale] = sum(rec.iterations for rec in trace.solves)
    xi = np.diag(calls[0][2].assignments["Xi"])
    assert np.all((1e-2 <= xi) & (xi <= 1e2))
    assert steps["desk"] <= 40
    assert steps["paper"] < 54


def test_point_sca_rejects_a_start_without_target_information(monkeypatch):
    # beams orthogonal to span{b_t, d b_t / dr, d b_t / dphi}, which holds
    # every information coefficient matrix, carry no target information
    scn = config.config_to_scenario(config.default_config("desk"))
    geom, target = scn.geom, scn.target
    d_r, d_phi = geometry.steering_derivatives(geom, target.distance, target.angle)
    bt = geometry.steering_vector(geom, target.distance, target.angle)
    Q = np.linalg.qr(np.column_stack([bt, d_r, d_phi]), mode="complete")[0]
    W0 = [np.outer(q, q.conj()) for q in Q[:, 3: 3 + scn.channels().n_users].T]
    monkeypatch.setattr(sca, "init_feasible", lambda *_: W0)
    with pytest.raises(ScenarioInfeasibleError) as err:
        sca.solve_point_sca(scn)
    assert err.value.violated == "information"


class _FirstSubproblem(Exception):
    pass


def _first_subproblem(monkeypatch, scn, options=None):
    """The first SCA subproblem solve_point_sca or, for an extended target,
    solve_extended_sca builds for scn, and its solver options."""
    programs = []

    def first_program(prog, **kwargs):
        programs.append((prog, kwargs))
        raise _FirstSubproblem

    point = isinstance(scn.target, geometry.PointTarget)
    with monkeypatch.context() as m:
        m.setattr(sca, "solve", first_program)
        with pytest.raises(_FirstSubproblem):
            (sca.solve_point_sca if point else sca.solve_extended_sca)(scn, options)
    return programs[0]


def _extended8_scenario():
    """The desk extended-target scenario on 8 transmit and 8 receive antennas."""
    return config.config_to_scenario(config.loads_config(
        '{"geometry": {"n_tx": 8, "n_rx": 8}, "target": '
        '{"kind": "extended", "prior_variance": 1.0}}', scale="desk"))


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_point_subspace_spans_information_and_channels(scale):
    scn = config.config_to_scenario(config.default_config(scale))
    channels = scn.channels()
    U = sca.point_subspace(scn, channels)
    m = channels.n_users + 3
    assert U.shape == (scn.geom.n_tx, m)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(m), rtol=0, atol=1e-12)
    P = U @ U.conj().T
    trm = bounds.point_trm(scn.geom, scn.target)
    cf = bounds.fim_point_coefficients(trm, scn.sensing_noise, scn.frame_length)
    for C in [*cf["phiphi"][0], *cf["phiphi"][1], *cf["cross"], cf["mumu"]]:
        assert np.linalg.norm(C - P @ C @ P) <= 1e-12 * np.linalg.norm(C)
    for h in channels.vectors:
        assert np.linalg.norm(h - P @ h) <= 1e-12 * np.linalg.norm(h)


#: the optimum of the first desk subproblem at gamma = 1e-3, from a
#: log-barrier reference
DESK_FIRST_OPTIMUM = 0.632575
REFERENCE_OPTIONS = sca.ScaOptions(gamma=1e-3)


@pytest.mark.parametrize("case", ["desk", "square"])
def test_point_subproblem_over_its_subspace_keeps_the_optimum(monkeypatch, case):
    # the first subproblem built over point_subspace and over the identity
    # (the full space): the same optimum and the same lifted W_k
    if case == "desk":
        scn = config.config_to_scenario(config.default_config("desk"))
    else:
        # n_tx = K + 3: U is square, a rotation of the full space
        scn = _small_scenario(sinr_threshold=3.0)
    n, K = scn.geom.n_tx, scn.channels().n_users
    U = sca.point_subspace(scn, scn.channels())
    assert U.shape == (n, min(n, K + 3))
    results = []
    for basis in (U, np.eye(n)):
        monkeypatch.setattr(sca, "point_subspace", lambda *_, basis=basis: basis)
        prog, kwargs = _first_subproblem(monkeypatch, scn, REFERENCE_OPTIONS)
        assert prog.variables["W0"].side == basis.shape[1]
        sol = solve(prog, **kwargs)
        assert sol.optimal
        results.append((sol.objective, [basis @ sol.assignments[f"W{k}"] @ basis.conj().T
                                        for k in range(K)]))
    (reduced, W), (full, V) = results
    assert reduced == pytest.approx(full, rel=1e-6)
    if case == "desk":
        assert reduced == pytest.approx(DESK_FIRST_OPTIMUM, rel=1e-5)
    for Wk, Vk in zip(W, V):
        assert np.linalg.norm(Wk - Vk) <= 1e-6 * np.linalg.norm(Vk)


def test_desk_subproblem_optimum_is_unit_free(monkeypatch):
    # channels scaled by 1e-4 and the noise by 1e-8: the SINR and EE rows
    # scale, the design they admit does not
    scn = config.config_to_scenario(config.default_config("desk"))
    small = geometry.ChannelSet(vectors=tuple(1e-4 * h for h in scn.channels().vectors))
    scaled = replace(scn, comm_noise=1e-8 * scn.comm_noise)
    channels = Scenario.channels
    monkeypatch.setattr(Scenario, "channels",
                        lambda self: small if self is scaled else channels(self))
    values = []
    for s in (scn, scaled):
        prog, kwargs = _first_subproblem(monkeypatch, s, REFERENCE_OPTIONS)
        sol = solve(prog, **kwargs)
        assert sol.optimal
        values.append(sol.objective)
    assert values[1] == pytest.approx(values[0], rel=1e-6)
    assert values[0] == pytest.approx(DESK_FIRST_OPTIMUM, rel=1e-5)


def test_ee_chords_on_a_received_power_scalar_keep_the_optimum(monkeypatch):
    # each chord of user k written over the whole functional
    # sum_i Re Tr(H_k W_i), as before the received-power scalar r_k: the
    # feasible set, and so the optimum, is the same
    scn = config.config_to_scenario(config.default_config("desk"))
    prog, kwargs = _first_subproblem(monkeypatch, scn)
    wide = ConicProgram()
    wide.variables = {n: v for n, v in prog.variables.items() if not n.startswith("r")}
    wide.objective, wide.psd_blocks = prog.objective, prog.psd_blocks
    received = dict(zip(("r0", "r1"), prog.eq_constraints))
    for e in prog.ineq_constraints:
        r = next((n for n in received if n in e.terms), None)
        if r is None:
            wide.ineq_constraints.append(e)
            continue
        m = e.terms[r][0]
        functional = LinExpr(0.0, {n: c for n, c in received[r].terms.items() if n != r})
        rest = LinExpr(e.const, {n: c for n, c in e.terms.items() if n != r})
        wide.ineq_constraints.append(rest + functional * m)
    assert len(wide.ineq_constraints) == len(prog.ineq_constraints)
    assert wide.eq_constraints == []
    # the 128 chord rows, after the power and SINR rows: two entries each,
    # against the whole functional, K m^2 entries over the Z_k plus t_k
    counts = [np.count_nonzero(solver.assemble(p).A, axis=1)[len(p.eq_constraints):][3:131]
              for p in (prog, wide)]
    assert set(counts[0]) == {2} and set(counts[1]) == {2 * 5**2 + 1}
    narrow, full = solve(prog, **kwargs), solve(wide, **kwargs)
    assert narrow.optimal and full.optimal
    assert narrow.objective == pytest.approx(full.objective, rel=1e-6)


def test_paper_subproblem_restricts_to_seven_dimensions(monkeypatch):
    # the first paper subproblem is built over m = K + 3 = 7; nothing is solved
    scn = config.config_to_scenario(config.default_config("paper"))
    prog, _ = _first_subproblem(monkeypatch, scn)
    form = solver.assemble(prog)
    assert form.psd_sides == [7, 7, 7, 7, 2, 4, 4]
    assert form.psd_complex == [True] * 4 + [False] * 3
    # 49 columns per Z_k, Xi, U, and the EE auxiliaries t_k and r_k
    assert form.A.shape == (form.psd_slices[-1].stop, 4 * 49 + 3 + 3 + 4 + 4)


def test_point_sca_requires_point_target():
    scn = _small_scenario(target=geometry.ExtendedTarget(prior_variance=1.0))
    with pytest.raises(InvalidArgumentError):
        sca.solve_point_sca(scn)


# ---------------------------------------------------------------------------
# extended-target driver


def _extended_scenario(**overrides):
    return _small_scenario(target=geometry.ExtendedTarget(prior_variance=1.0),
                           **overrides)


def test_extended_relaxation_matches_water_filling_oracle():
    # with the rank penalty disabled and no side constraints the optimal
    # transmit covariance is isotropic at full power, and the bound equals
    # the 1-D closed form it induces
    scn = _extended_scenario()
    opts = sca.ScaOptions(max_iter=8, sdp_max_iter=8000, gamma=1e9, rank_tol=np.inf)
    _, W_list, trace, bound = sca.solve_extended_sca(scn, opts)
    R = sum(W_list)
    n = scn.geom.n_tx
    params = bounds.BcrbParams(noise_power=scn.sensing_noise,
                               prior_variance=scn.target.prior_variance,
                               frame_length=scn.frame_length, n_rx=scn.geom.n_rx)

    def iso_bound(p):
        return bounds.bcrb_extended_trace(p / n * np.eye(n), params)

    oracle = minimize_scalar(iso_bound, bounds=(1e-6, scn.power_budget),
                             method="bounded")
    np.testing.assert_allclose(R, scn.power_budget / n * np.eye(n), atol=1e-4)
    assert bound == pytest.approx(iso_bound(scn.power_budget), rel=1e-6)
    assert bound <= oracle.fun + 1e-9


def test_extended_penalized_run_is_rank_one_and_feasible():
    scn = _extended_scenario()
    opts = sca.ScaOptions(max_iter=30, sdp_max_iter=4000)
    W, W_list, trace, bound = sca.solve_extended_sca(scn, opts)
    assert trace.rank_residuals[-1] <= 1e-6
    assert min(trace.slacks[-1].values()) >= -1e-6
    assert np.isfinite(bound)
    assert W.shape == (4, 1)


def test_stalled_extended_solve_stops_at_its_best_iterate(monkeypatch):
    # the 8-antenna desk extended target's later subproblems stall short of
    # sdp_tol; the sixteenth one, started from the fifteenth one's
    # solution, reaches its best after 13 Newton steps and its measures then
    # climb far above it.  The solve ends max_iter within 10 steps of its
    # best iterate and returns that iterate's residuals.
    programs = []

    def sixteenth_program(prog, **kwargs):
        programs.append((prog, kwargs))
        if len(programs) == 16:
            raise _FirstSubproblem
        return solve(prog, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(sca, "solve", sixteenth_program)
        with pytest.raises(_FirstSubproblem):
            sca.solve_extended_sca(_extended8_scenario())
    prog, kwargs = programs[15]

    def measures(sol):
        return sol.primal_residual, sol.dual_residual, sol.duality_gap

    sol = solve(prog, **kwargs)
    assert sol.status == "max_iter" and sol.iterations < kwargs["max_iter"]
    assert max(measures(sol)) < 1e-8
    # capped 10 steps earlier it has not reached that best; capped one step
    # earlier it has, so the last iterate was not it
    early = solve(prog, **dict(kwargs, max_iter=sol.iterations - 10))
    assert max(measures(early)) > max(measures(sol))
    assert measures(solve(prog, **dict(kwargs, max_iter=sol.iterations - 1))) == measures(sol)


def test_newton_solves_as_accurate_as_cholesky_solves(monkeypatch):
    # every Newton matrix [Gt; A0] of the paper design's first subproblem
    # (cond(U) from 1e1 to about 1e13): the solver's (dx, dy, W dz) satisfy the
    # three block equations A0^T dy + Gt^T W dz = rx, A0 dx = ry and
    # Gt dx - W dz = t to within 10 times the residual of LAPACK's
    # Cholesky solves with the same U and Schur complement
    scn = config.config_to_scenario(config.default_config("paper"))
    prog, kwargs = _first_subproblem(monkeypatch, scn, harness._sweep_options(scn))
    matrices = []

    class Recorded(solver._Newton):
        def __init__(self, GA, m, plan):
            matrices.append((GA.copy(), m, plan))
            super().__init__(GA, m, plan)

    with monkeypatch.context() as m:
        m.setattr(solver, "_Newton", Recorded)
        assert solve(prog, **kwargs).optimal
    assert len(matrices) > 20

    def cholesky_solve(GA, m, rx, ry, t):
        Gt, A0 = GA[:m], GA[m:]
        U = (np.linalg.qr(GA, mode="r"), False)
        Y = scipy.linalg.cho_solve(U, A0.T)
        u = scipy.linalg.cho_solve(U, rx + Gt.T @ t + A0.T @ ry)
        dy = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A0 @ Y), A0 @ u - ry)
        u = u - Y @ dy
        return u, dy, Gt @ u - t

    def residual(GA, m, rx, ry, t, dx, dy, w_dz):
        Gt, A0 = GA[:m], GA[m:]
        r = np.concatenate([A0.T @ dy + Gt.T @ w_dz - rx, A0 @ dx - ry, Gt @ dx - w_dz - t])
        return np.linalg.norm(r) / np.linalg.norm(np.concatenate([rx, ry, t]))

    rng = np.random.default_rng(0)
    for GA, m, plan in matrices:
        rhs = [rng.standard_normal(k) for k in (GA.shape[1], GA.shape[0] - m, m)]
        ours = residual(GA, m, *rhs, *solver._Newton(GA, m, plan).solve(*rhs))
        reference = residual(GA, m, *rhs, *cholesky_solve(GA, m, *rhs))
        assert ours <= 10 * max(reference, np.finfo(float).eps)


def test_folded_newton_matrices_keep_the_factor(monkeypatch):
    # every Newton matrix of the paper design's first subproblem and of the
    # 8-antenna desk extended design's, the unscaled one of the cold start
    # included: the fold puts one 2 x 2 triangle per user in place of its 64
    # chord rows, and the factor of the folded rows has the plain QR's U^T U
    for scn in [config.config_to_scenario(config.default_config("paper")),
                _extended8_scenario()]:
        prog, kwargs = _first_subproblem(monkeypatch, scn, harness._sweep_options(scn))
        matrices = []

        class Recorded(solver._Newton):
            def __init__(self, GA, m, plan):
                matrices.append((GA.copy(), plan))
                super().__init__(GA, m, plan)

        with monkeypatch.context() as m:
            m.setattr(solver, "_Newton", Recorded)
            assert solve(prog, **kwargs).optimal
        assert len(matrices) > 20
        K = len(scn.users)
        for GA, plan in matrices:
            folded = solver._fold_pairs(GA, plan)
            assert folded.shape == (GA.shape[0] - K * sca.EE_CHORDS + K * 2, GA.shape[1])
            plain = np.linalg.qr(GA, mode="r")
            U = np.linalg.qr(folded, mode="r")
            gram = plain.T @ plain
            assert np.linalg.norm(U.T @ U - gram) <= 1e-12 * np.linalg.norm(gram)


def test_fold_plan_is_built_once_per_solve(monkeypatch):
    # the desk point-target design: every Newton matrix of a solve, the
    # cold start's included, takes the one plan built from its form
    scn = config.config_to_scenario(config.default_config("desk"))
    solves, plans = [], []
    fold_plan = solver._fold_plan

    def counted_solve(prog, **kwargs):
        solves.append(prog)
        return solve(prog, **kwargs)

    def counted_plan(*args):
        plans.append(args)
        return fold_plan(*args)

    monkeypatch.setattr(sca, "solve", counted_solve)
    monkeypatch.setattr(solver, "_fold_plan", counted_plan)
    _, _, trace, _ = sca.solve_point_sca(scn, harness._sweep_options(scn))
    assert len(solves) == len(trace.solves) == 2
    assert len(plans) == len(solves)


@pytest.mark.parametrize("k", [5, 12, 20])
def test_interior_point_stops_at_a_newton_matrix_it_cannot_factor(monkeypatch, k):
    # the first desk subproblem with the Newton matrix of step k singular
    # (the cold start factors one before step 0): the solve ends at step k
    # on the iterate a solve capped at k steps returns
    scn = config.config_to_scenario(config.default_config("desk"))
    prog, kwargs = _first_subproblem(monkeypatch, scn, harness._sweep_options(scn))
    capped = solve(prog, **dict(kwargs, max_iter=k))
    built = []

    class Singular(solver._Newton):
        def __init__(self, GA, m, plan):
            built.append(m)
            if len(built) == k + 2:
                raise np.linalg.LinAlgError("singular Newton matrix")
            super().__init__(GA, m, plan)

    monkeypatch.setattr(solver, "_Newton", Singular)
    sol = solve(prog, **kwargs)
    assert len(built) == k + 2
    assert (sol.status, sol.iterations) == (capped.status, capped.iterations) == ("max_iter", k)
    for name in "xys":
        np.testing.assert_array_equal(getattr(sol, name), getattr(capped, name))


def test_interior_point_working_set_of_an_extended_subproblem(monkeypatch):
    # the first 8-antenna desk extended subproblem (A 518 x 196): a 3-step
    # solve holds A, [G h], one scaled [G h; A0 0] and QR workspace, not a
    # fresh scaled copy and a stacked copy per Newton step
    prog, kwargs = _first_subproblem(monkeypatch, _extended8_scenario())
    A = solver.assemble(prog).A
    assert A.shape == (518, 196)
    tracemalloc.start()
    try:
        sol = solve(prog, **dict(kwargs, max_iter=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.iterations == 3
    assert peak <= 7.5 * A.nbytes


def test_extended_requires_extended_target():
    with pytest.raises(InvalidArgumentError):
        sca.solve_extended_sca(_small_scenario())
