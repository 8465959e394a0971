import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from nfisac import bounds, geometry, metrics, sca
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
# options and surrogates


def test_options_validation():
    with pytest.raises(InvalidArgumentError):
        sca.ScaOptions(gamma=0.0)
    with pytest.raises(InvalidArgumentError):
        sca.ScaOptions(max_iter=0)


def test_spectral_surrogate_is_tangent_minorant():
    rng = np.random.default_rng(0)
    W_prev = _random_psd(rng, 5)
    s = sca.spectral_surrogate(W_prev)
    assert s.value(W_prev) == pytest.approx(np.linalg.eigvalsh(W_prev)[-1], rel=1e-12)
    for _ in range(20):
        W = _random_psd(rng, 5)
        assert s.value(W) <= np.linalg.eigvalsh(W)[-1] + 1e-10


def test_rate_surrogate_is_tangent_minorant():
    scn = _small_scenario(users=(geometry.UserSpec(distance=5.0, angle=0.3, id=0),
                                 geometry.UserSpec(distance=7.0, angle=-0.4, id=1)),
                          frame_length=8)
    channels = scn.channels()
    rng = np.random.default_rng(1)
    W_prev = [_random_psd(rng, 4) for _ in range(2)]

    def true_rate(k, W_list):
        s = metrics.sinr_from_covariances(channels, W_list, k, scn.comm_noise)
        return np.log2(1.0 + s)

    for k in range(2):
        rs = sca.rate_surrogate(W_prev, k, channels, scn.comm_noise)
        assert rs.value(W_prev) == pytest.approx(true_rate(k, W_prev), rel=1e-10)
        for _ in range(15):
            W = [_random_psd(rng, 4) for _ in range(2)]
            assert rs.value(W) <= true_rate(k, W) + 1e-9


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


def test_init_feasible_with_sinr_meets_every_constraint():
    scn = _small_scenario(sinr_threshold=5.0, ee_threshold=1.0,
                          users=(geometry.UserSpec(distance=5.0, angle=0.3, id=0),
                                 geometry.UserSpec(distance=7.0, angle=-0.4, id=1)))
    channels = scn.channels()
    W0 = sca.init_feasible(scn, channels)
    slacks = sca.evaluate_slacks(scn, channels, W0)
    assert set(slacks) == {"power", "sinr0", "sinr1", "ee"}
    assert min(slacks.values()) >= -1e-6


def test_init_feasible_rejects_unreachable_sinr():
    scn = _small_scenario(sinr_threshold=1e30)
    with pytest.raises(ScenarioInfeasibleError):
        sca.init_feasible(scn)


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
        sinr = metrics.sinr_from_covariances(channels, [W], 0, scn.comm_noise)
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
    scn = _small_scenario(sinr_threshold=3.0, ee_threshold=1.0)
    opts = sca.ScaOptions(max_iter=6, sdp_tol=1e-5, sdp_max_iter=20000)
    W, W_list, trace, bound = sca.solve_point_sca(scn, opts)
    assert np.isfinite(bound) and bound > 0
    objs = np.array(trace.objectives)
    assert np.all(np.diff(objs) <= 10 * opts.sdp_tol)
    assert min(trace.slacks[-1].values()) >= -1e-6
    assert trace.rank_residuals[-1] <= 1e-6
    assert W.shape == (4, 1)


def test_point_sca_bound_improves_with_power():
    opts = sca.ScaOptions(max_iter=4, sdp_max_iter=3000)
    _, _, _, b1 = sca.solve_point_sca(_small_scenario(), opts)
    _, _, _, b4 = sca.solve_point_sca(_small_scenario(power_budget=400.0), opts)
    assert b4 < b1


def test_point_sca_records_each_solve(monkeypatch):
    # one record per SCA iteration, holding what solve returned; the cap of
    # 200 ADMM iterations makes some subproblems stop at max_iter
    returned = []
    conic_solve = sca.solve

    def recording_solve(*args, **kwargs):
        sol = conic_solve(*args, **kwargs)
        returned.append(sol)
        return sol

    monkeypatch.setattr(sca, "solve", recording_solve)
    opts = sca.ScaOptions(max_iter=3, sdp_max_iter=200)
    _, _, trace, _ = sca.solve_point_sca(_small_scenario(sinr_threshold=3.0), opts)
    subproblems = returned[1:]   # the first solve is init_feasible's
    assert len(trace.solves) == len(trace.objectives) == len(subproblems) == 3
    for rec, sol in zip(trace.solves, subproblems):
        assert rec == sca.SolveRecord(sol.status, sol.iterations, sol.primal_residual,
                                      sol.dual_residual, sol.duality_gap)
    assert "max_iter" in [rec.status for rec in trace.solves]


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
    opts = sca.ScaOptions(max_iter=8, sdp_max_iter=8000, gamma=1e9,
                          rank_tol=np.inf, gamma_decay=False)
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


def test_extended_requires_extended_target():
    with pytest.raises(InvalidArgumentError):
        sca.solve_extended_sca(_small_scenario())
