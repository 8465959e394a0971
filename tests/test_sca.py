from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from nfisac import bounds, config, geometry, metrics, sca
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
# options and surrogates


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
        return np.log2(1.0 + metrics.sinrs(channels, W_list, scn.comm_noise)[k])

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
            e = e + real_trace(scale * channels.outer(k), var)
        prog.add_ineq(e)
    prog.add_ineq(LinExpr(scn.power_budget) - obj)
    sol = solve(prog, tol=1e-8)
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
    assert len(trace.solves) == len(trace.objectives) == len(returned) == 3
    for rec, sol in zip(trace.solves, returned):
        assert rec == sca.SolveRecord(sol.status, sol.iterations, sol.primal_residual,
                                      sol.dual_residual, sol.duality_gap, sol.rho_changes)
    assert "max_iter" in [rec.status for rec in trace.solves]


class _FirstSubproblem(Exception):
    pass


def _first_point_subproblem(monkeypatch, scn):
    """The first SCA subproblem solve_point_sca builds for scn, and its solver options."""
    programs = []

    def first_program(prog, **kwargs):
        programs.append((prog, kwargs))
        raise _FirstSubproblem

    with monkeypatch.context() as m:
        m.setattr(sca, "solve", first_program)
        with pytest.raises(_FirstSubproblem):
            sca.solve_point_sca(scn)
    return programs[0]


def _restricted(prog):
    form = solver.assemble(prog)
    A, _, _, D, E = solver.ruiz_equilibrate(form)
    return form, solver.restrict(prog, form, A, D, E)


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


def test_restricted_desk_subproblem_takes_the_full_path(monkeypatch):
    # the first desk subproblem at the design's 2,500-iteration cap: the
    # restriction keeps the ADMM path of the full program
    scn = config.config_to_scenario(config.default_config("desk"))
    prog, kwargs = _first_point_subproblem(monkeypatch, scn)
    assert set(prog.restrictions) == {"W0", "W1"}
    options = dict(kwargs, max_iter=2500)
    restricted = solve(prog, **options)
    prog.restrictions = {}
    full = solve(prog, **options)
    assert restricted.status == full.status == "max_iter"
    assert restricted.iterations == full.iterations
    assert restricted.rho_changes == full.rho_changes
    assert restricted.objective == pytest.approx(full.objective, rel=1e-6)
    for k in range(2):
        W, V = restricted.assignments[f"W{k}"], full.assignments[f"W{k}"]
        assert np.linalg.norm(W - V) <= 1e-6 * np.linalg.norm(V)
    assert restricted.x.shape == full.x.shape
    assert restricted.s.shape == restricted.y.shape == full.s.shape


def test_paper_subproblem_restricts_to_seven_dimensions(monkeypatch):
    # the first paper subproblem restricted to m = K + 3 = 7; no ADMM runs
    scn = config.config_to_scenario(config.default_config("paper"))
    prog, _ = _first_point_subproblem(monkeypatch, scn)
    form, (rform, A_r, D_r, E_r, cols, rows) = _restricted(prog)
    assert form.psd_sides == [64, 64, 64, 64, 2, 4, 4]
    assert rform.psd_sides == [7, 7, 7, 7, 2, 4, 4]
    assert rform.psd_complex == [True] * 4 + [False] * 3
    assert rform.n_nonneg == form.n_nonneg + 4    # one complement row per W_k
    assert A_r.shape == (rform.psd_slices[-1].stop, 4 * 50 + 3 + 3 + 4)
    assert cols.shape == (form.n_x, A_r.shape[1]) and rows.shape == (form.A.shape[0],
                                                                     A_r.shape[0])
    np.testing.assert_allclose((cols.T @ cols).toarray(), np.eye(cols.shape[1]), atol=1e-12)
    np.testing.assert_allclose((rows.T @ rows).toarray(), np.eye(rows.shape[1]), atol=1e-12)


def test_square_basis_has_no_complement_row(monkeypatch):
    # n_tx = K + 3: U is square, so W_k = U Z_k U^H with no complement
    scn = _small_scenario(sinr_threshold=3.0)
    assert sca.point_subspace(scn, scn.channels()).shape == (4, 4)
    prog, kwargs = _first_point_subproblem(monkeypatch, scn)
    form, (rform, A_r, *_) = _restricted(prog)
    assert rform.n_nonneg == form.n_nonneg
    assert rform.psd_sides == form.psd_sides
    assert A_r.shape == form.A.shape
    restricted = solve(prog, **kwargs)
    prog.restrictions = {}
    full = solve(prog, **kwargs)
    assert (restricted.status, restricted.iterations) == (full.status, full.iterations)
    assert restricted.objective == pytest.approx(full.objective, rel=1e-6)


def test_paper_subproblem_x_update_is_low_rank(monkeypatch):
    # the first paper-scale subproblem has n_x = 16,394; its ADMM x-update
    # is built from the rank of the multi-entry rows, without A^T A
    programs = []

    def first_program(prog, **kwargs):
        programs.append(prog)
        raise _FirstSubproblem

    monkeypatch.setattr(sca, "solve", first_program)
    with pytest.raises(_FirstSubproblem):
        sca.solve_point_sca(config.config_to_scenario(config.default_config("paper")))
    A = solver.ruiz_equilibrate(solver.assemble(programs[0]))[0]
    op = solver._RowSplit(A)
    assert A.shape[1] == 16394
    assert (op.rows.size, op.Z.shape[1]) == (271, 21)
    xs = solver._XSolver(op)
    assert xs.T.size == 4   # one energy-efficiency auxiliary per user
    rng = np.random.default_rng(3)
    for rho in (1.0, 1e3):
        xs.set_rho(rho)
        rhs = rng.standard_normal(A.shape[1])
        x = xs.solve(rhs)
        residual = solver.SIGMA * x + rho * (A.T @ (A @ x)) - rhs
        assert np.linalg.norm(residual) < 1e-12 * np.linalg.norm(rhs)


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


def test_extended_requires_extended_target():
    with pytest.raises(InvalidArgumentError):
        sca.solve_extended_sca(_small_scenario())
