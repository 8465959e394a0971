import json
import types

import numpy as np
import pytest

from nfisac import bounds, config, estimators, geometry, harness, hybrid, sca
from nfisac.errors import InvalidArgumentError, SingularInformationError

SMALL_CFG = json.dumps({
    "geometry": {"n_tx": 4, "n_rx": 4, "n_rf": 2, "carrier_freq_hz": 28.0e9},
    "users": [{"angle_deg": 17.0, "distance_m": 5.0}],
    "target": {"kind": "point", "distance_m": 0.2, "angle_deg": 15.0,
               "reflection": 0.05},
    "constraints": {"sinr_db": None, "ee_threshold": 0.0, "frame_length": 8,
                    "sensing_noise_dbm": 0.0, "power_dbm": 20.0},
    "trials": 0,
})


def _small_config(**overrides):
    d = json.loads(SMALL_CFG)
    for k, v in overrides.items():
        if isinstance(v, dict) and k not in ("target",):
            d.setdefault(k, {}).update(v)
        else:
            d[k] = v
    return config.loads_config(json.dumps(d), scale="desk")


# ---------------------------------------------------------------------------
# result tables


def _sample_table():
    t = harness.ResultTable()
    t.append("power_dbm", 30.0, "digital", "bound_trace", np.pi)
    t.append("power_dbm", 20.0, "digital", "bound_trace", 1.0 / 3.0)
    t.append("power_dbm", 20.0, "fully", "sum_rate", 5.5, trials=10, stderr=0.25)
    return t


def test_rows_sorted_for_emission():
    rows = _sample_table().sorted_rows()
    assert [(r.sweep_value, r.arch) for r in rows] == [(20.0, "digital"),
                                                       (20.0, "fully"),
                                                       (30.0, "digital")]


def test_values_selector():
    t = _sample_table()
    assert t.values("bound_trace", arch="digital") == [(20.0, 1.0 / 3.0), (30.0, np.pi)]


def test_csv_round_trip_byte_exact():
    text = harness.results_to_csv(_sample_table())
    assert harness.results_to_csv(harness.parse_results_csv(text)) == text


def test_csv_formats_12_significant_digits():
    text = harness.results_to_csv(_sample_table())
    assert "3.14159265359" in text
    assert "0.333333333333" in text


def test_parse_rejects_malformed_input():
    with pytest.raises(InvalidArgumentError):
        harness.parse_results_csv("nope\n1,2,3\n")
    header = ",".join(harness.COLUMNS)
    with pytest.raises(InvalidArgumentError):
        harness.parse_results_csv(header + "\na,1,b\n")


def test_json_emission_carries_schema():
    data = json.loads(harness.results_to_json(_sample_table()))
    assert data["schema_version"] == harness.SCHEMA_VERSION
    assert len(data["rows"]) == 3


# ---------------------------------------------------------------------------
# heatmaps


GEOM = geometry.ArrayGeometry(n_tx=16, n_rx=16, n_rf=4, carrier_freq=28e9)


def test_heatmap_zero_beamformer_is_flat_zero():
    grid = harness.HeatmapGrid(x_min=-1, x_max=1, y_min=0, y_max=2, n_x=9, n_y=9)
    gain = harness.beamfocusing_heatmap(np.zeros((16, 1)), GEOM, grid)
    assert gain.shape == (9, 9)
    np.testing.assert_array_equal(gain, 0.0)


def test_heatmap_peaks_at_the_focus():
    w = geometry.steering_vector(GEOM, 0.5, 0.0)[:, None]
    grid = harness.HeatmapGrid(x_min=-1, x_max=1, y_min=0, y_max=2, n_x=21, n_y=21)
    gain = harness.beamfocusing_heatmap(w, GEOM, grid)
    r, phi = harness.heatmap_argmax_location(gain, grid)
    assert r == pytest.approx(0.5, abs=1e-12)
    assert phi == pytest.approx(0.0, abs=1e-12)


def test_heatmap_boresight_focus_is_mirror_symmetric():
    w = geometry.steering_vector(GEOM, 0.6, 0.0)[:, None]
    grid = harness.HeatmapGrid(x_min=-1, x_max=1, y_min=0.1, y_max=2, n_x=15, n_y=11)
    gain = harness.beamfocusing_heatmap(w, GEOM, grid)
    np.testing.assert_allclose(gain, gain[::-1, :], rtol=1e-9)


def test_heatmap_gain_matches_per_point_steering():
    # the heatmap's steering vectors are geometry's, point by point,
    # including the phi = +-pi/2 edge of a grid starting at y = 0
    rng = np.random.default_rng(4)
    W = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
    grid = harness.HeatmapGrid(x_min=-1, x_max=1, y_min=0, y_max=2, n_x=9, n_y=7)
    gain = harness.beamfocusing_heatmap(W, GEOM, grid)
    for i, x in enumerate(grid.xs()):
        for j, y in enumerate(grid.ys()):
            r, phi = np.hypot(x, y), np.arctan2(x, y)
            if r == 0:
                assert gain[i, j] == 0.0
                continue
            b = geometry.steering_vectors(GEOM, r, phi)
            if abs(phi) < np.pi / 2:
                np.testing.assert_array_equal(b, geometry.steering_vector(GEOM, r, phi))
            expected = np.sum(np.abs(W.conj().T @ b) ** 2)
            assert gain[i, j] == pytest.approx(expected, rel=1e-12)


def test_heatmap_csv_layout():
    grid = harness.HeatmapGrid(x_min=-1, x_max=1, y_min=0, y_max=2, n_x=3, n_y=4)
    gain = harness.beamfocusing_heatmap(np.zeros((16, 1)), GEOM, grid)
    lines = harness.heatmap_to_csv(gain, grid).splitlines()
    assert lines[0] == "x,y,gain"
    assert len(lines) == 1 + 3 * 4
    assert lines[1] == "-1,0,0"


# ---------------------------------------------------------------------------
# sweep plumbing


def test_apply_sweep_point_radar_snr_sets_the_ratio():
    scn = config.config_to_scenario(_small_config())
    out = harness._apply_sweep(scn, "radar_snr_db", 10.0)
    snr = (abs(out.target.reflection) ** 2 * out.frame_length * out.power_budget
           / out.sensing_noise)
    assert snr == pytest.approx(10.0, rel=1e-12)
    assert out.power_budget == scn.power_budget


def test_apply_sweep_extended_radar_snr_scales_noise():
    scn = config.config_to_scenario(_small_config(target={"kind": "extended"}))
    out = harness._apply_sweep(scn, "radar_snr_db", 20.0)
    snr = (out.target.prior_variance * out.frame_length * out.power_budget
           / out.sensing_noise)
    assert snr == pytest.approx(100.0, rel=1e-12)


def test_apply_sweep_other_variables():
    scn = config.config_to_scenario(_small_config())
    assert harness._apply_sweep(scn, "none", 0.0) is scn
    assert harness._apply_sweep(scn, "ee_threshold", 2.5).ee_threshold == 2.5
    assert harness._apply_sweep(scn, "target_distance", 0.3).target.distance == 0.3
    assert harness._apply_sweep(scn, "power_dbm", 30.0).power_budget == pytest.approx(1000.0)
    with pytest.raises(InvalidArgumentError):
        harness._apply_sweep(scn, "bandwidth", 1.0)


def test_describe_header():
    text = harness.describe(_small_config())
    assert text.startswith("# schema_version=")
    assert "n_tx=4" in text


def test_run_sweep_is_deterministic_and_complete():
    cfg = _small_config(architectures=["digital", "fully"])
    a = harness.results_to_csv(harness.run_sweep(cfg))
    b = harness.results_to_csv(harness.run_sweep(cfg))
    assert a == b
    table = harness.parse_results_csv(a)
    for arch in ("digital", "fully"):
        assert table.select(arch=arch, metric="bound_trace")
        assert table.select(arch=arch, metric="status")[0].value == 0.0
    assert table.select(arch="fully", metric="factorization_residual")[0].value <= 1e-3


def test_sweep_trace_records_gamma_and_polish_scale(monkeypatch):
    # one rank-penalty weight and one polish scale per objective, the weight
    # never rising; the records do not feed back, so the sweep's CSV bytes
    # are the same when they are dropped
    cfg = _small_config()
    traces = []
    sca_loop = sca._sca_loop

    def recording_loop(*args, **kwargs):
        out = sca_loop(*args, **kwargs)
        traces.append(out[2])
        return out

    monkeypatch.setattr(sca, "_sca_loop", recording_loop)
    recorded = harness.results_to_csv(harness.run_sweep(cfg))
    (trace,) = traces
    assert len(trace.objectives) > 0
    assert len(trace.gammas) == len(trace.polish_scales) == len(trace.objectives)
    assert trace.gammas[0] == sca.ScaOptions().gamma
    assert all(b <= a for a, b in zip(trace.gammas, trace.gammas[1:]))
    assert all(t > 0 for t in trace.polish_scales)

    class Discard(list):
        def append(self, item):
            pass

    class Unrecorded(sca.ScaTrace):
        def __init__(self):
            super().__init__(gammas=Discard(), polish_scales=Discard())

    monkeypatch.setattr(sca, "ScaTrace", Unrecorded)
    assert harness.results_to_csv(harness.run_sweep(cfg)) == recorded
    assert traces[1].gammas == traces[1].polish_scales == []


def test_estimator_trial_rows_are_those_of_per_trial_estimates():
    # each trial's echo comes from trial_rng(seed, trial), and the rows are
    # the RMSE of the mle_point estimates of those echoes
    scn = harness._apply_sweep(config.config_to_scenario(_small_config()),
                               "target_distance", 0.08)
    b = geometry.steering_vector(scn.geom, scn.target.distance, scn.target.angle)
    W = (np.sqrt(scn.power_budget) * b / np.linalg.norm(b))[:, None]
    table = harness.ResultTable()
    harness.estimator_trial_rows(table, scn, "none", 0.0, W, trials=24, seed=5)
    B = bounds.point_trm(scn.geom, scn.target).B
    est = np.array([estimators.mle_point(
        estimators.simulate_echo(B, W, scn.frame_length, scn.sensing_noise,
                                 estimators.trial_rng(5, t)), scn.geom)[:2]
        for t in range(24)])
    sq = (est - [scn.target.distance, scn.target.angle]) ** 2
    assert len(table.rows) == 4
    for name, col in (("distance", 0), ("angle", 1)):
        (row,) = table.select(metric=f"mle_rmse_{name}")
        assert row.value == float(np.sqrt(sq[:, col].mean()))
        assert row.trials == 24


def test_estimator_trial_rows_need_two_trials():
    # a standard error needs two trials
    scn = config.config_to_scenario(_small_config())
    b = geometry.steering_vector(scn.geom, scn.target.distance, scn.target.angle)
    for trials in (0, 1):
        with pytest.raises(InvalidArgumentError):
            harness.estimator_trial_rows(harness.ResultTable(), scn, "none", 0.0,
                                         b[:, None], trials=trials, seed=5)


def test_digital_bound_row_is_the_sca_bound(monkeypatch):
    # the table rates the extracted beamformers w_k, the SCA its rank-one
    # covariances W_k = w_k w_k^H, both through bounds.scenario_bound
    cfg = _small_config(architectures=["digital"])
    returned = []
    optimize = harness.optimize_scenario

    def recording(scn):
        result = optimize(scn)
        returned.append(result)
        return result

    monkeypatch.setattr(harness, "optimize_scenario", recording)
    table = harness.run_sweep(cfg)
    (row,) = table.select(metric="bound_trace", arch="digital")
    (_, W_list, _, bound), = returned
    assert row.value == pytest.approx(bound, rel=1e-9)
    scn = config.config_to_scenario(cfg)
    assert bound == float(np.trace(bounds.scenario_bound(scn, sum(W_list))))


def test_run_sweep_reports_infeasible_points():
    cfg = _small_config(constraints={"sinr_db": 400.0},
                        sweep={"variable": "power_dbm", "values": [20.0]})
    table = harness.run_sweep(cfg)
    rows = table.select(metric="status")
    assert [(r.arch, r.value) for r in rows] == [("none", 1.0)]


class _Designed(Exception):
    pass


def test_run_sweep_rejects_an_impossible_wiring_before_designing(monkeypatch):
    # 3 RF chains cannot share 16 antennas in equal groups: the sweep fails
    # before its first design, whose rows it would otherwise discard; a
    # sweep without the partially-connected wiring goes on to design
    def design(scn):
        raise _Designed

    monkeypatch.setattr(harness, "optimize_scenario", design)
    cfg = config.loads_config('{"geometry": {"n_rf": 3}}', scale="desk")
    with pytest.raises(InvalidArgumentError, match=r"n_rf \| n_tx"):
        harness.run_sweep(cfg)
    digital = config.loads_config('{"geometry": {"n_rf": 3}, "architectures": ["digital"]}',
                                  scale="desk")
    with pytest.raises(_Designed):
        harness.run_sweep(digital)


def test_run_sweep_reports_target_nulling_designs(monkeypatch):
    # a design, or a hybrid factorization of it, that puts no power on the
    # target has no bound: that architecture gets a status row and the sweep
    # goes on.  A design projected off b_t keeps rounding-level target power
    # of either sign, so the exact nulls here are zero beams: the digital
    # design at 20 dBm and every fully-connected factorization.
    optimize = harness.optimize_scenario

    def nulling(scn):
        W, W_list, trace, bound = optimize(scn)
        return (np.zeros_like(W) if scn.power_budget < 150.0 else W), W_list, trace, bound

    def null_factors(W, n_rf, power=None, architecture="fully"):
        return types.SimpleNamespace(analog=np.zeros((W.shape[0], n_rf)),
                                     digital=np.zeros((n_rf, W.shape[1])), residual=1.0)

    monkeypatch.setattr(harness, "optimize_scenario", nulling)
    monkeypatch.setattr(hybrid, "factorize", null_factors)
    cfg = _small_config(architectures=["digital", "fully"], trials=2,
                        sweep={"variable": "power_dbm", "values": [20.0, 23.0]})
    table = harness.run_sweep(cfg)
    status = {(r.sweep_value, r.arch): r.value for r in table.select(metric="status")}
    assert status == {(20.0, "digital"): 1.0, (20.0, "fully"): 1.0,
                      (23.0, "digital"): 0.0, (23.0, "fully"): 1.0}
    assert [r.sweep_value for r in table.select(metric="bound_trace")] == [23.0]
    assert [r.sweep_value for r in table.select(metric="mle_rmse_distance")] == [23.0]


def test_target_hiding_design_has_no_bound_on_either_side():
    # the desk design at gamma = 10 puts about 1e-17 of the matched beam's
    # power on the target, and every iterate at most 2.3e-10 of its own
    # power.  The SCA rates sum_k w_k w_k^H and the table W W^H, equal up
    # to rounding, so neither may find a bound.
    scn = config.config_to_scenario(config.default_config("desk"))
    options = sca.ScaOptions(gamma=10.0, max_iter=11, rank_tol=np.inf)
    W, _, trace, _ = sca.solve_point_sca(scn, options)
    assert len(trace.illuminations) == len(trace.objectives)
    assert max(trace.illuminations) <= 1e-9
    assert sca._design_bound(scn, [np.outer(w, w.conj()) for w in W.T]) == np.inf
    with pytest.raises(SingularInformationError):
        harness._evaluate_design(harness.ResultTable(), scn, scn.channels(), "none", 0.0,
                                 "digital", W)


def test_design_projected_off_the_target_is_rated_alike_on_both_sides():
    # the small design is the matched beam; projected off b_t it keeps
    # about 2e-27 mW, of which the target still gets 6e-5 of the matched
    # beam's share: far above rounding at that power, so the SCA and the
    # table rate the design alike, with a finite bound
    scn = config.config_to_scenario(_small_config(architectures=["digital"]))
    bt = geometry.steering_vector(scn.geom, scn.target.distance, scn.target.angle)
    off = np.eye(scn.geom.n_tx) - np.outer(bt, bt.conj()) / np.linalg.norm(bt) ** 2
    W = off @ harness.optimize_scenario(scn)[0]
    table = harness.ResultTable()
    harness._evaluate_design(table, scn, scn.channels(), "none", 0.0, "digital", W)
    (rated,) = table.values("bound_trace")
    designed = sca._design_bound(scn, [np.outer(w, w.conj()) for w in W.T])
    assert np.isfinite(designed) and rated[1] == pytest.approx(designed, rel=1e-9)


def test_run_sweep_reports_degraded_designs(monkeypatch):
    # every SCA iterate polished to twice the budget: the design is
    # "degraded" and gets a status row instead of a rating
    polish = sca._polish
    monkeypatch.setattr(sca, "_polish", lambda scn, channels, W_list:
                        [2.0 * W for W in polish(scn, channels, W_list)])
    table = harness.run_sweep(_small_config(architectures=["digital"]))
    assert [(r.arch, r.value) for r in table.select(metric="status")] == [("none", 1.0)]
    assert len(table.rows) == 1


def test_ee_sweep_carries_a_design_past_a_degraded_point(monkeypatch):
    # the looser threshold's run is degraded: the design of the tighter
    # one, feasible there too, is rated in its place
    optimize = harness.optimize_scenario

    def degraded_below_one(scn):
        W, W_list, trace, bound = optimize(scn)
        if scn.ee_threshold < 1.0:
            trace.status = "degraded"
        return W, W_list, trace, bound

    monkeypatch.setattr(harness, "optimize_scenario", degraded_below_one)
    table = harness.run_sweep(_small_config(architectures=["digital"], sweep={
        "variable": "ee_threshold", "values": [0.5, 1.0]}))
    assert [r.value for r in table.select(metric="status")] == [0.0, 0.0]
    (_, loose), (_, tight) = table.values("bound_trace")
    assert loose == tight


def test_mle_reaches_the_bound_on_the_desk_design():
    # the desk sweep's design and trials: the MLE RMSE of each location
    # parameter within criterion 08's window, [1 - 3 sigma, 2] x root-CRB
    cfg = config.default_config("desk")
    scn = config.config_to_scenario(cfg)
    W, _, _, _ = harness.optimize_scenario(scn)
    table = harness.ResultTable()
    harness.estimator_trial_rows(table, scn, "none", 0.0, W, 200, cfg.seed)
    for name in ("distance", "angle"):
        (rmse,) = table.select(metric=f"mle_rmse_{name}")
        (root_crb,) = table.select(metric=f"crb_rmse_{name}")
        sigma = rmse.stderr / root_crb.value
        assert 1.0 - 3.0 * sigma <= rmse.value / root_crb.value <= 2.0, name


def _in_window(rmse, stderr, root_crb):
    """Criterion 08's window: RMSE in [1 - 3 sigma, 2] x root-CRB, sigma = stderr / root-CRB."""
    return 1.0 - 3.0 * stderr / root_crb <= rmse / root_crb <= 2.0


def test_music_reaches_the_bound_on_the_matched_desk_beam():
    # MUSIC's angle at 30 dB radar SNR on the desk target, probed by the
    # full-budget matched beam: its vertex fit on the smooth projection
    # leaves no bias, and the RMSE lies in criterion 08's window
    scn = harness._apply_sweep(config.config_to_scenario(config.default_config("desk")),
                               "radar_snr_db", 30.0)
    b = geometry.steering_vector(scn.geom, scn.target.distance, scn.target.angle)
    W = (np.sqrt(scn.power_budget) * b / np.linalg.norm(b))[:, None]
    B = bounds.point_trm(scn.geom, scn.target).B
    trials = 300
    phi = np.array([estimators.music_2d(
        estimators.simulate_echo(B, W, scn.frame_length, scn.sensing_noise,
                                 estimators.trial_rng(0, t)), scn.geom)[1]
        for t in range(trials)])
    sq = (phi - scn.target.angle) ** 2
    rmse = float(np.sqrt(sq.mean()))
    stderr = float(sq.std(ddof=1) / (2.0 * rmse * np.sqrt(trials)))
    root_crb = float(np.sqrt(bounds.scenario_bound(scn, W @ W.conj().T)[1, 1]))
    assert _in_window(rmse, stderr, root_crb), rmse / root_crb


@pytest.fixture(scope="module")
def paper_design():
    """The paper-scale point-target scenario (64 antennas, 4 users) and its design."""
    scn = config.config_to_scenario(config.default_config("paper"))
    return scn, harness.optimize_scenario(scn)


def test_mle_reaches_the_bound_on_the_paper_design(paper_design):
    # the MLE of 200 trials on the paper design lies in criterion 08's
    # window in both coordinates; the angle needs sub-cell accuracy, as the
    # root-CRB is 3.2e-5 rad against a coarse angle step of 3.4e-2 rad
    scn, (W, _, _, _) = paper_design
    table = harness.ResultTable()
    harness.estimator_trial_rows(table, scn, "none", 0.0, W, 200, 0)
    for name in ("distance", "angle"):
        (rmse,) = table.select(metric=f"mle_rmse_{name}")
        (root_crb,) = table.select(metric=f"crb_rmse_{name}")
        assert _in_window(rmse.value, rmse.stderr, root_crb.value), \
            (name, rmse.value / root_crb.value)


def test_paper_design_ends_optimal_and_rank_one(paper_design):
    # the paper-scale point-target design (64 antennas, 4 users) a sweep
    # runs: every subproblem solved to optimality, converged on the bound,
    # the last iterate rank one, and a finite bound
    scn, (W, W_list, trace, bound) = paper_design
    assert [rec.status for rec in trace.solves] == ["optimal"] * len(trace.solves)
    assert trace.status == "converged"
    assert trace.rank_residuals[-1] <= harness._sweep_options(scn).rank_tol
    assert W.shape == (64, 4) and sca.rank_residual(W_list) <= 1e-12
    assert np.isfinite(bound) and bound > 0


def test_every_polished_iterate_meets_every_row_on_its_matrices(paper_design):
    # _polish bisects on per-user scalars but confirms its scale on the
    # scaled matrices, so no accepted iterate of the desk or the paper
    # design reads a slack below 0, not even at rounding level
    desk = config.config_to_scenario(config.default_config("desk"))
    _, _, desk_trace, _ = harness.optimize_scenario(desk)
    _, (_, _, paper_trace, _) = paper_design
    for trace in (desk_trace, paper_trace):
        assert trace.slacks and len(trace.slacks) == len(trace.objectives)
        for slacks in trace.slacks:
            assert min(slacks.values()) >= 0.0, slacks
