import json

import numpy as np
import pytest

from nfisac import bounds, config, geometry, harness, sca
from nfisac.errors import InvalidArgumentError

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


def test_estimator_trial_rows_independent_of_worker_count(monkeypatch):
    scn = harness._apply_sweep(config.config_to_scenario(_small_config()),
                               "target_distance", 0.08)
    b = geometry.steering_vector(scn.geom, scn.target.distance, scn.target.angle)
    W = (np.sqrt(scn.power_budget) * b / np.linalg.norm(b))[:, None]
    rows = {}
    for workers in (1, 2, 4):
        monkeypatch.setattr(harness, "trial_workers", lambda: workers)
        table = harness.ResultTable()
        harness.estimator_trial_rows(table, scn, "none", 0.0, W, trials=24, seed=5)
        rows[workers] = table.sorted_rows()
    assert len(rows[1]) == 4
    assert rows[1] == rows[2] == rows[4]


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


@pytest.mark.parametrize("env, cores, workers", [
    ({}, 2, 1),                                          # BLAS takes every core
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"OMP_NUM_THREADS": "2"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 2, 1),
    ({"MKL_NUM_THREADS": "1"}, 6, 6),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "x", "MKL_NUM_THREADS": "3"}, 6, 2),
])
def test_trial_workers_follow_blas_threads(monkeypatch, env, cores, workers):
    for name in harness.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
    assert harness.trial_workers() == workers


def test_run_sweep_reports_infeasible_points():
    cfg = _small_config(constraints={"sinr_db": 400.0},
                        sweep={"variable": "power_dbm", "values": [20.0]})
    table = harness.run_sweep(cfg)
    rows = table.select(metric="status")
    assert [(r.arch, r.value) for r in rows] == [("none", 1.0)]
