"""The benchmark workloads, driven through nfisac's public entry points.

point-design  the desk point-target design of `nfisac sweep --scale desk`
              without trials: harness.run_sweep, no sweep variable, all three
              architectures (12-iteration penalty SCA).
mc-trials     Monte Carlo trials on a fixed matched-filter design at 30 dB
              radar SNR with SINR and EE off: MLE through
              harness.estimator_trial_rows (its thread pool), then 2D MUSIC on
              the echoes of the same trials.

The extended-target design input is kept for the self-test of the checks;
it is not a workload (see README.md).

Each workload returns a Result: the operations it attempted and failed (and
why), the output-check failures, the end-to-end figures and, when traced,
the per-layer figures.
"""

import copy
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from nfisac import bounds, config, estimators, harness, hybrid, sca

#: Full input of `nfisac sweep --scale desk` with the trials switched off.
DESK = {
    "architectures": ["digital", "fully", "partially"],
    "constraints": {"amplifier_eff": 0.5, "comm_noise_dbm": -70.0, "ee_threshold": 4.0,
                    "frame_length": 16, "power_dbm": 34.0, "sensing_noise_dbm": 0.0,
                    "sinr_db": 10.0, "static_power_dbm": 15.0},
    "geometry": {"carrier_freq_hz": 28.0e9, "n_rf": 4, "n_rx": 16, "n_tx": 16},
    "output": {"format": "csv", "path": "results.csv"},
    "seed": 0,
    "sweep": {"values": [], "variable": "none"},
    "target": {"angle_deg": 15.0, "distance_m": 1.0, "kind": "point", "reflection": 0.05},
    "trials": 0,
    "users": [{"angle_deg": -60.0, "distance_m": 15.0},
              {"angle_deg": -30.0, "distance_m": 10.0}],
}

SETUP_REPS = 5
MC_BATCH = 50         # trials per round
MC_MIN_TRIALS = 200   # enough trials for the estimator checks
MC_RADAR_SNR_DB = 30.0


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    fails: list = field(default_factory=list)    # output checks that failed
    errors: list = field(default_factory=list)   # why operations failed
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    layers: dict = field(default_factory=dict)


def point_design_input(seed):
    cfg = copy.deepcopy(DESK)
    cfg["seed"] = seed   # unused by a sweep without trials
    return cfg


def extended_design_input(seed):
    """Extended target on 8-antenna desk arrays (the self-test's second design)."""
    cfg = point_design_input(seed)
    cfg["geometry"].update(n_tx=8, n_rx=8)
    cfg["target"] = {"kind": "extended", "prior_variance": 1.0}
    return cfg


def mc_trials_input(seed):
    """Desk point target, SINR and EE off, reflection set for 30 dB radar SNR.

    Radar SNR is |mu|^2 L P / sigma^2, so the benchmark sets |mu| directly.
    """
    cfg = point_design_input(seed)
    c = cfg["constraints"]
    c.update(sinr_db=None, ee_threshold=0.0)
    snr = 10.0 ** (MC_RADAR_SNR_DB / 10.0)
    power = checks.dbm_to_mw(c["power_dbm"])
    noise = checks.dbm_to_mw(c["sensing_noise_dbm"])
    cfg["target"]["reflection"] = float(np.sqrt(snr * noise / (c["frame_length"] * power)))
    return cfg


def setup(cfg_dict, import_s, warm=None):
    """Median of SETUP_REPS builds of config, scenario and channels, plus import time."""
    times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        cfg = config.loads_config(json.dumps(cfg_dict), scale="desk")
        scn = config.config_to_scenario(cfg)
        scn.channels()
        if warm is not None:
            warm(scn)
        times.append(time.perf_counter() - t)
    return import_s + statistics.median(times), cfg, scn


class Capture:
    """Keeps the return values run_sweep does not hand back."""

    def __init__(self):
        self._undo = []
        self.reset()
        self._hook(harness, "optimize_scenario", self._keep_optimized)
        self._hook(sca, "init_feasible", self._keep_start)
        self._hook(hybrid, "factorize", self._keep_factors)

    def _hook(self, module, attr, keep):
        fn = getattr(module, attr)

        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            keep(result, kwargs)
            return result

        setattr(module, attr, hooked)
        self._undo.append((module, attr, fn))

    def reset(self):
        self.optimized = self.start = None
        self.factors = {}

    def _keep_optimized(self, result, kwargs):
        self.optimized = result

    def _keep_start(self, result, kwargs):
        self.start = result

    def _keep_factors(self, result, kwargs):
        self.factors[kwargs.get("architecture", "fully")] = (result.analog, result.digital)

    def close(self):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)


def design_once(cfg, capture):
    """One complete design through harness.run_sweep.

    Returns the plain outputs checks.design takes, or None when the sweep
    reported a failed design.
    """
    capture.reset()
    table = harness.run_sweep(cfg)
    if table.select(metric="status", arch="none") or capture.optimized is None:
        return None
    w, W_list, _, _ = capture.optimized
    return {"w": w, "W_list": W_list, "W0": capture.start,
            "factors": dict(capture.factors),
            "bounds": {r.arch: r.value for r in table.select(metric="bound_trace")}}


def point_design(seed, seconds, import_s, tracer=None):
    """Complete designs while the next one should end within `seconds`, at least one."""
    res = Result()
    cfg_dict = point_design_input(seed)
    if tracer is not None:
        install(tracer)
    setup_s, cfg, _ = setup(cfg_dict, import_s)
    capture = Capture()
    if tracer is not None:
        tracer.phase = "run"
    times, rows = [], None
    start = time.perf_counter()
    try:
        while not times or time.perf_counter() - start + times[-1] <= seconds:
            res.attempted += 1
            t = time.perf_counter()
            try:
                out = design_once(cfg, capture)
                if out is None:
                    res.errors.append("design: run_sweep reported a failed design")
            except Exception as exc:  # counted as a failed design; the run goes on
                out = None
                res.errors.append(f"design: {type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - t)
            if out is None:
                res.failed += 1
                continue
            rows = out["bounds"]
            res.fails += checks.design(cfg_dict, out)
    finally:
        capture.close()
    if rows is None:
        raise RuntimeError("no design completed: " + "; ".join(res.errors))
    res.metrics = {"setup_s": (setup_s, "s"), "op_s": (statistics.median(times), "s"),
                   "bound_trace.digital": (rows["digital"], "au"),
                   "bound_trace.partially": (rows["partially"], "au")}
    if tracer is not None:
        res.layers = layers(tracer, res.attempted, statistics.median(times))
    return res


def matched_design(s):
    """Full-budget transmit beam matched to the target, n_tx x 1."""
    b = s.steering(s.n_tx, s.r, s.phi)
    return (np.sqrt(s.budget) * b / np.linalg.norm(b))[:, None]


def trial_round(scn, W, trm, grid, round_seed):
    """MC_BATCH trials: MLE through the harness pool, then MUSIC on the same echoes.

    Returns the MLE (rmse, se) and root-CRB rows and the MUSIC estimates.
    """
    table = harness.ResultTable()
    harness.estimator_trial_rows(table, scn, "none", 0.0, W, MC_BATCH, round_seed)
    music = []
    for trial in range(MC_BATCH):
        echo = estimators.simulate_echo(trm.B, W, scn.frame_length, scn.sensing_noise,
                                        estimators.trial_rng(round_seed, trial))
        music.append(estimators.music_2d(echo, scn.geom, grid))
    row = {r.metric: r for r in table.rows}
    mle = {name: (row[f"mle_rmse_{name}"].value, row[f"mle_rmse_{name}"].stderr)
           for name in ("distance", "angle")}
    crb = {name: row[f"crb_rmse_{name}"].value for name in ("distance", "angle")}
    return mle, crb, music


def mc_trials(seed, seconds, import_s, tracer=None):
    """Rounds of MC_BATCH trials while the next should end within `seconds`.

    At least MC_MIN_TRIALS trials run.

    Round b draws its trials from seed * 10**6 + b through
    estimators.trial_rng, so MUSIC sees the echoes the MLE pool saw.
    """
    res = Result()
    cfg_dict = mc_trials_input(seed)
    s = checks.Setting(cfg_dict)
    W = matched_design(s)
    noiseless = np.random.default_rng(0)

    def warm(scn):
        # the first estimate builds and caches the steering grids
        cache = getattr(estimators, "_GRID_CACHE", None)
        if cache is not None:
            cache.clear()
        trm = bounds.point_trm(scn.geom, scn.target)
        echo = estimators.simulate_echo(trm.B, W, scn.frame_length, 0.0, noiseless)
        estimators.mle_point(echo, scn.geom, estimators.default_grid(scn.geom))

    if tracer is not None:
        install(tracer)
    setup_s, _, scn = setup(cfg_dict, import_s, warm)
    grid = estimators.default_grid(scn.geom)
    trm = bounds.point_trm(scn.geom, scn.target)
    if tracer is not None:
        tracer.phase = "run"
    round_times, mle_rows, crb_rows, music = [], [], None, []
    start = time.perf_counter()
    last = 0.0
    while (res.attempted < MC_MIN_TRIALS
           or time.perf_counter() - start + last <= seconds):
        round_seed = seed * 10**6 + res.attempted // MC_BATCH
        res.attempted += MC_BATCH
        t = time.perf_counter()
        try:
            mle, crb_rows, est = trial_round(scn, W, trm, grid, round_seed)
        except Exception as exc:  # a failed round counts its trials as failed
            res.failed += MC_BATCH
            res.errors.append(f"round seed {round_seed}: {type(exc).__name__}: {exc}")
            continue
        finally:
            last = time.perf_counter() - t
        round_times.append(last)
        mle_rows.append(mle)
        music += est
    if tracer is not None:
        tracer.phase = "after"
    if not round_times:
        raise RuntimeError("no round of trials completed: " + "; ".join(res.errors))
    res.fails += checks.trials(cfg_dict, W, pooled(mle_rows), crb_rows,
                               music_stats(s, music))

    # the bound of the design's partially-connected factorization, as run_sweep rates it
    fac = hybrid.factorize(W, scn.geom.n_rf, power=float(np.linalg.norm(W) ** 2),
                           architecture="partially")
    W_p = fac.analog @ fac.digital
    fim = bounds.fim_point(trm, W_p @ W_p.conj().T, scn.sensing_noise, scn.frame_length)
    rows = {"digital": crb_rows["distance"] ** 2 + crb_rows["angle"] ** 2,
            "partially": float(np.trace(bounds.crb_point(fim)))}
    res.fails += checks.factorized(s, "partially", fac.analog, fac.digital, W,
                                   rows["partially"])
    res.fails += checks.ordering(rows)

    op_s = statistics.median(round_times) / MC_BATCH
    res.metrics = {"setup_s": (setup_s, "s"), "op_s": (op_s, "s"),
                   "bound_trace.digital": (rows["digital"], "au"),
                   "bound_trace.partially": (rows["partially"], "au")}
    if tracer is not None:
        res.layers = layers(tracer, res.attempted, op_s,
                            grid_points=grid.n_r * grid.n_phi)
    return res


def music_stats(s, estimates):
    """(rmse, se) of MUSIC distance and angle estimates."""
    est = np.asarray(estimates, dtype=float)
    return {"distance": checks.rmse_se(est[:, 0], s.r),
            "angle": checks.rmse_se(est[:, 1], s.phi)}


def pooled(rows):
    """Pool equal-size rounds of MLE rows: mean of the MSEs and its standard error."""
    out = {}
    for name in ("distance", "angle"):
        rmse = np.array([r[name][0] for r in rows])
        se = np.array([r[name][1] for r in rows])
        var = (2.0 * rmse * se) ** 2      # variance of each round's MSE
        pooled_rmse = float(np.sqrt(np.mean(rmse**2)))
        out[name] = (pooled_rmse, float(np.sqrt(var.sum()) / len(rows) / (2.0 * pooled_rmse)))
    return out


# ---------------------------------------------------------------------------
# tracing

def _sol_counts(sol):
    return {"iterations": sol.iterations, "max_iter": sol.status == "max_iter",
            "optimal": sol.optimal}


def _sca_counts(result):
    return {"iterations": len(result[2].objectives)}


def _fac_counts(fac):
    return {"iterations": fac.iterations}


def install(tracer):
    """Wrap each layer's public functions under the name its caller looks them up by."""
    from nfisac.conic import solver
    tracer.wrap(sca, "solve", "conic.solve", _sol_counts)
    tracer.wrap(solver, "assemble", "conic.assemble")
    tracer.wrap(solver, "ruiz_equilibrate", "conic.equilibrate")
    tracer.wrap(solver, "project_cone", "conic.project_cone")
    tracer.wrap(sca, "init_feasible", "sca.init_feasible")
    tracer.wrap(sca, "build_point_subproblem", "sca.build_point_subproblem")
    tracer.wrap(sca, "evaluate_slacks", "sca.evaluate_slacks")
    tracer.wrap(sca, "solve_point_sca", "sca.solve_point_sca", _sca_counts)
    tracer.wrap(hybrid, "factorize", "hybrid.factorize", _fac_counts)
    tracer.wrap(hybrid, "fully_analog_update", "hybrid.fully_analog_update")
    tracer.wrap(hybrid, "partially_analog_update", "hybrid.partially_analog_update")
    tracer.wrap(estimators, "trial_rng", "estimators.trial_rng")
    tracer.wrap(estimators, "simulate_echo", "estimators.simulate_echo")
    tracer.wrap(estimators, "mle_point", "estimators.mle_point")
    tracer.wrap(estimators, "music_2d", "estimators.music_2d")
    tracer.wrap(estimators, "_grid_steering", "estimators.grid_steering")
    tracer.wrap(harness, "run_sweep", "harness.run_sweep")
    tracer.wrap(harness, "estimator_trial_rows", "harness.estimator_trial_rows")


def layers(tracer, ops, traced_op_s, grid_points=0):
    """Per-layer figures per operation (design or trial) of the measured phase."""
    agg = tracer.totals("run")
    per = 1.0 / max(ops, 1)

    def total(*names):
        return sum(agg[n]["total"] for n in names if n in agg)

    def own(name):
        return agg[name]["self"] if name in agg else 0.0

    def calls(*names):
        return sum(agg[n]["calls"] for n in names if n in agg)

    def count(name, key):
        return agg[name]["counts"][key] if name in agg else 0.0

    solves = calls("conic.solve")
    cone_calls = calls("conic.project_cone")
    setup_agg = tracer.totals("setup")
    grid_build = (setup_agg["estimators.grid_steering"]["total"] / SETUP_REPS
                  if "estimators.grid_steering" in setup_agg else 0.0)
    return {
        "conic.solve.calls": (solves * per, "count"),
        "conic.solve.iterations": (count("conic.solve", "iterations") * per, "count"),
        "conic.solve.max_iter": (count("conic.solve", "max_iter") * per, "count"),
        "conic.solve.optimal_share": (100.0 * count("conic.solve", "optimal") / solves
                                      if solves else 0.0, "%"),
        "conic.solve.self_s": (own("conic.solve") * per, "s"),
        "conic.project_cone_s": (total("conic.project_cone") * per, "s"),
        "conic.project_cone.calls": (cone_calls * per, "count"),
        "conic.project_cone.us_per_call": (1e6 * total("conic.project_cone") / cone_calls
                                           if cone_calls else 0.0, "us"),
        "conic.assemble_s": (total("conic.assemble") * per, "s"),
        "conic.equilibrate_s": (total("conic.equilibrate") * per, "s"),
        "sca.build_s": (total("sca.build_point_subproblem") * per, "s"),
        "sca.iterations": (count("sca.solve_point_sca", "iterations") * per, "count"),
        "sca.init_feasible.self_s": (own("sca.init_feasible") * per, "s"),
        "sca.evaluate_slacks.calls": (calls("sca.evaluate_slacks") * per, "count"),
        "sca.evaluate_slacks_s": (total("sca.evaluate_slacks") * per, "s"),
        "hybrid.factorize_s": (total("hybrid.factorize") * per, "s"),
        "hybrid.factorize.iterations": (count("hybrid.factorize", "iterations") * per, "count"),
        "hybrid.analog_updates": (calls("hybrid.fully_analog_update",
                                        "hybrid.partially_analog_update") * per, "count"),
        "estimators.simulate_echo_s": (total("estimators.simulate_echo") * per, "s"),
        "estimators.mle_point_s": (total("estimators.mle_point") * per, "s"),
        "estimators.music_2d_s": (total("estimators.music_2d") * per, "s"),
        "estimators.grid_points_scored": (calls("estimators.mle_point", "estimators.music_2d")
                                          * grid_points * per, "count"),
        "estimators.grid_build_s": (grid_build, "s"),
        "harness.run_sweep.self_s": (own("harness.run_sweep") * per, "s"),
        "harness.estimator_trial_rows.self_s": (own("harness.estimator_trial_rows") * per, "s"),
        "harness.trial_busy_s": (tracer.worker_busy("run") * per, "s"),
        "traced.op_s": (traced_op_s, "s"),
    }


WORKLOADS = {"point-design": point_design, "mc-trials": mc_trials}
