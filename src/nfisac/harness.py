"""Experiment orchestration: sweeps, Monte Carlo trials, tables, heatmaps.

run_sweep drives the optimizer over a swept variable and all requested
architectures and collects every figure of merit into an append-only
ResultTable with a fixed schema.  Deterministic bounds carry trials=0 and
stderr=0; Monte Carlo rows carry the trial count and the standard error.
Rows are sorted before emission so concurrent trial evaluation cannot
change the artifact bytes.
"""

import concurrent.futures
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds, config as config_mod, estimators, geometry, hybrid, metrics, sca
from .errors import InvalidArgumentError, RankViolationError, ScenarioInfeasibleError
from .units import dbm_to_mw

SCHEMA_VERSION = 1

COLUMNS = ("sweep_var", "sweep_value", "arch", "metric", "value", "trials", "stderr")

#: environment variables that set the BLAS thread count, in the order read
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class ResultRow:
    sweep_var: str
    sweep_value: float
    arch: str
    metric: str
    value: float
    trials: int
    stderr: float


@dataclass
class ResultTable:
    """Append-only result rows; emitted tables carry SCHEMA_VERSION."""

    rows: list = field(default_factory=list)

    def append(self, sweep_var, sweep_value, arch, metric, value, trials=0, stderr=0.0):
        self.rows.append(ResultRow(sweep_var=str(sweep_var),
                                   sweep_value=float(sweep_value), arch=str(arch),
                                   metric=str(metric), value=float(value),
                                   trials=int(trials), stderr=float(stderr)))

    def sorted_rows(self):
        return sorted(self.rows, key=lambda r: (r.sweep_var, r.sweep_value, r.arch, r.metric))

    def select(self, **match):
        out = [r for r in self.sorted_rows()
               if all(getattr(r, k) == v for k, v in match.items())]
        return out

    def values(self, metric, arch=None):
        """(sweep_value, value) pairs of one metric, sorted by sweep value."""
        rows = self.select(metric=metric) if arch is None else self.select(metric=metric, arch=arch)
        return [(r.sweep_value, r.value) for r in rows]


def _fmt(v):
    return f"{float(v):.12g}"


def results_to_csv(table):
    lines = [",".join(COLUMNS)]
    for r in table.sorted_rows():
        lines.append(",".join([r.sweep_var, _fmt(r.sweep_value), r.arch, r.metric,
                               _fmt(r.value), str(r.trials), _fmt(r.stderr)]))
    return "\n".join(lines) + "\n"


def results_to_json(table):
    import json
    rows = [{"sweep_var": r.sweep_var, "sweep_value": float(_fmt(r.sweep_value)),
             "arch": r.arch, "metric": r.metric, "value": float(_fmt(r.value)),
             "trials": r.trials, "stderr": float(_fmt(r.stderr))}
            for r in table.sorted_rows()]
    return json.dumps({"rows": rows, "schema_version": SCHEMA_VERSION},
                      indent=2, sort_keys=True) + "\n"


def parse_results_csv(text):
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != ",".join(COLUMNS):
        raise InvalidArgumentError("result text does not start with the expected header")
    table = ResultTable()
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(COLUMNS):
            raise InvalidArgumentError(f"malformed result row: {ln!r}")
        table.append(sweep_var=parts[0], sweep_value=float(parts[1]), arch=parts[2],
                     metric=parts[3], value=float(parts[4]), trials=int(parts[5]),
                     stderr=float(parts[6]))
    return table


# ---------------------------------------------------------------------------
# beamfocusing heatmap


@dataclass(frozen=True)
class HeatmapGrid:
    """Cartesian evaluation grid in front of the array (array at the origin,
    boresight along +y)."""

    x_min: float = -20.0
    x_max: float = 20.0
    y_min: float = 0.0
    y_max: float = 40.0
    n_x: int = 81
    n_y: int = 81

    def __post_init__(self):
        if self.n_x < 2 or self.n_y < 2:
            raise InvalidArgumentError("heatmap grid needs at least 2x2 points")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise InvalidArgumentError("degenerate heatmap extent")

    def xs(self):
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def ys(self):
        return np.linspace(self.y_min, self.y_max, self.n_y)


def beamfocusing_heatmap(W, geom, grid=None):
    """Transmit gain ||b(r, phi)^H W||^2 over a Cartesian grid.

    Returns an (n_x, n_y) array with entry [i, j] evaluated at
    (xs[i], ys[j]); grid points at the origin carry zero gain.
    """
    if grid is None:
        grid = HeatmapGrid()
    W = np.asarray(W, dtype=complex)
    if W.ndim == 1:
        W = W[:, None]
    X, Y = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    r = np.hypot(X, Y).ravel()
    phi = np.arctan2(X, Y).ravel()
    ok = r > 0
    B = geometry.steering_vectors(geom, r[ok], phi[ok])
    gain = np.zeros(r.shape)
    gain[ok] = np.sum(np.abs(W.conj().T @ B) ** 2, axis=0)
    return gain.reshape(grid.n_x, grid.n_y)


def heatmap_to_csv(gain, grid):
    xs, ys = grid.xs(), grid.ys()
    lines = ["x,y,gain"]
    for i in range(grid.n_x):
        for j in range(grid.n_y):
            lines.append(f"{_fmt(xs[i])},{_fmt(ys[j])},{_fmt(gain[i, j])}")
    return "\n".join(lines) + "\n"


def heatmap_argmax_location(gain, grid):
    """(r, phi) polar coordinates of the peak-gain grid cell."""
    i, j = np.unravel_index(np.argmax(gain), gain.shape)
    x, y = grid.xs()[i], grid.ys()[j]
    return float(np.hypot(x, y)), float(np.arctan2(x, y))


# ---------------------------------------------------------------------------
# sweeps


def describe(cfg):
    """Header lines summarizing a configuration (comment-prefixed)."""
    scn = config_mod.config_to_scenario(cfg)
    return "\n".join([
        f"# schema_version={SCHEMA_VERSION}",
        f"# n_tx={scn.geom.n_tx} n_rx={scn.geom.n_rx} n_rf={scn.geom.n_rf} users={scn.n_users}",
        f"# rayleigh_distance_m={_fmt(geometry.rayleigh_distance(scn.geom))}",
    ]) + "\n"


def _apply_sweep(scn, var, value):
    if var == "none":
        return scn
    if var == "ee_threshold":
        return replace(scn, ee_threshold=float(value))
    if var == "target_distance":
        return replace(scn, target=replace(scn.target, distance=float(value)))
    if var == "power_dbm":
        return replace(scn, power_budget=dbm_to_mw(float(value)))
    if var == "radar_snr_db":
        # point target: |mu|^2 L P / sigma^2 swept by scaling the reflection
        # magnitude at fixed P.  Extended target: sigma_beta^2 L P / sigma^2
        # swept by scaling the sensing noise down, so the communication
        # constraints stay untouched in both cases.
        snr = 10.0 ** (float(value) / 10.0)
        if isinstance(scn.target, geometry.PointTarget):
            scale = snr * scn.sensing_noise / (scn.frame_length * scn.power_budget)
            mu = scn.target.reflection
            mu = np.sqrt(scale) * (mu / abs(mu) if mu != 0 else 1.0)
            return replace(scn, target=replace(scn.target, reflection=complex(mu)))
        noise = scn.target.prior_variance * scn.frame_length * scn.power_budget / snr
        return replace(scn, sensing_noise=float(noise))
    raise InvalidArgumentError(f"unknown sweep variable {var!r}")


def _sweep_options(scn):
    # the extended objective fights the rank penalty longer, so it gets a
    # larger iteration allowance at the same per-solve budget
    extended = not isinstance(scn.target, geometry.PointTarget)
    if scn.geom.n_tx <= 16:
        return sca.ScaOptions(max_iter=48 if extended else 12, sdp_max_iter=2500)
    return sca.ScaOptions(max_iter=60 if extended else 25, sdp_max_iter=6000)


def optimize_scenario(scn):
    """Run the matching bound minimizer; returns (W, W_list, trace, bound)."""
    if isinstance(scn.target, geometry.PointTarget):
        return sca.solve_point_sca(scn, _sweep_options(scn))
    return sca.solve_extended_sca(scn, _sweep_options(scn))


def _evaluate_design(table, scn, channels, var, value, arch, W_cols, extra_rows=()):
    R = W_cols @ W_cols.conj().T
    bound = bounds.scenario_bound(scn, R)
    if isinstance(scn.target, geometry.PointTarget):
        rows = [("bound_trace", float(np.trace(bound))),
                ("bound_distance", float(bound[0, 0])),
                ("bound_angle", float(bound[1, 1]))]
    else:
        rows = [("bound_trace", bound)]
    radiated = float(np.real(np.trace(R)))
    covs = [np.outer(w, w.conj()) for w in W_cols.T]
    rate = metrics.sum_rate(metrics.sinrs(channels, covs, scn.comm_noise))
    power_mw = metrics.consumed_power(radiated, scn.amplifier_eff, scn.static_power)
    rows += [("sum_rate", rate),
             ("tx_power_mw", radiated),
             ("energy_efficiency", metrics.energy_efficiency(rate, power_mw)),
             ("status", 0.0)]
    rows += list(extra_rows)
    for metric_name, v in rows:
        table.append(var, value, arch, metric_name, v)


def trial_workers():
    """Workers of the Monte Carlo trial pool: max(1, cores // BLAS threads).

    Each trial scores its grid with BLAS, so more workers than that only
    oversubscribe the cores.  The thread count is the first of
    BLAS_THREAD_VARS set to a positive integer; with none set, BLAS starts
    one thread per core, which leaves one worker.
    """
    cores = os.cpu_count() or 1
    for name in BLAS_THREAD_VARS:
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            return max(1, cores // int(value))
    return 1


def estimator_trial_rows(table, scn, var, value, W_cols, trials, seed):
    """MLE RMSE rows with standard errors (two trials or more) and root-CRB rows."""
    if trials < 2:
        raise InvalidArgumentError("estimator trials need at least 2 trials")
    trm = bounds.point_trm(scn.geom, scn.target)
    C = bounds.scenario_bound(scn, W_cols @ W_cols.conj().T)
    grid = estimators.default_grid(scn.geom)

    def one(t):
        rng = estimators.trial_rng(seed, t)
        echo = estimators.simulate_echo(trm.B, W_cols, scn.frame_length,
                                        scn.sensing_noise, rng)
        r_hat, phi_hat, _ = estimators.mle_point(echo, scn.geom, grid)
        return (r_hat - scn.target.distance) ** 2, (phi_hat - scn.target.angle) ** 2

    with concurrent.futures.ThreadPoolExecutor(max_workers=trial_workers()) as pool:
        errs = np.array(list(pool.map(one, range(trials))))
    for name, col, crb in (("distance", 0, C[0, 0]), ("angle", 1, C[1, 1])):
        sq = errs[:, col]
        rmse = float(np.sqrt(sq.mean()))
        se = float(sq.std(ddof=1) / (2.0 * max(rmse, 1e-300) * np.sqrt(trials)))
        table.append(var, value, "digital", f"mle_rmse_{name}", rmse, trials, se)
        table.append(var, value, "digital", f"crb_rmse_{name}", float(np.sqrt(crb)))


def run_sweep(cfg):
    """Optimize/factorize/evaluate over the swept variable and architectures.

    Failures at one sweep point append a status row (value 1) and the sweep
    continues.  For the energy-efficiency sweep the values are processed
    from the tightest threshold down and the best design found so far is
    carried along: a design feasible at a tighter threshold stays feasible
    at a looser one, which keeps the reported bound curve monotone even
    when individual optimizer runs stop early.
    """
    base = config_mod.config_to_scenario(cfg)
    var = cfg.sweep.get("variable", "none")
    values = list(cfg.sweep.get("values", []))
    if var == "none" or not values:
        var, values = "none", [0.0]
    order = sorted(values, reverse=True) if var == "ee_threshold" else list(values)

    table = ResultTable()
    carried = None  # (W_cols, bound_trace) from the tighter-threshold point
    for value in order:
        try:
            scn = _apply_sweep(base, var, value)
            channels = scn.channels()
            W_cols, W_list, trace, bound = optimize_scenario(scn)
            if var == "ee_threshold" and carried is not None and carried[1] < bound:
                W_cols, bound = carried
            if var == "ee_threshold":
                carried = (W_cols, bound)
        except (ScenarioInfeasibleError, RankViolationError):
            table.append(var, value, "none", "status", 1.0)
            continue
        for arch in cfg.architectures:
            if arch == "digital":
                _evaluate_design(table, scn, channels, var, value, arch, W_cols)
            else:
                fac = hybrid.factorize(W_cols, scn.geom.n_rf,
                                       power=float(np.linalg.norm(W_cols) ** 2),
                                       architecture=arch)
                W_h = fac.analog @ fac.digital
                _evaluate_design(table, scn, channels, var, value, arch, W_h,
                                 extra_rows=[("factorization_residual", fac.residual)])
        if cfg.trials > 0 and isinstance(scn.target, geometry.PointTarget):
            estimator_trial_rows(table, scn, var, value, W_cols, cfg.trials, cfg.seed)
    return table
