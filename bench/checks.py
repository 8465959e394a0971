"""Output checks, computed from the benchmark's own formulas.

Nothing here imports nfisac.  Every quantity is rebuilt from the benchmark's
input dictionary (the experiment configuration it hands to the library) and
from plain arrays the library returned: steering vectors, channels, SINR,
rate, power, the point-target CRB from a central-difference Fisher matrix of
the response matrix, and the extended-target Bayesian bound from the
explicit Kronecker-form information matrix.  Each check returns a list of
failure messages; an empty list means the output passed.
"""

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

# relative tolerances
FEASIBILITY_TOL = 1e-6    # SINR and EE thresholds
POWER_TOL = 1e-9          # power budget
RANK_ONE_TOL = 1e-5       # ||W_k - w_k w_k^H||_F / ||W_k||_F
BOUND_TOL = 1e-5          # table bound against the recomputed bound
ORDER_TOL = 1e-6          # digital <= fully <= partially
REALIZED_POWER_TOL = 1e-8
UNIT_MODULUS_TOL = 1e-9


def dbm_to_mw(dbm):
    return 10.0 ** (dbm / 10.0)


class Setting:
    """The physical constants of one experiment configuration dictionary."""

    def __init__(self, cfg):
        g, c, t = cfg["geometry"], cfg["constraints"], cfg["target"]
        self.n_tx, self.n_rx, self.n_rf = g["n_tx"], g["n_rx"], g["n_rf"]
        self.wavelength = SPEED_OF_LIGHT / g["carrier_freq_hz"]
        self.users = [(u["distance_m"], np.deg2rad(u["angle_deg"])) for u in cfg["users"]]
        self.point = t["kind"] == "point"
        if self.point:
            self.r, self.phi = t["distance_m"], np.deg2rad(t["angle_deg"])
            self.mu = complex(t["reflection"])
        else:
            self.prior_variance = t.get("prior_variance", 1.0)
        self.budget = dbm_to_mw(c["power_dbm"])
        self.sinr_th = 0.0 if c["sinr_db"] is None else 10.0 ** (c["sinr_db"] / 10.0)
        self.ee_th = c["ee_threshold"]
        self.amp_eff = c["amplifier_eff"]
        self.static = dbm_to_mw(c["static_power_dbm"])
        self.comm_noise = dbm_to_mw(c["comm_noise_dbm"])
        self.sensing_noise = dbm_to_mw(c["sensing_noise_dbm"])
        self.L = c["frame_length"]

    def steering(self, n, r, phi):
        """Exact spherical-wave phase profile of a centred half-wavelength ULA."""
        delta = (2.0 * np.arange(1, n + 1) - n - 1) / 2.0 * self.wavelength / 2.0
        path = np.sqrt(r * r + delta**2 - 2.0 * r * delta * np.sin(phi)) - r
        return np.exp(-2j * np.pi / self.wavelength * path)

    def channels(self):
        return [self.wavelength / (4.0 * np.pi * r) * self.steering(self.n_tx, r, phi)
                for r, phi in self.users]

    def response(self, r, phi, mu):
        return mu * np.outer(self.steering(self.n_rx, r, phi),
                             self.steering(self.n_tx, r, phi).conj())

    def point_crb(self, R):
        """2x2 (distance, angle) CRB from a central-difference FIM of mu b_r b_t^H."""
        theta = np.array([self.r, self.phi, self.mu.real, self.mu.imag])
        steps = np.array([1e-7 * self.r, 1e-8, 1e-8 * abs(self.mu), 1e-8 * abs(self.mu)])
        D = []
        for i in range(4):
            e = np.zeros(4)
            e[i] = steps[i]
            up, dn = theta + e, theta - e
            D.append((self.response(up[0], up[1], up[2] + 1j * up[3])
                      - self.response(dn[0], dn[1], dn[2] + 1j * dn[3])) / (2.0 * steps[i]))
        J = np.array([[2.0 * self.L / self.sensing_noise
                       * np.real(np.trace(D[i] @ R @ D[j].conj().T)) for j in range(4)]
                      for i in range(4)])
        J = 0.5 * (J + J.T)
        s = 1.0 / np.sqrt(np.diag(J))
        inv = np.linalg.inv(J * np.outer(s, s)) * np.outer(s, s)
        return inv[:2, :2]

    def extended_bound(self, R):
        """Trace of the inverse realified Bayesian information of vec(B)."""
        M = 2.0 * self.L / self.sensing_noise * np.kron(R.T, np.eye(self.n_rx))
        J = np.block([[M.real, -M.imag], [M.imag, M.real]])
        J += 2.0 / self.prior_variance * np.eye(J.shape[0])
        return float(np.trace(np.linalg.inv(J)))

    def bound(self, R):
        return float(np.trace(self.point_crb(R))) if self.point else self.extended_bound(R)

    def rank_k_floor(self, K):
        """sigma^2 n_rx / L * [(n - K)/reg + K^2/(P + K reg)]: no rank-K design does better."""
        reg = self.sensing_noise / (self.prior_variance * self.L)
        return (self.sensing_noise * self.n_rx / self.L
                * ((self.n_tx - K) / reg + K**2 / (self.budget + K * reg)))


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def feasibility(s, w):
    """Power, per-user SINR and energy efficiency of beamformer columns w."""
    fails = []
    power = float(np.sum(np.abs(w) ** 2))
    if power > s.budget * (1.0 + POWER_TOL):
        fails.append(f"power {power:.6g} mW exceeds the budget {s.budget:.6g} mW")
    sinrs = []
    for k, h in enumerate(s.channels()):
        gains = np.abs(h.conj() @ w) ** 2
        sinrs.append(gains[k] / (gains.sum() - gains[k] + s.comm_noise))
        if s.sinr_th > 0 and sinrs[-1] < s.sinr_th * (1.0 - FEASIBILITY_TOL):
            fails.append(f"user {k} SINR {sinrs[-1]:.6g} below {s.sinr_th:.6g}")
    rate = float(np.sum(np.log2(1.0 + np.array(sinrs))))
    ee = rate / ((power / s.amp_eff + s.static) * 1e-3)
    if s.ee_th > 0 and ee < s.ee_th * (1.0 - FEASIBILITY_TOL):
        fails.append(f"energy efficiency {ee:.10g} below {s.ee_th:.6g}")
    return fails


def factorized(s, arch, analog, digital, w, bound):
    """Unit-modulus analog stage, wiring, realized power and bound of one factorization."""
    fails = []
    mags = np.abs(analog)
    if arch == "partially":
        per_row = np.count_nonzero(mags, axis=1)
        if np.any(per_row != 1):
            fails.append(f"partially: analog rows carry {sorted(set(per_row.tolist()))} "
                         "phase shifters, expected one each")
        mags = mags[mags > 0]
    worst = np.abs(mags - 1.0)
    if np.any(worst > UNIT_MODULUS_TOL):
        fails.append(f"{arch}: analog entry of modulus {mags.flat[np.argmax(worst)]:.12g}")
    W_h = analog @ digital
    realized = float(np.linalg.norm(W_h) ** 2)
    target = float(np.linalg.norm(w) ** 2)
    if _rel(realized, target) > REALIZED_POWER_TOL:
        fails.append(f"{arch}: realized power {realized:.12g} against {target:.12g}")
    ref = s.bound(W_h @ W_h.conj().T)
    if _rel(bound, ref) > BOUND_TOL:
        fails.append(f"{arch}: bound_trace {bound:.12g}, recomputed {ref:.12g}")
    return fails


def design(cfg, out):
    """All checks on one design.

    out holds plain arrays and numbers returned by the library: w (beamformer
    columns), W_list (covariances), W0 (the initial feasible covariances),
    factors {arch: (analog, digital)} and bounds {arch: table bound_trace}.
    """
    s = Setting(cfg)
    w, bounds = out["w"], out["bounds"]
    fails = feasibility(s, w)
    for k, Wk in enumerate(out["W_list"]):
        err = np.linalg.norm(Wk - np.outer(w[:, k], w[:, k].conj())) / np.linalg.norm(Wk)
        if err > RANK_ONE_TOL:
            fails.append(f"W_{k} differs from w_k w_k^H by {err:.3g}")
    ref = s.bound(w @ w.conj().T)
    if _rel(bounds["digital"], ref) > BOUND_TOL:
        fails.append(f"digital: bound_trace {bounds['digital']:.12g}, recomputed {ref:.12g}")
    for arch, (analog, digital) in out["factors"].items():
        fails += factorized(s, arch, analog, digital, w, bounds[arch])
    start = s.bound(sum(out["W0"]))
    if bounds["digital"] > start * (1.0 + 1e-9):
        fails.append(f"design bound {bounds['digital']:.12g} exceeds its start {start:.12g}")
    if not s.point:
        floor = s.rank_k_floor(w.shape[1])
        if bounds["digital"] < floor * (1.0 - 1e-12):
            fails.append(f"bound {bounds['digital']:.12g} below the rank-K floor {floor:.12g}")
    fails += ordering(bounds)
    return fails


def ordering(bounds):
    order = [a for a in ("digital", "fully", "partially") if a in bounds]
    return [f"bound of {lo} {bounds[lo]:.12g} exceeds that of {hi} {bounds[hi]:.12g}"
            for lo, hi in zip(order, order[1:])
            if bounds[lo] > bounds[hi] * (1.0 + ORDER_TOL)]


def rmse_se(estimates, truth):
    """Root mean square error and its delta-method standard error."""
    sq = (np.asarray(estimates, dtype=float) - truth) ** 2
    rmse = float(np.sqrt(sq.mean()))
    return rmse, float(sq.std(ddof=1) / (2.0 * max(rmse, 1e-300) * np.sqrt(len(sq))))


def trials(cfg, W, mle, crb_rows, music):
    """Estimator checks at a fixed design W.

    mle and music map "distance"/"angle" to (rmse, standard error); crb_rows
    holds the library's root-CRB rows for the same two parameters.
    """
    s = Setting(cfg)
    crb = s.point_crb(W @ W.conj().T)
    fails = []
    for i, name in enumerate(("distance", "angle")):
        root = float(np.sqrt(crb[i, i]))
        if _rel(crb_rows[name], root) > BOUND_TOL:
            fails.append(f"crb_rmse_{name} {crb_rows[name]:.12g}, recomputed {root:.12g}")
        rmse, se = mle[name]
        ratio = rmse / root
        if not 1.0 - 3.0 * se / root <= ratio <= 2.0:
            fails.append(f"MLE {name} RMSE/sqrt(CRB) = {ratio:.4g} outside "
                         f"[{1.0 - 3.0 * se / root:.4g}, 2]")
        m_rmse, m_se = music[name]
        if m_rmse < rmse - 3.0 * (se + m_se):
            fails.append(f"MUSIC {name} RMSE {m_rmse:.4g} below MLE {rmse:.4g} "
                         f"by more than 3 standard errors")
    return fails
