"""Penalty-based successive convex approximation of the beamfocusing designs.

Point target: minimize the trace of the location bound through an epigraph
matrix Xi tied to the information matrix by a Schur-complement LMI; the
information blocks are affine in the per-user covariances W_k.  Extended
target: minimize the Bayesian bound trace through a single epigraph LMI in
sum of the W_k.  Both share the constraint block (power, per-user SINR,
energy efficiency) and a nuclear-norm-minus-spectral-norm penalty that
drives every W_k to rank one, with the spectral norm replaced by its
tangent minorant at the previous iterate.

The energy-efficiency constraint contains the concave log of each user's
total received power.  That term has no affine tangent-from-below at an
interior point, so it is encoded with an auxiliary scalar bounded above by
the chords of the log over a fixed geometric grid spanning the reachable
interval: the chord envelope is a piecewise-linear underestimate of the
log, so the encoding is conservative, and because the chord set is
iteration-independent while the interference linearization is tangent, the
previous iterate stays feasible and the objective sequence is
nonincreasing.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import bounds, geometry, metrics
from .conic import (
    ConicProgram,
    LinExpr,
    PsdBlock,
    epigraph_trace_inverse,
    real_trace,
    scalar_term,
    solve,
)
from .errors import (
    InvalidArgumentError,
    RankViolationError,
    ScenarioInfeasibleError,
    SingularInformationError,
    UnidentifiableParametersError,
    ZeroDirectionError,
)

LOG2E = float(np.log2(np.e))
#: relative objective change that counts as a stalled iteration
TOL = 1e-4
#: smallest rank-penalty weight gamma reached by halving
GAMMA_FLOOR = 1e-7
#: chords of the log in the energy-efficiency encoding, per user
EE_CHORDS = 64


@dataclass(frozen=True)
class ScaOptions:
    gamma: float = 1e-3
    max_iter: int = 100
    rank_tol: float = 1e-6
    sdp_tol: float = 1e-4
    sdp_max_iter: int = 3000

    def __post_init__(self):
        if (self.gamma <= 0 or self.max_iter < 1 or self.sdp_max_iter < 1
                or self.sdp_tol <= 0 or self.rank_tol < 0):
            raise InvalidArgumentError("invalid optimizer options")


@dataclass(frozen=True)
class SolveRecord:
    """How one conic subproblem solve ended (see conic.ConicSolution)."""

    status: str
    iterations: int
    primal_residual: float
    dual_residual: float
    duality_gap: float
    rho_changes: int


@dataclass
class ScaTrace:
    """Per-iteration record of a run.

    Slacks are normalized: power and EE relative to their budgets, SINR as
    achieved/threshold - 1; all should stay above -sdp_tol at accepted
    iterates.  solves holds one SolveRecord per subproblem solve, including
    a last one that stopped the run; a "max_iter" status marks an objective
    that the solver did not certify.  gammas holds the rank-penalty weight
    each subproblem was built with and polish_scales the uniform scale
    _polish applied to its iterate, one entry per objective.
    """

    objectives: list = field(default_factory=list)
    rank_residuals: list = field(default_factory=list)
    slacks: list = field(default_factory=list)
    solves: list = field(default_factory=list)
    gammas: list = field(default_factory=list)
    polish_scales: list = field(default_factory=list)
    status: str = "running"
    wall_time: float = 0.0


# ---------------------------------------------------------------------------
# surrogates


@dataclass(frozen=True)
class SpectralSurrogate:
    """Tangent minorant of the spectral norm at a PSD expansion point."""

    base: float
    u: np.ndarray
    W_prev: np.ndarray

    def value(self, W):
        return self.base + float(np.real(np.trace(np.outer(self.u, self.u.conj()) @ (W - self.W_prev))))


def spectral_surrogate(W_prev):
    W_prev = np.asarray(W_prev)
    evals, evecs = np.linalg.eigh(0.5 * (W_prev + W_prev.conj().T))
    lam_max = evals[-1]
    # deterministic tie-break: smallest index among eigenvalues within 1e-10
    candidates = np.nonzero(evals >= lam_max - 1e-10 * max(abs(lam_max), 1.0))[0]
    u = evecs[:, candidates[0]]
    u = _normalize_phase(u)
    return SpectralSurrogate(base=float(lam_max), u=u, W_prev=W_prev)


@dataclass(frozen=True)
class RateSurrogate:
    """Concave minorant of user k's rate at the previous covariance iterate.

    The interference log is linearized (tangent); the total-power log is
    kept concave here and chord-bounded only inside the conic subproblem.
    """

    k: int
    H: tuple  # per-user channel outer products
    noise: float
    w_prev: float       # log2 of previous interference-plus-noise
    c: float            # its derivative, log2(e) / value
    interf_prev: float

    def interference(self, W_list):
        return float(sum(np.real(np.trace(self.H[self.k] @ W_list[i]))
                         for i in range(len(W_list)) if i != self.k))

    def total(self, W_list):
        return float(sum(np.real(np.trace(self.H[self.k] @ Wi)) for Wi in W_list))

    def value(self, W_list):
        u = self.total(W_list) + self.noise
        return float(np.log2(u) - self.w_prev - self.c * (self.interference(W_list) - self.interf_prev))


def rate_surrogate(W_prev_list, k, channels, noise):
    H = tuple(channels.outer(i) for i in range(channels.n_users))
    interf_prev = float(sum(np.real(np.trace(H[k] @ W_prev_list[i]))
                            for i in range(len(W_prev_list)) if i != k))
    v = interf_prev + noise
    return RateSurrogate(k=k, H=H, noise=noise, w_prev=float(np.log2(v)),
                         c=LOG2E / v, interf_prev=interf_prev)


def chord_envelope(noise, reach, n_chords):
    """(intercept, slope) lines of log2 chords over [noise, noise + reach].

    Each chord of the concave log lies below it inside its own segment and
    above it elsewhere, so the pointwise minimum over the consecutive-pair
    chords is the piecewise-linear interpolant: a global underestimate on
    the spanned interval.
    """
    knots = np.geomspace(noise, noise + reach, n_chords + 1)
    f = np.log2(knots)
    slopes = np.diff(f) / np.diff(knots)
    intercepts = f[:-1] - slopes * knots[:-1]
    return intercepts, slopes


# ---------------------------------------------------------------------------
# feasible initialization


def _mrt_covariances(channels, per_user_power):
    out = []
    for k in range(channels.n_users):
        h = channels.vectors[k]
        nh = np.linalg.norm(h)
        if nh == 0:
            raise ZeroDirectionError(f"user {k} has a zero channel")
        w = np.sqrt(per_user_power) * h / nh
        out.append(np.outer(w, w.conj()))
    return out


def init_feasible(scenario, channels=None):
    """Feasible per-user covariances {W_k} for the constraint block.

    SINR active: the closed-form minimum-power covariances that meet every
    SINR floor with equality (see _min_power_covariances), then a 1-D power
    scan that maximizes the energy-efficiency slack.  SINR off with a point
    target: the budget goes to the target-matched direction (the
    sensing-only start), then the same scan.  SINR off otherwise:
    maximum-ratio directions at full budget, then the scan.
    """
    if channels is None:
        channels = scenario.channels()
    K = channels.n_users
    P = scenario.power_budget

    if scenario.sinr_threshold > 0:
        W0 = _min_power_covariances(channels, scenario.sinr_threshold,
                                    scenario.comm_noise, P)
    elif isinstance(scenario.target, geometry.PointTarget):
        b = geometry.steering_vector(scenario.geom, scenario.target.distance,
                                     scenario.target.angle)
        w = np.sqrt(P / K) * b / np.linalg.norm(b)
        W0 = [np.outer(w, w.conj()) for _ in range(K)]
    else:
        W0 = _mrt_covariances(channels, P / K)

    return _power_scan(scenario, channels, W0)


def _min_power_covariances(channels, gamma_th, noise, budget):
    """Rank-one covariances of least total power with every SINR at gamma_th.

    Uplink-downlink duality (Bengtsson and Ottersten 2001; Björnson,
    Bengtsson and Ottersten, IEEE SP Magazine 2014): with q_k = h_k/sqrt(noise)
    and M = I + sum_i lam_i q_i q_i^H, the dual powers solve
    lam_k = 1 / ((1 + 1/gamma) q_k^H M^-1 q_k), and their sum is the least
    total power.  The fixed-point iteration from lam = 0 rises monotonically
    to that solution, or diverges when no power meets the floors, so the
    floors are out of the budget's reach once the sum passes it.  The beams
    point along M^-1 q_k; their powers make every SINR row tight.
    """
    Q = np.stack(channels.vectors, axis=1) / np.sqrt(noise)
    n, K = Q.shape
    lam = np.zeros(K)
    while True:
        X = np.linalg.solve(np.eye(n) + (Q * lam) @ Q.conj().T, Q)
        d = (1.0 + 1.0 / gamma_th) * np.real(np.sum(Q.conj() * X, axis=0))
        # d_k * budget <= 1 means lam_k >= budget, and keeps 1/d finite
        if np.any(d * budget <= 1.0) or np.sum(1.0 / d) > budget:
            raise ScenarioInfeasibleError(
                "SINR constraints cannot be met within the power budget",
                violated="sinr")
        lam, prev = 1.0 / d, lam
        if np.sum(lam - prev) <= 1e-13 * np.sum(lam):
            break
    V = X / np.linalg.norm(X, axis=0)
    G = np.abs(Q.conj().T @ V) ** 2     # G[k, i] = |q_k^H v_i|^2
    # tight SINR rows: G_kk p_k / gamma - sum_{i != k} G_ki p_i = 1
    p = np.linalg.solve(np.diag((1.0 + 1.0 / gamma_th) * np.diag(G)) - G, np.ones(K))
    return [p[k] * np.outer(V[:, k], V[:, k].conj()) for k in range(K)]


def _psd_cleanup(W):
    """Hermitize and clip tiny negative eigenvalues from a solver iterate."""
    W = 0.5 * (W + W.conj().T)
    evals, evecs = np.linalg.eigh(W)
    evals = np.maximum(evals, 0.0)
    return (evecs * evals) @ evecs.conj().T


def _total_trace(W_list):
    """Radiated power sum_k Tr W_k."""
    return float(sum(np.real(np.trace(W)) for W in W_list))


def _ee_slack(scenario, sinrs, radiated):
    """(rate - eta * consumed power (W), consumed power (mW)); positive means feasible."""
    power_mw = metrics.consumed_power(radiated, scenario.amplifier_eff, scenario.static_power)
    return metrics.sum_rate(sinrs) - scenario.ee_threshold * power_mw * 1e-3, power_mw


def _power_scan(scenario, channels, W0):
    """Deterministic 1-D rescale of the initial covariances.

    Scaling up never violates SINR (interference-limited ratios increase
    toward the interference-free limit), so the scan trades transmit power
    against the energy-efficiency slack.
    """
    total = _total_trace(W0)
    if total <= 0:
        raise ZeroDirectionError("empty initial covariances")
    t_max = scenario.power_budget / total
    if scenario.ee_threshold <= 0:
        return [W * t_max for W in W0]
    best_t, best_slack = None, -np.inf
    for t in np.geomspace(1.0, max(t_max, 1.0), 200):
        W_t = [W * t for W in W0]
        slack, _ = _ee_slack(scenario, metrics.sinrs(channels, W_t, scenario.comm_noise),
                             _total_trace(W_t))
        if slack > best_slack:
            best_slack, best_t = slack, t
    if best_slack < 0:
        raise ScenarioInfeasibleError(
            "energy-efficiency threshold unreachable at any feasible power",
            violated="energy-efficiency")
    return [W * best_t for W in W0]


# ---------------------------------------------------------------------------
# subproblem assembly


@dataclass
class ScaState:
    """Everything the subproblem builder needs from the previous iterate."""

    W_prev: list
    channels: object
    spectral: list = None
    rates: list = None
    fim_coeffs: dict = None      # point target only
    basis: np.ndarray = None     # point target only: see point_subspace
    d_scale: np.ndarray = None   # per-location-parameter congruence scaling
    mu_scale: float = 1.0
    gamma: float = 1e-3
    chords: list = None          # per-user (intercepts, slopes)

    def refresh(self, scenario):
        self.spectral = [spectral_surrogate(W) for W in self.W_prev]
        self.rates = [rate_surrogate(self.W_prev, k, self.channels, scenario.comm_noise)
                      for k in range(self.channels.n_users)]


def _penalty_expr(state, w_vars, budget):
    """(1/gamma) sum_k (||W_k||_* - spectral surrogate), normalized by the budget."""
    expr = LinExpr()
    for k, var in enumerate(w_vars):
        s = state.spectral[k]
        uu = np.outer(s.u, s.u.conj())
        const = s.base - float(np.real(np.trace(uu @ s.W_prev)))
        expr = expr + real_trace(np.eye(var.side), var) - real_trace(uu, var) - const
    return expr * (1.0 / (state.gamma * budget))


def _add_constraint_block(prog, state, scenario, w_vars):
    """Power, SINR, and chord-encoded energy-efficiency constraints.

    The EE row charges metrics.consumed_power as the affine term it is.
    """
    channels = state.channels
    K = channels.n_users
    total_tr = LinExpr()
    for var in w_vars:
        total_tr = total_tr + real_trace(np.eye(var.side), var)
    prog.add_ineq(LinExpr(scenario.power_budget) - total_tr)

    if scenario.sinr_threshold > 0:
        for k in range(K):
            Hk = channels.outer(k)
            e = LinExpr(-scenario.comm_noise)
            for i, var in enumerate(w_vars):
                scale = 1.0 / scenario.sinr_threshold if i == k else -1.0
                e = e + real_trace(scale * Hk, var)
            prog.add_ineq(e)

    if scenario.ee_threshold > 0:
        eta_mw = scenario.ee_threshold * 1e-3
        t_vars = [prog.add_scalar_var(f"t{k}") for k in range(K)]
        ee = LinExpr(-eta_mw * scenario.static_power)
        ee = ee + total_tr * (-eta_mw / scenario.amplifier_eff)
        for k in range(K):
            rs = state.rates[k]
            Hk = channels.outer(k)
            u_expr = LinExpr(scenario.comm_noise)
            for var in w_vars:
                u_expr = u_expr + real_trace(Hk, var)
            intercepts, slopes = state.chords[k]
            for a, m in zip(intercepts, slopes):
                prog.add_ineq(LinExpr(a) + u_expr * m - scalar_term(t_vars[k]))
            ee = ee + scalar_term(t_vars[k]) - rs.w_prev + rs.c * rs.interf_prev
            for i, var in enumerate(w_vars):
                if i != k:
                    ee = ee + real_trace(-rs.c * Hk, var)
        prog.add_ineq(ee)


def _xi_entry(xi_var, i, j):
    C = np.zeros((xi_var.side, xi_var.side))
    C[j, i] = 1.0
    return real_trace(C, xi_var)


def point_subspace(scenario, channels):
    """Orthonormal basis of span{b_t, d b_t / dr, d b_t / dphi, h_1 ... h_K}.

    n x m with m <= K + 3, from an SVD of the normalized vectors truncated
    at numpy's matrix_rank tolerance.  Every information coefficient matrix
    of bounds.fim_point_coefficients has its row and column spaces in the
    first three, and the SINR and EE rows see W_k through the channels.
    """
    geom, target = scenario.geom, scenario.target
    bt = geometry.steering_vector(geom, target.distance, target.angle)
    d_r, d_phi = geometry.steering_derivatives(geom, target.distance, target.angle)
    V = np.column_stack([bt, d_r, d_phi, *channels.vectors])
    norms = np.linalg.norm(V, axis=0)
    V = V[:, norms > 0] / norms[norms > 0]
    Q, sv, _ = np.linalg.svd(V, full_matrices=False)
    return Q[:, : np.count_nonzero(sv > sv.max() * max(V.shape) * np.finfo(float).eps)]


def build_point_subproblem(state, scenario):
    """Conic subproblem of one point-target iteration.

    Variables: W_k (Hermitian), Xi and its trace-inverse epigraph U (real
    2x2), EE auxiliaries.  The information blocks enter a 4x4 Schur LMI
    under a diagonal congruence diag(d_r, d_phi, s, s) chosen so the
    initial blocks are O(1); the congruence is undone by weighting the
    epigraph trace with d^(-2), so the objective reads in original units.

    Each W_k is restricted to U Z_k U^H + a_k (I - U U^H), U = state.basis
    (n x m, see point_subspace), through ConicProgram.psd_var.  Every
    datum that sees W_k maps that subspace to itself: the information,
    power, SINR and EE rows, and the penalty's I and u u^H, with u in
    span U while the previous iterate's largest eigenvalue is Z_k's.  So
    the restriction loses nothing, and the solver runs on m x m blocks.
    """
    prog = ConicProgram()
    n = scenario.geom.n_tx
    K = state.channels.n_users
    w_vars = [prog.add_matrix_var(f"W{k}", n) for k in range(K)]
    for var in w_vars:
        prog.psd_var(var, basis=state.basis)
    xi = prog.add_matrix_var("Xi", 2, hermitian=False)
    prog.psd_var(xi)
    u_var = epigraph_trace_inverse(prog, xi, name="U")

    d, ms = state.d_scale, state.mu_scale
    obj = real_trace(np.diag(d**2), u_var) + _penalty_expr(state, w_vars, scenario.power_budget)
    prog.set_objective(obj)

    cf = state.fim_coeffs
    mu = cf["mu"]
    schur = PsdBlock("schur", 4, complex_valued=False)

    def covariance_functional(C):
        e = LinExpr()
        for var in w_vars:
            e = e + real_trace(C, var)
        return e

    for u in range(2):
        for v in range(u, 2):
            e = covariance_functional(cf["phiphi"][u][v] * (d[u] * d[v])) - _xi_entry(xi, u, v)
            schur.set_entry(u, v, e)
    for u in range(2):
        base = cf["cross"][u] * (ms * d[u] / mu)
        schur.set_entry(u, 2, covariance_functional(base))
        schur.set_entry(u, 3, covariance_functional(1j * base))
    corner = covariance_functional(cf["mumu"] * ms**2)
    schur.set_entry(2, 2, corner)
    schur.set_entry(3, 3, corner.copy())
    prog.add_psd_block(schur)

    _add_constraint_block(prog, state, scenario, w_vars)
    return prog


def build_extended_subproblem(state, scenario):
    """Conic subproblem of one extended-target iteration.

    The Bayesian bound trace is (noise * n_rx / L) * Tr(U) with U the
    trace-inverse epigraph of sum_k W_k plus the prior regularizer.
    """
    prog = ConicProgram()
    n = scenario.geom.n_tx
    K = state.channels.n_users
    w_vars = [prog.add_matrix_var(f"W{k}", n) for k in range(K)]
    for var in w_vars:
        prog.psd_var(var)
    u_var = prog.add_matrix_var("U", n, hermitian=True)

    reg = scenario.sensing_noise / (scenario.target.prior_variance * scenario.frame_length)
    block = PsdBlock("epi:U", 2 * n, complex_valued=True)
    block.const[:n, n:] = np.eye(n)
    block.const[n:, :n] = np.eye(n)
    block.const[n:, n:] = reg * np.eye(n)
    block.add_var(u_var, offset=0)
    for var in w_vars:
        block.add_var(var, offset=n)
    prog.add_psd_block(block)

    bound_scale = scenario.sensing_noise * scenario.geom.n_rx / scenario.frame_length
    obj = real_trace(bound_scale * np.eye(n), u_var)
    obj = obj + _penalty_expr(state, w_vars, scenario.power_budget)
    prog.set_objective(obj)

    _add_constraint_block(prog, state, scenario, w_vars)
    return prog


# ---------------------------------------------------------------------------
# driver


def extract_beamformer(W, rank_tol=1e-6):
    """Dominant-eigenvector beamformer of a (near) rank-one covariance.

    The residual (nuclear norm minus spectral norm over nuclear norm) must
    not exceed rank_tol; the extracted vector's first significant entry is
    rotated to be real nonnegative.
    """
    W = np.asarray(W)
    evals, evecs = np.linalg.eigh(0.5 * (W + W.conj().T))
    nuc = float(np.sum(np.abs(evals)))
    if nuc <= 0:
        raise ZeroDirectionError("zero covariance has no beamforming direction")
    lam = evals[-1]
    residual = (nuc - lam) / nuc
    if residual > rank_tol:
        raise RankViolationError(
            f"covariance is not rank one (residual {residual:.3e})", residual=residual)
    return np.sqrt(max(lam, 0.0)) * _normalize_phase(evecs[:, -1])


def _normalize_phase(u):
    nu = np.linalg.norm(u)
    for ui in u:
        if abs(ui) > 1e-12 * nu:
            return u * (abs(ui) / ui)
    return u


def rank_residual(W_list):
    nuc = lam = 0.0
    for W in W_list:
        evals = np.linalg.eigvalsh(0.5 * (W + W.conj().T))
        nuc += float(np.sum(np.abs(evals)))
        lam += float(evals[-1])
    return (nuc - lam) / max(nuc, 1e-300)


def evaluate_slacks(scenario, channels, W_list):
    """Normalized constraint slacks (relative units, negative = violated)."""
    total = _total_trace(W_list)
    out = {"power": (scenario.power_budget - total) / scenario.power_budget}
    if scenario.sinr_threshold > 0 or scenario.ee_threshold > 0:
        sinrs = metrics.sinrs(channels, W_list, scenario.comm_noise)
    if scenario.sinr_threshold > 0:
        for k, s in enumerate(sinrs):
            out[f"sinr{k}"] = s / scenario.sinr_threshold - 1.0
    if scenario.ee_threshold > 0:
        slack, power_mw = _ee_slack(scenario, sinrs, total)
        out["ee"] = slack / max(scenario.ee_threshold * power_mw * 1e-3, 1e-300)
    return out


def _polish(scenario, channels, W_list):
    """Scale the iterate to the largest feasible uniform scale.

    Both location bounds improve monotonically under a uniform scale-up
    (the information matrices are linear in the covariance), while a
    first-order subproblem solve can stall well inside the power budget or
    leave its binding rows violated at the solver-tolerance level.  The
    power slack is linear decreasing in the scale, the rate term concave
    and the SINR slacks increasing (the noise term does not scale), so the
    feasible scales form an interval and a bisection finds its upper end.
    An iterate infeasible at scale 1 is first shrunk to the upper end in
    [0.9, 1], which repairs power and energy-efficiency rows; whether
    shrunk or not, it is then grown over [1, P / Tr], which repairs SINR
    rows.  An iterate no scale in either bracket repairs is kept as it is.
    """
    def feasible(Ws, t):
        scaled = [t * W for W in Ws]
        return min(evaluate_slacks(scenario, channels, scaled).values()) >= 0.0

    def upper_edge(Ws, lo, hi):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if feasible(Ws, mid):
                lo = mid
            else:
                hi = mid
        return lo

    ok = feasible(W_list, 1.0)
    if not ok and feasible(W_list, 0.9):
        lo = upper_edge(W_list, 0.9, 1.0)
        W_list = [lo * W for W in W_list]
        ok = True
    total = _total_trace(W_list)
    if total <= 0:
        return W_list
    t_max = scenario.power_budget / total
    if t_max <= 1.0:
        return W_list
    if feasible(W_list, t_max):
        return [t_max * W for W in W_list]
    if not ok:
        return W_list
    lo = upper_edge(W_list, 1.0, t_max)
    return [lo * W for W in W_list]


def _make_chords(scenario, channels):
    out = []
    for k in range(channels.n_users):
        reach = float(np.linalg.norm(channels.vectors[k]) ** 2) * scenario.power_budget
        out.append(chord_envelope(scenario.comm_noise, reach, EE_CHORDS))
    return out


def _design_bound(scenario, W_list):
    """Bound trace of the covariances, infinite when the design nulled the target."""
    try:
        bound = bounds.scenario_bound(scenario, sum(W_list))
    except (SingularInformationError, UnidentifiableParametersError):
        return float("inf")
    return float(np.trace(bound)) if isinstance(scenario.target, geometry.PointTarget) else bound


def _sca_loop(scenario, options, state, build):
    trace = ScaTrace()
    t_start = time.monotonic()
    K = state.channels.n_users
    warm = None
    prev_obj = np.inf
    stall = 0
    for it in range(options.max_iter):
        state.refresh(scenario)
        prog = build(state, scenario)
        sol = solve(prog, tol=options.sdp_tol, max_iter=options.sdp_max_iter,
                    warm_start=warm)
        trace.solves.append(SolveRecord(sol.status, sol.iterations, sol.primal_residual,
                                        sol.dual_residual, sol.duality_gap,
                                        sol.rho_changes))
        if sol.status == "infeasible" or (not sol.optimal and sol.status != "max_iter"):
            trace.status = "degraded"
            break
        warm = (sol.x, sol.s, sol.y)
        W_new = [_psd_cleanup(sol.assignments[f"W{k}"]) for k in range(K)]
        W_polished = _polish(scenario, state.channels, W_new)
        obj = sol.objective
        trace.objectives.append(obj)
        trace.gammas.append(state.gamma)
        total = _total_trace(W_new)
        trace.polish_scales.append(_total_trace(W_polished) / total if total > 0 else 1.0)
        W_new = W_polished
        rr = rank_residual(W_new)
        trace.rank_residuals.append(rr)
        trace.slacks.append(evaluate_slacks(scenario, state.channels, W_new))
        state.W_prev = W_new
        stall = stall + 1 if (trace.rank_residuals[0] > 0 and it > 0 and
                              rr > 0.9 * trace.rank_residuals[-2]) else 0
        if stall >= 5 and state.gamma > GAMMA_FLOOR:
            state.gamma = max(state.gamma * 0.5, GAMMA_FLOOR)
            stall = 0
        if abs(prev_obj - obj) <= TOL * max(1.0, abs(obj)):
            if rr <= options.rank_tol:
                trace.status = "converged"
                break
            if state.gamma > GAMMA_FLOOR:
                # objective stalled before the iterate went rank one:
                # tighten the penalty and keep iterating
                state.gamma = max(state.gamma * 0.5, GAMMA_FLOOR)
                prev_obj = np.inf
                continue
            trace.status = "converged"
            break
        prev_obj = obj
    else:
        trace.status = "max_iter"
    if not trace.objectives:
        raise ScenarioInfeasibleError("no feasible iterate produced", violated="subproblem")
    W_list = state.W_prev
    w_cols = [extract_beamformer(W, options.rank_tol) for W in W_list]
    W = np.stack(w_cols, axis=1)
    bound = _design_bound(scenario, W_list)
    trace.wall_time = time.monotonic() - t_start
    return W, W_list, trace, bound


def solve_point_sca(scenario, options=None):
    """Minimize the point-target location bound; returns (W, {W_k}, trace, bound)."""
    if not isinstance(scenario.target, geometry.PointTarget):
        raise InvalidArgumentError("point-target solver needs a point target")
    options = options or ScaOptions()
    channels = scenario.channels()
    W0 = init_feasible(scenario, channels)
    trm = bounds.point_trm(scenario.geom, scenario.target)
    coeffs = bounds.fim_point_coefficients(trm, scenario.sensing_noise, scenario.frame_length)
    coeffs = dict(coeffs, mu=trm.reflection)

    R0 = sum(W0)
    fim0 = bounds.fim_point(trm, R0, scenario.sensing_noise, scenario.frame_length)
    diag0 = np.diag(fim0.J_phiphi)
    if np.any(diag0 <= 0):
        raise ScenarioInfeasibleError("initial design carries no target information",
                                      violated="information")
    d_scale = 1.0 / np.sqrt(diag0)
    mu_scale = 1.0 / np.sqrt(float(fim0.J_mumu[0, 0]))

    state = ScaState(W_prev=W0, channels=channels, fim_coeffs=coeffs,
                     basis=point_subspace(scenario, channels),
                     d_scale=d_scale, mu_scale=mu_scale, gamma=options.gamma,
                     chords=_make_chords(scenario, channels))
    return _sca_loop(scenario, options, state, build_point_subproblem)


def solve_extended_sca(scenario, options=None):
    """Minimize the extended-target Bayesian bound; returns (W, {W_k}, trace, bound)."""
    if not isinstance(scenario.target, geometry.ExtendedTarget):
        raise InvalidArgumentError("extended-target solver needs an extended target")
    options = options or ScaOptions()
    channels = scenario.channels()
    state = ScaState(W_prev=init_feasible(scenario, channels), channels=channels,
                     gamma=options.gamma, chords=_make_chords(scenario, channels))
    return _sca_loop(scenario, options, state, build_extended_subproblem)
