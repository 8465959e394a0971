"""Penalty-based successive convex approximation of the beamfocusing designs.

Point target: minimize the trace of the location bound through an epigraph
matrix Xi tied to the information matrix by a Schur-complement LMI; the
information blocks are affine in the per-user covariances W_k.  Extended
target: minimize the Bayesian bound trace through a single epigraph LMI in
sum of the W_k.  Both share the constraint block (power, per-user SINR,
energy efficiency) and a nuclear-norm-minus-spectral-norm penalty that
drives every W_k to rank one, with the spectral norm replaced by its
tangent minorant u^H W_k u, u = spectral_direction(W_prev[k]).

The energy-efficiency constraint contains the concave log of each user's
total received power.  That term has no affine tangent-from-below at an
interior point, so it is encoded with an auxiliary scalar bounded above by
the chords of the log over a fixed geometric grid spanning the reachable
interval: the chord envelope is a piecewise-linear underestimate of the
log, so the encoding is conservative, and because the chord set is
iteration-independent while the interference linearization is tangent (at
W_prev's interference, from metrics.signal_and_interference), the previous
iterate stays feasible and the objective sequence is nonincreasing.
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
#: relative change of the design bound that counts as a stalled iteration
TOL = 1e-4
#: rank-penalty weight gamma after the first iterate that is not rank one
GAMMA_FALLBACK = 0.1
#: smallest rank-penalty weight gamma reached by halving
GAMMA_FLOOR = 1e-7
#: chords of the log in the energy-efficiency encoding, per user
EE_CHORDS = 64
#: Newton steps on the start's dual powers before the monotone iteration decides
NEWTON_STEPS = 30
#: relative |lam - 1/d(lam)| of a verified fixed point of the dual powers
FIXED_POINT_TOL = 1e-14


@dataclass(frozen=True)
class ScaOptions:
    gamma: float = 1e4
    max_iter: int = 100
    rank_tol: float = 1e-6
    sdp_tol: float = 1e-10
    sdp_max_iter: int = 100

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


@dataclass
class ScaTrace:
    """Per-iteration record of a run.

    Slacks are normalized: power and EE relative to their budgets, SINR as
    achieved/threshold - 1; negative means the iterate violates that row
    even after _polish.  solves holds one SolveRecord per subproblem solve,
    including a last one that stopped the run; a "max_iter" status marks an
    objective that the solver did not certify.  bounds holds the design
    bound of each accepted (polished) iterate, gammas the rank-penalty
    weight each subproblem was built with and polish_scales the uniform
    scale _polish applied to its iterate, one entry per objective.  For a
    point target illuminations holds each accepted iterate's share of its
    power sent at the target, b_t^H R b_t / (Tr R ||b_t||^2) with
    R = sum_k W_k: about 0 for a design that hides the target, whatever
    bound its rounding-level rank residual gives it.

    status: "converged" (the bound settled at a feasible rank-one iterate),
    "max_iter" (the run stopped before that: the iteration cap came first,
    or a subproblem was reported infeasible) or "degraded": no rank-one
    iterate met every constraint, so the design returned is not certified.
    """

    objectives: list = field(default_factory=list)
    bounds: list = field(default_factory=list)
    rank_residuals: list = field(default_factory=list)
    slacks: list = field(default_factory=list)
    solves: list = field(default_factory=list)
    gammas: list = field(default_factory=list)
    polish_scales: list = field(default_factory=list)
    illuminations: list = field(default_factory=list)
    status: str = "running"
    wall_time: float = 0.0


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

    SINR active: the minimum-power covariances that meet every SINR floor
    with equality, from Newton steps on the K dual powers of
    uplink-downlink duality and one n x n solve for the beams (see
    _min_power_covariances), then a 1-D power scan that maximizes the
    energy-efficiency slack.  SINR off with a point
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
    lam_k = 1 / d_k(lam), d_k = (1 + 1/gamma) q_k^H M^-1 q_k, and their sum
    is the least total power.  That map is a standard interference function
    (Yates, IEEE JSAC 1995), so its fixed point is unique.  By Woodbury,
    q_k^H M^-1 q_k is S_kk with S = (I + G Lam)^-1 G and G = Q^H Q, so the
    fixed point is found in K unknowns: Newton steps on lam - 1/d(lam) from
    lam = 0, whose Jacobian is I - (1 + 1/gamma) |S|^2 / d^2 (row k over
    d_k^2), with the plain step lam = 1/d wherever a Newton iterate is not
    positive.  Only a verified fixed point (every |lam_k - 1/d_k| at
    rounding level) whose sum passes the budget proves the floors out of
    reach; a Newton iterate may overshoot the fixed point, so none on the
    way proves anything.  Without a verified fixed point the monotone
    iteration lam = 1/d(lam) from lam = 0 decides instead: it rises to the
    fixed point, or diverges when no power meets the floors, so the floors
    are out of the budget's reach once its sum passes the budget.  The
    beams point along M^-1 q_k, one n x n solve; their powers make every
    SINR row tight.
    """
    Q = np.stack(channels.vectors, axis=1) / np.sqrt(noise)
    n, K = Q.shape
    G = Q.conj().T @ Q
    c = 1.0 + 1.0 / gamma_th
    lam = _newton_dual_powers(G, c)
    if lam is None:
        lam = _monotone_dual_powers(G, c, budget)
    if np.sum(lam) > budget:
        raise ScenarioInfeasibleError(
            "SINR constraints cannot be met within the power budget", violated="sinr")
    X = np.linalg.solve(np.eye(n) + (Q * lam) @ Q.conj().T, Q)
    V = X / np.linalg.norm(X, axis=0)
    B = np.abs(Q.conj().T @ V) ** 2     # B[k, i] = |q_k^H v_i|^2
    # tight SINR rows: B_kk p_k / gamma - sum_{i != k} B_ki p_i = 1
    p = np.linalg.solve(np.diag(c * np.diag(B)) - B, np.ones(K))
    return [p[k] * np.outer(V[:, k], V[:, k].conj()) for k in range(K)]


def _newton_dual_powers(G, c):
    """The fixed point lam = 1/d(lam) of _min_power_covariances, or None.

    None when NEWTON_STEPS steps from lam = 0 reach no point with every
    |lam_k - 1/d_k| <= FIXED_POINT_TOL lam_k.
    """
    K = len(G)
    lam, S = np.zeros(K), G                  # S = (I + G Lam)^-1 G at lam = 0
    for _ in range(NEWTON_STEPS):
        d = c * np.real(np.diagonal(S))
        if not np.all(d > 0):
            return None
        f = lam - 1.0 / d
        if np.all(np.abs(f) <= FIXED_POINT_TOL * lam):
            return lam
        try:
            step = np.linalg.solve(np.eye(K) - c * np.abs(S) ** 2 / d[:, None] ** 2, f)
        except np.linalg.LinAlgError:
            return None
        lam = lam - step if np.all(lam - step > 0) else 1.0 / d
        S = np.linalg.solve(np.eye(K) + G * lam, G)
    return None


def _monotone_dual_powers(G, c, budget):
    """The fixed point lam = 1/d(lam) by the monotone iteration from lam = 0.

    Raises ScenarioInfeasibleError(violated="sinr") once the iterates' sum
    passes the budget, which proves the floors out of its reach.
    """
    K = len(G)
    lam = np.zeros(K)
    while True:
        d = c * np.real(np.diagonal(np.linalg.solve(np.eye(K) + G * lam, G)))
        # d_k * budget <= 1 means lam_k >= budget, and keeps 1/d finite
        if np.any(d * budget <= 1.0) or np.sum(1.0 / d) > budget:
            raise ScenarioInfeasibleError(
                "SINR constraints cannot be met within the power budget",
                violated="sinr")
        lam, prev = 1.0 / d, lam
        if np.sum(lam - prev) <= 1e-13 * np.sum(lam):
            return lam


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
    """(rate - eta * consumed power (W), consumed power (mW)); positive means feasible.

    sinrs (..., K) and radiated (...) may hold a stack of designs."""
    power_mw = metrics.consumed_power(radiated, scenario.amplifier_eff, scenario.static_power)
    return metrics.sum_rate(sinrs) - scenario.ee_threshold * power_mw * 1e-3, power_mw


def _scaled_sinrs(signal, interf, t, noise):
    """Every user's SINR t S_k / (t I_k + noise) with the covariances scaled by t."""
    return t * signal / (t * interf + noise)


def _power_scan(scenario, channels, W0):
    """Deterministic 1-D rescale of the initial covariances.

    Scaling up never violates SINR (interference-limited ratios increase
    toward the interference-free limit), so the scan trades transmit power
    against the energy-efficiency slack.  At scale t user k's SINR is
    t S_k / (t I_k + noise) and the radiated power t Tr, so one
    signal_and_interference of W0 scores every candidate scale.
    """
    total = _total_trace(W0)
    if total <= 0:
        raise ZeroDirectionError("empty initial covariances")
    t_max = scenario.power_budget / total
    if scenario.ee_threshold <= 0:
        return [W * t_max for W in W0]
    t = np.geomspace(1.0, max(t_max, 1.0), 200)
    signal, interf = metrics.signal_and_interference(channels, W0)
    sinrs = _scaled_sinrs(signal, interf, t[:, None], scenario.comm_noise)
    slacks, _ = _ee_slack(scenario, sinrs, t * total)
    best = int(np.argmax(slacks))   # the first of equal slacks
    if slacks[best] < 0:
        raise ScenarioInfeasibleError(
            "energy-efficiency threshold unreachable at any feasible power",
            violated="energy-efficiency")
    return [W * t[best] for W in W0]


# ---------------------------------------------------------------------------
# subproblem assembly


@dataclass
class ScaState:
    """What the builders read besides the scenario; both tangents come from W_prev."""

    W_prev: list
    channels: object
    basis: np.ndarray            # U, orthonormal columns: W{k} solves for Z_k, W_k = U Z_k U^H
    fim_coeffs: dict = None      # point target only
    d_scale: np.ndarray = None   # per-location-parameter congruence scaling
    mu_scale: float = 1.0
    gamma: float = 0.1
    chords: list = None          # per-user (intercepts, slopes)


def spectral_direction(W_prev):
    """Unit top eigenvector u of W_prev: u^H W u <= ||W||_2, with equality at W_prev."""
    evals, evecs = np.linalg.eigh(0.5 * (W_prev + W_prev.conj().T))
    lam_max = evals[-1]
    # deterministic tie-break: smallest index among eigenvalues within 1e-10
    candidates = np.nonzero(evals >= lam_max - 1e-10 * max(abs(lam_max), 1.0))[0]
    return evecs[:, candidates[0]]


def _penalty_expr(state, w_vars, budget):
    """(1/gamma) sum_k (||W_k||_* - u_k^H W_k u_k), normalized by the budget.

    u_k = spectral_direction(W_prev[k]).  Over W_k = U Z_k U^H the term is
    Tr((I - g g^H) Z_k) with g = U^H u_k.
    """
    expr = LinExpr()
    for W, var in zip(state.W_prev, w_vars):
        g = state.basis.conj().T @ spectral_direction(W)
        expr = expr + real_trace(np.eye(var.side) - np.outer(g, g.conj()), var)
    return expr * (1.0 / (state.gamma * budget))


def _add_constraint_block(prog, state, scenario, w_vars):
    """Power, SINR, and chord-encoded energy-efficiency constraints over W_k = U Z_k U^H.

    User k's channel enters in noise units, as G_k = U^H H_k U / noise, so
    the SINR rows and r_k, user k's received signal power over the noise,
    read the same whatever the scale of the channels.  r_k is fixed by one
    equality row, so each of its chords (a + m noise) + (m noise) r_k - t_k
    is a two-entry row.  The EE row charges metrics.consumed_power as the
    affine term it is.
    """
    channels = state.channels
    noise = scenario.comm_noise
    K = channels.n_users
    U = state.basis
    gains = [np.outer(g, g.conj()) / noise for g in (U.conj().T @ h for h in channels.vectors)]
    total_tr = LinExpr()
    for var in w_vars:
        total_tr = total_tr + real_trace(np.eye(var.side), var)
    prog.add_ineq(LinExpr(scenario.power_budget) - total_tr)

    if scenario.sinr_threshold > 0:
        for k in range(K):
            e = LinExpr(-1.0)
            for i, var in enumerate(w_vars):
                scale = 1.0 / scenario.sinr_threshold if i == k else -1.0
                e = e + real_trace(scale * gains[k], var)
            prog.add_ineq(e)

    if scenario.ee_threshold > 0:
        eta_mw = scenario.ee_threshold * 1e-3
        t_vars = [prog.add_scalar_var(f"t{k}") for k in range(K)]
        _, interf = metrics.signal_and_interference(channels, state.W_prev)
        c = LOG2E / (interf + noise)   # slopes of log2(interference + noise) at W_prev
        ee = LinExpr(-eta_mw * scenario.static_power)
        ee = ee + total_tr * (-eta_mw / scenario.amplifier_eff)
        for k in range(K):
            received = prog.add_scalar_var(f"r{k}")
            u_expr = -scalar_term(received)
            for var in w_vars:
                u_expr = u_expr + real_trace(gains[k], var)
            prog.add_eq(u_expr)
            intercepts, slopes = state.chords[k]
            for a, m in zip(intercepts, slopes):
                prog.add_ineq(LinExpr(a + m * noise, {received.name: np.array([m * noise]),
                                                      t_vars[k].name: np.array([-1.0])}))
            ee = ee + scalar_term(t_vars[k]) - np.log2(interf[k] + noise) + c[k] * interf[k]
            for i, var in enumerate(w_vars):
                if i != k:
                    ee = ee + real_trace(-c[k] * noise * gains[k], var)
        prog.add_ineq(ee)


def _xi_entry(xi_var, i, j):
    C = np.zeros((xi_var.side, xi_var.side))
    C[j, i] = 1.0
    return real_trace(C, xi_var)


def point_subspace(scenario, channels):
    """Orthonormal basis U of span{b_t, d b_t / dr, d b_t / dphi, h_1 ... h_K}.

    n x m with m <= K + 3, from an SVD of the normalized vectors truncated
    at numpy's matrix_rank tolerance.  Every information coefficient matrix
    C of bounds.fim_point_coefficients has its row and column spaces in the
    first three, so C = U U^H C U U^H, and the SINR and EE rows see W_k
    through the channels.  build_point_subproblem works over this U.
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
    under a diagonal congruence diag(d_r, d_phi, s, s), sized by
    solve_point_sca so Xi and U read O(1) at the optimum; the congruence is
    undone by weighting the epigraph trace with d^2, so the objective
    reads in original units.

    Each variable W{k} is the m x m Hermitian Z_k of W_k = U Z_k U^H,
    U = state.basis (n x m, see point_subspace), and every datum enters
    projected: U^H C U for each information coefficient matrix, and the
    channels and penalty tangent as the constraint block and penalty
    project them.  Every datum that sees W_k maps span U to itself, so a
    W_k with a component outside span U only spends power, and the
    optimum over Z_k is the optimum over W_k (Permenter and Parrilo,
    Math. Programming 2020) on an m x m instead of an n x n block.
    """
    prog = ConicProgram()
    U = state.basis
    K = state.channels.n_users
    w_vars = [prog.add_matrix_var(f"W{k}", U.shape[1]) for k in range(K)]
    for var in w_vars:
        prog.psd_var(var)
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
        C = U.conj().T @ C @ U
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
    trace-inverse epigraph of sum_k W_k plus the prior regularizer.  The
    epigraph sees every direction, so state.basis is the identity and each
    variable W{k} is W_k itself.
    """
    prog = ConicProgram()
    n = scenario.geom.n_tx
    K = state.channels.n_users
    w_vars = [prog.add_matrix_var(f"W{k}", n) for k in range(K)]
    for var in w_vars:
        prog.psd_var(var)
    reg = scenario.sensing_noise / (scenario.target.prior_variance * scenario.frame_length)
    u_var = epigraph_trace_inverse(prog, *w_vars, shift=reg, name="U")

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


def _spectra(W_list):
    return [np.linalg.eigvalsh(0.5 * (W + W.conj().T)) for W in W_list]


def _residual(spectra):
    """(nuclear - spectral) / nuclear norm, summed over the eigenvalue arrays."""
    nuc = lam = 0.0
    for evals in spectra:
        nuc += float(np.sum(np.abs(evals)))
        lam += float(evals[-1])
    return (nuc - lam) / max(nuc, 1e-300)


def rank_residual(W_list):
    return _residual(_spectra(W_list))


def evaluate_slacks(scenario, channels, W_list):
    """Normalized constraint slacks (relative units, negative = violated)."""
    return _slacks(scenario, *_slack_terms(scenario, channels, W_list))


def _slack_terms(scenario, channels, W_list):
    """(signal, interference, total trace) of the covariances, as _slacks reads them.

    The per-user powers are None when no SINR or EE row needs them.
    """
    signal = interf = None
    if scenario.sinr_threshold > 0 or scenario.ee_threshold > 0:
        signal, interf = metrics.signal_and_interference(channels, W_list)
    return signal, interf, _total_trace(W_list)


def _slacks(scenario, signal, interf, total, t=1.0):
    """evaluate_slacks of the covariances scaled by t, from their _slack_terms."""
    radiated = t * total
    out = {"power": (scenario.power_budget - radiated) / scenario.power_budget}
    if signal is not None:
        sinrs = _scaled_sinrs(signal, interf, t, scenario.comm_noise)
    if scenario.sinr_threshold > 0:
        for k, s in enumerate(sinrs):
            out[f"sinr{k}"] = s / scenario.sinr_threshold - 1.0
    if scenario.ee_threshold > 0:
        slack, power_mw = _ee_slack(scenario, sinrs, radiated)
        out["ee"] = slack / max(scenario.ee_threshold * power_mw * 1e-3, 1e-300)
    return out


def _polish(scenario, channels, W_list):
    """Scale the iterate to the largest feasible uniform scale.

    Both location bounds improve monotonically under a uniform scale-up
    (the information matrices are linear in the covariance), while a
    subproblem solution sits inside the true energy-efficiency edge (the
    chord encoding is conservative) or leaves its binding rows violated at
    the solver-tolerance level.  The power slack is linear decreasing in
    the scale, the rate term concave and the SINR slacks increasing (the
    noise term does not scale), so the feasible scales form an interval
    and a bisection finds its upper end.
    An iterate infeasible at scale 1 is first shrunk to the upper end in
    [0.9, 1], which repairs power and energy-efficiency rows; whether
    shrunk or not, it is then grown up to P / Tr, which repairs SINR rows.
    An iterate no scale in either bracket repairs is kept as it is.

    At scale t user k's SINR is t S_k / (t I_k + noise) and the radiated
    power t Tr, so the bisections run on one _slack_terms of the iterate
    (at t = 1 these read what evaluate_slacks reads).  The scale found is
    then confirmed on the scaled matrices by evaluate_slacks (see
    _confirmed), so a polished iterate meets every row there exactly.
    """
    signal, interf, total = _slack_terms(scenario, channels, W_list)
    if total <= 0:
        return W_list

    def feasible(t):
        return min(_slacks(scenario, signal, interf, total, t).values()) >= 0.0

    def upper_edge(lo, hi):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        return lo

    ok, floor, t = feasible(1.0), 1.0, 1.0
    if not ok:
        shrunk = [0.9 * W for W in W_list]
        if min(evaluate_slacks(scenario, channels, shrunk).values()) >= 0.0:
            ok, floor, t = True, 0.9, upper_edge(0.9, 1.0)
    t_max = scenario.power_budget / total
    if t_max > t:
        if feasible(t_max):
            t = t_max
        elif not ok:
            return W_list
        else:
            t = upper_edge(t, t_max)
    return _confirmed(scenario, channels, W_list, t, floor)


def _confirmed(scenario, channels, W_list, t, floor):
    """The iterate at scale t, or just below it, with every row met on its matrices.

    The scale steps down from t by eps t, then by twice the last step,
    until evaluate_slacks of the scaled matrices reads no row below 0.
    Once it reaches floor the result is the iterate at floor (W_list
    itself at floor 1), whose rows _polish has checked on the matrices or
    found no scale to repair.
    """
    step = np.finfo(float).eps * t
    while t > floor:
        scaled = [t * W for W in W_list]
        if min(evaluate_slacks(scenario, channels, scaled).values()) >= 0.0:
            return scaled
        t, step = t - step, 2.0 * step
    return W_list if floor == 1.0 else [floor * W for W in W_list]


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


def _illumination(scenario, W_list):
    """b_t^H R b_t / (Tr R ||b_t||^2), R = sum_k W_k, at the point target (0 for R = 0)."""
    power = _total_trace(W_list)
    if power <= 0:
        return 0.0
    bt = geometry.steering_vector(scenario.geom, scenario.target.distance, scenario.target.angle)
    return float(np.real(bt.conj() @ sum(W_list) @ bt)) / (power * np.linalg.norm(bt) ** 2)


def _sca_loop(scenario, options, state, build):
    """Solve subproblems from state until the bound settles at a rank-one iterate.

    Each subproblem is solved exactly, so each step is a majorization-
    minimization step of the penalized objective; every subproblem after
    the first has the same layout as the one before it and starts from its
    solution (conic.solve's start).  The run starts at
    options.gamma, by default so large that the penalty barely acts: where
    the relaxation is tight its solution is already rank one.  After an
    iteration whose most rank-deficient W_k has an extract_beamformer
    residual above rank_tol, gamma drops to at most GAMMA_FALLBACK and then
    halves at each such iteration (down to GAMMA_FLOOR): the continuation
    that drives every W_k to rank one within the iteration cap.  The run
    converges at a rank-one iterate that meets every constraint, and whose
    design has a finite bound, once its bound is within TOL (relative) of
    the previous iterate's.

    The design returned is that of the rank-one iterate whose design has
    the least bound, among those that meet every constraint if any does
    (otherwise the status is "degraded").  With a finite rank_tol its
    covariances are the rank-one w_k w_k^H of the beamformers returned,
    the design the result table rates; with rank_tol = inf (the
    relaxation) they are the solved ones.
    """
    trace = ScaTrace()
    t_start = time.monotonic()
    K = state.channels.n_users
    U = state.basis
    best = None   # ((violates a constraint, bound), W, W_list) of the best rank-one iterate
    sol = None
    for _ in range(options.max_iter):
        prog = build(state, scenario)
        sol = solve(prog, tol=options.sdp_tol, max_iter=options.sdp_max_iter, start=sol)
        trace.solves.append(SolveRecord(sol.status, sol.iterations, sol.primal_residual,
                                        sol.dual_residual, sol.duality_gap))
        if sol.status == "infeasible":
            # a subproblem contains its W_prev where W_prev is feasible, so
            # this is a solver misreport: end on the best iterate so far
            trace.status = "max_iter"
            break
        W_new = [U @ _psd_cleanup(sol.assignments[f"W{k}"]) @ U.conj().T for k in range(K)]
        W_polished = _polish(scenario, state.channels, W_new)
        trace.objectives.append(sol.objective)
        trace.gammas.append(state.gamma)
        total = _total_trace(W_new)
        trace.polish_scales.append(_total_trace(W_polished) / total if total > 0 else 1.0)
        W_new = W_polished
        prev_bound = trace.bounds[-1] if trace.bounds else np.inf
        bound = _design_bound(scenario, W_new)
        trace.bounds.append(bound)
        if isinstance(scenario.target, geometry.PointTarget):
            trace.illuminations.append(_illumination(scenario, W_new))
        spectra = _spectra(W_new)
        trace.rank_residuals.append(_residual(spectra))
        slacks = evaluate_slacks(scenario, state.channels, W_new)
        trace.slacks.append(slacks)
        state.W_prev = W_new
        if max(_residual([e]) for e in spectra) > options.rank_tol:
            state.gamma = max(min(0.5 * state.gamma, GAMMA_FALLBACK), GAMMA_FLOOR)
            continue
        W, W_list = _design(W_new, options.rank_tol)
        rated = _design_bound(scenario, W_list)
        feasible = min(slacks.values()) >= 0.0
        if best is None or (not feasible, rated) < best[0]:
            best = ((not feasible, rated), W, W_list)
        if (feasible and np.isfinite(bound) and np.isfinite(rated)
                and abs(prev_bound - bound) <= TOL * bound):
            trace.status = "converged"
            break
    else:
        trace.status = "max_iter"
    if not trace.objectives:
        raise ScenarioInfeasibleError("no feasible iterate produced", violated="subproblem")
    if best is None:
        residual = max(_residual([e]) for e in _spectra(state.W_prev))
        raise RankViolationError(f"no iterate is rank one (residual {residual:.3e})",
                                 residual=residual)
    (infeasible, bound), W, W_list = best
    if infeasible:
        trace.status = "degraded"
    trace.wall_time = time.monotonic() - t_start
    return W, W_list, trace, bound


def _design(W_list, rank_tol):
    """(beamformer columns, covariances) of a rank-one iterate; see _sca_loop."""
    w_cols = [extract_beamformer(W, rank_tol) for W in W_list]
    if np.isfinite(rank_tol):
        W_list = [np.outer(w, w.conj()) for w in w_cols]
    return np.stack(w_cols, axis=1), W_list


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
    try:
        fim0 = bounds.fim_point(trm, R0, scenario.sensing_noise, scenario.frame_length)
    except SingularInformationError:
        fim0 = None
    if fim0 is None or np.any(np.diag(fim0.J_phiphi) <= 0):
        raise ScenarioInfeasibleError("initial design carries no target information",
                                      violated="information")
    # the congruence is sized at the start plus isotropic full power, whose
    # information is of the order of the optimum's wherever the start's
    # beams point, so Xi and its epigraph U read O(1) there
    n = scenario.geom.n_tx
    full = bounds.fim_point(trm, R0 + (scenario.power_budget / n) * np.eye(n),
                            scenario.sensing_noise, scenario.frame_length)
    d_scale = 1.0 / np.sqrt(np.diag(full.J_phiphi))
    mu_scale = 1.0 / np.sqrt(float(full.J_mumu[0, 0]))

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
                     basis=np.eye(scenario.geom.n_tx), gamma=options.gamma,
                     chords=_make_chords(scenario, channels))
    return _sca_loop(scenario, options, state, build_extended_subproblem)
