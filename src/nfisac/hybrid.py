"""Factorization of a digital beamformer into analog and digital stages.

The analog stage T_A is a phase-shifter matrix (unit-modulus entries; in the
partially-connected wiring each RF chain drives a disjoint group of
antennas), the digital stage T_D is unconstrained.  factorize fits W with
one path per case.  Fully connected with n_rf >= 2 * n_streams, the factors
are exact and in closed form (Sohrabi and Yu, IEEE JSTSP 2016).  Partially
connected, one alternation of matched digital steps, normalized since the
wiring makes the realized power independent of the phases, and optimal
per-entry phases.  Fully connected with fewer chains, an alternation of
least-squares digital steps and majorize-minimize phase rotations, with
random-phase restarts out of the local minima only this case has.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ZeroDirectionError

#: change in the relative residual between sweeps that ends a run
TOL = 1e-12
#: alternating sweeps per run
MAX_ITER = 200
#: majorize-minimize analog updates per fully-connected sweep
ANALOG_STEPS = 30
#: random-phase restarts of a fully-connected fit with n_rf < 2 * n_streams,
#: tried while the best residual exceeds 1e-4
RESTARTS = 5


@dataclass(frozen=True)
class HybridFactors:
    """Result of an analog/digital factorization.

    residual is || W - analog @ digital ||_F / || W ||_F; trace holds the
    per-sweep residuals of the returned run.
    """

    analog: np.ndarray
    digital: np.ndarray
    architecture: str
    residual: float
    iterations: int
    trace: tuple = ()


def connection_groups(n_tx, n_rf):
    """Antenna-to-RF-chain assignment of the partially-connected wiring."""
    if n_tx % n_rf != 0:
        raise InvalidArgumentError("partially-connected wiring needs n_rf | n_tx")
    return np.repeat(np.arange(n_rf), n_tx // n_rf)


def partial_mask(n_tx, n_rf):
    groups = connection_groups(n_tx, n_rf)
    mask = np.zeros((n_tx, n_rf), dtype=bool)
    mask[np.arange(n_tx), groups] = True
    return mask


def _unit_phases(F):
    """exp(j * arg(F)) with the zero-argument convention arg(0) = 0."""
    return np.exp(1j * np.angle(F))


def fully_analog_update(T_A_prev, T_D, W):
    """One majorize-minimize phase update of the fully-connected analog stage.

    The quadratic coupling through T_D T_D^H is majorized at its largest
    eigenvalue (with a small positive shift so T_D = 0 leaves the phases
    untouched), which decouples the entries into independent rotations and
    never increases || W - T_A T_D ||_F for the fixed digital stage.
    """
    M_D = T_D @ T_D.conj().T
    lam = float(np.linalg.eigvalsh(M_D).max()) if M_D.size else 0.0
    lam = lam + 1e-12 + 1e-9 * lam
    F = W @ T_D.conj().T - T_A_prev @ (M_D - lam * np.eye(M_D.shape[0]))
    return _unit_phases(F)


def partially_digital_update(T_A, W, power):
    """Matched digital stage for the partially-connected wiring.

    Each RF chain feeds n_tx / n_rf antennas, so T_A^H T_A = (n_tx/n_rf) I
    and the power normalization is one scalar on the matched filter T_A^H W,
    giving ||T_D||_F^2 = power * n_rf / n_tx exactly.
    """
    n_tx, n_rf = T_A.shape
    group_size = n_tx // n_rf
    T_D = T_A.conj().T @ W
    norm = np.linalg.norm(T_D)
    if norm == 0:
        raise ZeroDirectionError("digital stage vanished; cannot normalize power")
    return T_D * (np.sqrt(power / group_size) / norm)


def partially_analog_update(T_D, W):
    """Optimal per-entry phases of the block-diagonal analog stage.

    Entry (p, q) exists only when antenna p belongs to group q; its phase
    aligns row p of W with row q of T_D, and a vanishing inner product
    leaves the phase at zero.
    """
    n_rf = T_D.shape[0]
    n_tx = W.shape[0]
    groups = connection_groups(n_tx, n_rf)
    inner = (W @ T_D.conj().T)[np.arange(n_tx), groups]
    T_A = np.zeros((n_tx, n_rf), dtype=complex)
    T_A[np.arange(n_tx), groups] = _unit_phases(inner)
    return T_A


def _two_phase_analog(W, n_rf):
    """Exact fully-connected factors (T_A, T_D) for n_rf >= 2 * n_streams.

    Every entry of a column w splits as c (e^{ja} + e^{jb}) with
    c = max_i |w_i| / 2, so two phase-shifter columns, each weighted by c,
    reproduce the column exactly; a zero column and the leftover RF chains
    get unit phases and zero digital rows.
    """
    n_tx, n_streams = W.shape
    T_A = np.ones((n_tx, n_rf), dtype=complex)
    T_D = np.zeros((n_rf, n_streams), dtype=complex)
    for k in range(n_streams):
        w = W[:, k]
        c = np.abs(w).max() / 2.0
        if c == 0:
            continue
        phase = np.angle(w)
        half = np.arccos(np.clip(np.abs(w) / (2.0 * c), 0.0, 1.0))
        T_A[:, 2 * k] = np.exp(1j * (phase + half))
        T_A[:, 2 * k + 1] = np.exp(1j * (phase - half))
        T_D[2 * k:2 * k + 2, k] = c
    return T_A, T_D


def _alternate(W, T_A, digital, analog):
    """Alternating sweeps T_D = digital(T_A), T_A = analog(T_A, T_D), T_D = digital(T_A).

    Sweeps until the relative residual changes by less than TOL, at most
    MAX_ITER; returns (T_A, T_D, residual, sweeps, per-sweep residuals).
    """
    norm_w = np.linalg.norm(W)
    trace = []
    prev = np.inf
    for it in range(1, MAX_ITER + 1):
        T_D = digital(T_A)
        T_A = analog(T_A, T_D)
        T_D = digital(T_A)
        res = float(np.linalg.norm(W - T_A @ T_D) / norm_w)
        trace.append(res)
        if abs(prev - res) < TOL:
            break
        prev = res
    return T_A, T_D, res, it, trace


def _normalized(W, T_A, T_D, power):
    """T_D scaled to || T_A T_D ||_F^2 = power, and the relative residual."""
    realized = np.linalg.norm(T_A @ T_D)
    if realized == 0:
        raise ZeroDirectionError("digital stage vanished; cannot normalize power")
    T_D = T_D * (np.sqrt(power) / realized)
    return T_D, float(np.linalg.norm(W - T_A @ T_D) / np.linalg.norm(W))


def _run_fully(W, T_A, power):
    """Alternation with the raw least-norm least-squares digital stage.

    Power normalization is deferred to the exit: applying the >= 1
    rescaling inside the loop breaks the joint descent of the alternation,
    while at the fixed point both variants agree to first order in the
    residual.
    """
    def analog(T_A, T_D):
        for _ in range(ANALOG_STEPS):
            T_A = fully_analog_update(T_A, T_D, W)
        return T_A

    T_A, T_D, _, it, trace = _alternate(
        W, T_A, lambda T_A: np.linalg.lstsq(T_A, W, rcond=None)[0], analog)
    T_D, res = _normalized(W, T_A, T_D, power)
    return T_A, T_D, res, it, trace


def factorize(W, n_rf, power=None, architecture="fully"):
    """Factor W ~ T_A T_D with n_rf RF chains under a realized-power target.

    power defaults to ||W||_F^2, so a feasible W keeps its radiated power.
    The exact case has iterations 0 and an empty trace.  The alternations
    start from the phases of W's columns; with n_rf < 2 * n_streams up to
    RESTARTS seeded random-phase starts follow while the best residual
    exceeds 1e-4, and the best run is returned.
    """
    W = np.asarray(W, dtype=complex)
    if W.ndim != 2 or W.size == 0:
        raise InvalidArgumentError("W must be a nonempty matrix")
    if architecture not in ("fully", "partially"):
        raise InvalidArgumentError(f"unknown architecture {architecture!r}")
    if not 1 <= n_rf <= W.shape[0]:
        raise InvalidArgumentError("need 1 <= n_rf <= n_tx")
    norm_w = np.linalg.norm(W)
    if norm_w == 0:
        raise ZeroDirectionError("cannot factorize the zero beamformer")
    if power is None:
        power = float(norm_w**2)
    if power <= 0:
        raise InvalidArgumentError("power target must be positive")

    n_tx, n_streams = W.shape
    if architecture == "fully" and 2 * n_streams <= n_rf:
        T_A, T_D = _two_phase_analog(W, n_rf)
        T_D, res = _normalized(W, T_A, T_D, power)
        return HybridFactors(T_A, T_D, architecture, res, 0)
    T_A0 = _unit_phases(W[:, np.arange(n_rf) % n_streams])
    if architecture == "partially":
        T_A, T_D, res, it, trace = _alternate(
            W, np.where(partial_mask(n_tx, n_rf), T_A0, 0.0),
            lambda T_A: partially_digital_update(T_A, W, power),
            lambda T_A, T_D: partially_analog_update(T_D, W))
    else:
        T_A, T_D, res, it, trace = _run_fully(W, T_A0, power)
        rng = np.random.default_rng(0x5EED)
        for start in np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (RESTARTS, n_tx, n_rf))):
            if res <= 1e-4:
                break
            cand = _run_fully(W, start, power)
            if cand[2] < res:
                T_A, T_D, res, it, trace = cand
    return HybridFactors(T_A, T_D, architecture, res, it, tuple(trace))
