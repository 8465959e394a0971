"""Estimation-theoretic bounds for the sensing link.

Point target: Fisher information of (distance, angle, reflection) from the
echo model Y = mu * B X + N with B a rank-one outer product of receive and
transmit steering vectors; the distance/angle bound is the inverse of the
Schur complement of the reflection block.

Extended target: the prior-free information matrix of the full response
matrix is singular whenever the transmit covariance is rank deficient, so a
Gaussian prior on the response matrix entries is added and the Bayesian
bound has a closed-form trace.

scenario_bound owns the bound of a design: the optimizer, the result
tables and the Monte Carlo reference rows all read it there.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import (
    DegenerateTargetError,
    InvalidArgumentError,
    SingularInformationError,
    UnidentifiableParametersError,
)

# Relative eigenvalue cutoff below which a matrix is treated as singular.
SINGULARITY_CUTOFF = 1e-12


@dataclass(frozen=True)
class TrmPoint:
    """Point-target response matrix and its analytic location derivatives."""

    B: np.ndarray
    dB_dr: np.ndarray
    dB_dphi: np.ndarray
    reflection: complex


@dataclass(frozen=True)
class FimPoint:
    """2x2 blocks of the point-target information matrix and the reduced matrix A."""

    J_phiphi: np.ndarray
    J_phimu: np.ndarray
    J_mumu: np.ndarray
    A: np.ndarray


@dataclass(frozen=True)
class BcrbParams:
    noise_power: float
    prior_variance: float
    frame_length: int
    n_rx: int

    def __post_init__(self):
        if min(self.noise_power, self.prior_variance) <= 0 or self.frame_length < 1 or self.n_rx < 1:
            raise InvalidArgumentError("BCRB parameters must be strictly positive")


def point_trm(geom, target):
    """Response matrix B = mu * b_r b_t^H with its analytic derivatives."""
    mu = complex(target.reflection)
    if mu == 0:
        raise DegenerateTargetError("zero reflection coefficient")
    br = geometry.steering_vector(geom, target.distance, target.angle, side="rx")
    bt = geometry.steering_vector(geom, target.distance, target.angle, side="tx")
    B = mu * np.outer(br, bt.conj())
    dB_dr, dB_dphi = point_trm_derivatives(geom, target)
    return TrmPoint(B=B, dB_dr=dB_dr, dB_dphi=dB_dphi, reflection=mu)


def point_trm_derivatives(geom, target):
    """Product-rule derivatives of B with respect to target distance and angle."""
    mu = complex(target.reflection)
    r, phi = target.distance, target.angle
    br = geometry.steering_vector(geom, r, phi, side="rx")
    bt = geometry.steering_vector(geom, r, phi, side="tx")
    dbr_dr, dbr_dphi = geometry.steering_derivatives(geom, r, phi, side="rx")
    dbt_dr, dbt_dphi = geometry.steering_derivatives(geom, r, phi, side="tx")
    dB_dr = mu * (np.outer(dbr_dr, bt.conj()) + np.outer(br, dbt_dr.conj()))
    dB_dphi = mu * (np.outer(dbr_dphi, bt.conj()) + np.outer(br, dbt_dphi.conj()))
    return dB_dr, dB_dphi


def fim_point_coefficients(trm, noise_power, frame_length):
    """Coefficient matrices C such that each information entry is Re Tr(C R_X).

    The response matrix and its derivatives carry the reflection coefficient,
    so the |mu|^2 factor of the location block is already inside the
    derivative matrices; the cross and reflection blocks compensate by one
    and two powers of mu respectively.  Used both by fim_point and by the
    optimizer, where the entries must stay affine in R_X.
    """
    scale = 2.0 * frame_length / noise_power
    derivs = (trm.dB_dr, trm.dB_dphi)
    phiphi = [[scale * (du.conj().T @ dv) for dv in derivs] for du in derivs]
    cross = [scale * (du.conj().T @ trm.B) for du in derivs]
    mumu = scale / np.abs(trm.reflection) ** 2 * (trm.B.conj().T @ trm.B)
    return {"phiphi": phiphi, "cross": cross, "mumu": mumu}


def _re_trace(C, R):
    return float(np.real(np.trace(C @ R)))


def fim_point(trm, R_X, noise_power, frame_length):
    """Assemble the 2x2 information blocks for (r, phi) and (Re mu, Im mu)."""
    if noise_power <= 0 or frame_length < 1:
        raise InvalidArgumentError("need positive noise power and frame length >= 1")
    coeffs = fim_point_coefficients(trm, noise_power, frame_length)
    J_phiphi = np.array(
        [[_re_trace(coeffs["phiphi"][u][v], R_X) for v in range(2)] for u in range(2)]
    )
    # Symmetrize away last-bit asymmetry of the two off-diagonal traces.
    J_phiphi = 0.5 * (J_phiphi + J_phiphi.T)
    t = np.array([np.trace(coeffs["cross"][u] @ R_X) / trm.reflection for u in range(2)])
    J_phimu = np.column_stack([np.real(t), -np.imag(t)])
    j_m = _re_trace(coeffs["mumu"], R_X)
    if j_m <= 0 or not np.isfinite(j_m):
        raise SingularInformationError("no focusing power on the target; reflection block singular")
    J_mumu = j_m * np.eye(2)
    A = J_phiphi - (J_phimu @ J_phimu.T) / j_m
    A = 0.5 * (A + A.T)
    return FimPoint(J_phiphi=J_phiphi, J_phimu=J_phimu, J_mumu=J_mumu, A=A)


def crb_point(fim):
    """Bound on (distance, angle) covariance: inverse of the reduced matrix A."""
    A = fim.A
    evals, evecs = np.linalg.eigh(A)
    if evals.min() <= SINGULARITY_CUTOFF * np.trace(A):
        raise UnidentifiableParametersError("reduced information matrix is singular")
    inv = (evecs / evals) @ evecs.T
    return 0.5 * (inv + inv.T)


def scenario_bound(scenario, R_X):
    """The bound of transmit covariance R_X in a scenario.

    Point target: the 2x2 CRB of (distance, angle).  Extended target: the
    trace of the Bayesian bound on the response-matrix entries.
    """
    if isinstance(scenario.target, geometry.PointTarget):
        trm = point_trm(scenario.geom, scenario.target)
        return crb_point(fim_point(trm, R_X, scenario.sensing_noise, scenario.frame_length))
    return bcrb_extended_trace(R_X, BcrbParams(scenario.sensing_noise,
                                               scenario.target.prior_variance,
                                               scenario.frame_length, scenario.geom.n_rx))


def bcrb_extended_trace(R_X, params):
    """Closed-form trace of the Bayesian bound on the response-matrix entries."""
    n_tx = R_X.shape[0]
    reg = params.noise_power / (params.prior_variance * params.frame_length)
    M = R_X + reg * np.eye(n_tx)
    evals = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    return float(params.noise_power * params.n_rx / params.frame_length * np.sum(1.0 / evals))


def realify_matrix(M):
    """Real symmetric representation [[Re M, -Im M], [Im M, Re M]] of Hermitian M."""
    Re, Im = np.real(M), np.imag(M)
    return np.block([[Re, -Im], [Im, Re]])


def extended_fim_prior_free(R_X, noise_power, frame_length, n_rx):
    """Prior-free information matrix of the realified response-matrix entries."""
    M = 2.0 * frame_length / noise_power * np.kron(R_X.T, np.eye(n_rx))
    return realify_matrix(M)


def extended_fim_min_eigenvalue(R_X, noise_power, frame_length, n_rx):
    """Smallest eigenvalue of the prior-free extended-target information matrix.

    Zero (to numerical precision) whenever rank(R_X) < n_tx, which is forced
    by any hybrid architecture with fewer streams than antennas.
    """
    J = extended_fim_prior_free(R_X, noise_power, frame_length, n_rx)
    return float(np.linalg.eigvalsh(J).min())


def extended_fim_bayesian(R_X, params):
    """Prior-free information plus the Gaussian-prior term 2/sigma_beta^2 I."""
    J1 = extended_fim_prior_free(R_X, params.noise_power, params.frame_length, params.n_rx)
    n = J1.shape[0]
    return J1 + 2.0 / params.prior_variance * np.eye(n)
