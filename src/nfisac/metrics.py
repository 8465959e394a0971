"""Communication-side figures of merit: SINR, sum rate, power, energy efficiency.

This module owns the communication model: every user's SINR from the
per-user transmit covariances W_k (a beamformer column w enters as w w^H),
and the linear power model that turns radiated into consumed power.  The
optimizer's slacks and the result tables both evaluate designs here.
"""

import numpy as np

from .errors import InvalidArgumentError
from .units import mw_to_w


def signal_and_interference(channels, covs):
    """Per-user arrays Tr(H_k W_k) and sum_{i != k} Tr(H_k W_i)."""
    if len(covs) != channels.n_users:
        raise InvalidArgumentError("need one covariance per user")
    h = np.stack(channels.vectors)
    # terms[k, i] = h_k^H W_i h_k = Tr(H_k W_i)
    terms = np.einsum("kn,inm,km->ki", h.conj(), np.asarray(covs), h).real
    signal = np.diagonal(terms)
    return signal, terms.sum(axis=1) - signal


def sinrs(channels, covs, noise_power):
    """Every user's downlink SINR Tr(H_k W_k) / (sum_{i != k} Tr(H_k W_i) + sigma^2)."""
    if noise_power <= 0:
        raise InvalidArgumentError("noise power must be positive")
    signal, interference = signal_and_interference(channels, covs)
    return signal / (interference + noise_power)


def sum_rate(sinrs):
    """Sum of log2(1 + SINR) over the users, the last axis: a float for one
    design, an array for a stack of them."""
    sinrs = np.asarray(sinrs, dtype=float)
    if np.any(sinrs < 0):
        raise InvalidArgumentError("SINRs must be nonnegative")
    rate = np.log2(1.0 + sinrs).sum(axis=-1)
    return float(rate) if rate.ndim == 0 else rate


def consumed_power(radiated, amplifier_eff, static_power):
    """Linear power model: radiated power over amplifier efficiency plus static draw (mW)."""
    return radiated / amplifier_eff + static_power


def energy_efficiency(rate, total_power_mw):
    """Rate (bits/s/Hz) divided by consumed power in watts."""
    if total_power_mw <= 0:
        raise InvalidArgumentError("total power must be positive")
    return rate / mw_to_w(total_power_mw)
