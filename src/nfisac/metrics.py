"""Communication-side figures of merit: SINR, sum rate, power, energy efficiency.

This module owns the communication model: every user's SINR from the
per-user transmit covariances W_k (a beamformer column w enters as w w^H),
and the linear power model that turns radiated into consumed power.  The
optimizer's slacks and the result tables both evaluate designs here.
"""

import numpy as np

from .errors import InvalidArgumentError
from .units import mw_to_w


def sinrs(channels, covs, noise_power):
    """Every user's downlink SINR Tr(H_k W_k) / (sum_{i != k} Tr(H_k W_i) + sigma^2)."""
    if noise_power <= 0:
        raise InvalidArgumentError("noise power must be positive")
    if len(covs) != channels.n_users:
        raise InvalidArgumentError("need one covariance per user")
    out = np.empty(channels.n_users)
    for k in range(channels.n_users):
        hk = channels.outer(k)
        terms = np.array([np.real(np.trace(hk @ wi)) for wi in covs])
        out[k] = terms[k] / (terms.sum() - terms[k] + noise_power)
    return out


def sum_rate(sinrs):
    sinrs = np.asarray(sinrs, dtype=float)
    if np.any(sinrs < 0):
        raise InvalidArgumentError("SINRs must be nonnegative")
    return float(np.log2(1.0 + sinrs).sum())


def consumed_power(radiated, amplifier_eff, static_power):
    """Linear power model: radiated power over amplifier efficiency plus static draw (mW)."""
    return radiated / amplifier_eff + static_power


def energy_efficiency(rate, total_power_mw):
    """Rate (bits/s/Hz) divided by consumed power in watts."""
    if total_power_mw <= 0:
        raise InvalidArgumentError("total power must be positive")
    return rate / mw_to_w(total_power_mw)
