"""Communication-side figures of merit: SINR, sum rate, power, energy efficiency.

Beamformers are plain n_tx x K matrices W whose column k serves user k.
"""

import numpy as np

from .errors import InvalidArgumentError
from .units import mw_to_w


def sinr(channels, W, k, noise_power):
    """Downlink SINR of user k."""
    if noise_power <= 0:
        raise InvalidArgumentError("noise power must be positive")
    h = channels.vectors[k]
    if h.shape[0] != W.shape[0]:
        raise InvalidArgumentError("channel/beamformer dimension mismatch")
    gains = np.abs(h.conj() @ W) ** 2
    signal = gains[k]
    interference = gains.sum() - signal
    return signal / (interference + noise_power)


def sinr_from_covariances(channels, covs, k, noise_power):
    """SINR in lifted form Tr(H_k W_k) / (sum_{i != k} Tr(H_k W_i) + sigma^2)."""
    if noise_power <= 0:
        raise InvalidArgumentError("noise power must be positive")
    hk = channels.outer(k)
    terms = np.array([np.real(np.trace(hk @ wi)) for wi in covs])
    signal = terms[k]
    interference = terms.sum() - signal
    return signal / (interference + noise_power)


def sum_rate(sinrs):
    sinrs = np.asarray(sinrs, dtype=float)
    if np.any(sinrs < 0):
        raise InvalidArgumentError("SINRs must be nonnegative")
    return float(np.log2(1.0 + sinrs).sum())


def total_power(W, amplifier_eff, static_power):
    """Linear power model: radiated power scaled by amplifier efficiency plus static draw (mW)."""
    radiated = float(np.sum(np.abs(W) ** 2))
    return radiated / amplifier_eff + static_power


def energy_efficiency(rate, total_power_mw):
    """Rate (bits/s/Hz) divided by consumed power in watts."""
    if total_power_mw <= 0:
        raise InvalidArgumentError("total power must be positive")
    return rate / mw_to_w(total_power_mw)
