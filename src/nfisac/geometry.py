"""Near-field array geometry, steering vectors, and spherical-wave channels.

The transmit array is a uniform linear array centered at the origin with
half-wavelength spacing.  Element l sits at offset delta_l = (2l - N - 1)/2
in units of the spacing d, so the offsets are symmetric about the array
center.  Steering vectors carry the exact spherical-wave phase profile by
default; a second-order (quadratic) phase approximation is available for
cross-validation.
This module owns the path-length formula (exact_element_distance) and the
exact steering vectors of points or grids built on it (steering_vectors):
channels, estimator search grids and heatmaps all take theirs from here.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

#: speed of light in vacuum, m/s (exact by the SI definition of the metre)
SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class ArrayGeometry:
    """Physical transmit/receive array description.

    Wavelength and spacing are derived from the carrier frequency;
    spacing is exactly half a wavelength.
    """

    n_tx: int
    n_rx: int
    n_rf: int
    carrier_freq: float

    def __post_init__(self):
        if self.n_tx < 1 or self.n_rx < 1:
            raise InvalidArgumentError("antenna counts must be >= 1")
        if not 1 <= self.n_rf <= self.n_tx:
            raise InvalidArgumentError("need 1 <= n_rf <= n_tx")
        if self.carrier_freq <= 0:
            raise InvalidArgumentError("carrier frequency must be positive")

    @property
    def wavelength(self):
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def spacing(self):
        return self.wavelength / 2.0

    @functools.cached_property
    def tx_offsets(self):
        """Transmit element offsets (read-only, computed once per geometry)."""
        return _read_only(element_offsets(self.n_tx))

    @functools.cached_property
    def rx_offsets(self):
        """Receive element offsets (read-only, computed once per geometry)."""
        return _read_only(element_offsets(self.n_rx))


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class UserSpec:
    """Location of a downlink user, reached over a single line-of-sight path."""

    distance: float
    angle: float
    id: int = 0

    def __post_init__(self):
        if self.distance <= 0:
            raise InvalidArgumentError("user distance must be positive")
        if not -np.pi / 2 < self.angle < np.pi / 2:
            raise InvalidArgumentError("user angle must lie in (-pi/2, pi/2)")


@dataclass(frozen=True)
class PointTarget:
    """Unstructured point scatterer with complex reflection coefficient."""

    distance: float
    angle: float
    reflection: complex

    def __post_init__(self):
        if self.distance <= 0:
            raise InvalidArgumentError("target distance must be positive")
        if not -np.pi / 2 < self.angle < np.pi / 2:
            raise InvalidArgumentError("target angle must lie in (-pi/2, pi/2)")


@dataclass(frozen=True)
class ExtendedTarget:
    """Surface of distributed scatterers, summarized by a Gaussian prior
    on the entries of the target response matrix."""

    prior_variance: float

    def __post_init__(self):
        if self.prior_variance <= 0:
            raise InvalidArgumentError("prior variance must be positive")


@dataclass(frozen=True)
class ChannelSet:
    """Per-user channel vectors h_k."""

    vectors: tuple  # of complex (n_tx,) arrays

    @property
    def n_users(self):
        return len(self.vectors)


def element_offsets(n):
    """Symmetric element offsets delta_l = (2l - n - 1)/2, l = 1..n."""
    if n < 1:
        raise InvalidArgumentError("array must have at least one element")
    l = np.arange(1, n + 1)
    return (2 * l - n - 1) / 2.0


def exact_element_distance(r, phi, delta, d):
    """Exact distance from points at (r, phi) to elements at offsets delta (broadcast)."""
    if np.asarray(r).min(initial=np.inf) <= 0:
        raise InvalidArgumentError("range must be positive")
    return np.sqrt(r * r + (delta * d) ** 2 - 2.0 * r * delta * d * np.sin(phi))


def steering_vectors(geom, r, phi, side="tx"):
    """Exact steering vectors, shape (n,) + S, of the tx or rx aperture at (r, phi).

    r and phi broadcast to shape S.  Angles are not validated, so a grid
    may reach phi = +-pi/2.
    """
    deltas = geom.tx_offsets if side == "tx" else geom.rx_offsets
    deltas = deltas.reshape(deltas.shape + (1,) * np.broadcast(r, phi).ndim)
    path_diff = exact_element_distance(r, phi, deltas, geom.spacing) - r
    phase = -2j * np.pi / geom.wavelength * path_diff
    return np.exp(phase, out=phase)


def steering_vector(geom, r, phi, mode="exact", side="tx"):
    """Near-field steering vector for the tx or rx aperture.

    mode "exact" uses the true spherical-wave path-length difference;
    mode "quadratic" substitutes its second-order expansion
    -delta*d*sin(phi) + delta^2*d^2*cos^2(phi)/(2r).
    Every entry has unit modulus.
    """
    if r <= 0:
        raise InvalidArgumentError("range must be positive")
    if not -np.pi / 2 < phi < np.pi / 2:
        raise InvalidArgumentError("angle must lie in (-pi/2, pi/2)")
    if mode == "exact":
        return steering_vectors(geom, r, phi, side)
    if mode != "quadratic":
        raise InvalidArgumentError(f"unknown steering mode {mode!r}")
    deltas = geom.tx_offsets if side == "tx" else geom.rx_offsets
    d = geom.spacing
    path_diff = -deltas * d * np.sin(phi) + (deltas * d) ** 2 * np.cos(phi) ** 2 / (2.0 * r)
    return np.exp(-2j * np.pi / geom.wavelength * path_diff)


def steering_derivatives(geom, r, phi, side="tx"):
    """Analytic (d/dr, d/dphi) of the exact-mode steering vector."""
    deltas = geom.tx_offsets if side == "tx" else geom.rx_offsets
    d = geom.spacing
    rl = exact_element_distance(r, phi, deltas, d)
    b = steering_vectors(geom, r, phi, side)
    k = 2.0 * np.pi / geom.wavelength
    drl_dr = (r - deltas * d * np.sin(phi)) / rl
    drl_dphi = -r * deltas * d * np.cos(phi) / rl
    db_dr = b * (-1j * k) * (drl_dr - 1.0)
    db_dphi = b * (-1j * k) * drl_dphi
    return db_dr, db_dphi


def path_gain(r, freq):
    """Free-space path gain lambda / (4 pi r), with zero phase."""
    if r <= 0:
        raise InvalidArgumentError("range must be positive")
    lam = SPEED_OF_LIGHT / freq
    return complex(lam / (4.0 * np.pi * r))


def channel_vector(geom, user):
    """Spherical-wave line-of-sight channel h_k = beta_k b(r_k, phi_k)."""
    beta = path_gain(user.distance, geom.carrier_freq)
    return beta * steering_vector(geom, user.distance, user.angle)


def build_channels(geom, users):
    return ChannelSet(tuple(channel_vector(geom, u) for u in users))


def rayleigh_distance(geom):
    """Near-field/far-field boundary 2 D^2 / lambda with aperture D = n_tx * lambda / 2."""
    lam = geom.wavelength
    aperture = geom.n_tx * lam / 2.0
    return 2.0 * aperture**2 / lam
