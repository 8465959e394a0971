"""Echo simulation and estimator baselines for validating the bounds.

Point target: concentrated grid maximum likelihood and 2D MUSIC over a
(distance, angle) search grid with local quadratic refinement.  Extended
target: linear MMSE estimate of the target response matrix, computed
through the Kronecker identity so only n_tx-sized solves occur.
"""

import functools
import threading
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class EchoBatch:
    """One sensing frame: echo Y = B X + N with probing signal X."""

    Y: np.ndarray
    X: np.ndarray
    noise_power: float

    def __post_init__(self):
        if self.Y.shape[1] != self.X.shape[1]:
            raise InvalidArgumentError("echo and probing signal frame lengths differ")


def trial_rng(seed, trial):
    """Independent per-trial stream derived from (seed, trial index)."""
    return np.random.default_rng([int(seed), int(trial)])


def simulate_echo(B, W, L, noise_power, rng):
    """Simulate Y = B X + N over a frame of L symbols.

    The probe is X = W S with W the n_tx x K beamformer matrix and S
    unit-variance circular Gaussian symbols.
    """
    W = np.asarray(W, dtype=complex)
    K = W.shape[1]
    if L < K:
        raise InvalidArgumentError("frame length must be at least the stream count")
    if noise_power < 0:
        raise InvalidArgumentError("noise power must be nonnegative")
    S = (rng.standard_normal((K, L)) + 1j * rng.standard_normal((K, L))) / np.sqrt(2.0)
    X = W @ S
    Y = B @ X
    if noise_power > 0:
        n_rx = B.shape[0]
        N = (rng.standard_normal((n_rx, L)) + 1j * rng.standard_normal((n_rx, L)))
        Y = Y + np.sqrt(noise_power / 2.0) * N
    return EchoBatch(Y=Y, X=X, noise_power=float(noise_power))


# ---------------------------------------------------------------------------
# search grid


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced distances and uniform angles for the 2D search."""

    r_min: float
    r_max: float
    n_r: int
    n_phi: int

    def __post_init__(self):
        if not 0 < self.r_min < self.r_max or self.n_r < 3 or self.n_phi < 3:
            raise InvalidArgumentError("degenerate search grid")

    @functools.cached_property
    def _axes(self):
        rs = np.geomspace(self.r_min, self.r_max, self.n_r)
        phis = np.linspace(-np.pi / 2, np.pi / 2, self.n_phi + 2)[1:-1]
        for axis in rs, phis:
            axis.flags.writeable = False
        return rs, phis

    def distances(self):
        """The n_r grid distances (read-only, computed once per grid)."""
        return self._axes[0]

    def angles(self):
        """The n_phi grid angles, open interval (-pi/2, pi/2) (read-only)."""
        return self._axes[1]


def default_grid(geom):
    r_max = 1.5 * geometry.rayleigh_distance(geom)
    return GridSpec(r_min=min(0.5, 0.25 * r_max), r_max=r_max,
                    n_r=200, n_phi=361)


_GRID_CACHE = {}
_GRID_LOCK = threading.Lock()

#: grid columns built per block (whole distance rows, at least one): bounds
#: the temporaries of a grid build to a few MB whatever the grid's size
GRID_BLOCK = 4096


def _grid_steering(geom, grid, side):
    """Steering vectors over the flattened grid and their squared norms.

    Returns the (n, n_r * n_phi) matrix B and the vector ||b||^2 of its
    columns.  Grids are cached by aperture rather than by side, so equal
    tx and rx arrays share one grid; the lock keeps concurrent trial
    workers from building the same grid twice.  B and ||b||^2 are
    allocated once and filled GRID_BLOCK columns at a time, with the same
    elementwise arithmetic and summation order as one broadcast over the
    whole grid, so no temporary is the grid's size.
    """
    deltas = geom.tx_offsets if side == "tx" else geom.rx_offsets
    key = (tuple(deltas), geom.spacing, geom.wavelength, grid)
    with _GRID_LOCK:
        if key not in _GRID_CACHE:
            rs, phis = grid.distances(), grid.angles()
            B = np.empty((len(deltas), grid.n_r * grid.n_phi), dtype=complex)
            B_sq = np.empty(B.shape[1])
            step = max(1, GRID_BLOCK // grid.n_phi)
            for i in range(0, grid.n_r, step):
                cols = slice(i * grid.n_phi, min(i + step, grid.n_r) * grid.n_phi)
                block = geometry.steering_vectors(geom, rs[i: i + step, None], phis[None, :], side)
                B[:, cols] = block.reshape(len(deltas), -1)
                B_sq[cols] = _abs2(B[:, cols]).sum(axis=0)
            _GRID_CACHE[key] = B, B_sq
        return _GRID_CACHE[key]


def _abs2(z):
    """Elementwise |z|^2, without the square root np.abs takes."""
    return z.real**2 + z.imag**2


def _refine(score, ir, ip, rs, phis):
    """Quadratic vertex fit on the 3x3 neighborhood of the grid argmax.

    Distances are refined in log space to match their geometric spacing.
    """
    n_r, n_phi = len(rs), len(phis)

    def offset(fm, f0, fp):
        den = fm - 2.0 * f0 + fp
        if den >= -1e-300:  # not a strict local max along this axis
            return 0.0
        return float(np.clip(0.5 * (fm - fp) / den, -0.5, 0.5))

    dr = 0.0
    if 0 < ir < n_r - 1:
        dr = offset(score[ir - 1, ip], score[ir, ip], score[ir + 1, ip])
    dp = 0.0
    if 0 < ip < n_phi - 1:
        dp = offset(score[ir, ip - 1], score[ir, ip], score[ir, ip + 1])
    r_hat = float(rs[ir])
    if dr != 0.0:
        # exp(log(r)) is inexact, so an unrefined distance skips the round trip
        r_hat = float(np.exp(np.log(rs[ir]) + dr * np.log(rs[1] / rs[0])))
    phi_hat = float(phis[ip] + dp * (phis[1] - phis[0]))
    return r_hat, phi_hat


def mle_point(echo, geom, grid=None):
    """Concentrated maximum likelihood estimate (r, phi, mu) of a point target.

    For each grid point the reflection coefficient has the closed form
    mu(r, phi) = Tr(A^H Y X^H) / ||A X||_F^2 with A = b_r b_t^H, so the
    residual ||Y - mu A X||_F^2 is minimized by maximizing
    |b_r^H Y X^H b_t|^2 / (n_rx b_t^H X X^H b_t).

    Both quadratic forms are contracted through the thin SVD X = U S V^H,
    keeping the k singular values above numpy's matrix_rank tolerance
    s_max * max(X.shape) * eps:

        b_t^H X X^H b_t = ||S_k U_k^H b_t||^2,
        b_r^H Y X^H b_t = (V_k^H Y^H b_r)^H (S_k U_k^H b_t),

    so scoring costs 2 k n multiply-adds per grid point instead of 2 n^2
    (k = 1 for a single probing beam, k = n_tx for a full-rank probe).
    """
    if grid is None:
        grid = default_grid(geom)
    X = echo.X
    U, s, Vh = np.linalg.svd(X, full_matrices=False)
    k = int(np.count_nonzero(s > s[0] * max(X.shape) * np.finfo(float).eps))
    T = s[:k, None] * U[:, :k].conj().T      # S_k U_k^H,   k x n_tx
    Q = Vh[:k] @ echo.Y.conj().T             # V_k^H Y^H,   k x n_rx

    def likelihood(bt, br):
        """(b_r^H Y X^H b_t, n_rx b_t^H X X^H b_t) per column of bt and br."""
        a = T @ bt
        return np.sum((Q @ br).conj() * a, axis=0), geom.n_rx * _abs2(a).sum(axis=0)

    def at_point(r, phi):
        """(score, mu) at one point."""
        corr, energy = likelihood(geometry.steering_vector(geom, r, phi, side="tx"),
                                  geometry.steering_vector(geom, r, phi, side="rx"))
        energy = max(energy, 1e-300)
        return _abs2(corr) / energy, complex(corr / energy)

    corr, energy = likelihood(_grid_steering(geom, grid, "tx")[0],
                              _grid_steering(geom, grid, "rx")[0])
    score = (_abs2(corr) / np.maximum(energy, 1e-300)).reshape(grid.n_r, grid.n_phi)
    rs, phis = grid.distances(), grid.angles()
    ir, ip = np.unravel_index(np.argmax(score), score.shape)
    r_hat, phi_hat = _refine(score, ir, ip, rs, phis)
    # keep the refinement only when it actually improves the likelihood,
    # so exact on-grid truths are returned untouched
    refined, mu = at_point(r_hat, phi_hat)
    if refined < score[ir, ip]:
        r_hat, phi_hat = float(rs[ir]), float(phis[ip])
        mu = at_point(r_hat, phi_hat)[1]
    return r_hat, phi_hat, mu


def music_2d(echo, geom, grid=None):
    """2D MUSIC location estimate from the echo sample covariance.

    Single-target variant: the signal subspace is the dominant eigenvector
    u_1 of (1/L) Y Y^H and the pseudo-spectrum is the inverse squared noise
    subspace projection ||E_n^H b_r||^2 of the receive steering vector.
    The eigenvectors are orthonormal, so over the grid that projection is
    ||b_r||^2 - |u_1^H b_r|^2, one n_rx-vector product per point with the
    column norms ||b_r||^2 cached next to the grid.  The difference loses
    the digits that separate a noiseless peak from its neighbours, so the
    3x3 cells the refinement reads, and the refined point, are scored with
    E_n itself.
    """
    if geom.n_rx < 2:
        raise InvalidArgumentError("subspace method needs at least two receive elements")
    if echo.Y.shape[1] < 2:
        raise InvalidArgumentError("need more than one snapshot")
    if grid is None:
        grid = default_grid(geom)
    L = echo.Y.shape[1]
    R = echo.Y @ echo.Y.conj().T / L
    _, vecs = np.linalg.eigh(R)
    En = vecs[:, :-1]  # all but the largest-eigenvalue direction

    def spectrum(br):
        return 1.0 / np.maximum(_abs2(En.conj().T @ br).sum(axis=0), 1e-300)

    Br, Br_sq = _grid_steering(geom, grid, "rx")
    proj = Br_sq - _abs2(vecs[:, -1].conj() @ Br)
    score = (1.0 / np.maximum(proj, 1e-300)).reshape(grid.n_r, grid.n_phi)
    rs, phis = grid.distances(), grid.angles()
    ir, ip = np.unravel_index(np.argmax(score), score.shape)
    rows, cols = slice(max(ir - 1, 0), ir + 2), slice(max(ip - 1, 0), ip + 2)
    cells = Br.reshape(-1, grid.n_r, grid.n_phi)[:, rows, cols]
    score[rows, cols] = spectrum(cells.reshape(len(Br), -1)).reshape(cells.shape[1:])
    r_hat, phi_hat = _refine(score, ir, ip, rs, phis)
    refined = spectrum(geometry.steering_vector(geom, r_hat, phi_hat, side="rx"))
    if refined < score[ir, ip]:
        r_hat, phi_hat = float(rs[ir]), float(phis[ip])
    return r_hat, phi_hat


def lmmse_trm(echo, prior_variance, noise_power=None):
    """Linear MMSE estimate of the extended-target response matrix.

    The vectorized estimator contracts through the Kronecker identity to
    B_hat = sigma_beta^2 Y X^H (sigma_beta^2 X X^H + sigma^2 I)^{-1},
    so only an n_tx x n_tx system is solved.
    """
    if prior_variance <= 0:
        raise InvalidArgumentError("prior variance must be positive")
    if noise_power is None:
        noise_power = echo.noise_power
    X, Y = echo.X, echo.Y
    n_tx = X.shape[0]
    A = prior_variance * (X @ X.conj().T) + noise_power * np.eye(n_tx)
    if noise_power == 0:
        # noiseless limit: pseudo-inverse of the probing Gram matrix
        return prior_variance * Y @ X.conj().T @ np.linalg.pinv(A, rcond=1e-12, hermitian=True)
    return prior_variance * np.linalg.solve(A.conj().T, (Y @ X.conj().T).conj().T).conj().T
