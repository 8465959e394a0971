"""Echo simulation and estimator baselines for validating the bounds.

Point target: concentrated maximum likelihood and 2D MUSIC, each the
argmax of a coarse (distance, angle) search grid refined on two local
grids and a quadratic vertex fit (_search).  The search runs over a batch
of scores at once: mle_points estimates a batch of echoes with one call
of the local scoring per zoom step, each echo getting the estimate that
mle_point, a batch of one, gives it.  Extended target: linear MMSE
estimate of the target response matrix, computed through the Kronecker
identity so only n_tx-sized solves occur.

Steering vectors are cached per aperture (element count, spacing,
wavelength) and grid: the coarse grid's, and beside it those of the
multi-point local windows, keyed by the bytes of each window's distances
and angles.  Monte Carlo trials of one target revisit a few windows (12
after 1,000 desk trials of MLE and MUSIC, 0.25 MB; 4 after 200 paper
trials, 0.33 MB), so each is steered once.  The windows of a grid may take
WINDOW_SHARE of its bytes, the oldest dropped first; single points, the
vertex checks and the MLE's final mu, are always steered afresh.
"""

import functools
import math
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
    unit-variance circular Gaussian symbols; N has noise_power per entry.
    """
    W = np.asarray(W, dtype=complex)
    if W.ndim != 2 or W.shape[0] != B.shape[1]:
        raise InvalidArgumentError("beamformer must be a matrix with one row per transmit antenna")
    K = W.shape[1]
    if L < K:
        raise InvalidArgumentError("frame length must be at least the stream count")
    if not 0 <= noise_power < math.inf:
        raise InvalidArgumentError("noise power must be finite and nonnegative")
    # the real then imaginary parts of S, then of N, scaled by the real
    # factor numpy's complex arithmetic applies: it divides by sqrt(2) + 0j
    # as a product with 1 / sqrt(2)
    parts = rng.standard_normal((2, K, L))
    parts *= 1.0 / np.sqrt(2.0)
    S = np.empty((K, L), dtype=complex)
    S.real, S.imag = parts
    X = W @ S
    Y = B @ X
    if noise_power > 0:
        parts = rng.standard_normal((2,) + Y.shape)
        parts *= np.sqrt(noise_power / 2.0)
        Y.real += parts[0]
        Y.imag += parts[1]
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

    @functools.cached_property
    def _cells(self):
        """Cell widths (log-distance, angle) as floats, computed once per grid."""
        rs, phis = self._axes
        return float(np.log(rs[1] / rs[0])), float(phis[1] - phis[0])

    def distances(self):
        """The n_r grid distances (read-only, computed once per grid)."""
        return self._axes[0]

    def angles(self):
        """The n_phi grid angles, open interval (-pi/2, pi/2) (read-only)."""
        return self._axes[1]


def default_grid(geom):
    r_max = 1.5 * geometry.rayleigh_distance(geom)
    return GridSpec(r_min=min(0.5, 0.25 * r_max), r_max=r_max,
                    n_r=50, n_phi=91)


_GRID_CACHE = {}
_GRID_LOCK = threading.Lock()

#: share of a coarse grid's steering bytes that the local windows refining
#: it may hold in the cache, the oldest dropped first
WINDOW_SHARE = 0.25


def _product_steering(geom, rs, phis, side):
    """Steering vectors over the product grid rs x phis, one column per point."""
    B = geometry.steering_vectors(geom, rs[:, None], phis[None, :], side)
    return B.reshape(B.shape[0], -1)


def _grid_key(geom, grid, side):
    """Cache key of the side's aperture and the grid.

    An aperture is its element count, spacing and wavelength: the element
    offsets are geometry.element_offsets of the count.
    """
    return geom.n_tx if side == "tx" else geom.n_rx, geom.spacing, geom.wavelength, grid


def _grid_steering(geom, grid, side):
    """Steering vectors over the flattened grid and their squared norms.

    Returns the (n, n_r * n_phi) matrix B and the vector ||b||^2 of its
    columns.  Grids are cached by aperture rather than by side, so equal
    tx and rx arrays share one grid; the lock keeps callers that estimate
    from several threads from building the same grid twice.  B is one
    broadcast over the whole grid, exponentiated in place, so a build
    peaks at about twice the bytes it caches.
    """
    key = _grid_key(geom, grid, side)
    with _GRID_LOCK:
        if key not in _GRID_CACHE:
            B = _product_steering(geom, grid.distances(), grid.angles(), side)
            _GRID_CACHE[key] = B, _abs2(B).sum(axis=0)
        return _GRID_CACHE[key]


def _window_steering(geom, grid, side, rs, phis):
    """_product_steering of each local window rs[w] x phis[w] refining the grid.

    rs and phis are (windows, m) and (windows, p); returns one read-only
    (n, m * p) matrix per window.  The matrices are cached beside the
    grid's, per aperture like it, under the exact bytes of the window's
    distances and angles, so a search that revisits a window reads the
    columns it computed before.  The windows of one grid may hold
    WINDOW_SHARE of the grid's own bytes, the oldest dropped first.
    """
    key = _grid_key(geom, grid, side) + ("windows",)
    with _GRID_LOCK:
        windows = _GRID_CACHE.setdefault(key, {})
        out = []
        for r, phi in zip(rs, phis):
            window = r.tobytes() + phi.tobytes()
            B = windows.get(window)
            if B is None:
                B = windows[window] = _product_steering(geom, r, phi, side)
                B.flags.writeable = False
                budget = WINDOW_SHARE * key[0] * grid.n_r * grid.n_phi * B.itemsize
                while sum(b.nbytes for b in windows.values()) > budget:
                    del windows[next(iter(windows))]
            out.append(B)
    return out


def _abs2(z):
    """Elementwise |z|^2, without the square root np.abs takes."""
    out = z.real**2
    out += z.imag**2
    return out


#: points per axis of each local grid, local grids scored per search, and
#: the first local grid's half-width in coarse cells (distance, angle)
ZOOM_POINTS = 9
ZOOM_STEPS = 2
ZOOM_SPAN = (2.0, 1.0)


def _vertex(score, jr, jp):
    """Offset of the score's local quadratic vertex from the grid point (jr, jp).

    The quadratic interpolates the 3x3 neighborhood of (jr, jp), cross term
    included, so the vertex follows a ridge that is not aligned with the
    axes.  On the grid's edge, or where the neighborhood is not strictly
    concave, each interior axis gets its own parabola instead.  The offset
    is a pair of floats, in cells of the grid along (distance, angle).
    Python floats carry numpy's IEEE arithmetic without its per-scalar cost.
    """
    n_r, n_phi = score.shape
    i0, j0 = max(jr - 1, 0), max(jp - 1, 0)
    rows = score[i0:jr + 2, j0:jp + 2].tolist()
    # the rows before, at and after jr, and in each the columns before, at
    # and after jp; those before and after are read on interior axes only
    up, at, down = rows[0], rows[jr - i0], rows[-1]
    jm, j, jq = jp - j0 - 1, jp - j0, jp - j0 + 1
    f0 = at[j]
    inner_r, inner_p = 0 < jr < n_r - 1, 0 < jp < n_phi - 1
    if inner_r and inner_p:
        gr = 0.5 * (down[j] - up[j])
        gp = 0.5 * (at[jq] - at[jm])
        hrr = down[j] - 2.0 * f0 + up[j]
        hpp = at[jq] - 2.0 * f0 + at[jm]
        hrp = 0.25 * (down[jq] - down[jm] - up[jq] + up[jm])
        det = hrr * hpp - hrp * hrp
        if hrr < 0 and det > 0:
            return (hrp * gp - hpp * gr) / det, (hrp * gr - hrr * gp) / det

    def parabola(fm, fp):
        den = fm - 2.0 * f0 + fp
        if den >= -1e-300:  # not a strict local max along this axis
            return 0.0
        return 0.5 * (fm - fp) / den

    return (parabola(up[j], down[j]) if inner_r else 0.0,
            parabola(at[jm], at[jq]) if inner_p else 0.0)


def _zoom(grid, ir, ip):
    """One search of _search from the coarse argmax (ir, ip), a step at a time.

    A generator.  Each step it yields the local grid to score, per axis
    (distance, angle) the first and last multiple of the step's cell, in
    cells, and the cell, in coarse cells; it is sent the grid's
    ZOOM_POINTS x ZOOM_POINTS scores and the flat index of their first
    maximum.  It then yields the vertex it would take, as (distance, angle)
    offsets in coarse cells, and is sent the vertex's score.  Last it
    yields the estimate's offsets.  Offsets are Python floats, whose
    arithmetic is numpy's IEEE arithmetic at a fraction of the call cost on
    a pair.
    """
    # per axis (distance, angle): the offsets the search may reach
    lo_r, hi_r = float(max(-ir, -ZOOM_SPAN[0])), float(min(grid.n_r - 1 - ir, ZOOM_SPAN[0]))
    lo_p, hi_p = float(max(-ip, -ZOOM_SPAN[1])), float(min(grid.n_phi - 1 - ip, ZOOM_SPAN[1]))
    mid_r, mid_p = 0.0, 0.0
    half_r, half_p = ZOOM_SPAN
    for _ in range(ZOOM_STEPS):
        cr, cp = half_r / ((ZOOM_POINTS - 1) // 2), half_p / ((ZOOM_POINTS - 1) // 2)
        # the first and last multiple of the cell within half of mid and
        # within reach; points sit at multiples of each grid's cell, exact
        # binary fractions, so the argmax is on every grid that covers it
        fr = math.ceil(max(lo_r, mid_r - half_r) / cr)
        lr = math.floor(min(hi_r, mid_r + half_r) / cr)
        fp = math.ceil(max(lo_p, mid_p - half_p) / cp)
        lp = math.floor(min(hi_p, mid_p + half_p) / cp)
        local, j = yield (fr, lr, cr), (fp, lp, cp)
        jr, jp = divmod(j, ZOOM_POINTS)
        window = local[:lr - fr + 1, :lp - fp + 1]
        best_r, best_p = cr * (fr + jr), cp * (fp + jp)
        vr, vp = _vertex(window, jr, jp)
        shift_r, shift_p = cr * vr, cp * vp
        w = min(max(best_r + shift_r, lo_r), hi_r), min(max(best_p + shift_p, lo_p), hi_p)
        if (yield w) < window[jr, jp]:
            w, shift_r, shift_p = (best_r, best_p), 0.0, 0.0
        mid_r = min(max(best_r + round(shift_r / cr) * cr, lo_r), hi_r)
        mid_p = min(max(best_p + round(shift_p / cp) * cp, lo_p), hi_p)
        half_r, half_p = cr, cp
    yield w


def _search(grid, coarse, score):
    """Coarse-to-fine maximum (r, phi) of a score over the search grid.

    coarse holds the score at the grid points, shape batch + (n_r, n_phi)
    for any leading batch shape, one search per entry of the batch.
    score(rs, phis) scores the product grids of distances rs and angles
    phis, shapes batch + (m,) and batch + (p,), and returns batch + (m, p).
    Each of ZOOM_STEPS steps scores a local grid of up to ZOOM_POINTS x
    ZOOM_POINTS points in (log r, phi) and takes the _vertex at its best
    point when the vertex scores higher than that point.  The first grid
    spans ZOOM_SPAN coarse cells on either side of the coarse argmax, each
    later one a cell of the last grid on either side of the last grid's
    point nearest the vertex taken.  The vertex, not the best point, sets
    the next grid because the score's ridge is tilted in (log r, phi): on an
    angle a little off the peak, the best distance lies cells away from the
    peak's.  The estimate is the last vertex taken, or the last best point,
    so exact on-grid truths are returned untouched.  Local grids are cut off
    at the search grid's edges and at ZOOM_SPAN, so the estimate stays
    within ZOOM_SPAN coarse cells of the argmax however the score rises
    beyond.

    Every search of the batch scores a full ZOOM_POINTS x ZOOM_POINTS
    window per step, all in one call of score.  The points a cut-off grid
    lacks repeat its last point, which moves no first maximum, and _vertex
    fits on the cut-off grid alone, so each search of a batch returns what
    it returns by itself.  Each search runs as a _zoom; this function only
    turns their offsets into points and scores them, and _search_one does
    so for a 2-D coarse.  Returns (r_hat, phi_hat) of the batch's shape,
    floats for an empty batch shape.
    """
    batch = coarse.shape[:-2]
    if not batch:
        return _search_one(grid, coarse, score)
    rs, phis = grid.distances(), grid.angles()
    ir, ip = np.divmod(coarse.reshape(-1, grid.n_r * grid.n_phi).argmax(axis=1), grid.n_phi)
    r0, phi0 = rs[ir][:, None], phis[ip][:, None]
    step_r, step_p = grid._cells

    def points(u):
        """(r, phi) at offsets u, (search, axis, point), from each argmax in coarse cells."""
        return ((r0 * np.exp(u[:, 0] * step_r)).reshape(batch + (-1,)),
                (phi0 + u[:, 1] * step_p).reshape(batch + (-1,)))

    zooms = [_zoom(grid, i, j) for i, j in zip(ir.tolist(), ip.tolist())]
    asks = [next(z) for z in zooms]
    offsets = np.arange(ZOOM_POINTS)
    for _ in range(ZOOM_STEPS):
        # (first, last, cell) per search and axis; a cut-off local grid
        # repeats its last point
        index = np.array(asks)
        u = index[..., 2:] * np.minimum(index[..., :1] + offsets, index[..., 1:2])
        local = score(*points(u)).reshape(-1, ZOOM_POINTS, ZOOM_POINTS)
        firsts = local.reshape(len(zooms), -1).argmax(axis=1).tolist()
        asks = [z.send(pair) for z, pair in zip(zooms, zip(local, firsts))]
        checks = score(*points(np.array(asks)[..., None])).reshape(-1).tolist()
        asks = [z.send(check) for z, check in zip(zooms, checks)]
    r_hat, phi_hat = points(np.array(asks)[..., None])
    return r_hat.reshape(batch)[()], phi_hat.reshape(batch)[()]


def _search_one(grid, coarse, score):
    """_search of one (n_r, n_phi) coarse score: the same _zoom, its points from lists.

    One search spends most of its time on numpy calls on a few numbers, so
    its offsets stay Python floats up to one exponential and one array per
    scoring.
    """
    ir, ip = divmod(int(coarse.argmax()), grid.n_phi)
    r0, phi0 = float(grid.distances()[ir]), float(grid.angles()[ip])
    step_r, step_p = grid._cells

    def points(us, vs):
        """(r, phi) arrays at distance offsets us and angle offsets vs, in coarse cells."""
        return np.exp([u * step_r for u in us]) * r0, np.array([phi0 + v * step_p for v in vs])

    zoom = _zoom(grid, ir, ip)
    ask = next(zoom)
    for _ in range(ZOOM_STEPS):
        (fr, lr, cr), (fp, lp, cp) = ask
        local = score(*points([cr * min(fr + k, lr) for k in range(ZOOM_POINTS)],
                              [cp * min(fp + k, lp) for k in range(ZOOM_POINTS)]))
        wr, wp = zoom.send((local, int(local.argmax())))
        ask = zoom.send(score(*points([wr], [wp]))[0, 0])
    (r_hat,), (phi_hat,) = points([ask[0]], [ask[1]])
    return float(r_hat), float(phi_hat)


def _rank_k_factors(echo):
    """(S_k U_k^H, V_k^H Y^H) of the echo's thin probe SVD X = U S V^H (see mle_points)."""
    X = echo.X
    U, s, Vh = np.linalg.svd(X, full_matrices=False)
    k = int(np.count_nonzero(s > s[0] * max(X.shape) * np.finfo(float).eps))
    return s[:k, None] * U[:, :k].conj().T, Vh[:k] @ echo.Y.conj().T


def mle_points(echoes, geom, grid=None):
    """Concentrated maximum likelihood estimates (r, phi, mu) of a point target per echo.

    For each grid point the reflection coefficient has the closed form
    mu(r, phi) = Tr(A^H Y X^H) / ||A X||_F^2 with A = b_r b_t^H, so the
    residual ||Y - mu A X||_F^2 is minimized by maximizing
    |b_r^H Y X^H b_t|^2 / (n_rx b_t^H X X^H b_t), searched by _search.

    Both quadratic forms are contracted through the thin SVD X = U S V^H,
    keeping the k singular values above numpy's matrix_rank tolerance
    s_max * max(X.shape) * eps:

        b_t^H X X^H b_t = ||S_k U_k^H b_t||^2,
        b_r^H Y X^H b_t = (V_k^H Y^H b_r)^H (S_k U_k^H b_t),

    so scoring costs 2 k n multiply-adds per grid point instead of 2 n^2
    (k = 1 for a single probing beam, k = n_tx for a full-rank probe).

    echoes is read once, so a generator keeps only the probe factors of
    the echoes it yields.  Each echo is scored on the coarse grid by
    itself; the local grids of all echoes are searched together, one
    steering broadcast and one likelihood per group of echoes of equal k at
    each step, and each echo's estimate is the one it gets alone.  Returns
    arrays r, phi and mu, one entry per echo.
    """
    if grid is None:
        grid = default_grid(geom)
    factors = [_rank_k_factors(echo) for echo in echoes]
    if not factors:
        return np.empty(0), np.empty(0), np.empty(0, dtype=complex)
    groups = {}
    for e, (T, _) in enumerate(factors):
        groups.setdefault(len(T), []).append(e)
    # (echoes, S_k U_k^H, V_k^H Y^H) per rank k; a lone rank takes all echoes by a view
    stacks = [(slice(None) if len(groups) == 1 else np.array(members),
               np.stack([factors[e][0] for e in members]),
               np.stack([factors[e][1] for e in members]))
              for members in groups.values()]

    def likelihood(T, Q, bt, br):
        """(b_r^H Y X^H b_t, n_rx b_t^H X X^H b_t) per column of bt and br."""
        a = T @ bt
        return np.sum((Q @ br).conj() * a, axis=-2), geom.n_rx * _abs2(a).sum(axis=-2)

    def steering(rs, phis, side):
        """Steering vectors over each echo's product grid rs x phis, (echo, n, point).

        Contiguous per echo, so each echo's products take the BLAS path its
        own call takes: numpy multiplies a strided single column without BLAS.
        Local windows come from the window cache; single points, the vertex
        checks and the final mu, are computed afresh.
        """
        if rs.shape[1] * phis.shape[1] > 1:
            return np.stack(_window_steering(geom, grid, side, rs, phis))
        B = geometry.steering_vectors(geom, rs[:, :, None], phis[:, None, :], side)
        return np.ascontiguousarray(B.reshape(B.shape[0], len(rs), -1).transpose(1, 0, 2))

    def local(rs, phis):
        """likelihood() over each echo's product grid rs x phis, (echo, point)."""
        bt = steering(rs, phis, "tx")
        br = bt if geom.n_rx == geom.n_tx else steering(rs, phis, "rx")
        corr = np.empty(bt.shape[::2], dtype=complex)
        energy = np.empty(bt.shape[::2])
        for members, T, Q in stacks:
            corr[members], energy[members] = likelihood(T, Q, bt[members], br[members])
        return corr, energy

    def score(corr, energy):
        out = _abs2(corr)
        out /= np.maximum(energy, 1e-300)
        return out

    Bt, Br = _grid_steering(geom, grid, "tx")[0], _grid_steering(geom, grid, "rx")[0]
    coarse = np.empty((len(factors), grid.n_r, grid.n_phi))
    for e, (T, Q) in enumerate(factors):
        coarse[e] = score(*likelihood(T, Q, Bt, Br)).reshape(grid.n_r, grid.n_phi)
    r_hat, phi_hat = _search(grid, coarse, lambda rs, phis: score(*local(rs, phis))
                             .reshape(rs.shape + phis.shape[-1:]))
    corr, energy = local(r_hat[:, None], phi_hat[:, None])
    return r_hat, phi_hat, corr[:, 0] / np.maximum(energy[:, 0], 1e-300)


def mle_point(echo, geom, grid=None):
    """mle_points of the one echo: (r, phi, mu) as floats and a complex."""
    (r_hat,), (phi_hat,), (mu,) = mle_points([echo], geom, grid)
    return float(r_hat), float(phi_hat), complex(mu)


def music_2d(echo, geom, grid=None):
    """2D MUSIC location estimate from the echo sample covariance.

    Single-target variant: the signal subspace is the dominant eigenvector
    u_1 of (1/L) Y Y^H, and the estimate maximizes the negated squared
    noise subspace projection -||E_n^H b_r||^2 of the receive steering
    vector, searched by _search.  Its argmax is that of the usual
    pseudo-spectrum 1/||E_n^H b_r||^2, but it is smooth where the
    pseudo-spectrum is sharply peaked, so the vertex fit on it is not
    biased.  The eigenvectors are orthonormal, so over the grid the
    projection is ||b_r||^2 - |u_1^H b_r|^2, one n_rx-vector product per
    point with the column norms ||b_r||^2 cached next to the grid.  The
    difference loses the digits that separate a noiseless peak from its
    neighbours, so the local grids and their vertices are scored with E_n
    itself.
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
    EnH = vecs[:, :-1].conj().T  # all but the largest-eigenvalue direction

    def local(rs, phis):
        if len(rs) * len(phis) > 1:
            (B,) = _window_steering(geom, grid, "rx", rs[None], phis[None])
        else:  # a vertex check, as one column
            B = geometry.steering_vectors(geom, rs[0], phis[0], "rx")[:, None]
        proj = _abs2(EnH @ B).sum(axis=0)
        return -proj.reshape(len(rs), len(phis))

    Br, Br_sq = _grid_steering(geom, grid, "rx")
    coarse = _abs2(vecs[:, -1].conj() @ Br)
    coarse -= Br_sq
    r_hat, phi_hat = _search(grid, coarse.reshape(grid.n_r, grid.n_phi), local)
    return float(r_hat), float(phi_hat)


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
