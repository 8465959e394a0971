"""First-order operator-splitting solver for the conic programs in model.py.

Standard form after assembly:

    minimize    c . x
    subject to  A x + s = b,   s in K = {0}^p x R+^q x PSD(m_1) x ... x PSD(m_B)

solved by ADMM on the splitting (x, s): the x-update solves with the
regularized normal matrix sigma*I + rho*A^T A, the s-update is a Euclidean
projection onto K (eigenvalue clipping per PSD block), and the scaled
multiplier accumulates the residual.  assemble is the one realification
path: it doubles each complex Hermitian block into a real symmetric one
(model.realify_matrix) while it emits the rows.  Symmetric matrices travel
through the cone interface in scaled upper-triangular (svec) form so the PSD
cone is self-dual under the plain dot product, and project_cone serves K* as
well once the zero rows are left free.

Each iteration is a few dense kernels on data prepared once:
  - the x-update multiplies by the inverse of sigma*I + rho*A^T A, computed
    in place (Cholesky, then inversion) once per value of rho; programs with
    more than DENSE_LIMIT unknowns keep a sparse LU factorization instead;
  - products with A and A^T hold A's dense rows as one dense array;
  - project_cone maps each block's svec slice to its matrix through index
    arrays built once per StandardForm.  A realified block is projected as
    the n x n complex Hermitian matrix it represents, which costs about
    half the 2n x 2n real eigendecomposition; ADMM iterates stay realified,
    so this is the projection onto the real PSD cone.  Blocks of one side and
    kind share one batched eigendecomposition.

Data is Ruiz-equilibrated first with one uniform scale factor per PSD block
(row scaling must not break cone membership).  Convergence is declared on
unscaled KKT residuals; primal infeasibility is detected from an approximate
ray certificate and is heuristic, not a proof.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from . import model as mdl
from .model import SQRT2

#: initial ADMM penalty rho; doubled or halved to rebalance the residuals
RHO = 1.0
#: proximal regularization sigma of the x-update
SIGMA = 1e-6
#: over-relaxation factor
ALPHA = 1.6
#: iterations between residual checks
CHECK_EVERY = 25
#: largest x dimension factored densely (Cholesky); larger ones use splu
DENSE_LIMIT = 2500


# ---------------------------------------------------------------------------
# svec / smat


def svec_indices(m):
    iu = np.triu_indices(m)
    mult = np.where(iu[0] == iu[1], 1.0, SQRT2)
    return iu, mult


def svec(M, cache):
    iu, mult = cache
    return M[iu] * mult


def smat(v, m, cache):
    iu, mult = cache
    M = np.zeros((m, m))
    M[iu] = v / mult
    return M + M.T - np.diag(np.diag(M))


def svec_position(m, i, j):
    """Index of entry (i, j), i <= j, in the svec ordering of np.triu_indices."""
    # rows laid out i = 0..m-1, row i holds columns i..m-1
    return i * m - i * (i - 1) // 2 + (j - i)


# ---------------------------------------------------------------------------
# assembly


@dataclass
class StandardForm:
    c: np.ndarray
    A: scipy.sparse.csr_matrix
    b: np.ndarray
    n_zero: int
    n_nonneg: int
    psd_sides: list
    psd_slices: list
    psd_complex: list   # per block: True when it realifies a complex Hermitian block
    n_x: int
    offsets: dict
    psd_groups: list = field(init=False)

    def __post_init__(self):
        self.psd_groups = _psd_groups(self)


def _expr_entries(expr, offsets):
    """(global param indices, coefficients) of the nonzero terms of a LinExpr."""
    cols, vals = [], []
    for name, coeffs in expr.terms.items():
        nz = np.nonzero(coeffs)[0]
        cols.append(offsets[name].start + nz)
        vals.append(coeffs[nz])
    if not cols:
        return np.zeros(0, dtype=int), np.zeros(0)
    return np.concatenate(cols), np.concatenate(vals)


def _var_entries(var, offset, m, complex_block):
    """Block positions (i, j), i <= j, and coefficients of a variable's basis.

    Row p of each array belongs to basis element p; a complex block holds two
    entries per element (the realified copies), a real block one.
    """
    n = var.side
    inv = 1.0 / SQRT2
    d = np.arange(n) + offset
    a, b = mdl.pair_indices(n)
    a, b = a + offset, b + offset
    i = np.concatenate([d, a])
    j = np.concatenate([d, b])
    coeff = np.concatenate([np.ones(n), np.full(a.size, inv)])
    if not complex_block:   # ConicProgram keeps Hermitian variables out of real blocks
        return i[:, None], j[:, None], coeff[:, None]
    i2, j2, c2 = m + i, m + j, coeff
    if var.hermitian:
        # i (E_ab - E_ba)/sqrt(2) realifies into the off-diagonal
        # quadrants: -Im top-right, +Im bottom-left
        i = np.concatenate([i, a])
        j = np.concatenate([j, m + b])
        coeff = np.concatenate([coeff, np.full(a.size, -inv)])
        i2 = np.concatenate([i2, b])
        j2 = np.concatenate([j2, m + a])
        c2 = np.concatenate([c2, np.full(a.size, inv)])
    return np.stack([i, i2], 1), np.stack([j, j2], 1), np.stack([coeff, c2], 1)


def _psd_block_rows(block, program, offsets, row0, rows, cols, vals, b_parts):
    """Append A/b entries for one PSD block; returns the realified side."""
    complex_block = block.complex_valued
    m = block.side
    side = 2 * m if complex_block else m

    const = mdl.realify_matrix(block.const) if complex_block else block.const.astype(float).copy()

    def emit(i, j, param, coeff):
        # s = svec(const) + sum_p x_p svec(M_p) and A x + s = b
        rows.append(row0 + svec_position(side, i, j))
        cols.append(param)
        vals.append(-coeff * np.where(i == j, 1.0, SQRT2))

    for term in block.terms:
        if term[0] == "var":
            _, name, offset = term
            i, j, coeff = _var_entries(program.variables[name], offset, m, complex_block)
            param = np.broadcast_to(offsets[name].start + np.arange(len(i))[:, None], i.shape)
            emit(i.ravel(), j.ravel(), param.ravel(), coeff.ravel())
        else:
            _, i, j, expr = term
            i, j = min(i, j), max(i, j)
            places = [(i, j)]
            if complex_block:
                places.append((m + i, m + j))
            gp, coeff = _expr_entries(expr, offsets)
            for (pi, pj) in places:
                const[pi, pj] += expr.const
                if pi != pj:
                    const[pj, pi] += expr.const
                emit(np.full(gp.size, pi), np.full(gp.size, pj), gp, coeff)

    cache = svec_indices(side)
    if complex_block:
        const = 0.5 * (const + const.T)
    b_parts.append(svec(const, cache))
    return side


def assemble(program):
    """Flatten a ConicProgram into sparse standard conic form."""
    n_x, offsets = program.param_layout()
    c = program.expr_vector(program.objective, n_x, offsets)

    rows, cols, vals = [], [], []

    def emit_rows(exprs, row0, sign):
        for r, expr in enumerate(exprs):
            gp, coeff = _expr_entries(expr, offsets)
            rows.append(np.full(gp.size, row0 + r))
            cols.append(gp)
            vals.append(sign * coeff)

    # zero cone: expr = 0  ->  A = g, b = -const
    # nonneg cone: s = expr >= 0  ->  A = -g, b = const
    n_zero = len(program.eq_constraints)
    n_nonneg = len(program.ineq_constraints)
    emit_rows(program.eq_constraints, 0, 1.0)
    emit_rows(program.ineq_constraints, n_zero, -1.0)
    b_parts = [np.array([-e.const for e in program.eq_constraints]),
               np.array([e.const for e in program.ineq_constraints])]
    row = n_zero + n_nonneg

    psd_sides, psd_slices = [], []
    for block in program.psd_blocks:
        side = _psd_block_rows(block, program, offsets, row, rows, cols, vals, b_parts)
        n_rows = side * (side + 1) // 2
        psd_sides.append(side)
        psd_slices.append(slice(row, row + n_rows))
        row += n_rows

    def joined(parts, dtype):
        return np.concatenate(parts).astype(dtype) if parts else np.zeros(0, dtype=dtype)

    A = scipy.sparse.csr_matrix(
        (joined(vals, float), (joined(rows, int), joined(cols, int))), shape=(row, n_x))
    return StandardForm(c=c, A=A, b=joined(b_parts, float), n_zero=n_zero,
                        n_nonneg=n_nonneg, psd_sides=psd_sides, psd_slices=psd_slices,
                        psd_complex=[blk.complex_valued for blk in program.psd_blocks],
                        n_x=n_x, offsets=offsets)


# ---------------------------------------------------------------------------
# cone projections


@functools.lru_cache(maxsize=None)
def _psd_map(side, complex_block):
    """Index maps between a PSD block's svec slice v and the matrix projected.

    A real block is the side x side symmetric matrix itself.  A complex block
    is the realification [[Re H, -Im H], [Im H, Re H]] of an n x n Hermitian
    H, n = side / 2, and is projected as H: each entry of H averages its two
    realified copies, which is the orthogonal projection onto realified
    matrices.

    Returns (n, gather, weights, scatter, scatter_weights): the matrix, as
    floats (real and imaginary parts interleaved for H), is
    sum_k v[gather[k]] * weights[k], and the svec of a projection P is
    P.view(float).ravel()[scatter] * scatter_weights.  Cached and shared,
    so the arrays are read-only.
    """
    n = side // 2 if complex_block else side
    a, b = np.divmod(np.arange(n * n), n)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    mult = np.where(lo == hi, 1.0, SQRT2)
    (iu, ju), svec_mult = svec_indices(side)
    if not complex_block:
        return _read_only(n, svec_position(side, lo, hi)[None, :], (1.0 / mult)[None, :],
                          iu * n + ju, svec_mult)
    gather = np.empty((2, 2 * n * n), dtype=int)
    weights = np.empty((2, 2 * n * n))
    gather[:, 0::2] = svec_position(side, lo, hi), svec_position(side, n + lo, n + hi)
    weights[:, 0::2] = 0.5 / mult
    # Im H[a, b] is +M[n + a, b] (stored at (b, n + a)) and -M[a, n + b]
    gather[:, 1::2] = svec_position(side, b, n + a), svec_position(side, a, n + b)
    weights[0, 1::2] = 0.5 / SQRT2
    weights[1, 1::2] = -0.5 / SQRT2

    # svec entry (i, j): Re P in the diagonal quadrants, -Im P[i, j - n] in
    # the top-right one
    mixed = (iu < n) & (ju >= n)
    scatter = 2 * ((iu % n) * n + ju % n) + mixed
    scatter_weights = np.where(mixed, -SQRT2, svec_mult)
    return _read_only(n, gather, weights, scatter, scatter_weights)


def _read_only(n, *arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return (n, *arrays)


def _psd_groups(form):
    """Index maps of the PSD blocks, stacked per (side, complex) group.

    Each group is (n, complex, gather, weights, dst, src, src_weights) with
    the _psd_map arrays shifted to global svec positions (gather, dst) and
    to the group's stacked matrices (src).
    """
    members = {}
    for sl, side, cplx in zip(form.psd_slices, form.psd_sides, form.psd_complex):
        members.setdefault((side, cplx), []).append(sl)
    groups = []
    for (side, cplx), slices in members.items():
        n, gather, weights, scatter, scatter_weights = _psd_map(side, cplx)
        size = 2 * n * n if cplx else n * n
        groups.append((
            n, cplx,
            np.concatenate([gather + sl.start for sl in slices], axis=1),
            np.tile(weights, len(slices)),
            np.concatenate([np.arange(sl.start, sl.stop) for sl in slices]),
            np.concatenate([scatter + g * size for g in range(len(slices))]),
            np.tile(scatter_weights, len(slices)),
        ))
    return groups


def project_cone(v, form):
    """Euclidean projection onto K = {0}^p x R+^q x PSD(m_1) x ..., blocks in svec form.

    A complex block is projected onto the realified Hermitian PSD matrices,
    the part of the real PSD cone where every ADMM iterate lies.  Blocks of
    one side and kind share one batched eigendecomposition.
    """
    out = v.copy()
    out[: form.n_zero] = 0.0
    ng = slice(form.n_zero, form.n_zero + form.n_nonneg)
    out[ng] = np.maximum(out[ng], 0.0)
    for n, cplx, gather, weights, dst, src, src_weights in form.psd_groups:
        M = v[gather[0]] * weights[0]
        if cplx:
            M += v[gather[1]] * weights[1]
            M = M.view(complex)
        M = M.reshape(-1, n, n)
        w, V = np.linalg.eigh(M)
        if w.min() < 0:
            M = (V * np.maximum(w, 0.0)[:, None, :]) @ V.conj().swapaxes(1, 2)
        out[dst] = M.view(float).ravel()[src] * src_weights
    return out


# ---------------------------------------------------------------------------
# equilibration


def _row_group_scale(norms, form):
    """Per-row scale factors, uniform inside each PSD block."""
    d = norms.copy()
    for sl in form.psd_slices:
        seg = d[sl]
        mx = seg.max() if seg.size else 0.0
        d[sl] = mx
    return d


def ruiz_equilibrate(form, n_iter=10):
    A = form.A.tocsr(copy=True)
    m, n = A.shape
    rows = np.repeat(np.arange(m), np.diff(A.indptr))
    cols = A.indices
    D = np.ones(m)
    E = np.ones(n)
    for _ in range(n_iter):
        mag = np.abs(A.data)
        row_norms = np.zeros(m)
        np.maximum.at(row_norms, rows, mag)
        row_norms = _row_group_scale(row_norms, form)
        dr = 1.0 / np.sqrt(np.clip(row_norms, 1e-10, 1e10))
        col_norms = np.zeros(n)
        np.maximum.at(col_norms, cols, mag)
        dc = 1.0 / np.sqrt(np.clip(col_norms, 1e-10, 1e10))
        # A <- diag(dr) A diag(dc), entry by entry
        A.data *= dr[rows]
        A.data *= dc[cols]
        D *= dr
        E *= dc
    return A, D * form.b, E * form.c, D, E


# ---------------------------------------------------------------------------
# solver


@dataclass
class ConicSolution:
    status: str
    assignments: dict
    objective: float
    primal_residual: float
    dual_residual: float
    duality_gap: float
    iterations: int
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray

    @property
    def optimal(self):
        return self.status == "optimal"


class _RowSplit:
    """A for the ADMM products, its dense rows held as one dense array.

    A row is dense when more than half its entries are set.  In the design
    programs these are the power, SINR, energy-efficiency and Schur rows:
    a tenth of the rows, nearly all of the entries.
    """

    def __init__(self, A):
        m, n = A.shape
        self.csr = A
        self.shape = A.shape
        self.rows = np.flatnonzero(np.diff(A.indptr) > n // 2)
        keep = np.ones(m)
        keep[self.rows] = 0.0
        self.dense = A[self.rows].toarray()
        self.sparse = (scipy.sparse.diags(keep) @ A).tocsr()
        self.sparse.eliminate_zeros()
        self.sparse_T = self.sparse.T.tocsr()

    def dot(self, x):
        """A x."""
        out = self.sparse @ x
        out[self.rows] = self.dense @ x
        return out

    def tdot(self, y):
        """A^T y."""
        return self.sparse_T @ y + self.dense.T @ y[self.rows]

    def gram(self):
        """A^T A as a dense array."""
        G = self.dense.T @ self.dense
        S = (self.sparse_T @ self.sparse).tocoo()
        np.add.at(G, (S.row, S.col), S.data)
        return G


class _XSolver:
    """Cached solve of (sigma I + rho A^T A) x = rhs; refactors on rho change.

    Dense: the inverse itself, from an in-place Cholesky factorization and
    inversion (LAPACK potrf/potri), so a solve is one matrix-vector product.
    Sparse: a splu factorization.  A is a _RowSplit.
    """

    def __init__(self, A):
        self.n = A.shape[1]
        self.dense = self.n <= DENSE_LIMIT
        self.ATA = A.gram() if self.dense else (A.csr.T @ A.csr).tocsc()
        self.rho = None
        self.factor = np.empty((self.n, self.n), order="F") if self.dense else None

    def set_rho(self, rho):
        if self.rho == rho:
            return
        self.rho = rho
        if self.dense:
            # potrf and potri overwrite the Fortran-ordered buffer; the
            # inverse is left in its lower triangle, which symv reads
            Q = self.factor
            np.multiply(self.ATA, rho, out=Q)
            Q.flat[:: self.n + 1] += SIGMA
            _, info = scipy.linalg.lapack.dpotrf(Q, lower=1, clean=0, overwrite_a=1)
            if info == 0:
                _, info = scipy.linalg.lapack.dpotri(Q, lower=1, overwrite_c=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"x-update matrix not positive definite ({info})")
        else:
            Q = (self.rho * self.ATA + SIGMA * scipy.sparse.eye(self.n)).tocsc()
            self.factor = scipy.sparse.linalg.splu(Q)

    def solve(self, rhs):
        if self.dense:
            return scipy.linalg.blas.dsymv(1.0, self.factor, rhs, lower=1)
        return self.factor.solve(rhs)


def solve(program, tol=1e-6, max_iter=50000, warm_start=None, infeas_after=5000):
    """Solve a ConicProgram; returns a ConicSolution.

    warm_start: optional (x, s, y) triple in original (unscaled) coordinates,
    shapes must match the assembled problem or it is ignored.
    """
    form = assemble(program)
    A, b, c, D, E = ruiz_equilibrate(form)
    m, n = A.shape
    A0, b0, c0 = form.A, form.b, form.c
    norm_b = 1.0 + np.linalg.norm(b0)
    norm_c = 1.0 + np.linalg.norm(c0)

    rho = RHO
    x = np.zeros(n)
    s = np.zeros(m)
    u = np.zeros(m)
    if warm_start is not None:
        wx, ws, wy = warm_start
        if wx.shape == (n,) and ws.shape == (m,) and wy.shape == (m,):
            x = wx / E
            s = D * ws
            u = (wy / D) / rho

    op = _RowSplit(A)
    xsolver = _XSolver(op)
    xsolver.set_rho(rho)

    status = "max_iter"
    it = 0
    pri = dual = gap = np.inf
    y_prev_check = None
    for it in range(1, max_iter + 1):
        rhs = SIGMA * x - c + rho * op.tdot(b - s - u)
        x_new = xsolver.solve(rhs)
        Ax = op.dot(x_new)
        zeta = ALPHA * Ax - (1.0 - ALPHA) * (s - b)
        s = project_cone(b - zeta - u, form)
        u = u + zeta + s - b
        x = x_new

        if it % CHECK_EVERY == 0 or it == max_iter:
            x_orig = E * x
            s_orig = s / D
            y_orig = rho * (D * u)
            pri = np.linalg.norm(A0 @ x_orig + s_orig - b0) / norm_b
            dual = np.linalg.norm(c0 + A0.T @ y_orig) / norm_c
            cx = c0 @ x_orig
            by = b0 @ y_orig
            gap = abs(cx + by) / (1.0 + abs(cx) + abs(by))
            if pri <= tol and dual <= tol and gap <= tol:
                status = "optimal"
                break
            if it >= infeas_after and y_prev_check is not None and pri > 1e3 * tol:
                # project onto K* = R^p x R+^q x PSD: the zero rows are free
                step = y_orig - y_prev_check
                dy = project_cone(step, form)
                dy[: form.n_zero] = step[: form.n_zero]
                ndy = np.linalg.norm(dy)
                if ndy > 0:
                    if (np.linalg.norm(A0.T @ dy) <= 1e-7 * ndy
                            and b0 @ dy < -1e-9 * ndy):
                        status = "infeasible"
                        break
            y_prev_check = y_orig
            # adaptive step-size: rebalance the two residuals occasionally
            if it % (CHECK_EVERY * 8) == 0 and it < max_iter // 2:
                if pri > 10.0 * dual and rho < 1e6:
                    rho *= 2.0
                    u /= 2.0
                    xsolver.set_rho(rho)
                elif dual > 10.0 * pri and rho > 1e-6:
                    rho /= 2.0
                    u *= 2.0
                    xsolver.set_rho(rho)

    x_orig = E * x
    s_orig = s / D
    y_orig = rho * (D * u)
    assignments = program.split_solution(x_orig, form.offsets)
    objective = float(form.c @ x_orig + 0.0) + program.objective.const
    return ConicSolution(status=status, assignments=assignments, objective=objective,
                         primal_residual=float(pri), dual_residual=float(dual),
                         duality_gap=float(gap), iterations=it,
                         x=x_orig, y=y_orig, s=s_orig)
