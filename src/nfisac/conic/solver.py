"""First-order operator-splitting solver for the conic programs in model.py.

Standard form after assembly:

    minimize    c . x
    subject to  A x + s = b,   s in K = {0}^p x R+^q x PSD(m_1) x ... x PSD(m_B)

solved by ADMM on the splitting (x, s): the x-update solves with the
regularized normal matrix sigma*I + rho*A^T A, the s-update is a Euclidean
projection onto K (eigenvalue clipping per PSD block), and the scaled
multiplier accumulates the residual.  A PSD block's rows are the block's
coordinates in the orthonormal basis of model.coordinate_map times a weight
fixed by the block's kind (block_weight): 1 for a real symmetric block and
sqrt(2) for a complex Hermitian one, so a complex block's rows have the
Frobenius norm of its realification [[Re H, -Im H], [Im H, Re H]] and ADMM
takes the steps it would take on the real program.  In orthonormal
coordinates the PSD cone is self-dual under the plain dot product, so
project_cone serves K* as well once the zero rows are left free.

Each iteration is a few dense kernels on data prepared once:
  - the x-update multiplies by the inverse of sigma*I + rho*A^T A, computed
    in place (Cholesky, then inversion) once per value of rho; programs with
    more than DENSE_LIMIT unknowns keep a sparse LU factorization instead;
  - products with A and A^T hold A's dense rows as one dense array;
  - project_cone reads each block's coordinates as its n x n Hermitian or
    symmetric matrix through index arrays built once per StandardForm;
    blocks of one side and kind share one batched eigendecomposition.

Data is Ruiz-equilibrated first with one uniform scale factor per PSD block
(row scaling must not break cone membership).  Convergence is declared on
unscaled KKT residuals; primal infeasibility is detected from an approximate
ray certificate and is heuristic, not a proof.
"""

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


def block_weight(complex_block):
    """Weight of a PSD block's rows: sqrt(2) for a complex block, 1 for a real one."""
    return SQRT2 if complex_block else 1.0


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
    psd_complex: list   # per block: True for a complex Hermitian block
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


def _psd_block_rows(block, program, offsets, row0, rows, cols, vals, b_parts):
    """Append A/b entries for one PSD block; returns its number of rows.

    Row p is weight * coordinate p of the block's matrix, so with A x + s = b
    the slice s is weight * coords(const + sum_p x_p M_p).
    """
    block_var = mdl.MatrixVar(block.name, block.side, block.complex_valued)
    index, _ = mdl.coordinate_map(block.side, block.complex_valued)
    weight = block_weight(block.complex_valued)
    const = block.const.copy()
    for term in block.terms:
        if term[0] == "var":
            # each basis element of V is one of the block's, shifted
            _, name, offset = term
            var = program.variables[name]
            d = np.arange(var.side) + offset
            a, b = mdl.pair_indices(var.side)
            a, b = a + offset, b + offset
            coords = [index[d, d, 0], index[a, b, 0]]
            if var.hermitian:
                coords.append(index[a, b, 1])
            coords = np.concatenate(coords)
            rows.append(row0 + coords)
            cols.append(offsets[name].start + np.arange(coords.size))
            vals.append(np.full(coords.size, -weight))
        else:
            # a real value v at (i, j) and (j, i) has coordinate sqrt(2) v
            _, i, j, expr = term
            const[i, j] += expr.const
            if i != j:
                const[j, i] += expr.const
            gp, coeff = _expr_entries(expr, offsets)
            rows.append(np.full(gp.size, row0 + index[i, j, 0]))
            cols.append(gp)
            vals.append(-weight * (1.0 if i == j else SQRT2) * coeff)
    b_parts.append(weight * mdl.matrix_to_params(block_var, const))
    return block_var.n_params


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
        n_rows = _psd_block_rows(block, program, offsets, row, rows, cols, vals, b_parts)
        psd_sides.append(block.side)
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


def _psd_groups(form):
    """Index maps of the PSD blocks, stacked per (side, complex) group.

    Each group is (n, complex, dst, gather, local, to_matrix, to_coords):
    the group's stacked matrices, as floats, are v[gather] * to_matrix, and
    the rows dst of a projection P are bincount(local, P * to_coords).
    These are model.coordinate_map's index and weight, shifted to the
    group's rows and divided (multiplied) by the block weight.
    """
    members = {}
    for sl, side, cplx in zip(form.psd_slices, form.psd_sides, form.psd_complex):
        members.setdefault((side, cplx), []).append(sl)
    groups = []
    for (n, cplx), slices in members.items():
        index, weight = mdl.coordinate_map(n, cplx)
        size = slices[0].stop - slices[0].start
        dst = np.concatenate([np.arange(sl.start, sl.stop) for sl in slices])
        local = np.concatenate([index.ravel() + g * size for g in range(len(slices))])
        weights = np.tile(weight.ravel(), len(slices))
        scale = block_weight(cplx)
        groups.append((n, cplx, dst, dst[local], local, weights / scale, weights * scale))
    return groups


def project_cone(v, form):
    """Euclidean projection onto K = {0}^p x R+^q x PSD(m_1) x ..., blocks in coordinates.

    Blocks of one side and kind share one batched eigendecomposition.
    """
    out = v.copy()
    out[: form.n_zero] = 0.0
    ng = slice(form.n_zero, form.n_zero + form.n_nonneg)
    out[ng] = np.maximum(out[ng], 0.0)
    for n, cplx, dst, gather, local, to_matrix, to_coords in form.psd_groups:
        M = v[gather] * to_matrix
        if cplx:
            M = M.view(complex)
        w, V = np.linalg.eigh(M.reshape(-1, n, n))
        if w.min() < 0:
            P = (V * np.maximum(w, 0.0)[:, None, :]) @ V.conj().swapaxes(1, 2)
            out[dst] = np.bincount(local, weights=P.view(float).ravel() * to_coords,
                                   minlength=dst.size)
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
    """Ruiz scaling diag(D) A diag(E), with one uniform D per PSD block.

    Entries are read divided by their block weight.  For a complex block
    these are the entries of its realified rows, so D and E are the scales
    of the realified program.
    """
    A = form.A.tocsr(copy=True)
    m, n = A.shape
    rows = np.repeat(np.arange(m), np.diff(A.indptr))
    cols = A.indices
    row_weight = np.ones(m)
    for sl, cplx in zip(form.psd_slices, form.psd_complex):
        row_weight[sl] = block_weight(cplx)
    entry_weight = row_weight[rows]
    D = np.ones(m)
    E = np.ones(n)
    for _ in range(n_iter):
        mag = np.abs(A.data) / entry_weight
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
