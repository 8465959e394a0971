"""Primal-dual interior-point solver for the conic programs in model.py.

Standard form after assembly:

    minimize    c . x
    subject to  A x + s = b,   s in K = {0}^p x R+^q x PSD(m_1) x ... x PSD(m_B)

with dual  maximize -b . y  subject to  A^T y + c = 0,  y in K* (free on the
zero rows).  A PSD block's rows are its coordinates in the orthonormal
basis of model.coordinate_map times block_weight, sqrt(2) for a complex
block, whose rows then have the dot products of its realification (a
complex block of side n counts as a real one of side 2n).  In these
coordinates the PSD cone is self-dual under the plain dot product.

solve takes one path: assemble, ruiz_equilibrate (one uniform row scale
per PSD block), then a dense path-following method on the homogeneous
self-dual embedding, as CVXOPT's conelp (Vandenberghe, "The CVXOPT linear
and quadratic cone program solvers", 2010): Nesterov-Todd scaling,
Mehrotra's predictor-corrector with one step of iterative refinement, and
a Newton matrix of the size of x factored once per iteration.  Primal
infeasibility is declared from the dual ray the embedding converges to.
A program is solved as it is built: reducing it to a subspace its data
see is the builder's work (sca.build_point_subproblem).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack
import scipy.sparse

from ..errors import InvalidArgumentError
from . import model as mdl
from .model import SQRT2

#: fraction of the way to the cone boundary that a step may go
STEP = 0.99
#: exponent of Mehrotra's centering weight sigma = (1 - predictor step)^EXPON
EXPON = 3
#: a shorter step ends the solve: the iterate is as good as rounding allows
MIN_STEP = 1e-8
#: largest dense matrix A (rows times columns) the solver accepts
MAX_DENSE = 20_000_000


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
# equilibration


def ruiz_equilibrate(form):
    """Ruiz scaling diag(D) A diag(E) over ten passes, with one uniform D per PSD block.

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
    D, E = np.ones(m), np.ones(n)
    for _ in range(10):
        mag = np.abs(A.data) / entry_weight
        row_norms = np.zeros(m)
        np.maximum.at(row_norms, rows, mag)
        for sl in form.psd_slices:
            row_norms[sl] = row_norms[sl].max(initial=0.0)
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
# interior-point method


@dataclass
class ConicSolution:
    """A solve's end: status (see solve), the variables' values, and the
    unscaled x, s and y of assemble's standard form of the program."""

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


def _herm(M):
    return np.swapaxes(M, -1, -2).conj()


class _Group:
    """The PSD blocks of one side n and field, as stacked (k, ...) arrays.

    rows (k, r) are the blocks' rows among the cone rows.  mats reads
    (..., r) rows as (..., n, n) matrices; vecs writes matrices back as rows,
    from their upper triangles.  Coordinate j sits at entry (ia[j], ib[j]).
    """

    def __init__(self, n, cplx, starts):
        self.n, self.cplx, self.w = n, cplx, block_weight(cplx)
        r = mdl.MatrixVar("B", n, cplx).n_params
        self.rows = np.add.outer(np.asarray(starts), np.arange(r))
        index, weight = mdl.coordinate_map(n, cplx)
        self.index, self.to_matrix = index, weight / self.w
        d, (a, b) = np.arange(n), mdl.pair_indices(n)
        self.ia = np.concatenate([d, a, a] if cplx else [d, a])
        self.ib = np.concatenate([d, b, b] if cplx else [d, b])
        flat = self.ia * n + self.ib
        self.gather = 2 * flat + (np.arange(r) >= n + a.size) if cplx else flat
        self.coef = self.w * np.where(self.ia == self.ib, 1.0, SQRT2)
        self.R = self.Rinv = np.broadcast_to(np.eye(n), (len(starts), n, n))

    def mats(self, v):
        M = v.take(self.index, axis=-1) * self.to_matrix
        return M.view(complex)[..., 0] if self.cplx else M[..., 0]

    def vecs(self, M):
        M = np.ascontiguousarray(M, dtype=complex if self.cplx else float)
        flat = (M.view(float) if self.cplx else M).reshape(M.shape[:-2] + (-1,))
        return flat.take(self.gather, axis=-1) * self.coef


class _Cone:
    """The cone rows of a standard form (nonnegative rows, then PSD blocks) and
    the Nesterov-Todd scaling W of a pair s, z in their interior.

    lam = W z = W^-T s.  On the nonnegative rows W = diag(d), d = sqrt(s / z).
    On a PSD block W z = R^H Z R and W^-T s = R^-1 S R^-H, both the diagonal
    matrix of the block's lam, so lam o u (the Jordan product) is u times
    (lam_i + lam_j) / 2 on each coordinate of pair (i, j).
    """

    def __init__(self, form):
        self.q, self.m = form.n_nonneg, form.A.shape[0] - form.n_zero
        kinds = {}
        for sl, n, cplx in zip(form.psd_slices, form.psd_sides, form.psd_complex):
            kinds.setdefault((n, cplx), []).append(sl.start - form.n_zero)
        self.groups = [_Group(n, cplx, starts) for (n, cplx), starts in kinds.items()]
        self.degree = self.q + sum(g.rows.shape[0] * g.w**2 * g.n for g in self.groups)
        self.d = np.ones(self.q)
        self.e = self._rows(1.0, lambda g: g.vecs(np.eye(g.n)))

    def _rows(self, nonneg, block):
        out = np.empty(self.m)
        out[: self.q] = nonneg
        for g in self.groups:
            out[g.rows] = block(g)
        return out

    def rescale(self, s_t, z_t):
        """Move W to the scaling of W^T s_t and W^-1 z_t (s_t, z_t in lam's coordinates)."""
        for g in self.groups:
            Ls = np.linalg.cholesky(g.mats(s_t[g.rows]))
            Lz = np.linalg.cholesky(g.mats(z_t[g.rows]))
            _, g.lam, Vh = np.linalg.svd(_herm(Lz) @ Ls)
            root = np.sqrt(g.lam)
            g.R = g.R @ (Ls @ _herm(Vh) / root[:, None, :])
            g.Rinv = (root[:, :, None] * (Vh @ np.linalg.inv(Ls))) @ g.Rinv
        self.lam_nn = np.sqrt(s_t[: self.q] * z_t[: self.q])
        self.d = self.d * np.sqrt(s_t[: self.q] / z_t[: self.q])
        self.lam = self._rows(self.lam_nn, lambda g: g.vecs(g.lam[:, :, None] * np.eye(g.n)))
        self.lam_fac = self._rows(self.lam_nn, lambda g: 0.5 * (g.lam[:, g.ia] + g.lam[:, g.ib]))

    def _congruent(self, v, d, L):
        """d v on the nonnegative rows, L X L^H on each block X, column by column of v."""
        V = v.reshape(self.m, -1)
        out = np.empty(V.shape)
        out[: self.q] = V[: self.q] * d[:, None]
        for g in self.groups:
            Lg = L(g)[:, None]
            X = g.mats(np.swapaxes(V[g.rows], 1, 2))
            out[g.rows] = np.swapaxes(g.vecs(Lg @ X @ _herm(Lg)), 1, 2)
        return out.reshape(v.shape)

    def t(self, v):
        """W^T v."""
        return self._congruent(v, self.d, lambda g: g.R)

    def inv_t(self, v):
        """W^-T v (v a vector or a matrix of columns)."""
        return self._congruent(v, 1.0 / self.d, lambda g: g.Rinv)

    def inv(self, v):
        """W^-1 v."""
        return self._congruent(v, 1.0 / self.d, lambda g: _herm(g.Rinv))

    def product(self, u, v):
        """The Jordan product u o v (U V + V U) / 2, with V U = (U V)^H."""
        def block(g):
            P = g.mats(u[g.rows]) @ g.mats(v[g.rows])
            return g.vecs(0.5 * (P + _herm(P)))
        return self._rows(u[: self.q] * v[: self.q], block)

    def max_step(self, *us):
        """Largest t with lam + t u in K for every u (inf when every t is)."""
        u = np.stack(us)
        worst = np.max(-u[:, : self.q] / self.lam_nn, initial=0.0)
        for g in self.groups:
            root = np.sqrt(g.lam)
            low = np.linalg.eigvalsh(g.mats(u[:, g.rows]) / (root[:, :, None] * root[:, None, :]))
            worst = max(worst, -low.min())
        return 1.0 / worst if worst > 0 else np.inf


def project_cone(v, form):
    """Euclidean projection onto K = {0}^p x R+^q x PSD(m_1) x ..., blocks in coordinates."""
    cone, v_k = _Cone(form), v[form.n_zero:]

    def clip(g):
        w, V = np.linalg.eigh(g.mats(v_k[g.rows]))
        return g.vecs((V * np.maximum(w, 0.0)[:, None, :]) @ _herm(V))

    return np.concatenate([np.zeros(form.n_zero),
                           cone._rows(np.maximum(v_k[: cone.q], 0.0), clip)])


def _cho_solve(U, r):
    return scipy.linalg.lapack.dpotrs(U, r, lower=0)[0]


class _Newton:
    """Solver of [0 A0^T G^T; A0 0 0; G 0 -W^T W] (dx, dy, dz) = (rx, ry, rz).

    Given t = W^-T rz, returns dx, dy and W dz = Gt dx - t, Gt = W^-T G: dx, dy
    solve [H A0^T; A0 0] = (rx + Gt^T t, ry), H = Gt^T Gt, through U^T U = H +
    A0^T A0 and its Schur complement.  U, the R of [Gt; A0], has the square
    root of the condition number of H, which reaches 1e16 near the optimum.
    """

    def __init__(self, Gt, A0):
        self.Gt, self.A0 = Gt, A0
        self.U = np.linalg.qr(np.vstack([Gt, A0]), mode="r")
        d = np.abs(np.diagonal(self.U))
        if not d.min() > 1e-15 * d.max():
            raise np.linalg.LinAlgError("singular Newton matrix")
        if A0.shape[0]:
            self.Y = _cho_solve(self.U, A0.T)
            self.S = np.linalg.cholesky(A0 @ self.Y).T

    def solve(self, rx, ry, t):
        u = _cho_solve(self.U, rx + self.Gt.T @ t + self.A0.T @ ry)
        dy = np.zeros(0)
        if self.A0.shape[0]:
            dy = _cho_solve(self.S, self.A0 @ u - ry)
            u = u - self.Y @ dy
        return u, dy, self.Gt @ u - t


def _interior_point(form, A, b, c, tol, max_iter):
    """Homogeneous self-dual path following on min c.x, A x + s = b, s in K (A dense).

    Returns (x, s, y, status, iterations, (primal, dual, gap)): the iterate
    divided by tau, for "infeasible" the dual ray normalized to b.y = -1, and
    for "max_iter" the iterate of smallest residuals and gap.
    """
    p = form.n_zero
    A0, G, b0, h = A[:p], A[p:], b[:p], b[p:]
    cone = _Cone(form)
    norm_b, norm_c = max(1.0, np.linalg.norm(b)), max(1.0, np.linalg.norm(c))

    # start (conelp's): x minimizes ||G x - h|| on A0 x = b0, (y, z) minimizes
    # ||z|| on A^T (y, z) + c = 0; both are projected onto K and moved inside
    newton = _Newton(G, A0)
    x = newton.solve(np.zeros(A.shape[1]), b0, h)[0]
    s = project_cone(b - A @ x, form)[p:] + cone.e
    _, y, z = newton.solve(-c, np.zeros(p), np.zeros(h.size))
    z = project_cone(np.concatenate([np.zeros(p), z]), form)[p:] + cone.e
    cone.rescale(s, z)
    tau = kappa = 1.0

    status, best = "max_iter", (np.inf,)
    for it in range(max_iter + 1):
        s, z = cone.t(cone.lam), cone.inv(cone.lam)
        r_x = A0.T @ y + G.T @ z + c * tau
        r_y = A0 @ x - b0 * tau
        r_z = G @ x + s - h * tau
        cx, by = c @ x, b0 @ y + h @ z
        r_tau = kappa + cx + by
        gap = s @ z
        measures = (np.hypot(np.linalg.norm(r_y), np.linalg.norm(r_z)) / tau / norm_b,
                    np.linalg.norm(r_x) / tau / norm_c,
                    gap / tau**2 / (1.0 + abs(cx / tau) + abs(by / tau)))
        if max(measures) <= tol:
            status = "optimal"
        elif by < 0 and np.linalg.norm(A0.T @ y + G.T @ z) / norm_c <= -by * tol:
            status, tau = "infeasible", -by
        if status != "max_iter" or max(measures) < best[0]:
            best = (max(measures), measures, x / tau, np.concatenate([np.zeros(p), s]) / tau,
                    np.concatenate([y, z]) / tau)
        if status != "max_iter" or it == max_iter:
            break
        mu = (gap + tau * kappa) / (cone.degree + 1)
        try:
            newton = _Newton(cone.inv_t(G), A0)
        except np.linalg.LinAlgError:
            break
        h_t = cone.inv_t(h)
        x1, y1, z1 = newton.solve(c, -b0, -h_t)
        q1 = c @ x1 + b0 @ y1 + h_t @ z1 + kappa / tau

        def embedded(e_x, e_y, e_z, e_tau, d_s, d_kappa):
            # dx, dy, W dz, W^-T ds, dtau, dkappa: the embedding's rows = e,
            # lam o (W dz + W^-T ds) = d_s and kappa dtau + tau dkappa = d_kappa
            ds_t = d_s / cone.lam_fac
            dx, dy, dz = newton.solve(e_x, e_y, cone.inv_t(e_z) - ds_t)
            dtau = (c @ dx + b0 @ dy + h_t @ dz - e_tau + d_kappa / tau) / q1
            dx, dy, dz = dx - dtau * x1, dy - dtau * y1, dz - dtau * z1
            return [dx, dy, dz, ds_t - dz, dtau, (d_kappa - kappa * dtau) / tau]

        def direction(eta, d_s, d_kappa):
            # residuals reduced by the factor 1 - eta; one refinement step
            rhs = (-eta * r_x, -eta * r_y, -eta * r_z, -eta * r_tau)
            d = embedded(*rhs, d_s, d_kappa)
            dx, dy, dz, ds, dtau, dkappa = d
            dz, ds = cone.inv(dz), cone.t(ds)
            fix = embedded(rhs[0] - A0.T @ dy - G.T @ dz - c * dtau,
                           rhs[1] - A0 @ dx + b0 * dtau,
                           rhs[2] - G @ dx - ds + h * dtau,
                           rhs[3] - dkappa - c @ dx - b0 @ dy - h @ dz, 0.0, 0.0)
            return [u + v for u, v in zip(d, fix)]

        def step(dz, ds, dtau, dkappa):
            return min([cone.max_step(ds, dz)]
                       + [-v / dv for v, dv in ((tau, dtau), (kappa, dkappa)) if dv < 0])

        lam_sq = cone.lam * cone.lam_fac
        pred = direction(1.0, -lam_sq, -tau * kappa)
        sigma = (1.0 - min(1.0, step(*pred[2:]))) ** EXPON
        d_s = -lam_sq + sigma * mu * cone.e - cone.product(pred[3], pred[2])
        dx, dy, dz, ds, dtau, dkappa = direction(
            1.0 - sigma, d_s, -tau * kappa + sigma * mu - pred[4] * pred[5])
        alpha = min(1.0, STEP * step(dz, ds, dtau, dkappa))
        if alpha < MIN_STEP:
            break
        x, y = x + alpha * dx, y + alpha * dy
        tau, kappa = tau + alpha * dtau, kappa + alpha * dkappa
        try:
            cone.rescale(cone.lam + alpha * ds, cone.lam + alpha * dz)
        except np.linalg.LinAlgError:
            break
    return best[2], best[3], best[4], status, it, best[1]


def solve(program, tol=1e-8, max_iter=100):
    """Solve a ConicProgram; returns a ConicSolution.

    "optimal": the relative primal and dual residuals and the relative
    duality gap of the equilibrated program are at most tol.  "infeasible":
    y holds a dual ray, A^T y ~ 0 with y in K* and b . y = -1.  "max_iter":
    the solve stopped uncertified, at max_iter Newton steps or at a step it
    could not form.  Programs whose dense A has more than MAX_DENSE entries
    are refused.
    """
    form = assemble(program)
    if form.A.shape[0] * form.A.shape[1] > MAX_DENSE:
        raise InvalidArgumentError(f"program of {form.A.shape[0]} x {form.A.shape[1]} is too"
                                   " large for the dense interior-point solver")
    A, b, c, D, E = ruiz_equilibrate(form)
    x, s, y, status, it, (pri, dual, gap) = _interior_point(form, A.toarray(), b, c, tol,
                                                            max_iter)
    x, s, y = E * x, s / D, D * y
    assignments = program.split_solution(x, form.offsets)
    objective = float(form.c @ x + 0.0) + program.objective.const
    return ConicSolution(status=status, assignments=assignments, objective=objective,
                         primal_residual=float(pri), dual_residual=float(dual),
                         duality_gap=float(gap), iterations=it, x=x, y=y, s=s)
