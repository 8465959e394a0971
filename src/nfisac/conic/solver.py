"""First-order operator-splitting solver for the conic programs in model.py.

Standard form after assembly:

    minimize    c . x
    subject to  A x + s = b,   s in K = {0}^p x R+^q x PSD(m_1) x ... x PSD(m_B)

solved by ADMM on the splitting (x, s): the x-update is a cached linear
solve with the regularized normal matrix sigma*I + rho*A^T A, the s-update
is a Euclidean projection onto K (eigenvalue clipping per PSD block), and
the scaled multiplier accumulates the residual.  assemble is the one
realification path: it doubles each complex Hermitian block into a real
symmetric one (model.realify_matrix) while it emits the rows.  Symmetric
matrices travel through the cone interface in scaled upper-triangular (svec)
form so the PSD cone is self-dual under the plain dot product, and
project_cone serves K* as well once the zero rows are left free.

Data is Ruiz-equilibrated first with one uniform scale factor per PSD block
(row scaling must not break cone membership).  Convergence is declared on
unscaled KKT residuals; primal infeasibility is detected from an approximate
ray certificate and is heuristic, not a proof.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from ..errors import InvalidArgumentError
from . import model as mdl

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
    mult = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
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
    n_x: int
    offsets: dict
    svec_caches: list = field(default_factory=list)

    def __post_init__(self):
        self.svec_caches = [svec_indices(m) for m in self.psd_sides]


def _entry_coeff_rows(expr, program, offsets):
    """Yield (global param index, coefficient) pairs of a LinExpr."""
    for name, coeffs in expr.terms.items():
        start = offsets[name].start
        for p in np.nonzero(coeffs)[0]:
            yield start + p, coeffs[p]


def _psd_block_rows(block, program, offsets, row0, rows, cols, vals, b_parts):
    """Append A/b entries for one PSD block; returns the realified side."""
    complex_block = block.complex_valued
    m = block.side
    side = 2 * m if complex_block else m

    const = mdl.realify_matrix(block.const) if complex_block else block.const.astype(float).copy()

    def emit(i, j, param, coeff):
        if i > j:
            i, j = j, i
        pos = row0 + svec_position(side, i, j)
        scale = 1.0 if i == j else np.sqrt(2.0)
        # s = svec(const) + sum_p x_p svec(M_p) and A x + s = b
        rows.append(pos)
        cols.append(param)
        vals.append(-coeff * scale)

    for term in block.terms:
        if term[0] == "var":
            _, name, offset = term
            var = program.variables[name]
            start = offsets[name].start
            for p, (kind, a, bb) in enumerate(mdl.basis_descriptors(var)):
                gp = start + p
                i, j = offset + a, offset + bb
                if kind == "d":
                    emit(i, i, gp, 1.0)
                    if complex_block:
                        emit(m + i, m + i, gp, 1.0)
                elif kind == "s":
                    emit(i, j, gp, 1.0 / np.sqrt(2.0))
                    if complex_block:
                        emit(m + i, m + j, gp, 1.0 / np.sqrt(2.0))
                else:
                    if not complex_block:
                        raise InvalidArgumentError("Hermitian variable in a real block")
                    # i (E_ab - E_ba)/sqrt(2) realifies into the off-diagonal
                    # quadrants: -Im top-right, +Im bottom-left
                    emit(i, m + j, gp, -1.0 / np.sqrt(2.0))
                    emit(j, m + i, gp, 1.0 / np.sqrt(2.0))
        else:
            _, i, j, expr = term
            places = [(i, j)]
            if complex_block:
                places.append((m + i, m + j))
            for (pi, pj) in places:
                const[pi, pj] += expr.const
                if pi != pj:
                    const[pj, pi] += expr.const
                for gp, coeff in _entry_coeff_rows(expr, program, offsets):
                    emit(pi, pj, gp, coeff)

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
    b_parts = []
    row = 0

    # zero cone: expr = 0  ->  A = g, b = -const
    for expr in program.eq_constraints:
        for gp, coeff in _entry_coeff_rows(expr, program, offsets):
            rows.append(row)
            cols.append(gp)
            vals.append(coeff)
        b_parts.append(np.array([-expr.const]))
        row += 1
    n_zero = row

    # nonneg cone: s = expr >= 0  ->  A = -g, b = const
    for expr in program.ineq_constraints:
        for gp, coeff in _entry_coeff_rows(expr, program, offsets):
            rows.append(row)
            cols.append(gp)
            vals.append(-coeff)
        b_parts.append(np.array([expr.const]))
        row += 1
    n_nonneg = row - n_zero

    psd_sides, psd_slices = [], []
    for block in program.psd_blocks:
        side = _psd_block_rows(block, program, offsets, row, rows, cols, vals, b_parts)
        n_rows = side * (side + 1) // 2
        psd_sides.append(side)
        psd_slices.append(slice(row, row + n_rows))
        row += n_rows

    A = scipy.sparse.csr_matrix(
        (np.array(vals), (np.array(rows, dtype=int), np.array(cols, dtype=int))),
        shape=(row, n_x),
    )
    b = np.concatenate(b_parts) if b_parts else np.zeros(0)
    return StandardForm(c=c, A=A, b=b, n_zero=n_zero, n_nonneg=n_nonneg,
                        psd_sides=psd_sides, psd_slices=psd_slices,
                        n_x=n_x, offsets=offsets)


# ---------------------------------------------------------------------------
# cone projections


def project_cone(v, form):
    """Euclidean projection onto K = {0}^p x R+^q x PSD(m_1) x ..., blocks in svec form."""
    out = v.copy()
    out[: form.n_zero] = 0.0
    ng = slice(form.n_zero, form.n_zero + form.n_nonneg)
    out[ng] = np.maximum(out[ng], 0.0)
    for side, sl, cache in zip(form.psd_sides, form.psd_slices, form.svec_caches):
        M = smat(out[sl], side, cache)
        w, V = np.linalg.eigh(M)
        if w[0] >= 0:
            continue
        pos = w > 0
        P = (V[:, pos] * w[pos]) @ V[:, pos].T
        out[sl] = svec(0.5 * (P + P.T), cache)
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
    A = form.A.tocsr().copy()
    b = form.b.copy()
    c = form.c.copy()
    m, n = A.shape
    D = np.ones(m)
    E = np.ones(n)
    for _ in range(n_iter):
        Aabs = abs(A)
        row_norms = np.asarray(Aabs.max(axis=1).todense()).ravel() if m else np.zeros(0)
        row_norms = _row_group_scale(row_norms, form)
        dr = 1.0 / np.sqrt(np.clip(row_norms, 1e-10, 1e10))
        col_norms = np.asarray(Aabs.max(axis=0).todense()).ravel() if n else np.zeros(0)
        dc = 1.0 / np.sqrt(np.clip(col_norms, 1e-10, 1e10))
        A = scipy.sparse.diags(dr) @ A @ scipy.sparse.diags(dc)
        D *= dr
        E *= dc
    b = D * b
    c = E * c
    return A.tocsr(), b, c, D, E


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


class _XSolver:
    """Cached solve of (sigma I + rho A^T A) x = rhs; refactors on rho change."""

    def __init__(self, A):
        self.n = A.shape[1]
        self.dense = self.n <= DENSE_LIMIT
        ATA = (A.T @ A).tocsc()
        self.ATA = ATA.toarray() if self.dense else ATA
        self.rho = None
        self.factor = None

    def set_rho(self, rho):
        if self.rho == rho:
            return
        self.rho = rho
        if self.dense:
            Q = self.rho * self.ATA + SIGMA * np.eye(self.n)
            self.factor = scipy.linalg.cho_factor(Q, check_finite=False)
        else:
            Q = (self.rho * self.ATA + SIGMA * scipy.sparse.eye(self.n)).tocsc()
            self.factor = scipy.sparse.linalg.splu(Q)

    def solve(self, rhs):
        if self.dense:
            return scipy.linalg.cho_solve(self.factor, rhs, check_finite=False)
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

    xsolver = _XSolver(A)
    xsolver.set_rho(rho)
    AT = A.T.tocsr()

    status = "max_iter"
    it = 0
    pri = dual = gap = np.inf
    y_prev_check = None
    for it in range(1, max_iter + 1):
        rhs = SIGMA * x - c + rho * (AT @ (b - s - u))
        x_new = xsolver.solve(rhs)
        Ax = A @ x_new
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
