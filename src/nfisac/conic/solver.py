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

Data is Ruiz-equilibrated first with one uniform scale factor per PSD block
(row scaling must not break cone membership).  A program may then restrict
a PSD variable V to {U Z U^H + a (I - U U^H) : Z PSD, a >= 0} with U an
n x m orthonormal basis (ConicProgram.psd_var): restrict rewrites the
equilibrated data so that V's columns are Z's coordinates and a, and V's
PSD block is an m x m block plus one nonnegative row.  When every datum
maps that subspace to itself the full program's iterates stay in it, so
the restricted ADMM takes the full program's path on a smaller program
(an invariant-subspace reduction, Permenter and Parrilo, Math. Programming
2020).  The design programs restrict each W_k to m = K + 3 directions:
the desk point-target subproblem runs on 207 x 60 instead of 667 x 520,
the first paper subproblem on 485 x 210 instead of 16,669 x 16,394.

Each iteration costs what the structure of A allows, on data prepared once
per solve and once per value of rho (as in SCS):
  - products with A and A^T go through _RowSplit: one-entry rows as
    triplets, the other rows as a thin SVD of rank r (15 at desk size,
    21 at paper size, restricted or not);
  - the x-update (_XSolver) is a Woodbury solve through that rank, so
    A^T A is never formed;
  - project_cone reads each block's coordinates as its n x n Hermitian or
    symmetric matrix through index arrays built once per StandardForm and
    computes only the block's positive eigenpairs.  In the restricted desk
    program these are two complex 5 x 5 blocks (W_k) and real 2 x 2 and
    4 x 4 ones (Xi, its epigraph and the Schur block).

Convergence is declared on unscaled KKT residuals; primal infeasibility is
detected from an approximate ray certificate and is heuristic, not a proof.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.lapack
import scipy.sparse

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
    psd_maps: list = field(init=False)

    def __post_init__(self):
        self.psd_maps = _psd_maps(self)


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


def _psd_maps(form):
    """Per PSD block, the index maps project_cone reads and writes it through.

    Each is (n, complex, rows, gather, local, to_matrix, to_coords): the
    block's matrix, as floats, is v[gather] * to_matrix, and the rows of
    its projection P are bincount(local, P * to_coords).  local and the
    weights are model.coordinate_map's index and weight, the weights
    divided (multiplied) by the block weight; gather is that index shifted
    to the block's rows.
    """
    maps = []
    for rows, n, cplx in zip(form.psd_slices, form.psd_sides, form.psd_complex):
        index, weight = mdl.coordinate_map(n, cplx)
        local = index.ravel()
        scale = block_weight(cplx)
        maps.append((n, cplx, rows, local + rows.start, local, weight.ravel() / scale,
                     weight.ravel() * scale))
    return maps


def _positive_part(B, cplx):
    """B's projection onto the PSD cone, or None when B has no negative eigenvalue.

    Only the eigenpairs with positive eigenvalues are computed (LAPACK
    ?heevr/?syevr over (0, inf)); in the design programs nearly every W
    block has one.  A block on which that routine fails is decomposed in
    full.
    """
    evr = scipy.linalg.lapack.zheevr if cplx else scipy.linalg.lapack.dsyevr
    w, V, m, _, info = evr(B, range="V", vl=0.0, vu=np.inf)
    if info == 0:
        w, V = w[:m], V[:, :m]
    else:
        w, V = np.linalg.eigh(B)
        w, V = w[w > 0], V[:, w > 0]
    if w.size == B.shape[0]:
        return None
    return (V * w) @ V.conj().T


def project_cone(v, form):
    """Euclidean projection onto K = {0}^p x R+^q x PSD(m_1) x ..., blocks in coordinates.

    A PSD block with no negative eigenvalue keeps its rows.
    """
    out = v.copy()
    out[: form.n_zero] = 0.0
    ng = slice(form.n_zero, form.n_zero + form.n_nonneg)
    out[ng] = np.maximum(out[ng], 0.0)
    for n, cplx, rows, gather, local, to_matrix, to_coords in form.psd_maps:
        B = v[gather] * to_matrix
        if cplx:
            B = B.view(complex)
        P = _positive_part(B.reshape(n, n), cplx)
        if P is not None:
            out[rows] = np.bincount(local, weights=P.view(float).ravel() * to_coords,
                                    minlength=rows.stop - rows.start)
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
    D = np.ones(m)
    E = np.ones(n)
    for _ in range(10):
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
    rho_changes: int   # times the ADMM penalty rho was doubled or halved
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray

    @property
    def optimal(self):
        return self.status == "optimal"


class _RowSplit:
    """A for the ADMM products: one-entry rows as triplets, the rest as L Z^T.

    A row with one entry is kept as (row, col, value).  Every other row
    that has entries is in the block L Z^T of a thin SVD (L with orthonormal
    columns, Z scaled by the singular values), truncated at numpy's
    matrix_rank tolerance.  In the design programs the one-entry rows are
    mostly the PSD blocks' variable coordinates, and the others are the
    power, SINR, energy-efficiency and Schur rows, which see the W blocks
    through a few functionals: at desk size 141 of them have rank 15.
    """

    def __init__(self, A):
        self.shape = A.shape
        counts = np.diff(A.indptr)
        self.rows1 = np.flatnonzero(counts == 1)
        self.cols1 = A.indices[A.indptr[self.rows1]]
        self.vals1 = A.data[A.indptr[self.rows1]]
        self.rows = np.flatnonzero(counts > 1)
        U, sv, Vt = np.linalg.svd(A[self.rows].toarray(), full_matrices=False)
        tol = sv.max(initial=0.0) * max(A.shape[1], self.rows.size) * np.finfo(float).eps
        rank = np.count_nonzero(sv > tol)
        self.L = U[:, :rank]
        self.Z = Vt[:rank].T * sv[:rank]

    def dot(self, x):
        """A x."""
        out = np.zeros(self.shape[0])
        out[self.rows1] = self.vals1 * x[self.cols1]
        out[self.rows] = self.L @ (self.Z.T @ x)
        return out

    def tdot(self, y):
        """A^T y."""
        out = self.Z @ (self.L.T @ y[self.rows])
        out += np.bincount(self.cols1, weights=self.vals1 * y[self.rows1],
                           minlength=self.shape[1])
        return out


class _XSolver:
    """Solve of (sigma I + rho A^T A) x = rhs, rebuilt in O(n r^2) on each rho change.

    With A a _RowSplit, sigma I + rho A^T A = Delta + rho Z Z^T, where the
    diagonal Delta = sigma + rho d holds the one-entry rows' squares d.  On
    the columns F that a one-entry row touches, x_F = Delta_F^-1 (rhs_F -
    rho Z_F p) with p = Z^T x, which is Woodbury's formula.  The other
    columns T (the energy-efficiency auxiliaries of the design programs)
    have Delta = sigma, where that formula's cancellation loses digits in
    proportion to rho / sigma, so x_T is kept as an unknown beside p:

        (I + rho Z_F^T Delta_F^-1 Z_F) p - Z_T^T x_T = Z_F^T Delta_F^-1 rhs_F
        rho Z_T p + sigma x_T                        = rhs_T

    an (r + |T|)-square system: the r x r capacitance matrix bordered by
    the columns T.  Its solution operator is formed once per rho.
    """

    def __init__(self, A):
        self.n = A.shape[1]
        self.d = np.bincount(A.cols1, weights=A.vals1 ** 2, minlength=self.n)
        self.T = np.flatnonzero(self.d == 0)
        self.Z = A.Z
        self.rho = None

    def set_rho(self, rho):
        self.rho = rho
        r, t = self.Z.shape[1], self.T.size
        delta = SIGMA + rho * self.d
        Zd = self.Z / delta[:, None]
        Zd[self.T] = 0.0   # Z_F Delta_F^-1
        Z_T = self.Z[self.T]
        bordered = np.block([[np.eye(r) + rho * (self.Z.T @ Zd), -Z_T.T],
                             [rho * Z_T, SIGMA * np.eye(t)]])
        gather = np.zeros((r + t, self.n))
        gather[:r] = Zd.T
        gather[r + np.arange(t), self.T] = 1.0
        # rhs -> (p, x_T)
        self.to_border = np.linalg.solve(bordered, gather)
        self.inv_delta = 1.0 / delta
        self.back = rho * Zd

    def solve(self, rhs):
        r = self.Z.shape[1]
        border = self.to_border @ rhs
        x = rhs * self.inv_delta - self.back @ border[:r]
        x[self.T] = border[r:]
        return x


def restrict(program, form, A, D, E):
    """The equilibrated program restricted to the subspaces of program.restrictions.

    A restricted variable V = U Z U^H + a (I - U U^H) keeps V's coordinates
    as Phi @ (coords(Z), a) (model.subspace_isometry) and shares one column
    scale, the geometric mean of V's E; D and every other column's E stay.
    So the restricted columns are A diag(e / E) Phi, and with D uniform on
    a block the restricted program's residuals and steps have the norms of
    the full program's for iterates inside the subspace.  V's own PSD rows
    become the PSD block of Z plus a nonnegative row for a, written as the
    one-entry rows -w D e they are (Phi^T (-w D e Phi) would leave residue
    that _RowSplit counts as entries).

    Returns (rform, A_r, D_r, E_r, cols, rows): the restricted standard
    form (unscaled), its equilibrated matrix and scales, and the isometries
    with x = cols @ x_r and s = rows @ s_r (y likewise) in full coordinates.
    """
    n_rows = A.shape[0]
    blocks, E_r, offsets, phis = [], [], {}, {}
    pos = 0
    for name, var in program.variables.items():
        sl = form.offsets[name]
        if name in program.restrictions:
            Phi = mdl.subspace_isometry(program.restrictions[name][0], var.hermitian)
            e = np.exp(np.mean(np.log(E[sl])))
            phis[name] = (Phi, e)
            blocks.append(Phi)
            E_r.append(np.full(Phi.shape[1], e))
        else:
            blocks.append(scipy.sparse.identity(sl.stop - sl.start))
            E_r.append(E[sl])
        offsets[name] = slice(pos, pos + blocks[-1].shape[1])
        pos = offsets[name].stop
    cols = scipy.sparse.block_diag(blocks, format="csr")
    E_r = np.concatenate(E_r)

    own_blocks = {j: name for name, (_, j) in program.restrictions.items()}
    n_cone = form.n_zero + form.n_nonneg
    n_alpha = sum(U.shape[1] < U.shape[0] for U, _ in program.restrictions.values())
    # the restricted row of every full row kept as it is, and V's own rows
    kept_full, kept_r = [np.arange(n_cone)], [np.arange(n_cone)]
    own_r, own_c, own_v, own_src = [], [], [], []   # V's own rows, exact
    lift_f, lift_r, lift_v = [], [], []       # the Phi blocks of `rows`
    alpha_row, row = n_cone, n_cone + n_alpha
    sides, slices, cplx = [], [], []
    for j, (sl, side, complex_block) in enumerate(zip(form.psd_slices, form.psd_sides,
                                                      form.psd_complex)):
        if j not in own_blocks:
            kept_full.append(np.arange(sl.start, sl.stop))
            kept_r.append(row + np.arange(sl.stop - sl.start))
            side_r = side
        else:
            name = own_blocks[j]
            Phi, e = phis[name]
            side_r = program.restrictions[name][0].shape[1]
            targets = row + np.arange(mdl.MatrixVar("Z", side_r, complex_block).n_params)
            if side_r < side:
                targets = np.append(targets, alpha_row)
                alpha_row += 1
            own_r.append(targets)
            own_c.append(offsets[name].start + np.arange(targets.size))
            own_v.append(np.full(targets.size, -block_weight(complex_block) * D[sl.start] * e))
            f, c = np.nonzero(Phi)
            lift_f.append(sl.start + f)
            lift_r.append(targets[c])
            lift_v.append(Phi[f, c])
            own_src.append(np.full(targets.size, sl.start))
        n_block = mdl.MatrixVar("B", side_r, complex_block).n_params
        sides.append(side_r)
        slices.append(slice(row, row + n_block))
        cplx.append(complex_block)
        row += n_block

    kept_full, kept_r = np.concatenate(kept_full), np.concatenate(kept_r)
    # the kept rows that see a restricted V (power, SINR, EE, Schur) are
    # few and dense on its columns, so A diag(e / E) Phi is a dense product
    A_kept = A[kept_full].tocsc()
    AP = scipy.sparse.hstack([
        scipy.sparse.csc_matrix(A_kept[:, sl].toarray()
                                @ ((phis[name][1] / E[sl])[:, None] * phis[name][0]))
        if name in phis else A_kept[:, sl] for name, sl in form.offsets.items()]).tocoo()
    A_r = scipy.sparse.csr_matrix(
        (np.concatenate([AP.data] + own_v),
         (np.concatenate([kept_r[AP.row]] + own_r), np.concatenate([AP.col] + own_c))),
        shape=(row, pos))
    D_r = np.zeros(row)
    D_r[np.concatenate([kept_r] + own_r)] = D[np.concatenate([kept_full] + own_src)]
    rows = scipy.sparse.csr_matrix(
        (np.concatenate([np.ones(kept_full.size)] + lift_v),
         (np.concatenate([kept_full] + lift_f), np.concatenate([kept_r] + lift_r))),
        shape=(n_rows, row))
    unscaled = scipy.sparse.diags(1.0 / D_r) @ A_r @ scipy.sparse.diags(1.0 / E_r)
    rform = StandardForm(c=cols.T @ form.c, A=unscaled.tocsr(), b=rows.T @ form.b,
                         n_zero=form.n_zero, n_nonneg=form.n_nonneg + n_alpha,
                         psd_sides=sides, psd_slices=slices, psd_complex=cplx,
                         n_x=pos, offsets=offsets)
    return rform, A_r, D_r, E_r, cols, rows


def solve(program, tol=1e-6, max_iter=50000, warm_start=None, infeas_after=5000):
    """Solve a ConicProgram; returns a ConicSolution.

    warm_start: optional (x, s, y) triple in original (unscaled) coordinates,
    shapes must match the assembled problem or it is ignored.  A program
    with restrictions is solved restricted (see restrict); the warm start,
    the solution's x, s and y and its assignments are in full coordinates.
    """
    full = assemble(program)
    A, b, c, D, E = ruiz_equilibrate(full)
    form, cols, rows = full, None, None
    if program.restrictions:
        form, A, D, E, cols, rows = restrict(program, full, A, D, E)
        b, c = D * form.b, E * form.c
    m, n = A.shape
    b0, c0 = form.b, form.c
    norm_b = 1.0 + np.linalg.norm(b0)
    norm_c = 1.0 + np.linalg.norm(c0)

    rho = RHO
    x = np.zeros(n)
    s = np.zeros(m)
    u = np.zeros(m)
    if warm_start is not None:
        wx, ws, wy = warm_start
        if wx.shape == (full.n_x,) and ws.shape == wy.shape == (full.A.shape[0],):
            if cols is not None:
                wx, ws, wy = cols.T @ wx, rows.T @ ws, rows.T @ wy
            x = wx / E
            s = D * ws
            u = (wy / D) / rho

    op = _RowSplit(A)
    xsolver = _XSolver(op)
    xsolver.set_rho(rho)

    status = "max_iter"
    it = rho_changes = 0
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
            # unscaled residuals: A0 = diag(1/D) A diag(1/E), y0 = rho D u
            x_orig = E * x
            y_orig = rho * (D * u)
            pri = np.linalg.norm((Ax + s - b) / D) / norm_b
            dual = np.linalg.norm((c + rho * op.tdot(u)) / E) / norm_c
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
                    if (np.linalg.norm(op.tdot(dy / D) / E) <= 1e-7 * ndy
                            and b0 @ dy < -1e-9 * ndy):
                        status = "infeasible"
                        break
            y_prev_check = y_orig
            # adaptive step-size: rebalance the two residuals occasionally
            if it % (CHECK_EVERY * 8) == 0 and it < max_iter // 2:
                if pri > 10.0 * dual and rho < 1e6:
                    rho *= 2.0
                    u /= 2.0
                elif dual > 10.0 * pri and rho > 1e-6:
                    rho /= 2.0
                    u *= 2.0
                if rho != xsolver.rho:
                    rho_changes += 1
                    xsolver.set_rho(rho)

    x_orig = E * x
    s_orig = s / D
    y_orig = rho * (D * u)
    if cols is not None:
        x_orig, s_orig, y_orig = cols @ x_orig, rows @ s_orig, rows @ y_orig
    assignments = program.split_solution(x_orig, full.offsets)
    objective = float(full.c @ x_orig + 0.0) + program.objective.const
    return ConicSolution(status=status, assignments=assignments, objective=objective,
                         primal_residual=float(pri), dual_residual=float(dual),
                         duality_gap=float(gap), iterations=it, rho_changes=rho_changes,
                         x=x_orig, y=y_orig, s=s_orig)
