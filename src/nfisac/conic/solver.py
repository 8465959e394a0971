"""Primal-dual interior-point solver for the conic programs in model.py.

Standard form after assembly, with A a dense array:

    minimize    c . x
    subject to  A x + s = b,   s in K = {0}^p x R+^q x PSD(m_1) x ... x PSD(m_B)

with dual  maximize -b . y  subject to  A^T y + c = 0,  y in K* (free on the
zero rows).  A PSD block's rows are its coordinates in the orthonormal
basis of model.coordinate_map times block_weight, sqrt(2) for a complex
block, whose rows then have the dot products of its realification (a
complex block of side n counts as a real one of side 2n).  In these
coordinates the PSD cone is self-dual under the plain dot product.

solve takes one path: assemble, which refuses a program whose A would
have more than MAX_DENSE entries before allocating it, ruiz_equilibrate
(one uniform row scale per PSD block, applied in place to A's nonzero
entries), then a dense path-following method on the homogeneous
self-dual embedding, as CVXOPT's conelp (Vandenberghe, "The CVXOPT linear
and quadratic cone program solvers", 2010): Nesterov-Todd scaling,
Mehrotra's predictor-corrector with one step of iterative refinement, and
a Newton matrix of the size of x factored once per iteration, through a QR
and the explicit inverse of its triangular factor (_Newton).  The QR reads
the rows whose support is one column pair folded into one 2 x 2 triangle
per pair (_fold_pairs): the desk point-target subproblem's 128
energy-efficiency chord rows, of its 207, become four.  Primal
infeasibility is declared from the dual ray the embedding converges to;
a solve that stalls short of tol and then drifts away (its measures
DIVERGED times above their best) ends with its best iterate.  Reducing a
program to a subspace its data see is the builder's work
(sca.build_point_subproblem).

A solve given a start, the solution of a program of the same layout (an
SCA run's previous subproblem), maps its x, s and y through this
program's equilibration, projects s and z onto K, moves them WARM_SHIFT
along e into the interior and follows the same path from there with
tau = kappa = 1 (Skajaa, Andersen and Ye, "Warmstarting the homogeneous
and self-dual interior point method for linear and conic quadratic
problems", Math. Prog. Comp. 2013).  On the desk point-target design the
second subproblem takes 13 Newton steps from the first one's solution
instead of 23 from conelp's start.

The scaling of a small PSD block (complex up to side 8, real up to side
5) is applied as an explicit matrix on its rows, built once per Newton
step from the outer products of the scaling factor's columns, as SDPT3
does (Toh, Todd and Tutuncu 1999); larger blocks are scaled by
congruences, two n x n matrix products each.  Every block of the
point-target subproblems is small, and a Newton step there costs a few
matrix products instead of a chain of small numpy calls per block.
"""

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError
from . import model as mdl
from .model import SQRT2

#: fraction of the way to the cone boundary that a step may go
STEP = 0.99
#: exponent of Mehrotra's centering weight sigma = (1 - predictor step)^EXPON
EXPON = 3
#: a shorter step ends the solve: the iterate is as good as rounding allows
MIN_STEP = 1e-8
#: measures this many times above their best so far end the solve: it has
#: stalled short of tol and left its best iterate, which it returns
DIVERGED = 1e3
#: largest dense matrix A (rows times columns) the solver accepts
MAX_DENSE = 20_000_000
#: distance along e, in equilibrated units, that a start's s and z are moved
#: into the cone's interior: from 3e-3 to 3e-2 the designs take about the
#: same Newton steps, and 1e-3, 1e-1 or 1 cost more (the README's table)
WARM_SHIFT = 1e-2
#: rows of the largest diagonal block of U that _triu_inv inverts with np.linalg.inv
LEAF = 32


def block_weight(complex_block):
    """Weight of a PSD block's rows: sqrt(2) for a complex block, 1 for a real one."""
    return SQRT2 if complex_block else 1.0


# ---------------------------------------------------------------------------
# assembly


@dataclass
class StandardForm:
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    n_zero: int
    n_nonneg: int
    psd_sides: list
    psd_slices: list
    psd_complex: list   # per block: True for a complex Hermitian block
    offsets: dict

    def layout(self):
        """What a start must share with this form: shape, cone sizes, PSD sides and fields."""
        return (self.A.shape, self.n_zero, self.n_nonneg, tuple(self.psd_sides),
                tuple(self.psd_complex))


def _add_expr(row, expr, offsets, scale):
    """row += scale * the coefficients of a LinExpr, at its variables' columns."""
    for name, coeffs in expr.terms.items():
        row[offsets[name]] += scale * coeffs


def _psd_block_rows(block, program, offsets, A, b):
    """Write one PSD block's rows into A and b, views of the block's slice of rows.

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
            u, v = mdl.pair_indices(var.side)
            u, v = u + offset, v + offset
            coords = [index[d, d, 0], index[u, v, 0]]
            if var.hermitian:
                coords.append(index[u, v, 1])
            coords = np.concatenate(coords)
            A[coords, offsets[name].start + np.arange(coords.size)] -= weight
        else:
            # a real value v at (i, j) and (j, i) has coordinate sqrt(2) v
            _, i, j, expr = term
            const[i, j] += expr.const
            if i != j:
                const[j, i] += expr.const
            _add_expr(A[index[i, j, 0]], expr, offsets, -weight * (1.0 if i == j else SQRT2))
    b[:] = weight * mdl.matrix_to_params(block_var, const)


def assemble(program):
    """Flatten a ConicProgram into dense standard conic form.

    The rows are counted from the cone sizes first, so a program whose A
    would have more than MAX_DENSE entries is refused (InvalidArgumentError)
    before any array is allocated.
    """
    n_x, offsets = program.param_layout()
    n_zero = len(program.eq_constraints)
    n_nonneg = len(program.ineq_constraints)
    sizes = [mdl.MatrixVar(blk.name, blk.side, blk.complex_valued).n_params
             for blk in program.psd_blocks]
    m = n_zero + n_nonneg + sum(sizes)
    if m * n_x > MAX_DENSE:
        raise InvalidArgumentError(f"program of {m} x {n_x} is too large for the dense"
                                   " interior-point solver")
    A, b, c = np.zeros((m, n_x)), np.zeros(m), np.zeros(n_x)
    _add_expr(c, program.objective, offsets, 1.0)

    # zero cone: expr = 0  ->  A = g, b = -const
    # nonneg cone: s = expr >= 0  ->  A = -g, b = const
    for r, expr in enumerate(program.eq_constraints):
        _add_expr(A[r], expr, offsets, 1.0)
        b[r] = -expr.const
    for r, expr in enumerate(program.ineq_constraints, n_zero):
        _add_expr(A[r], expr, offsets, -1.0)
        b[r] = expr.const

    psd_slices = []
    row = n_zero + n_nonneg
    for block, n_rows in zip(program.psd_blocks, sizes):
        sl = slice(row, row + n_rows)
        _psd_block_rows(block, program, offsets, A[sl], b[sl])
        psd_slices.append(sl)
        row += n_rows
    return StandardForm(c=c, A=A, b=b, n_zero=n_zero, n_nonneg=n_nonneg,
                        psd_sides=[blk.side for blk in program.psd_blocks],
                        psd_slices=psd_slices,
                        psd_complex=[blk.complex_valued for blk in program.psd_blocks],
                        offsets=offsets)


# ---------------------------------------------------------------------------
# equilibration


def ruiz_equilibrate(form):
    """Ruiz scaling diag(D) A diag(E) over ten passes, with one uniform D per PSD block.

    Only the nonzero entries of A are read and scaled, and A is scaled in
    place: the returned A is form.A.  Entries are read divided by their
    block weight.  For a complex block these are the entries of its
    realified rows, so D and E are the scales of the realified program.
    """
    A = form.A
    m, n = A.shape
    nonzero = np.flatnonzero(A != 0)
    rows, cols = np.divmod(nonzero, n)
    data = A.take(nonzero)
    row_weight = np.ones(m)
    for sl, cplx in zip(form.psd_slices, form.psd_complex):
        row_weight[sl] = block_weight(cplx)
    entry_weight = row_weight[rows]
    D, E = np.ones(m), np.ones(n)
    for _ in range(10):
        mag = np.abs(data) / entry_weight
        row_norms = np.zeros(m)
        np.maximum.at(row_norms, rows, mag)
        for sl in form.psd_slices:
            row_norms[sl] = row_norms[sl].max(initial=0.0)
        dr = 1.0 / np.sqrt(np.clip(row_norms, 1e-10, 1e10))
        col_norms = np.zeros(n)
        np.maximum.at(col_norms, cols, mag)
        dc = 1.0 / np.sqrt(np.clip(col_norms, 1e-10, 1e10))
        # A <- diag(dr) A diag(dc), entry by entry
        data *= dr[rows]
        data *= dc[cols]
        D *= dr
        E *= dc
    np.put(A, nonzero, data)
    return A, D * form.b, E * form.c, D, E


# ---------------------------------------------------------------------------
# interior-point method


@dataclass
class ConicSolution:
    """A solve's end: status (see solve), the variables' values, the unscaled
    x, s and y of assemble's standard form of the program, and that form's
    layout (StandardForm.layout)."""

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
    layout: tuple

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

    explicit: the scaling is applied as an r x r matrix on the rows, 2 r^2
    flops a column, where that is no more than the congruence L X L^H, two
    matrix products of 16 n^3 (complex) or 4 n^3 (real) flops: up to side 8
    for a complex block and side 5 for a real one.  On larger blocks the
    matrix's r^2 entries and its build outgrow the congruence.
    """

    def __init__(self, n, cplx, starts):
        self.n, self.cplx, self.w = n, cplx, block_weight(cplx)
        r = self.r = mdl.MatrixVar("B", n, cplx).n_params
        self.rows = np.add.outer(np.asarray(starts), np.arange(r))
        index, weight = mdl.coordinate_map(n, cplx)
        self.index, self.to_matrix = index, weight / self.w
        d, (a, b) = np.arange(n), mdl.pair_indices(n)
        self.ia = np.concatenate([d, a, a] if cplx else [d, a])
        self.ib = np.concatenate([d, b, b] if cplx else [d, b])
        self.antisym = np.arange(r) >= n + a.size
        flat = self.ia * n + self.ib
        self.gather = 2 * flat + self.antisym if cplx else flat
        self.coef = self.w * np.where(self.ia == self.ib, 1.0, SQRT2)
        self.explicit = 2 * r * r <= (16 if cplx else 4) * n**3
        self.sel = _as_slice(self.rows.ravel())
        self.R = self.Rinv = self.RH = self.RinvH = np.broadcast_to(np.eye(n),
                                                                    (len(starts), n, n))

    def mats(self, v):
        M = v.take(self.index, axis=-1) * self.to_matrix
        return M.view(complex)[..., 0] if self.cplx else M[..., 0]

    def vecs(self, M):
        M = np.ascontiguousarray(M, dtype=complex if self.cplx else float)
        flat = (M.view(float) if self.cplx else M).reshape(M.shape[:-2] + (-1,))
        return flat.take(self.gather, axis=-1) * self.coef

    def operator_terms(self):
        """Gather indices and weights of the r x r matrix of X -> L X L^H.

        Column j is basis element B_j at entries (a, b), row i the
        coordinate of entry (c, d): L B_j L^H [c, d] = g_j (F[c, d, a, b] +
        s_j F[c, d, b, a]) with F[c, d, a, b] = L[c, a] conj L[d, b] (the
        outer products of L's columns) and (g, s) = (1/2, 1) on the
        diagonal, (1/sqrt2, 1) on symmetric and (i/sqrt2, -1) on
        antisymmetric pairs.  The coordinate is sqrt2 (1 on the diagonal)
        times its real part, or its imaginary part for an antisymmetric
        pair.  So entry (i, j) is w[0] x[idx[0]] + w[1] x[idx[1]], where x
        are F's entries as floats (real and imaginary parts) and w real;
        returns idx and w, both (2, r, r).
        """
        n, ia, ib, anti = self.n, self.ia, self.ib, self.antisym
        cd = (ia * n + ib)[:, None] * n * n
        # an antisymmetric column's g = i/sqrt2 swaps the part read from F:
        # Re(i z) = -Im z on a real-part row, Im(i z) = Re z on the others,
        # where s = -1 falls on the second term
        idx = 2 * np.stack([cd + ia * n + ib, cd + ib * n + ia]) + (anti[:, None] ^ anti)
        diag = ia == ib
        w = np.where(diag, 1.0, SQRT2)[:, None] * np.where(diag, 0.5, 1.0 / SQRT2)
        signs = np.stack([np.where(anti & ~anti[:, None], -1.0, 1.0),
                          np.where(anti & anti[:, None], -1.0, 1.0)])
        return idx, w * signs

    def padded_terms(self, N, first):
        """The blocks as complex N x N matrices, zero-padded, in floats.

        Returns, each of shape (k, N, N, 2): the row each float entry reads,
        its weight (0 outside the block and on a real block's imaginary
        part) and, stacked on a first axis of 2, the positions of its row's
        and column's lam among the values first + n b + i of block b; and,
        of shape (k, r), the float entry each row is read back from.
        """
        k, n, parts = len(self.rows), self.n, self.index.shape[2]
        idx, w = np.zeros((k, N, N, 2), int), np.zeros((k, N, N, 2))
        idx[:, :n, :n, :parts] = self.rows[:, self.index]
        w[:, :n, :n, :parts] = self.to_matrix
        at = np.zeros((2, k, N, N, 2), int)
        own = first + n * np.arange(k)[:, None, None, None]
        at[0, :, :n, :n] = own + np.arange(n)[:, None, None]
        at[1, :, :n, :n] = own + np.arange(n)[:, None]
        entry = (np.arange(k)[:, None] * N + self.ia) * N + self.ib
        return idx, w, at, 2 * entry + self.antisym


def _as_slice(idx):
    """A slice for consecutive indices (views, not copies), else the indices."""
    if idx.size and np.array_equal(idx, np.arange(idx[0], idx[0] + idx.size)):
        return slice(idx[0], idx[0] + idx.size)
    return idx


def _groups(form):
    """The PSD blocks of a standard form by side and field, rows counted from the
    first cone row."""
    kinds = {}
    for sl, n, cplx in zip(form.psd_slices, form.psd_sides, form.psd_complex):
        kinds.setdefault((n, cplx), []).append(sl.start - form.n_zero)
    return [_Group(n, cplx, starts) for (n, cplx), starts in kinds.items()]


class _Cone:
    """The cone rows of a standard form (nonnegative rows, then PSD blocks) and
    the Nesterov-Todd scaling W of a pair s, z in their interior.

    lam = W z = W^-T s.  On the nonnegative rows W = diag(d), d = sqrt(s / z).
    On a PSD block W z = R^H Z R and W^-T s = R^-1 S R^-H, both the diagonal
    matrix of the block's lam, so lam o u (the Jordan product) is u times
    (lam_i + lam_j) / 2 on each coordinate of pair (i, j).

    W^T and W^-T act on the rows of an explicit group (see _Group) as its
    matrices T and Tinv, which rescale builds from R and R^-1; W^-1 is
    Tinv^T.  The Jordan product and the step to the boundary treat all
    explicit blocks as one zero-padded batch.  The other groups are scaled
    by congruences with R, R^-1 and their conjugate transposes.
    """

    def __init__(self, form):
        self.q, self.m = form.n_nonneg, form.A.shape[0] - form.n_zero
        self.groups = _groups(form)
        self.explicit = [g for g in self.groups if g.explicit]
        self.congruent = [g for g in self.groups if not g.explicit]
        self.degree = self.q + sum(len(g.rows) * g.w**2 * g.n for g in self.groups)
        self.d = self.d_inv = np.ones(self.q)
        self.e = np.empty(self.m)
        self.e[: self.q] = 1.0
        for g in self.groups:
            self.e[g.rows] = g.vecs(np.eye(g.n))
        # lam, all groups' values in order, sits on the diagonal rows, and
        # each row's lam_fac averages the values of its pair
        firsts = np.cumsum([0] + [len(g.rows) * g.n for g in self.groups])
        self.diag_rows = np.concatenate([g.rows[:, : g.n].ravel() for g in self.groups]
                                        + [np.zeros(0, int)])
        self.diag_w = np.concatenate([np.full(len(g.rows) * g.n, g.w) for g in self.groups]
                                     + [np.zeros(0)])
        self.pair = np.empty((2, self.m - self.q), int)
        for g, first in zip(self.groups, firsts):
            own = first + g.n * np.arange(len(g.rows))[:, None]
            self.pair[:, g.rows - self.q] = own + g.ia, own + g.ib
        if self.explicit:
            self._plan_explicit(firsts)

    def _plan_explicit(self, firsts):
        """Index arrays of the explicit groups: T and Tinv, views of ops, are
        gathered from F_idx of the groups' F (of their R, then R^-1 blocks,
        stacked flat); the padded batch is described by _Group.padded_terms
        with blocks numbered across groups."""
        N = max(g.n for g in self.explicit)
        terms = {key: [] for key in ("F_idx", "F_w", "pad_idx", "pad_w", "pad_at", "unpad",
                                     "coef", "rows")}
        f0 = blk = 0
        for g, first in zip(self.groups, firsts):
            if not g.explicit:
                continue
            k = len(g.rows)
            idx, w = g.operator_terms()
            b = np.arange(2 * k)[:, None, None]
            terms["F_idx"].append((idx[:, None] + 2 * (f0 + b * g.n**4)).reshape(2, -1))
            terms["F_w"].append(np.broadcast_to(w[:, None], (2, 2 * k) + w.shape[1:])
                                .reshape(2, -1))
            idx, w, at, entry = g.padded_terms(N, first)
            terms["pad_idx"].append(idx.ravel())
            terms["pad_w"].append(w.ravel())
            terms["pad_at"].append(at.reshape(2, -1))
            terms["unpad"].append((entry + 2 * N * N * blk).ravel())
            terms["coef"].append(np.tile(0.5 * g.coef, k))
            terms["rows"].append(g.rows.ravel())
            f0, blk = f0 + 2 * k * g.n**4, blk + k
        for key, v in terms.items():
            setattr(self, key, np.concatenate(v, axis=-1))
        self.rows = _as_slice(self.rows)
        self.pad_shape = (blk, N, N)
        self.ops = np.empty(self.F_w.shape[1])
        o = 0
        for g in self.explicit:
            size = len(g.rows) * g.r**2
            g.T, g.Tinv = self.ops[o: o + 2 * size].reshape(2, -1, g.r, g.r)
            g.T[...] = g.Tinv[...] = np.eye(g.r)   # W = I until the first rescale
            o += 2 * size

    def _padded(self, v, weights):
        """The explicit blocks of rows v as the padded (..., K, N, N) batch, its
        float entries multiplied by weights (pad_w, or pad_scale of rescale)."""
        M = v.take(self.pad_idx, axis=-1) * weights
        return M.view(complex).reshape(v.shape[:-1] + self.pad_shape)

    def rescale(self, s_t, z_t):
        """Move W to the scaling of W^T s_t and W^-1 z_t (s_t, z_t in lam's coordinates)."""
        sz_t = np.stack([s_t, z_t])
        for g in self.groups:
            Ls, Lz = np.linalg.cholesky(g.mats(sz_t[:, g.rows]))
            Uz, g.lam, Vh = np.linalg.svd(_herm(Lz) @ Ls)
            root = np.sqrt(g.lam)
            g.R = g.R @ (Ls @ _herm(Vh) / root[:, None, :])
            # R^-1 = lam^-1/2 V^H Ls^-1 = lam^-1/2 Uz^H Lz^H, as Lz^H Ls = Uz lam V^H
            g.Rinv = (_herm(Lz @ Uz) / root[:, :, None]) @ g.Rinv
        for g in self.congruent:
            g.RH, g.RinvH = _herm(g.R), _herm(g.Rinv)
        self.lam_nn = np.sqrt(s_t[: self.q] * z_t[: self.q])
        self.d = self.d * np.sqrt(s_t[: self.q] / z_t[: self.q])
        self.d_inv = 1.0 / self.d
        lam = np.concatenate([g.lam.ravel() for g in self.groups] + [np.zeros(0)])
        self.lam = np.zeros(self.m)
        self.lam[: self.q] = self.lam_nn
        self.lam[self.diag_rows] = self.diag_w * lam
        self.lam_fac = np.empty(self.m)
        self.lam_fac[: self.q] = self.lam_nn
        self.lam_fac[self.q:] = 0.5 * (lam[self.pair[0]] + lam[self.pair[1]])
        if self.explicit:
            F = []
            for g in self.explicit:
                L = np.concatenate([g.R, g.Rinv])
                F.append((L[:, :, None, :, None] * L.conj()[:, None, :, None, :]).ravel())
            F = np.concatenate(F).astype(complex, copy=False).view(float)[self.F_idx]
            np.multiply(F[0], self.F_w[0], out=self.ops)
            self.ops += F[1] * self.F_w[1]
            isq = 1.0 / np.sqrt(lam)
            self.pad_scale = self.pad_w * isq[self.pad_at[0]] * isq[self.pad_at[1]]

    def _scale(self, v, d, op, L, out=None):
        """d v on the nonnegative rows, then, column by column of v, op(g) X on
        the rows X of each explicit group g and L(g) X L(g)^H on each other
        block X (L returns both factors); into out when given (of v's shape)."""
        V = v.reshape(self.m, -1)
        out = np.empty(V.shape) if out is None else out
        out[: self.q] = V[: self.q] * d[:, None]
        for g in self.explicit:
            X = V[g.sel].reshape(len(g.rows), g.r, -1)
            out[g.sel] = (op(g) @ X).reshape(-1, V.shape[1])
        for g in self.congruent:
            left, right = L(g)
            X = g.mats(np.swapaxes(V[g.rows], 1, 2))
            out[g.rows] = np.swapaxes(g.vecs(left[:, None] @ X @ right[:, None]), 1, 2)
        return out.reshape(v.shape)

    def t(self, v):
        """W^T v."""
        return self._scale(v, self.d, lambda g: g.T, lambda g: (g.R, g.RH))

    def inv_t(self, v, out=None):
        """W^-T v (v a vector or a matrix of columns), into out when given."""
        return self._scale(v, self.d_inv, lambda g: g.Tinv, lambda g: (g.Rinv, g.RinvH), out)

    def inv(self, v):
        """W^-1 v."""
        return self._scale(v, self.d_inv, lambda g: np.swapaxes(g.Tinv, 1, 2),
                           lambda g: (g.RinvH, g.Rinv))

    def product(self, u, v):
        """The Jordan product u o v (U V + V U) / 2, with V U = (U V)^H."""
        out = np.empty(self.m)
        out[: self.q] = u[: self.q] * v[: self.q]
        if self.explicit:
            P = self._padded(u, self.pad_w) @ self._padded(v, self.pad_w)
            out[self.rows] = (P + _herm(P)).view(float).ravel()[self.unpad] * self.coef
        for g in self.congruent:
            P = g.mats(u[g.rows]) @ g.mats(v[g.rows])
            out[g.rows] = g.vecs(0.5 * (P + _herm(P)))
        return out

    def max_step(self, *us):
        """Largest t with lam + t u in K for every u (inf when every t is).

        Each block bounds t by its smallest eigenvalue after scaling by
        lam^-1/2 on both sides; the padding of the explicit blocks adds
        eigenvalues 0, which bound nothing."""
        u = np.stack(us)
        worst = np.max(-u[:, : self.q] / self.lam_nn, initial=0.0)
        if self.explicit:
            worst = max(worst, -np.linalg.eigvalsh(self._padded(u, self.pad_scale)).min())
        for g in self.congruent:
            root = np.sqrt(g.lam)
            low = np.linalg.eigvalsh(g.mats(u[:, g.rows]) / (root[:, :, None] * root[:, None, :]))
            worst = max(worst, -low.min())
        return 1.0 / worst if worst > 0 else np.inf


def project_cone(v, form):
    """Euclidean projection onto K = {0}^p x R+^q x PSD(m_1) x ..., blocks in coordinates."""
    p, q = form.n_zero, form.n_nonneg
    out = np.zeros(v.size)
    out[p: p + q] = np.maximum(v[p: p + q], 0.0)
    for g in _groups(form):
        w, V = np.linalg.eigh(g.mats(v[p + g.rows]))
        out[p + g.rows] = g.vecs((V * np.maximum(w, 0.0)[:, None, :]) @ _herm(V))
    return out


def _triu_inv(U):
    """Inverse of an upper-triangular U by 2 x 2 block recursion,
    [[A, B], [0, C]]^-1 = [[A^-1, -A^-1 B C^-1], [0, C^-1]], with
    np.linalg.inv (back substitution on a triangular matrix) on the diagonal
    blocks of at most LEAF rows."""
    n = U.shape[0]
    if n <= LEAF:
        return np.linalg.inv(U)
    k = -(-n // (2 * LEAF)) * LEAF
    out = np.zeros_like(U)
    out[:k, :k] = A_inv = _triu_inv(U[:k, :k])
    out[k:, k:] = C_inv = _triu_inv(U[k:, k:])
    out[:k, k:] = -(A_inv @ U[:k, k:]) @ C_inv
    return out


@functools.lru_cache(maxsize=16)
def _fold_plan(shape, pattern):
    """What _fold_pairs reads and writes for a matrix of this shape and
    nonzero pattern (np.packbits of its mask), or None where folding its
    two-entry rows would remove no row.

    Returns (keep, rows, pairs, filled, tri): keep marks the other rows;
    GA[rows, pairs] * filled, of shape (pairs, rows per pair, 2), stacks
    each pair's rows at its two columns, zero-padded (filled 0); tri holds
    the rows (2 per pair) of the triangles placed at columns pairs.
    Cached and shared, so read-only.
    """
    m, n = shape
    nonzero = np.unpackbits(np.frombuffer(pattern, np.uint8), count=m * n).reshape(m, n)
    two = np.flatnonzero(np.count_nonzero(nonzero, axis=1) == 2)
    cols = (np.flatnonzero(nonzero[two]) % n).reshape(-1, 2)
    _, first, pair, counts = np.unique(cols[:, 0] * n + cols[:, 1], return_index=True,
                                       return_inverse=True, return_counts=True)
    if 2 * first.size >= two.size:
        return None   # folding would remove no row
    # two-entry row i is row place[i] of the stack of its pair, pair[i]
    place = np.empty(two.size, int)
    place[np.argsort(pair, kind="stable")] = (np.arange(two.size)
                                              - np.repeat(np.cumsum(counts) - counts, counts))
    # at least two rows per stack, so each QR gives a 2 x 2 triangle
    rows = np.zeros((first.size, max(2, counts.max()), 1), int)
    rows[pair, place] = two[:, None]
    filled = np.zeros(rows.shape)
    filled[pair, place] = 1.0
    keep = np.ones(m, bool)
    keep[two] = False
    tri = np.arange(2 * first.size).reshape(-1, 2, 1)
    plan = (keep, rows, cols[first][:, None, :], filled, tri)
    for a in plan:
        a.flags.writeable = False
    return plan


def _fold_pairs(GA):
    """A matrix with GA's Gram matrix GA^T GA in fewer rows, or GA itself.

    The rows whose support is one column pair (j, k), such as the chords
    of sca's energy-efficiency rows in (t_k, r_k), add only to the 2 x 2
    Gram block of their pair; one stacked QR of their two columns folds
    each pair's rows into the 2 x 2 triangle of that block (Andersen, Dahl
    and Vandenberghe, Math. Prog. Comp. 2010, exploit such structure in
    their Newton solves).  The result is GA's other rows followed by the
    triangles, each at its pair's columns; GA when folding removes no row.
    The Newton matrices of one solve share their pattern, so _fold_plan
    finds the rows and pairs once per solve.
    """
    plan = _fold_plan(GA.shape, np.packbits(GA != 0).tobytes())
    if plan is None:
        return GA
    keep, rows, pairs, filled, tri = plan
    T = np.linalg.qr(GA[rows, pairs] * filled, mode="r")
    triangles = np.zeros((tri.size, GA.shape[1]))
    triangles[tri, pairs] = T
    return np.concatenate([GA[keep], triangles])


class _Newton:
    """Solver of [0 A0^T G^T; A0 0 0; G 0 -W^T W] (dx, dy, dz) = (rx, ry, rz).

    Given t = W^-T rz, returns dx, dy and W dz = Gt dx - t, Gt = W^-T G: dx, dy
    solve [H A0^T; A0 0] = (rx + Gt^T t, ry), H = Gt^T Gt, through U^T U = H +
    A0^T A0 and its Schur complement.  U, the R of GA = [Gt; A0] (Gt its
    first m rows, read as views), comes from the QR of _fold_pairs(GA) and
    has the square root of the condition number of H, which reaches 1e16
    near the optimum.  Each solve with U^T U applies U^-T and U^-1
    (_triu_inv, built once per matrix), then takes one step of iterative
    refinement against GA's unfolded rows (Higham, "Accuracy and
    Stability of Numerical Algorithms", 2nd ed., ch. 12): without it the
    residuals of the paper design's Newton systems reach some 640 times
    those of LAPACK's Cholesky solves with the same U.  The Schur
    complement A0 (U^T U)^-1 A0^T, p x p, is inverted explicitly.
    """

    def __init__(self, GA, m):
        self.GA, self.Gt, self.A0 = GA, GA[:m], GA[m:]
        U = np.linalg.qr(_fold_pairs(GA), mode="r")
        d = np.abs(np.diagonal(U))
        if not d.min() > 1e-15 * d.max():
            raise np.linalg.LinAlgError("singular Newton matrix")
        self.U_inv = _triu_inv(U)
        if self.A0.shape[0]:
            self.Y = self._solve_normal(self.A0.T)
            self.S_inv = np.linalg.inv(self.A0 @ self.Y)

    def _solve_normal(self, r):
        """(GA^T GA)^-1 r, refined once."""
        u = self.U_inv @ (self.U_inv.T @ r)
        return u + self.U_inv @ (self.U_inv.T @ (r - self.GA.T @ (self.GA @ u)))

    def solve(self, rx, ry, t):
        u = self._solve_normal(rx + self.Gt.T @ t + self.A0.T @ ry)
        dy = np.zeros(0)
        if self.A0.shape[0]:
            dy = self.S_inv @ (self.A0 @ u - ry)
            u = u - self.Y @ dy
        return u, dy, self.Gt @ u - t


def _interior_point(form, A, b, c, tol, max_iter, start=None):
    """Homogeneous self-dual path following on min c.x, A x + s = b, s in K (A dense).

    start: None, or (x, s, y) in this program's units, from which the path
    starts instead of conelp's start.

    Returns (x, s, y, status, iterations, (primal, dual, gap)): the iterate
    divided by tau, for "infeasible" the dual ray normalized to b.y = -1, and
    for "max_iter" the iterate of smallest residuals and gap.  A "max_iter"
    solve also ends once its largest measure exceeds DIVERGED times the
    smallest so far.
    """
    p = form.n_zero
    A0, G, b0, h = A[:p], A[p:], b[:p], b[p:]
    m = G.shape[0]
    Gh = np.column_stack([G, h])
    cone = _Cone(form)
    norm_b, norm_c = max(1.0, np.linalg.norm(b)), max(1.0, np.linalg.norm(c))

    if start is None:
        # conelp's start: x minimizes ||G x - h|| on A0 x = b0, (y, z)
        # minimizes ||z|| on A^T (y, z) + c = 0; both are projected onto K
        # and moved inside
        newton = _Newton(np.vstack([G, A0]), m)
        x = newton.solve(np.zeros(A.shape[1]), b0, h)[0]
        s = project_cone(b - A @ x, form)[p:] + cone.e
        _, y, z = newton.solve(-c, np.zeros(p), np.zeros(h.size))
        z = project_cone(np.concatenate([np.zeros(p), z]), form)[p:] + cone.e
    else:
        # the given point, its s and z projected onto K and moved inside
        x, s, y = start
        s = project_cone(s, form)[p:] + WARM_SHIFT * cone.e
        z = project_cone(y, form)[p:] + WARM_SHIFT * cone.e
        y = y[:p]
    cone.rescale(s, z)
    tau = kappa = 1.0

    # each step's Newton matrix [W^-T G  W^-T h; A0 0], scaled in place
    GhA = np.zeros((m + p, Gh.shape[1]))
    GhA[m:, :-1] = A0
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
        if status != "max_iter" or it == max_iter or max(measures) > DIVERGED * best[0]:
            break
        mu = (gap + tau * kappa) / (cone.degree + 1)
        newton = None   # its Gt is a view of the rows scaled next
        cone.inv_t(Gh, out=GhA[:m])
        h_t = GhA[:m, -1].copy()   # contiguous, so its dot products round as h's did
        try:
            newton = _Newton(GhA[:, :-1], m)
        except np.linalg.LinAlgError:
            break
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


def solve(program, tol=1e-8, max_iter=100, start=None):
    """Solve a ConicProgram; returns a ConicSolution.

    start: None, or the ConicSolution of a program of the same layout (see
    StandardForm.layout; another layout raises InvalidArgumentError).  Its
    x, s and y, mapped through this program's equilibration, are where the
    path starts; without one it starts where conelp does.

    "optimal": the relative primal and dual residuals and the relative
    duality gap of the equilibrated program are at most tol.  "infeasible":
    y holds a dual ray, A^T y ~ 0 with y in K* and b . y = -1.  "max_iter":
    the solve stopped uncertified, at max_iter Newton steps or at a step it
    could not form.  assemble refuses (InvalidArgumentError) a program whose
    dense A would have more than MAX_DENSE entries, before allocating it.
    """
    form = assemble(program)
    if start is not None and start.layout != form.layout():
        raise InvalidArgumentError("the start solves a program of another layout")
    A, b, c, D, E = ruiz_equilibrate(form)
    if start is not None:
        start = (start.x / E, D * start.s, start.y / D)
    x, s, y, status, it, (pri, dual, gap) = _interior_point(form, A, b, c, tol, max_iter,
                                                            start)
    x, s, y = E * x, s / D, D * y
    assignments = program.split_solution(x, form.offsets)
    objective = float(form.c @ x + 0.0) + program.objective.const
    return ConicSolution(status=status, assignments=assignments, objective=objective,
                         primal_residual=float(pri), dual_residual=float(dual),
                         duality_gap=float(gap), iterations=it, x=x, y=y, s=s,
                         layout=form.layout())
