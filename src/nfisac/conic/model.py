"""Modeling layer for trace-linear semidefinite programs.

A program holds matrix variables (complex Hermitian or real symmetric),
scalar variables, a real linear objective, scalar affine equality and
inequality constraints, and affine-in-the-variables PSD constraint blocks.

Matrix variables are parameterized by real coordinates in an orthonormal
basis under the Frobenius inner product Re Tr(A^H B), so every affine
quantity in the program is a real linear functional of one flat real
parameter vector.  The same coordinates (coordinate_map) describe every PSD
block: solver.assemble emits a block's rows in them and solver.project_cone
reads them back as the block's Hermitian or symmetric matrix.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidArgumentError

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# variables and bases


@dataclass(frozen=True)
class MatrixVar:
    name: str
    side: int
    hermitian: bool  # True: complex Hermitian; False: real symmetric

    @property
    def n_params(self):
        n = self.side
        return n * n if self.hermitian else n * (n + 1) // 2


@dataclass(frozen=True)
class ScalarVar:
    name: str

    @property
    def n_params(self):
        return 1


@functools.lru_cache(maxsize=None)
def pair_indices(n):
    """Row and column indices (a, b), a < b, of the off-diagonal basis elements.

    Cached and shared, so read-only.
    """
    a, b = np.triu_indices(n, 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


@functools.lru_cache(maxsize=None)
def coordinate_map(n, hermitian):
    """Index map between the coordinates x of an n x n matrix and its entries.

    The coordinates are the diagonal, then the symmetric pairs
    (E_ab + E_ba) / sqrt(2) in pair_indices order, then, for a Hermitian
    matrix, the antisymmetric pairs i (E_ab - E_ba) / sqrt(2).

    Returns (index, weight), both of shape (n, n, 2) for a Hermitian matrix
    (real and imaginary parts) and (n, n, 1) for a real one: the matrix, as
    floats, is x[index] * weight, where the imaginary diagonal has weight 0.
    The basis is orthonormal, so the coordinates of a matrix's Hermitian
    (symmetric) part are bincount(index, weight * matrix).  Cached and
    shared, so read-only.
    """
    d = np.arange(n)
    a, b = pair_indices(n)
    sym = n + np.arange(a.size)
    index = np.zeros((n, n, 2 if hermitian else 1), dtype=int)
    weight = np.zeros(index.shape)
    index[d, d, 0] = d
    weight[d, d, 0] = 1.0
    index[a, b, 0] = index[b, a, 0] = sym
    weight[a, b, 0] = weight[b, a, 0] = 1.0 / SQRT2
    if hermitian:
        index[a, b, 1] = index[b, a, 1] = sym + a.size
        weight[a, b, 1] = 1.0 / SQRT2
        weight[b, a, 1] = -1.0 / SQRT2
    index.flags.writeable = weight.flags.writeable = False
    return index, weight


def params_to_matrix(var, x):
    """Reconstruct the matrix value of a variable from its coordinates."""
    index, weight = coordinate_map(var.side, var.hermitian)
    M = np.asarray(x, dtype=float)[index] * weight
    return (M.view(complex) if var.hermitian else M).reshape(var.side, var.side)


def matrix_to_params(var, M):
    """Coordinates of the Hermitian/symmetric part of a matrix in the variable's basis."""
    index, weight = coordinate_map(var.side, var.hermitian)
    M = np.asarray(M)
    if var.hermitian:
        M = np.ascontiguousarray(M, dtype=complex).view(float)
    else:
        M = np.real(M)
    return np.bincount(index.ravel(), weights=(weight.ravel() * M.ravel()),
                       minlength=var.n_params)


def trace_coefficients(var, C):
    """Coefficient vector g with Re Tr(C V) = g . params(V)."""
    C = np.asarray(C)
    a, b = pair_indices(var.side)
    parts = [np.real(np.diagonal(C)), np.real(C[b, a] + C[a, b]) / SQRT2]
    if var.hermitian:
        parts.append(np.real(1j * C[b, a] - 1j * C[a, b]) / SQRT2)
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# affine expressions


class LinExpr:
    """Real affine expression: const + sum over variables of coeff . params."""

    __slots__ = ("const", "terms")

    def __init__(self, const=0.0, terms=None):
        self.const = float(const)
        self.terms = dict(terms or {})

    def copy(self):
        return LinExpr(self.const, {k: v.copy() for k, v in self.terms.items()})

    def add_term(self, name, coeffs):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if name in self.terms:
            self.terms[name] = self.terms[name] + coeffs
        else:
            self.terms[name] = coeffs
        return self

    def __add__(self, other):
        out = self.copy()
        if isinstance(other, LinExpr):
            out.const += other.const
            for k, v in other.terms.items():
                out.add_term(k, v)
        else:
            out.const += float(other)
        return out

    __radd__ = __add__

    def __mul__(self, scale):
        scale = float(scale)
        return LinExpr(self.const * scale, {k: v * scale for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, LinExpr) else -other)

    def __neg__(self):
        return self * -1.0

    def evaluate(self, assignments, program):
        """Numeric value under a {name: matrix-or-scalar} assignment."""
        val = self.const
        for name, coeffs in self.terms.items():
            var = program.variables[name]
            if isinstance(var, ScalarVar):
                val += coeffs[0] * float(assignments[name])
            else:
                val += coeffs @ matrix_to_params(var, assignments[name])
        return val


def real_trace(C, var):
    """LinExpr for Re Tr(C V)."""
    return LinExpr(0.0, {var.name: trace_coefficients(var, C)})


def scalar_term(var, coeff=1.0):
    return LinExpr(0.0, {var.name: np.array([float(coeff)])})


# ---------------------------------------------------------------------------
# PSD blocks


@dataclass
class PsdBlock:
    """Affine Hermitian/symmetric matrix expression constrained PSD.

    terms:
      ("var", name, offset)      -- V added at the diagonal sub-block
                                    whose first row and column is offset
      ("entry", i, j, LinExpr)   -- real expression added at (i, j) and,
                                    when i != j, mirrored at (j, i)
    Constant entries go into const.
    """

    name: str
    side: int
    complex_valued: bool
    const: np.ndarray = None
    terms: list = field(default_factory=list)

    def __post_init__(self):
        dtype = complex if self.complex_valued else float
        if self.const is None:
            self.const = np.zeros((self.side, self.side), dtype=dtype)
        else:
            self.const = np.asarray(self.const, dtype=dtype)

    def add_var(self, var, offset=0):
        """Add V at rows and columns offset .. offset + side - 1."""
        self.terms.append(("var", var.name, offset))
        return self

    def set_entry(self, i, j, expr):
        self.terms.append(("entry", i, j, expr))
        return self

    def evaluate(self, assignments, program):
        M = self.const.astype(complex if self.complex_valued else float).copy()
        for term in self.terms:
            if term[0] == "var":
                _, name, offset = term
                V = np.asarray(assignments[name])
                sl = slice(offset, offset + len(V))
                M[sl, sl] += V
            else:
                _, i, j, expr = term
                v = expr.evaluate(assignments, program)
                M[i, j] += v
                if i != j:
                    M[j, i] += v
        return M


# ---------------------------------------------------------------------------
# program


class ConicProgram:
    """Container for a trace-linear PSD program; solved by conic.solver.solve."""

    def __init__(self):
        self.variables = {}
        self.objective = LinExpr()
        self.eq_constraints = []    # LinExpr == 0
        self.ineq_constraints = []  # LinExpr >= 0
        self.psd_blocks = []

    # -- declaration ------------------------------------------------------
    def add_matrix_var(self, name, side, hermitian=True):
        self._check_new(name)
        var = MatrixVar(name, side, hermitian)
        self.variables[name] = var
        return var

    def add_scalar_var(self, name):
        self._check_new(name)
        var = ScalarVar(name)
        self.variables[name] = var
        return var

    def _check_new(self, name):
        if name in self.variables:
            raise InvalidArgumentError(f"variable {name!r} already declared")

    def set_objective(self, expr):
        self._check_expr(expr)
        self.objective = expr

    def add_eq(self, expr):
        self._check_expr(expr)
        self.eq_constraints.append(expr)

    def add_ineq(self, expr):
        """Constrain expr >= 0."""
        self._check_expr(expr)
        self.ineq_constraints.append(expr)

    def add_psd_block(self, block):
        for term in block.terms:
            if term[0] == "var":
                _, name, offset = term
                var = self.variables.get(name)
                if not isinstance(var, MatrixVar):
                    raise InvalidArgumentError(
                        f"no matrix variable {name!r} for block {block.name!r}")
                if var.hermitian and not block.complex_valued:
                    raise InvalidArgumentError("Hermitian variable placed in a real block")
                if offset < 0 or offset + var.side > block.side:
                    raise InvalidArgumentError(
                        f"{name!r} at offset {offset} leaves block {block.name!r}"
                        f" of side {block.side}")
            else:
                _, i, j, expr = term
                if not (0 <= i < block.side and 0 <= j < block.side):
                    raise InvalidArgumentError(
                        f"entry ({i}, {j}) outside block {block.name!r} of side {block.side}")
                self._check_expr(expr)
        self.psd_blocks.append(block)
        return block

    def psd_var(self, var):
        """Constrain a declared matrix variable to be PSD, as its own block."""
        if self.variables.get(var.name) is not var:
            raise InvalidArgumentError(f"{var.name!r} is not a variable of this program")
        return self.add_psd_block(
            PsdBlock(f"psd:{var.name}", var.side, complex_valued=var.hermitian).add_var(var))

    def _check_expr(self, expr):
        for name in expr.terms:
            if name not in self.variables:
                raise InvalidArgumentError(f"undeclared variable {name!r}")
            var = self.variables[name]
            if len(expr.terms[name]) != var.n_params:
                raise InvalidArgumentError(f"coefficient length mismatch for {name!r}")

    # -- layout -----------------------------------------------------------
    def param_layout(self):
        """(total length, {name: slice}) for the flat parameter vector."""
        offsets = {}
        pos = 0
        for name, var in self.variables.items():
            offsets[name] = slice(pos, pos + var.n_params)
            pos += var.n_params
        return pos, offsets

    def split_solution(self, x, offsets):
        out = {}
        for name, var in self.variables.items():
            xs = x[offsets[name]]
            if isinstance(var, ScalarVar):
                out[name] = float(xs[0])
            else:
                out[name] = params_to_matrix(var, xs)
        return out


def epigraph_trace_inverse(program, *xi_vars, shift=0.0, name="U"):
    """Add U and the LMI [[U, I], [I, Xi]] >= 0 so that min Tr(U) = Tr(Xi^-1),
    where Xi = shift * I + the sum of xi_vars (variables of one side and field).

    Returns the new U variable; the caller adds Tr(U) to the objective.
    """
    n, hermitian = xi_vars[0].side, xi_vars[0].hermitian
    u_var = program.add_matrix_var(name, n, hermitian=hermitian)
    block = PsdBlock(f"epi:{name}", 2 * n, complex_valued=hermitian)
    block.const[:n, n:] = np.eye(n)
    block.const[n:, :n] = np.eye(n)
    block.const[n:, n:] = shift * np.eye(n)
    block.add_var(u_var, offset=0)
    for xi_var in xi_vars:
        block.add_var(xi_var, offset=n)
    program.add_psd_block(block)
    return u_var
