"""Modeling layer for trace-linear semidefinite programs.

A program holds matrix variables (complex Hermitian or real symmetric),
scalar variables, a real linear objective, scalar affine equality and
inequality constraints, and affine-in-the-variables PSD constraint blocks.

Matrix variables are parameterized by real coordinates in an orthonormal
basis under the Frobenius inner product Re Tr(A^H B), so every affine
quantity in the program is a real linear functional of one flat real
parameter vector.  Programs stay complex here: solver.assemble is the one
place that realifies a complex Hermitian block, by the [[Re, -Im], [Im, Re]]
doubling of realify_matrix, before the numerical solver sees it.
"""

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


def _hermitian_basis_indices(n):
    """(kind, a, b) descriptors for the orthonormal Hermitian basis."""
    out = [("d", l, l) for l in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            out.append(("s", a, b))
    for a in range(n):
        for b in range(a + 1, n):
            out.append(("a", a, b))
    return out


def _symmetric_basis_indices(n):
    out = [("d", l, l) for l in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            out.append(("s", a, b))
    return out


def basis_descriptors(var):
    if isinstance(var, ScalarVar):
        raise InvalidArgumentError("scalar variables have no matrix basis")
    if var.hermitian:
        return _hermitian_basis_indices(var.side)
    return _symmetric_basis_indices(var.side)


def params_to_matrix(var, x):
    """Reconstruct the matrix value of a variable from its coordinates."""
    n = var.side
    x = np.asarray(x, dtype=float)
    if var.hermitian:
        M = np.zeros((n, n), dtype=complex)
    else:
        M = np.zeros((n, n))
    for coeff, (kind, a, b) in zip(x, basis_descriptors(var)):
        if kind == "d":
            M[a, a] += coeff
        elif kind == "s":
            M[a, b] += coeff / SQRT2
            M[b, a] += coeff / SQRT2
        else:
            M[a, b] += 1j * coeff / SQRT2
            M[b, a] += -1j * coeff / SQRT2
    return M


def matrix_to_params(var, M):
    """Coordinates of a Hermitian/symmetric matrix in the variable's basis."""
    M = np.asarray(M)
    out = np.empty(var.n_params)
    for p, (kind, a, b) in enumerate(basis_descriptors(var)):
        if kind == "d":
            out[p] = np.real(M[a, a])
        elif kind == "s":
            out[p] = np.real(M[a, b] + M[b, a]) / SQRT2
        else:
            out[p] = np.real(-1j * (M[a, b] - M[b, a])) / SQRT2
    return out


def trace_coefficients(var, C):
    """Coefficient vector g with Re Tr(C V) = g . params(V)."""
    C = np.asarray(C)
    g = np.empty(var.n_params)
    for p, (kind, a, b) in enumerate(basis_descriptors(var)):
        if kind == "d":
            g[p] = np.real(C[a, a])
        elif kind == "s":
            g[p] = np.real(C[b, a] + C[a, b]) / SQRT2
        else:
            g[p] = np.real(1j * C[b, a] - 1j * C[a, b]) / SQRT2
    return g


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
      ("var", name, indices, scale)   -- scale * V added at the sub-block
                                         selected by the index array
      ("entry", i, j, LinExpr)        -- real expression added at (i, j) and,
                                         when i != j, mirrored at (j, i)
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

    def add_var(self, var, offset=0, scale=1.0, indices=None):
        if indices is None:
            indices = np.arange(offset, offset + var.side)
        self.terms.append(("var", var.name, np.asarray(indices), float(scale)))
        return self

    def set_entry(self, i, j, expr):
        if isinstance(expr, (int, float)):
            self.const[i, j] += expr
            if i != j:
                self.const[j, i] += expr
            return self
        self.terms.append(("entry", i, j, expr))
        return self

    def evaluate(self, assignments, program):
        M = self.const.astype(complex if self.complex_valued else float).copy()
        for term in self.terms:
            if term[0] == "var":
                _, name, idx, scale = term
                M[np.ix_(idx, idx)] += scale * np.asarray(assignments[name])
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
                name = term[1]
                if name not in self.variables:
                    raise InvalidArgumentError(f"undeclared variable {name!r} in block {block.name!r}")
                var = self.variables[name]
                if var.hermitian and not block.complex_valued:
                    raise InvalidArgumentError("Hermitian variable placed in a real block")
            else:
                self._check_expr(term[3])
        self.psd_blocks.append(block)
        return block

    def psd_var(self, var):
        """Constrain a declared matrix variable to be PSD."""
        block = PsdBlock(f"psd:{var.name}", var.side, complex_valued=var.hermitian)
        block.add_var(var)
        return self.add_psd_block(block)

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

    def expr_vector(self, expr, n_x, offsets):
        g = np.zeros(n_x)
        for name, coeffs in expr.terms.items():
            g[offsets[name]] = g[offsets[name]] + coeffs
        return g

    def split_solution(self, x, offsets):
        out = {}
        for name, var in self.variables.items():
            xs = x[offsets[name]]
            if isinstance(var, ScalarVar):
                out[name] = float(xs[0])
            else:
                out[name] = params_to_matrix(var, xs)
        return out


def epigraph_trace_inverse(program, xi_var, name="U"):
    """Add U and the LMI [[U, I], [I, Xi]] >= 0 so that min Tr(U) = Tr(Xi^-1).

    Returns the new U variable; the caller adds Tr(U) to the objective.
    """
    n = xi_var.side
    u_var = program.add_matrix_var(name, n, hermitian=xi_var.hermitian)
    block = PsdBlock(f"epi:{name}", 2 * n, complex_valued=xi_var.hermitian)
    block.const[:n, n:] = np.eye(n)
    block.const[n:, :n] = np.eye(n)
    block.add_var(u_var, offset=0)
    block.add_var(xi_var, offset=n)
    program.add_psd_block(block)
    return u_var


# ---------------------------------------------------------------------------
# realification


def realify_matrix(M):
    """Real symmetric representation [[Re M, -Im M], [Im M, Re M]] of Hermitian M."""
    Re, Im = np.real(M), np.imag(M)
    return np.block([[Re, -Im], [Im, Re]])
