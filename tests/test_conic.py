import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse
from hypothesis import given, settings, strategies as st

from nfisac.bounds import realify_matrix
from nfisac.conic.model import (
    ConicProgram,
    LinExpr,
    MatrixVar,
    PsdBlock,
    epigraph_trace_inverse,
    matrix_to_params,
    params_to_matrix,
    real_trace,
    scalar_term,
    subspace_isometry,
    trace_coefficients,
)
from nfisac.conic import solver
from nfisac.conic.solver import assemble, solve
from nfisac.errors import InvalidArgumentError


def _random_hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (A + A.conj().T)


def _basis_descriptors(n, hermitian):
    """(kind, a, b) of each coordinate: diagonal, symmetric pairs, antisymmetric pairs."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    out = [("d", l, l) for l in range(n)] + [("s", a, b) for a, b in pairs]
    if hermitian:
        out += [("a", a, b) for a, b in pairs]
    return out


def coords_to_matrix(x, n, hermitian):
    """Matrix with coordinates x, one basis element at a time."""
    M = np.zeros((n, n), dtype=complex if hermitian else float)
    for coeff, (kind, a, b) in zip(x, _basis_descriptors(n, hermitian)):
        if kind == "d":
            M[a, a] += coeff
        elif kind == "s":
            M[a, b] += coeff / np.sqrt(2.0)
            M[b, a] += coeff / np.sqrt(2.0)
        else:
            M[a, b] += 1j * coeff / np.sqrt(2.0)
            M[b, a] += -1j * coeff / np.sqrt(2.0)
    return M


def matrix_to_coords(M, n, hermitian):
    """Coordinates of the Hermitian part of M, one basis element at a time."""
    out = []
    for kind, a, b in _basis_descriptors(n, hermitian):
        if kind == "d":
            out.append(np.real(M[a, a]))
        elif kind == "s":
            out.append(np.real(M[a, b] + M[b, a]) / np.sqrt(2.0))
        else:
            out.append(np.real(-1j * (M[a, b] - M[b, a])) / np.sqrt(2.0))
    return np.array(out)


# ---------------------------------------------------------------------------
# basis layer


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 6))
def test_params_round_trip_hermitian(seed, n):
    rng = np.random.default_rng(seed)
    prog = ConicProgram()
    var = prog.add_matrix_var("V", n)
    M = _random_hermitian(rng, n)
    np.testing.assert_allclose(params_to_matrix(var, matrix_to_params(var, M)), M,
                               atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 6))
def test_trace_functional_consistency(seed, n):
    rng = np.random.default_rng(seed)
    prog = ConicProgram()
    var = prog.add_matrix_var("V", n)
    M = _random_hermitian(rng, n)
    C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = trace_coefficients(var, C)
    assert g @ matrix_to_params(var, M) == pytest.approx(
        float(np.real(np.trace(C @ M))), rel=1e-10, abs=1e-10)


def test_trace_coefficients_match_basis_loop():
    # one entry per basis descriptor, each computed as a scalar
    rng = np.random.default_rng(4)
    prog = ConicProgram()
    for n, hermitian in [(1, True), (4, True), (4, False)]:
        var = prog.add_matrix_var(f"V{n}{hermitian}", n, hermitian=hermitian)
        C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ref = []
        for kind, a, b in _basis_descriptors(n, hermitian):
            if kind == "d":
                ref.append(np.real(C[a, a]))
            elif kind == "s":
                ref.append(np.real(C[b, a] + C[a, b]) / np.sqrt(2.0))
            else:
                ref.append(np.real(1j * C[b, a] - 1j * C[a, b]) / np.sqrt(2.0))
        np.testing.assert_array_equal(trace_coefficients(var, C), ref)


def test_coordinate_maps_match_basis_loop():
    # the vectorized maps against the loops over basis elements; the
    # weights multiply by 1/sqrt(2) where the loops divide by sqrt(2), so
    # the two agree to a few units in the last place
    rng = np.random.default_rng(6)
    for n, hermitian in [(1, True), (1, False), (2, True), (5, True), (5, False)]:
        var = MatrixVar("V", n, hermitian)
        x = rng.standard_normal(var.n_params)
        np.testing.assert_allclose(params_to_matrix(var, x), coords_to_matrix(x, n, hermitian),
                                   rtol=0, atol=1e-15 * np.abs(x).max())
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ref = matrix_to_coords(M, n, hermitian)
        np.testing.assert_allclose(matrix_to_params(var, M), ref,
                                   rtol=0, atol=1e-15 * np.abs(M).max())


def test_basis_is_orthonormal():
    prog = ConicProgram()
    var = prog.add_matrix_var("V", 3)
    n_p = var.n_params
    G = np.empty((n_p, n_p))
    for i in range(n_p):
        e = np.zeros(n_p)
        e[i] = 1.0
        Mi = params_to_matrix(var, e)
        for j in range(n_p):
            e2 = np.zeros(n_p)
            e2[j] = 1.0
            Mj = params_to_matrix(var, e2)
            G[i, j] = float(np.real(np.trace(Mi.conj().T @ Mj)))
    np.testing.assert_allclose(G, np.eye(n_p), atol=1e-12)


def test_linexpr_algebra_and_evaluate():
    prog = ConicProgram()
    t = prog.add_scalar_var("t")
    var = prog.add_matrix_var("V", 2)
    e = LinExpr(1.5) + 2.0 * scalar_term(t) - real_trace(np.eye(2), var)
    M = np.array([[1.0, 0.5j], [-0.5j, 3.0]])
    assert e.evaluate({"t": 2.0, "V": M}, prog) == pytest.approx(1.5 + 4.0 - 4.0)
    assert (-e).evaluate({"t": 2.0, "V": M}, prog) == pytest.approx(-1.5)


def test_block_coordinates_preserve_inner_products():
    # a complex block's rows are sqrt(2) times its coordinates: their dot
    # product is that of the realified matrices; a real block's rows are
    # its coordinates, with the dot product of the matrices
    rng = np.random.default_rng(3)
    H, G = _random_hermitian(rng, 4), _random_hermitian(rng, 4)
    var = MatrixVar("H", 4, hermitian=True)
    w = solver.block_weight(True)
    assert (w * matrix_to_params(var, H)) @ (w * matrix_to_params(var, G)) == pytest.approx(
        np.trace(realify_matrix(H) @ realify_matrix(G)), rel=1e-12)
    A, B = H.real, G.real
    var = MatrixVar("A", 4, hermitian=False)
    assert solver.block_weight(False) == 1.0
    assert matrix_to_params(var, A) @ matrix_to_params(var, B) == pytest.approx(
        np.trace(A @ B), rel=1e-12)
    np.testing.assert_allclose(params_to_matrix(var, matrix_to_params(var, A)), A, atol=1e-12)


def test_duplicate_variable_rejected():
    prog = ConicProgram()
    prog.add_matrix_var("V", 2)
    with pytest.raises(InvalidArgumentError):
        prog.add_matrix_var("V", 3)
    with pytest.raises(InvalidArgumentError):
        prog.set_objective(LinExpr(0.0, {"unknown": np.ones(1)}))


def test_psd_block_rejects_misplaced_terms():
    # a term must lie inside its block: a variable past the edge would
    # write into the next block's rows
    prog = ConicProgram()
    V = prog.add_matrix_var("V", 2, hermitian=False)
    t = prog.add_scalar_var("t")
    for offset in (-1, 2, 3):
        block = PsdBlock("b", 3, complex_valued=False)
        block.add_var(V, offset=offset)
        with pytest.raises(InvalidArgumentError):
            prog.add_psd_block(block)
    for i, j in [(3, 0), (0, 3), (-1, 1), (2, -1)]:
        block = PsdBlock("b", 3, complex_valued=False)
        block.set_entry(i, j, scalar_term(t))
        with pytest.raises(InvalidArgumentError):
            prog.add_psd_block(block)
    block = PsdBlock("t", 3, complex_valued=False)
    block.set_entry(0, 0, scalar_term(t))
    with pytest.raises(InvalidArgumentError):
        prog.add_psd_block(block.add_var(t))
    assert prog.psd_blocks == []
    block = PsdBlock("b", 3, complex_valued=False)
    block.add_var(V, offset=1)
    block.set_entry(0, 2, scalar_term(t))
    prog.add_psd_block(block)
    assert assemble(prog).A.shape[0] == 6


# ---------------------------------------------------------------------------
# solver on problems with known answers


def test_scalar_lp():
    # minimize t subject to t >= 3
    prog = ConicProgram()
    t = prog.add_scalar_var("t")
    prog.set_objective(scalar_term(t))
    prog.add_ineq(scalar_term(t) - 3.0)
    sol = solve(prog, tol=1e-9)
    assert sol.optimal
    assert sol.assignments["t"] == pytest.approx(3.0, abs=1e-6)


def _dominance_program():
    # minimize Tr(W) subject to W >= 0 and W >= C (PSD order); the optimum
    # is the positive part of C, so the value clips the negative eigenvalues
    rng = np.random.default_rng(0)
    C = _random_hermitian(rng, 4)
    prog = ConicProgram()
    W = prog.add_matrix_var("W", 4)
    prog.psd_var(W)
    block = PsdBlock("dom", 4, complex_valued=True, const=-C)
    block.add_var(W)
    prog.add_psd_block(block)
    prog.set_objective(real_trace(np.eye(4), W))
    return prog, C


def test_sdp_dominance():
    prog, C = _dominance_program()
    sol = solve(prog, tol=1e-9)
    assert sol.optimal
    evals = np.linalg.eigvalsh(C)
    assert sol.objective == pytest.approx(evals[evals > 0].sum(), abs=1e-5)


def _low_rank_rows():
    """A of 12 columns: one-entry rows (one column twice, one column never),
    an empty row, and 8 multi-entry rows of rank 3 interleaved with them."""
    rng = np.random.default_rng(7)
    single = np.zeros((12, 12))
    single[np.arange(11), np.arange(11)] = rng.uniform(0.5, 2.0, 11)
    single[11, 4] = -0.7          # a second one-entry row on column 4
    multi = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 12))
    A = np.vstack([single[:5], multi[:4], np.zeros((1, 12)), single[5:], multi[4:]])
    return scipy.sparse.csr_matrix(A)


def test_x_update_matches_dense_solve():
    # the low-rank split of A and the bordered Woodbury solve of
    # sigma I + rho A^T A; column 11 is touched by the multi-entry rows only,
    # where plain Woodbury loses digits as rho / sigma grows
    A = _low_rank_rows()
    op = solver._RowSplit(A)
    assert op.rows.tolist() == [5, 6, 7, 8, 17, 18, 19, 20]
    assert op.Z.shape == (12, 3)
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal(12), rng.standard_normal(21)
    np.testing.assert_allclose(op.dot(x), A @ x, rtol=0, atol=1e-12 * np.abs(A @ x).max())
    np.testing.assert_allclose(op.tdot(y), A.T @ y, rtol=0, atol=1e-12 * np.abs(A.T @ y).max())
    xs = solver._XSolver(op)
    assert xs.T.tolist() == [11]
    AtA = (A.T @ A).toarray()
    for rho in (1e-3, 1.0, 64.0, 1e3, 1.0):
        xs.set_rho(rho)
        rhs = rng.standard_normal(12)
        ref = np.linalg.solve(solver.SIGMA * np.eye(12) + rho * AtA, rhs)
        np.testing.assert_allclose(xs.solve(rhs), ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def _cone_form():
    # zero rows, nonnegative rows, and PSD blocks: two real of side 3, one
    # of side 1, two complex of side 2 and one of side 5
    prog = ConicProgram()
    t = prog.add_scalar_var("t")
    prog.add_eq(scalar_term(t))
    prog.add_eq(scalar_term(t, 2.0))
    for _ in range(4):
        prog.add_ineq(scalar_term(t))
    for k, (side, hermitian) in enumerate([(3, False), (1, False), (2, True), (3, False),
                                           (5, True), (2, True)]):
        prog.psd_var(prog.add_matrix_var(f"V{k}", side, hermitian=hermitian))
    return assemble(prog)


def _cone_point(rng, form, psd_blocks=()):
    """Random vector of the form's cone space, blocks as weighted coordinates."""
    v = rng.standard_normal(form.A.shape[0])
    for k, (side, sl, cplx) in enumerate(zip(form.psd_sides, form.psd_slices,
                                              form.psd_complex)):
        M = _random_hermitian(rng, side) if cplx else _random_hermitian(rng, side).real
        if k in psd_blocks:
            M = M @ M.conj().T
        v[sl] = solver.block_weight(cplx) * matrix_to_coords(M, side, cplx)
    return v


def _dense_projection(v, form):
    out = v.copy()
    out[: form.n_zero] = 0.0
    ng = slice(form.n_zero, form.n_zero + form.n_nonneg)
    out[ng] = np.maximum(out[ng], 0.0)
    for side, sl, cplx in zip(form.psd_sides, form.psd_slices, form.psd_complex):
        weight = solver.block_weight(cplx)
        w, V = np.linalg.eigh(coords_to_matrix(v[sl] / weight, side, cplx))
        P = (V * np.maximum(w, 0.0)) @ V.conj().T
        out[sl] = weight * matrix_to_coords(P, side, cplx)
    return out


def test_project_cone_matches_dense_projection():
    rng = np.random.default_rng(11)
    form = _cone_form()
    assert form.psd_sides == [3, 1, 2, 3, 5, 2]
    assert form.psd_complex == [False, False, True, False, True, True]
    assert [sl.stop - sl.start for sl in form.psd_slices] == [6, 1, 4, 6, 25, 4]
    for psd_blocks in [(), (0, 2), tuple(range(6))]:
        for _ in range(10):
            v = _cone_point(rng, form, psd_blocks)
            np.testing.assert_allclose(solver.project_cone(v, form), _dense_projection(v, form),
                                       rtol=0, atol=1e-12 * np.abs(v).max())


def test_project_cone_is_idempotent():
    rng = np.random.default_rng(12)
    form = _cone_form()
    for _ in range(10):
        p = solver.project_cone(_cone_point(rng, form), form)
        np.testing.assert_allclose(solver.project_cone(p, form), p, rtol=0,
                                   atol=1e-12 * np.abs(p).max())


def _single_block_form(side):
    prog = ConicProgram()
    prog.psd_var(prog.add_matrix_var("W", side))
    return assemble(prog)


def _block_coords(B):
    return solver.block_weight(True) * matrix_to_coords(B, B.shape[0], True)


def test_project_cone_block_that_zheevr_fails_on():
    # LAPACK zheevr reports info = 1 on this PSD block, which
    # test_sca::test_extended_penalized_run_is_rank_one_and_feasible reaches
    u = np.exp(-1.89j * np.arange(4)) / 2
    B = 0.1 * np.eye(4) + 28.5 * np.outer(u, u.conj())
    form = _single_block_form(4)
    v = _block_coords(B)
    np.testing.assert_allclose(solver.project_cone(v, form), _dense_projection(v, form),
                               rtol=0, atol=1e-12 * np.abs(v).max())


@pytest.mark.parametrize("positive", [0, 1, 16])
def test_project_cone_near_rank_one_blocks(positive):
    # a 16 x 16 complex block near a u u^H with 0, 1 or 16 positive
    # eigenvalues, the cases the design programs' W blocks meet
    rng = np.random.default_rng(positive)
    u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    shift = {0: -0.01, 1: -0.01, 16: 0.01}[positive]
    B = (1.0 if positive else -1.0) * np.outer(u, u.conj()) + shift * np.eye(16)
    B += 1e-4 * _random_hermitian(rng, 16)
    assert np.sum(np.linalg.eigvalsh(B) > 0) == positive
    form = _single_block_form(16)
    v = _block_coords(B)
    np.testing.assert_allclose(solver.project_cone(v, form), _dense_projection(v, form),
                               rtol=0, atol=1e-12 * np.abs(v).max())


def test_project_cone_falls_back_when_lapack_fails(monkeypatch):
    # every subset eigensolver call reports failure: the full
    # eigendecomposition gives the same projection
    def failing(B, **kwargs):
        return np.zeros(B.shape[0]), np.zeros(B.shape, B.dtype), 0, None, 1

    monkeypatch.setattr(scipy.linalg.lapack, "zheevr", failing)
    monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", failing)
    rng = np.random.default_rng(14)
    form = _cone_form()
    for psd_blocks in [(), (0, 2), tuple(range(6))]:
        v = _cone_point(rng, form, psd_blocks)
        np.testing.assert_allclose(solver.project_cone(v, form), _dense_projection(v, form),
                                   rtol=0, atol=1e-12 * np.abs(v).max())


def test_epigraph_trace_inverse_value():
    # pin Xi to a known PD matrix; min Tr(U) must equal Tr(Xi^-1)
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3))
    Xi0 = A @ A.T + 3.0 * np.eye(3)
    prog = ConicProgram()
    xi = prog.add_matrix_var("Xi", 3, hermitian=False)
    for i in range(3):
        for j in range(i, 3):
            C = np.zeros((3, 3))
            C[j, i] = 1.0
            prog.add_eq(real_trace(C, xi) - Xi0[i, j])
    u = epigraph_trace_inverse(prog, xi)
    prog.set_objective(real_trace(np.eye(3), u))
    sol = solve(prog, tol=1e-9)
    assert sol.optimal
    assert sol.objective == pytest.approx(np.trace(np.linalg.inv(Xi0)), rel=1e-5)


def test_infeasible_program_detected():
    prog = ConicProgram()
    t = prog.add_scalar_var("t")
    prog.set_objective(scalar_term(t))
    prog.add_ineq(scalar_term(t) - 1.0)    # t >= 1
    prog.add_ineq(LinExpr(-0.5) - scalar_term(t))  # t <= -0.5
    sol = solve(prog, tol=1e-8, max_iter=20000, infeas_after=500)
    assert sol.status == "infeasible"


def test_infeasible_psd_program_detected():
    # W >= 0 with Tr W = -1: the certificate pairs the free multiplier of
    # the equality row with a PSD block, so it must not be clipped on the
    # zero rows
    prog = ConicProgram()
    W = prog.add_matrix_var("W", 3)
    prog.psd_var(W)
    prog.add_eq(real_trace(np.eye(3), W) + 1.0)
    prog.set_objective(real_trace(np.eye(3), W))
    sol = solve(prog, infeas_after=500)
    assert sol.status == "infeasible"
    assert sol.iterations == 500


def test_rho_changes_counted(monkeypatch):
    # the infeasible LP keeps a large primal residual, so rho doubles at
    # each rebalancing check until the certificate stops the run
    rhos = []
    set_rho = solver._XSolver.set_rho

    def recording_set_rho(self, rho):
        rhos.append(rho)
        set_rho(self, rho)

    monkeypatch.setattr(solver._XSolver, "set_rho", recording_set_rho)
    prog = ConicProgram()
    t = prog.add_scalar_var("t")
    prog.set_objective(scalar_term(t))
    prog.add_ineq(scalar_term(t) - 1.0)
    prog.add_ineq(LinExpr(-0.5) - scalar_term(t))
    sol = solve(prog, tol=1e-8, max_iter=20000, infeas_after=500)
    assert sol.status == "infeasible"
    assert rhos == [solver.RHO, 2 * solver.RHO, 4 * solver.RHO]
    assert sol.rho_changes == 2


def test_warm_start_resumes():
    rng = np.random.default_rng(2)
    C = _random_hermitian(rng, 5)
    prog = ConicProgram()
    W = prog.add_matrix_var("W", 5)
    block = PsdBlock("dom", 5, complex_valued=True, const=-C)
    block.add_var(W)
    prog.add_psd_block(block)
    prog.set_objective(real_trace(np.eye(5), W))
    cold = solve(prog, tol=1e-9)
    warm = solve(prog, tol=1e-9, warm_start=(cold.x, cold.s, cold.y))
    assert warm.optimal
    assert warm.iterations <= cold.iterations
    assert warm.objective == pytest.approx(cold.objective, rel=1e-6)


def test_capped_solve_matches_realified_iterates():
    # 25 iterations, far from optimal, of a program with a complex dominance
    # block and a complex block that holds a variable at an offset, a scalar
    # and a constant: the values are those of the solver that stored each
    # complex block as its realified 2n x 2n symmetric matrix, so a change
    # of row format, row weight or Ruiz scaling that alters the iterates
    # shows here
    C = _random_hermitian(np.random.default_rng(0), 4)
    prog = ConicProgram()
    W = prog.add_matrix_var("W", 4)
    V = prog.add_matrix_var("V", 2)
    t = prog.add_scalar_var("t")
    prog.psd_var(W)
    dom = PsdBlock("dom", 4, complex_valued=True, const=-C)
    dom.add_var(W)
    prog.add_psd_block(dom)
    schur = PsdBlock("schur", 3, complex_valued=True)
    schur.const[0, 1] = schur.const[1, 0] = 1.0
    schur.add_var(V, offset=1)
    schur.set_entry(0, 0, scalar_term(t))
    prog.add_psd_block(schur)
    prog.add_ineq(LinExpr(10.0) - real_trace(np.eye(4), W))
    prog.set_objective(real_trace(np.diag([1.0, 2.0, 3.0, 4.0]), W) + scalar_term(t)
                       + real_trace(np.eye(2), V))
    sol = solve(prog, tol=1e-12, max_iter=25)
    assert sol.status == "max_iter"
    assert sol.iterations == 25
    assert sol.objective == pytest.approx(5.358454351067375, rel=1e-10)
    assert sol.primal_residual == pytest.approx(1.6005907245357956e-3, rel=1e-10)
    assert sol.dual_residual == pytest.approx(4.3887556062619185e-3, rel=1e-10)
    assert sol.duality_gap == pytest.approx(7.02025528910532e-3, rel=1e-10)


def test_equality_constraints_enforced():
    # minimize Tr(diag([2,1]) W) s.t. Tr(W) == 4, W PSD: all mass on the
    # cheap diagonal entry
    prog = ConicProgram()
    W = prog.add_matrix_var("W", 2)
    prog.psd_var(W)
    prog.set_objective(real_trace(np.diag([2.0, 1.0]), W))
    prog.add_eq(real_trace(np.eye(2), W) - 4.0)
    sol = solve(prog, tol=1e-9)
    assert sol.optimal
    assert sol.objective == pytest.approx(4.0, abs=1e-5)
    assert np.real(sol.assignments["W"][1, 1]) == pytest.approx(4.0, abs=1e-4)


def test_assemble_dimensions_consistent():
    prog = ConicProgram()
    W = prog.add_matrix_var("W", 3)
    prog.psd_var(W)
    t = prog.add_scalar_var("t")
    prog.add_ineq(scalar_term(t) - 1.0)
    prog.add_eq(real_trace(np.eye(3), W) - 2.0)
    prog.set_objective(scalar_term(t) + real_trace(np.eye(3), W))
    form = assemble(prog)
    assert form.n_x == W.n_params + 1
    assert form.n_zero == 1
    assert form.n_nonneg == 1
    assert form.psd_sides == [3]
    assert form.A.shape[0] == 2 + 9  # a complex 3x3 block has 9 coordinates


def test_ruiz_equilibrate_matches_matrix_products():
    # the in-place scaling of A's entries against diag(dr) @ A @ diag(dc)
    # per pass, with the same arithmetic, so the results are equal
    form = _cone_form()
    rng = np.random.default_rng(13)
    A = form.A.tocsr(copy=True)
    A.data = rng.standard_normal(A.nnz) * 10.0 ** rng.integers(-4, 5, A.nnz)
    form.A = A
    # complex PSD rows are read at 1/sqrt(2), as entries of the realified rows
    row_weight = np.ones(A.shape[0])
    for sl, cplx in zip(form.psd_slices, form.psd_complex):
        row_weight[sl] = np.sqrt(2.0) if cplx else 1.0
    D, E = np.ones(A.shape[0]), np.ones(A.shape[1])
    for _ in range(10):
        mag = abs(A).toarray() / row_weight[:, None]
        rows = mag.max(axis=1)
        for sl in form.psd_slices:
            rows[sl] = rows[sl].max()
        dr = 1.0 / np.sqrt(np.clip(rows, 1e-10, 1e10))
        dc = 1.0 / np.sqrt(np.clip(mag.max(axis=0), 1e-10, 1e10))
        A = scipy.sparse.diags(dr) @ A @ scipy.sparse.diags(dc)
        D, E = D * dr, E * dc
    As, bs, cs, Ds, Es = solver.ruiz_equilibrate(form)
    np.testing.assert_array_equal(As.toarray(), A.toarray())
    np.testing.assert_array_equal(Ds, D)
    np.testing.assert_array_equal(Es, E)
    np.testing.assert_array_equal(bs, D * form.b)
    np.testing.assert_array_equal(cs, E * form.c)


def test_assemble_matches_dense_evaluation():
    # s = b - A x must reproduce every row of the program at any parameter
    # vector: the constraint values, and each PSD block, divided by its
    # weight and read back as a matrix, as the dense matrix
    # PsdBlock.evaluate builds
    rng = np.random.default_rng(5)
    prog = ConicProgram()
    W = prog.add_matrix_var("W", 3)
    X = prog.add_matrix_var("X", 2, hermitian=False)
    t = prog.add_scalar_var("t")
    C = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    eq = real_trace(C, W) + 0.7 * scalar_term(t) - 1.3
    ineq = LinExpr(2.0) - real_trace(rng.standard_normal((2, 2)), X) + scalar_term(t, -0.4)
    prog.add_eq(eq)
    prog.add_ineq(ineq)
    prog.set_objective(real_trace(np.eye(3), W) + scalar_term(t))

    cblock = PsdBlock("cplx", 4, complex_valued=True, const=_random_hermitian(rng, 4))
    cblock.add_var(W, offset=1)
    cblock.set_entry(0, 0, scalar_term(t, 2.0) + 0.5)
    cblock.set_entry(0, 1, real_trace(C.conj().T, W) - scalar_term(t))
    cblock.set_entry(2, 3, scalar_term(t, 1.5) - 0.3)   # on top of W's entry
    prog.add_psd_block(cblock)

    rconst = np.zeros((3, 3))
    rconst[1, 2] = rconst[2, 1] = 0.25
    rblock = PsdBlock("real", 3, complex_valued=False, const=rconst)
    rblock.add_var(X, offset=1)
    rblock.set_entry(0, 0, scalar_term(t) + 3.0)
    rblock.set_entry(0, 2, real_trace(np.array([[1.0, 0.5], [0.5, -1.0]]), X))
    prog.add_psd_block(rblock)

    form = assemble(prog)
    assert form.psd_sides == [4, 3]
    assert form.psd_complex == [True, False]
    for _ in range(5):
        x = rng.standard_normal(form.n_x)
        assignments = prog.split_solution(x, form.offsets)
        s = form.b - form.A @ x
        assert form.c @ x + prog.objective.const == pytest.approx(
            prog.objective.evaluate(assignments, prog), rel=1e-12)
        # zero rows hold -expr (A = g, b = -const), nonnegative rows +expr
        assert s[0] == pytest.approx(-eq.evaluate(assignments, prog), rel=1e-12)
        assert s[1] == pytest.approx(ineq.evaluate(assignments, prog), rel=1e-12)
        expected = [cblock.evaluate(assignments, prog), rblock.evaluate(assignments, prog)]
        for side, sl, cplx, M in zip(form.psd_sides, form.psd_slices, form.psd_complex,
                                     expected):
            np.testing.assert_allclose(
                coords_to_matrix(s[sl] / solver.block_weight(cplx), side, cplx), M,
                rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# restriction to an invariant subspace


def _orthonormal(rng, n, m, hermitian=True):
    M = rng.standard_normal((n, m)) + (1j * rng.standard_normal((n, m)) if hermitian else 0)
    return np.linalg.qr(M)[0]


@pytest.mark.parametrize("n, m, hermitian", [(6, 2, True), (5, 5, True), (4, 3, False)])
def test_subspace_isometry_lifts_z_and_complement(n, m, hermitian):
    rng = np.random.default_rng(n + m)
    U = _orthonormal(rng, n, m, hermitian)
    Phi = subspace_isometry(U, hermitian)
    small = MatrixVar("Z", m, hermitian)
    assert Phi.shape == (MatrixVar("V", n, hermitian).n_params, small.n_params + (m < n))
    np.testing.assert_allclose(Phi.T @ Phi, np.eye(Phi.shape[1]), rtol=0, atol=1e-14)
    z = rng.standard_normal(Phi.shape[1])
    Z = params_to_matrix(small, z[: small.n_params])
    expected = U @ Z @ U.conj().T
    if m < n:
        expected = expected + z[-1] * (np.eye(n) - U @ U.conj().T) / np.sqrt(n - m)
    np.testing.assert_allclose(params_to_matrix(MatrixVar("V", n, hermitian), Phi @ z),
                               expected, rtol=0, atol=1e-14)


def test_restrict_rejects_bad_declarations():
    # psd_var with a basis checks it, and records the block it adds; a
    # rejected declaration adds no block
    rng = np.random.default_rng(20)
    prog = ConicProgram()
    W = prog.add_matrix_var("W", 4)
    S = prog.add_matrix_var("S", 4, hermitian=False)
    U = _orthonormal(rng, 4, 2)
    for bad in (U[:3], 2.0 * U, np.zeros((4, 0)), U[:, 0]):
        with pytest.raises(InvalidArgumentError):
            prog.psd_var(W, basis=bad)
    with pytest.raises(InvalidArgumentError):
        prog.psd_var(S, basis=U)                        # complex basis, real variable
    with pytest.raises(InvalidArgumentError):
        prog.psd_var(MatrixVar("W", 4, True), basis=U)  # not this program's variable
    assert prog.psd_blocks == [] and prog.restrictions == {}
    prog.add_psd_block(PsdBlock("other", 2, complex_valued=False))
    prog.psd_var(W, basis=U)
    prog.psd_var(S, basis=_orthonormal(rng, 4, 4, hermitian=False))
    assert set(prog.restrictions) == {"W", "S"}
    np.testing.assert_array_equal(prog.restrictions["W"][0], U)
    assert [j for _, j in prog.restrictions.values()] == [1, 2]
    assert prog.psd_blocks[1].terms == [("var", "W", 0)]
    assert prog.psd_blocks[2].terms == [("var", "S", 0)]


def _invariant_program(rng, n=6, m=2, hermitian=True, restricted=False):
    """min Re Tr(C W) + t over W >= 0, Tr W <= 2, Re Tr(G W) >= 1, t >= Re Tr(H W) - 3,
    with every matrix of the form U X U^H + c (I - U U^H); restricted to U
    when asked."""
    U = _orthonormal(rng, n, m, hermitian)
    P = np.eye(n) - U @ U.conj().T

    def invariant(c):
        X = _random_hermitian(rng, m)
        return U @ (X if hermitian else X.real) @ U.conj().T + c * P

    prog = ConicProgram()
    W = prog.add_matrix_var("W", n, hermitian=hermitian)
    t = prog.add_scalar_var("t")
    prog.psd_var(W, basis=U if restricted else None)
    prog.add_ineq(LinExpr(2.0) - real_trace(np.eye(n), W))
    G = invariant(0.0)
    prog.add_ineq(real_trace(G @ G, W) - 1.0)
    prog.add_ineq(scalar_term(t) - real_trace(invariant(0.5), W) + 3.0)
    prog.set_objective(real_trace(invariant(3.0) + 4.0 * np.eye(n), W) + scalar_term(t))
    return prog, W, U


@pytest.mark.parametrize("hermitian", [True, False])
def test_restricted_solve_matches_full_solve(hermitian):
    full = solve(_invariant_program(np.random.default_rng(21), hermitian=hermitian)[0],
                 tol=1e-9)
    prog, W, U = _invariant_program(np.random.default_rng(21), hermitian=hermitian,
                                    restricted=True)
    restricted = solve(prog, tol=1e-9)
    assert full.optimal and restricted.optimal
    assert restricted.objective == pytest.approx(full.objective, rel=1e-6)
    np.testing.assert_allclose(restricted.assignments["W"], full.assignments["W"], atol=1e-5)
    # x, s and y come back in full coordinates: the solution is a KKT point
    # of the full program
    form = assemble(prog)
    assert restricted.x.shape == (form.n_x,)
    assert restricted.s.shape == restricted.y.shape == (form.A.shape[0],)
    np.testing.assert_allclose(form.A @ restricted.x + restricted.s, form.b, atol=1e-6)
    np.testing.assert_allclose(form.A.T @ restricted.y + form.c, 0.0, atol=1e-6)
    # a full-coordinate warm start is restricted, and resumes
    warm = solve(prog, tol=1e-9, warm_start=(restricted.x, restricted.s, restricted.y))
    assert warm.optimal and warm.iterations <= restricted.iterations
    assert warm.objective == pytest.approx(restricted.objective, rel=1e-8)


def test_restricted_program_rows_are_exact():
    # W's own PSD rows become the Z block and one nonnegative row, each an
    # exact one-entry row; the other rows are A diag(e / E) Phi
    prog, W, U = _invariant_program(np.random.default_rng(22), restricted=True)
    form = assemble(prog)
    A, _, _, D, E = solver.ruiz_equilibrate(form)
    rform, A_r, D_r, E_r, cols, rows = solver.restrict(prog, form, A, D, E)
    assert form.psd_sides == [6] and rform.psd_sides == [2]
    assert (rform.n_zero, rform.n_nonneg) == (form.n_zero, form.n_nonneg + 1)
    assert A_r.shape == (3 + 1 + 4, 4 + 1 + 1)
    own = np.r_[3, 4:8]                     # complement row, then the Z block
    e = np.exp(np.mean(np.log(E[form.offsets["W"]])))
    np.testing.assert_array_equal(E_r[:5], e)
    value = -solver.block_weight(True) * D[form.psd_slices[0].start] * e
    dense = A_r.toarray()
    np.testing.assert_array_equal(np.diff(A_r.indptr)[own], 1)
    np.testing.assert_array_equal(dense[own, :5], value * np.eye(5)[[4, 0, 1, 2, 3]])
    ratio = np.ones(form.n_x)
    ratio[form.offsets["W"]] = e / E[form.offsets["W"]]
    np.testing.assert_allclose(dense[:3], (A.toarray() * ratio)[:3] @ cols.toarray(),
                               rtol=0, atol=1e-14)
    np.testing.assert_array_equal(D_r[:3], D[:3])
    np.testing.assert_array_equal(D_r[own], D[form.psd_slices[0].start])
