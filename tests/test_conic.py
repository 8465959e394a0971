import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfisac.conic.model import (
    ConicProgram,
    LinExpr,
    PsdBlock,
    epigraph_trace_inverse,
    matrix_to_params,
    params_to_matrix,
    real_trace,
    realify_matrix,
    scalar_term,
    trace_coefficients,
)
from nfisac.conic.solver import assemble, smat, solve, svec, svec_indices
from nfisac.errors import InvalidArgumentError


def _random_hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (A + A.conj().T)


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


def test_svec_preserves_inner_products():
    rng = np.random.default_rng(3)
    cache = svec_indices(4)
    A = rng.standard_normal((4, 4))
    A = A + A.T
    B = rng.standard_normal((4, 4))
    B = B + B.T
    assert svec(A, cache) @ svec(B, cache) == pytest.approx(np.trace(A @ B), rel=1e-12)
    np.testing.assert_allclose(smat(svec(A, cache), 4, cache), A, atol=1e-12)


def test_duplicate_variable_rejected():
    prog = ConicProgram()
    prog.add_matrix_var("V", 2)
    with pytest.raises(InvalidArgumentError):
        prog.add_matrix_var("V", 3)
    with pytest.raises(InvalidArgumentError):
        prog.set_objective(LinExpr(0.0, {"unknown": np.ones(1)}))


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


def test_sdp_dominance():
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
    sol = solve(prog, tol=1e-9)
    assert sol.optimal
    evals = np.linalg.eigvalsh(C)
    assert sol.objective == pytest.approx(evals[evals > 0].sum(), abs=1e-5)


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
    assert form.psd_sides == [6]  # complex 3x3 realified
    assert form.A.shape[0] == 2 + 6 * 7 // 2


def test_assemble_matches_dense_evaluation():
    # s = b - A x must reproduce every row of the program at any parameter
    # vector: the constraint values, and each PSD block as the realified
    # (complex) or plain (real) dense matrix PsdBlock.evaluate builds
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
    cblock.add_var(W, indices=np.array([0, 2, 3]), scale=1.5)
    cblock.set_entry(1, 1, scalar_term(t, 2.0) + 0.5)
    cblock.set_entry(0, 1, real_trace(C.conj().T, W) - scalar_term(t))
    prog.add_psd_block(cblock)

    rblock = PsdBlock("real", 3, complex_valued=False)
    rblock.add_var(X, offset=1, scale=-2.0)
    rblock.set_entry(0, 0, scalar_term(t) + 3.0)
    rblock.set_entry(0, 2, real_trace(np.array([[1.0, 0.5], [0.5, -1.0]]), X))
    rblock.set_entry(1, 2, 0.25)
    prog.add_psd_block(rblock)

    form = assemble(prog)
    assert form.psd_sides == [8, 3]
    for _ in range(5):
        x = rng.standard_normal(form.n_x)
        assignments = prog.split_solution(x, form.offsets)
        s = form.b - form.A @ x
        assert form.c @ x + prog.objective.const == pytest.approx(
            prog.objective.evaluate(assignments, prog), rel=1e-12)
        # zero rows hold -expr (A = g, b = -const), nonnegative rows +expr
        assert s[0] == pytest.approx(-eq.evaluate(assignments, prog), rel=1e-12)
        assert s[1] == pytest.approx(ineq.evaluate(assignments, prog), rel=1e-12)
        expected = [realify_matrix(cblock.evaluate(assignments, prog)),
                    rblock.evaluate(assignments, prog)]
        for side, sl, cache, M in zip(form.psd_sides, form.psd_slices,
                                      form.svec_caches, expected):
            np.testing.assert_allclose(smat(s[sl], side, cache), M, rtol=0, atol=1e-12)
