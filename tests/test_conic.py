import numpy as np
import pytest
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


def test_restrict_rejects_bad_declarations():
    # psd_var takes only this program's own variables, records the block it
    # adds, and a rejected declaration adds no block
    prog = ConicProgram()
    W = prog.add_matrix_var("W", 4)
    S = prog.add_matrix_var("S", 4, hermitian=False)
    with pytest.raises(InvalidArgumentError):
        prog.psd_var(MatrixVar("W", 4, True))      # equal to W, but not this program's
    with pytest.raises(InvalidArgumentError):
        prog.psd_var(MatrixVar("X", 4, True))      # not declared at all
    assert prog.psd_blocks == []
    prog.add_psd_block(PsdBlock("other", 2, complex_valued=False))
    prog.psd_var(W)
    prog.psd_var(S)
    assert [b.side for b in prog.psd_blocks] == [2, 4, 4]
    assert [b.complex_valued for b in prog.psd_blocks] == [False, True, False]
    assert prog.psd_blocks[1].terms == [("var", "W", 0)]
    assert prog.psd_blocks[2].terms == [("var", "S", 0)]


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


def test_program_above_max_dense_refused(monkeypatch):
    # assemble counts A's rows from the cone sizes and refuses a program of
    # more than MAX_DENSE entries, naming its shape; at the cap it solves
    prog, _ = _dominance_program()
    m, n = 2 * 16, 16   # two complex 4 x 4 blocks, and W's 16 coordinates
    monkeypatch.setattr(solver, "MAX_DENSE", m * n - 1)
    with pytest.raises(InvalidArgumentError, match=f"{m} x {n}"):
        solve(prog, tol=1e-9)
    monkeypatch.setattr(solver, "MAX_DENSE", m * n)
    assert solve(prog, tol=1e-9).optimal


def test_start_from_own_solution_takes_fewer_steps():
    # restarted from its own optimum, moved back into the cone's interior,
    # a solve ends optimal at the same objective in fewer Newton steps
    prog, _ = _dominance_program()
    cold = solve(prog, tol=1e-9)
    warm = solve(prog, tol=1e-9, start=cold)
    assert cold.optimal and warm.optimal
    assert warm.iterations < cold.iterations
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    assert warm.layout == cold.layout == assemble(prog).layout()


def test_start_of_another_layout_rejected():
    prog, _ = _dominance_program()
    lp = ConicProgram()
    t = lp.add_scalar_var("t")
    lp.set_objective(scalar_term(t))
    lp.add_ineq(scalar_term(t) - 3.0)
    with pytest.raises(InvalidArgumentError):
        solve(prog, start=solve(lp))
    # the same shape with its rows split otherwise between the cones
    eq = ConicProgram()
    t = eq.add_scalar_var("t")
    eq.set_objective(scalar_term(t))
    eq.add_eq(scalar_term(t) - 3.0)
    with pytest.raises(InvalidArgumentError):
        solve(eq, start=solve(lp))


def test_fold_keeps_the_gram_matrix_of_uneven_pairs():
    # two-entry rows on three column pairs, 7, 2 and 1 rows each, among
    # dense rows and a one-entry row: each pair becomes one 2 x 2 triangle
    rng = np.random.default_rng(1)
    n = 12
    rows = [rng.standard_normal(n) for _ in range(20)]
    for (j, k), count in [((1, 5), 7), ((3, 4), 2), ((0, 11), 1)]:
        for _ in range(count):
            row = np.zeros(n)
            row[[j, k]] = rng.standard_normal(2)
            rows.append(row)
    rows.append(np.eye(n)[2])
    GA = np.array(rows)[rng.permutation(len(rows))]
    folded = solver._fold_pairs(GA)
    assert folded.shape == (GA.shape[0] - 10 + 3 * 2, n)
    np.testing.assert_allclose(folded.T @ folded, GA.T @ GA, rtol=0,
                               atol=1e-14 * np.linalg.norm(GA.T @ GA))


def test_newton_matrix_without_two_entry_rows_takes_the_plain_qr():
    # no row with two entries, or one such row per pair (folding would
    # remove none): the QR reads GA itself
    rng = np.random.default_rng(2)
    GA = rng.standard_normal((30, 12))
    GA[3, 1:] = 0.0
    GA[4, 3:] = 0.0
    assert solver._fold_pairs(GA) is GA
    GA[5, 2:] = 0.0
    GA[6, :] = 0.0
    GA[6, [4, 9]] = 1.0, -2.0
    assert solver._fold_pairs(GA) is GA
    newton = solver._Newton(GA, 26)
    np.testing.assert_array_equal(newton.U_inv, solver._triu_inv(np.linalg.qr(GA, mode="r")))


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


def _scaling_form():
    # blocks the cone scales explicitly (complex 5 twice, real 4 and 2) and
    # one it scales by congruences (complex 9, above side 8), not adjacent
    prog = ConicProgram()
    t = prog.add_scalar_var("t")
    prog.add_eq(scalar_term(t))
    for _ in range(3):
        prog.add_ineq(scalar_term(t))
    for k, (side, hermitian) in enumerate([(5, True), (9, True), (4, False), (5, True),
                                           (2, False)]):
        prog.psd_var(prog.add_matrix_var(f"V{k}", side, hermitian=hermitian))
    return assemble(prog)


def _cone_interior(rng, form, cone):
    v = _cone_point(rng, form, range(len(form.psd_sides)))[form.n_zero:]
    v[: form.n_nonneg] = np.abs(v[: form.n_nonneg])
    return v + cone.e


def _assert_rel(actual, expected, rel=1e-10):
    assert np.linalg.norm(actual - expected) <= rel * np.linalg.norm(expected)


@pytest.mark.parametrize("make_form, groups", [
    (_scaling_form, [(5, True, True), (9, True, False), (4, False, True), (2, False, True)]),
    (_cone_form, [(3, False, True), (1, False, True), (2, True, True), (5, True, True)]),
], ids=["mixed", "explicit"])
def test_cone_scaling_explicit_and_congruence_blocks(make_form, groups):
    # the Nesterov-Todd scaling of a random interior pair, applied as
    # explicit row operators on small blocks and as congruences on large
    # ones, against its defining identities and block by block
    form = make_form()
    cone = solver._Cone(form)
    assert [(g.n, g.cplx, g.explicit) for g in cone.groups] == groups
    rng = np.random.default_rng(21)
    s, z = _cone_interior(rng, form, cone), _cone_interior(rng, form, cone)
    cone.rescale(s, z)
    _assert_rel(cone.inv_t(s), cone.lam)            # W^-T s = lam
    _assert_rel(cone.inv(cone.lam), z)              # W z = lam
    u, v = rng.standard_normal((2, cone.m))
    _assert_rel(cone.t(cone.inv_t(v)), v)
    assert u @ cone.inv_t(v) == pytest.approx(cone.inv(u) @ v, rel=1e-10)
    V = rng.standard_normal((cone.m, 3))
    _assert_rel(cone.inv_t(V)[:, 1], cone.inv_t(V[:, 1]))
    uv = cone.product(u, v)
    _assert_rel(uv[: cone.q], u[: cone.q] * v[: cone.q])
    for g in cone.groups:
        X = g.mats(v[g.rows])
        _assert_rel(cone.t(v)[g.rows], g.vecs(g.R @ X @ g.R.conj().swapaxes(1, 2)))
        _assert_rel(cone.inv_t(v)[g.rows], g.vecs(g.Rinv @ X @ g.Rinv.conj().swapaxes(1, 2)))
        P = g.mats(u[g.rows]) @ X
        _assert_rel(uv[g.rows], g.vecs(0.5 * (P + P.conj().swapaxes(1, 2))))
    # lam + t u reaches the boundary at t = max_step(u)
    step = cone.max_step(u)
    edge = cone.lam + step * u
    low = [edge[: cone.q].min()] + [np.linalg.eigvalsh(g.mats(edge[g.rows])).min()
                                    for g in cone.groups]
    assert abs(min(low)) <= 1e-10 * np.abs(cone.lam).max()
    assert cone.max_step(u, 2.0 * u) == pytest.approx(0.5 * step, rel=1e-12)


def _single_block_form(side):
    prog = ConicProgram()
    prog.psd_var(prog.add_matrix_var("W", side))
    return assemble(prog)


def _block_coords(B):
    return solver.block_weight(True) * matrix_to_coords(B, B.shape[0], True)


def test_project_cone_block_that_zheevr_fails_on():
    # an extended-target run reached this PSD block when project_cone took
    # its eigenvectors from LAPACK's zheevr, which reports info = 1 on it;
    # project_cone now uses np.linalg.eigh, which must project it as the
    # dense formula does
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


def test_project_cone_matches_dense_projection_with_0_2_and_6_psd_blocks():
    # inputs with no, some and every PSD block already in the cone
    rng = np.random.default_rng(14)
    form = _cone_form()
    for psd_blocks in [(), (0, 2), tuple(range(6))]:
        v = _cone_point(rng, form, psd_blocks)
        np.testing.assert_allclose(solver.project_cone(v, form), _dense_projection(v, form),
                                   rtol=0, atol=1e-12 * np.abs(v).max())


def test_epigraph_trace_inverse_value():
    # pin Xi to a known PD matrix; min Tr(U) must equal Tr(Xi^-1), and with
    # two Xi and a shift, Tr((shift I + Xi_1 + Xi_2)^-1)
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

    prog = ConicProgram()
    xis, total = [], 0.5 * np.eye(3)
    for k in range(2):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Xi0 = A @ A.conj().T + np.eye(3)
        xi = prog.add_matrix_var(f"Xi{k}", 3)
        for i, v in enumerate(matrix_to_params(xi, Xi0)):
            prog.add_eq(LinExpr(-v, {xi.name: np.eye(xi.n_params)[i]}))
        xis.append(xi)
        total = total + Xi0
    u = epigraph_trace_inverse(prog, *xis, shift=0.5)
    prog.set_objective(real_trace(np.eye(3), u))
    sol = solve(prog, tol=1e-9)
    assert sol.optimal
    assert sol.objective == pytest.approx(np.trace(np.linalg.inv(total)).real, rel=1e-5)


def test_infeasible_program_detected():
    prog = ConicProgram()
    t = prog.add_scalar_var("t")
    prog.set_objective(scalar_term(t))
    prog.add_ineq(scalar_term(t) - 1.0)    # t >= 1
    prog.add_ineq(LinExpr(-0.5) - scalar_term(t))  # t <= -0.5
    sol = solve(prog, tol=1e-8)
    assert sol.status == "infeasible"
    _assert_dual_ray(prog, sol)


def _assert_dual_ray(prog, sol):
    """y certifies infeasibility: A^T y = 0, b . y = -1, y in K* (free on the zero rows)."""
    form = assemble(prog)
    assert form.b @ sol.y == pytest.approx(-1.0, rel=1e-12)
    assert np.linalg.norm(form.A.T @ sol.y) <= 1e-7
    nonneg = sol.y[form.n_zero: form.n_zero + form.n_nonneg]
    assert np.all(nonneg >= 0)
    for side, sl, cplx in zip(form.psd_sides, form.psd_slices, form.psd_complex):
        M = coords_to_matrix(sol.y[sl] / solver.block_weight(cplx), side, cplx)
        assert np.linalg.eigvalsh(M)[0] >= -1e-9 * np.abs(M).max()


def test_infeasible_psd_program_detected():
    # W >= 0 with Tr W = -1: the certificate pairs the free multiplier of
    # the equality row with a PSD block, so it must not be clipped on the
    # zero rows
    prog = ConicProgram()
    W = prog.add_matrix_var("W", 3)
    prog.psd_var(W)
    prog.add_eq(real_trace(np.eye(3), W) + 1.0)
    prog.set_objective(real_trace(np.eye(3), W))
    sol = solve(prog)
    assert sol.status == "infeasible"
    assert sol.y[0] != 0.0
    _assert_dual_ray(prog, sol)


def _realify_program(C):
    """The capped-solve program with each complex block written as its realification.

    A Hermitian n x n V becomes a real symmetric 2n x 2n V_r = [[Re V, -Im V],
    [Im V, Re V]], held to that pattern by equality rows; PSD-ness and
    Re Tr(M V) = Tr(realify(M) V_r) / 2 carry over.  The 3 x 3 Schur block
    is realified with its rows reordered to (0, 3, 1, 2, 4, 5), which puts
    V_r at offset 2.
    """
    prog = ConicProgram()
    W = prog.add_matrix_var("W", 8, hermitian=False)
    V = prog.add_matrix_var("V", 4, hermitian=False)
    t = prog.add_scalar_var("t")

    def entry(var, i, j):
        E = np.zeros((var.side, var.side))
        E[j, i] = 1.0
        return real_trace(E, var)

    for var in (W, V):
        n = var.side // 2
        for i in range(n):
            for j in range(i, n):
                prog.add_eq(entry(var, i, j) - entry(var, i + n, j + n))
                prog.add_eq(entry(var, i, j + n) + entry(var, j, i + n))
    prog.psd_var(W)
    dom = PsdBlock("dom", 8, complex_valued=False, const=-realify_matrix(C))
    dom.add_var(W)
    prog.add_psd_block(dom)
    schur = PsdBlock("schur", 6, complex_valued=False)
    schur.const[0, 2] = schur.const[2, 0] = schur.const[1, 4] = schur.const[4, 1] = 1.0
    schur.add_var(V, offset=2)
    schur.set_entry(0, 0, scalar_term(t))
    schur.set_entry(1, 1, scalar_term(t))
    prog.add_psd_block(schur)
    prog.add_ineq(LinExpr(10.0) - 0.5 * real_trace(np.eye(8), W))
    prog.set_objective(0.5 * real_trace(realify_matrix(np.diag([1.0, 2.0, 3.0, 4.0])), W)
                       + scalar_term(t) + 0.5 * real_trace(np.eye(4), V))
    return prog


def test_capped_solve_matches_realified_iterates():
    # a program with a complex dominance block and a complex block that
    # holds a variable at an offset, a scalar and a constant: capped, the
    # solve stops uncertified at its cap; uncapped, its optimum is that of
    # the same program written with realified real blocks, so a change of
    # row format, row weight or cone scaling that alters the solution shows
    # here
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
    capped = solve(prog, tol=1e-12, max_iter=3)
    assert (capped.status, capped.iterations) == ("max_iter", 3)
    sol = solve(prog, tol=1e-10)
    real = solve(_realify_program(C), tol=1e-10)
    assert sol.optimal and real.optimal
    assert sol.objective == pytest.approx(real.objective, rel=1e-8)
    # the optimal W is flat to first order along some directions, so it
    # agrees to the square root of the gap
    np.testing.assert_allclose(realify_matrix(sol.assignments["W"]), real.assignments["W"],
                               atol=1e-4)


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
    assert form.A.shape[1] == W.n_params + 1
    assert form.n_zero == 1
    assert form.n_nonneg == 1
    assert form.psd_sides == [3]
    assert form.A.shape[0] == 2 + 9  # a complex 3x3 block has 9 coordinates


def test_ruiz_equilibrate_matches_matrix_products():
    # the in-place scaling of A's entries against diag(dr) @ A @ diag(dc)
    # per pass, with the same arithmetic, so the results are equal
    form = _cone_form()
    rng = np.random.default_rng(13)
    A = form.A
    nz = A != 0
    A[nz] = rng.standard_normal(nz.sum()) * 10.0 ** rng.integers(-4, 5, nz.sum())
    A = A.copy()   # ruiz_equilibrate scales form.A in place
    # complex PSD rows are read at 1/sqrt(2), as entries of the realified rows
    row_weight = np.ones(A.shape[0])
    for sl, cplx in zip(form.psd_slices, form.psd_complex):
        row_weight[sl] = np.sqrt(2.0) if cplx else 1.0
    D, E = np.ones(A.shape[0]), np.ones(A.shape[1])
    for _ in range(10):
        mag = abs(A) / row_weight[:, None]
        rows = mag.max(axis=1)
        for sl in form.psd_slices:
            rows[sl] = rows[sl].max()
        dr = 1.0 / np.sqrt(np.clip(rows, 1e-10, 1e10))
        dc = 1.0 / np.sqrt(np.clip(mag.max(axis=0), 1e-10, 1e10))
        A = np.diag(dr) @ A @ np.diag(dc)
        D, E = D * dr, E * dc
    As, bs, cs, Ds, Es = solver.ruiz_equilibrate(form)
    np.testing.assert_array_equal(As, A)
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
        x = rng.standard_normal(form.A.shape[1])
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
