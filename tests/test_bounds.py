import numpy as np
import pytest

from nfisac import bounds, geometry
from nfisac.conic import realify_matrix
from nfisac.errors import (
    DegenerateTargetError,
    InvalidArgumentError,
    SingularInformationError,
    UnidentifiableParametersError,
)

GEOM = geometry.ArrayGeometry(n_tx=4, n_rx=4, n_rf=2, carrier_freq=28e9)
TARGET = geometry.PointTarget(distance=0.2, angle=0.25, reflection=0.05 * np.exp(0.3j))
NOISE = 1.0
L = 8


def _random_covariance(seed, n, rank=None):
    rng = np.random.default_rng(seed)
    rank = rank or n
    A = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return A @ A.conj().T


def _response_matrix(geom, r, phi, mu):
    br = geometry.steering_vector(geom, r, phi, side="rx")
    bt = geometry.steering_vector(geom, r, phi, side="tx")
    return mu * np.outer(br, bt.conj())


def _fim_definition_oracle(geom, target, R, noise, frames):
    """Full 4x4 information matrix for (r, phi, Re mu, Im mu) built from
    central finite differences of the mean response, independent of the
    analytic derivative path."""
    r, phi, mu = target.distance, target.angle, complex(target.reflection)

    def M_of(theta):
        return _response_matrix(geom, theta[0], theta[1], theta[2] + 1j * theta[3])

    theta0 = np.array([r, phi, mu.real, mu.imag])
    steps = np.array([1e-7 * r, 1e-8, 1e-8 * abs(mu), 1e-8 * abs(mu)])
    D = []
    for i in range(4):
        e = np.zeros(4)
        e[i] = steps[i]
        D.append((M_of(theta0 + e) - M_of(theta0 - e)) / (2 * steps[i]))
    J = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            J[i, j] = 2.0 * frames / noise * np.real(np.trace(D[i] @ R @ D[j].conj().T))
    return 0.5 * (J + J.T)


def test_point_trm_rank_one():
    trm = bounds.point_trm(GEOM, TARGET)
    assert np.linalg.matrix_rank(trm.B) == 1
    np.testing.assert_allclose(
        trm.B, TARGET.reflection * np.outer(
            geometry.steering_vector(GEOM, TARGET.distance, TARGET.angle, side="rx"),
            geometry.steering_vector(GEOM, TARGET.distance, TARGET.angle, side="tx").conj()),
        rtol=1e-14)


def test_point_trm_zero_reflection_rejected():
    with pytest.raises(DegenerateTargetError):
        bounds.point_trm(GEOM, geometry.PointTarget(distance=1.0, angle=0.0, reflection=0.0))


def test_trm_derivatives_match_finite_differences():
    trm = bounds.point_trm(GEOM, TARGET)
    r, phi = TARGET.distance, TARGET.angle
    mu = complex(TARGET.reflection)
    eps = 1e-7 * r
    fd_r = (_response_matrix(GEOM, r + eps, phi, mu)
            - _response_matrix(GEOM, r - eps, phi, mu)) / (2 * eps)
    eps = 1e-8
    fd_phi = (_response_matrix(GEOM, r, phi + eps, mu)
              - _response_matrix(GEOM, r, phi - eps, mu)) / (2 * eps)
    assert np.linalg.norm(trm.dB_dr - fd_r) <= 1e-5 * np.linalg.norm(fd_r)
    assert np.linalg.norm(trm.dB_dphi - fd_phi) <= 1e-5 * np.linalg.norm(fd_phi)


def test_fim_matches_definition_oracle():
    trm = bounds.point_trm(GEOM, TARGET)
    R = _random_covariance(0, GEOM.n_tx)
    fim = bounds.fim_point(trm, R, NOISE, L)
    J = _fim_definition_oracle(GEOM, TARGET, R, NOISE, L)
    np.testing.assert_allclose(fim.J_phiphi, J[:2, :2], rtol=1e-6, atol=1e-6 * abs(J).max())
    np.testing.assert_allclose(fim.J_phimu, J[:2, 2:], rtol=1e-6, atol=1e-6 * abs(J).max())
    np.testing.assert_allclose(fim.J_mumu, J[2:, 2:], rtol=1e-6, atol=1e-6 * abs(J).max())


def test_fim_linear_in_frames_and_reflection_power():
    trm = bounds.point_trm(GEOM, TARGET)
    R = _random_covariance(1, GEOM.n_tx)
    f1 = bounds.fim_point(trm, R, NOISE, L)
    f2 = bounds.fim_point(trm, R, NOISE, 4 * L)
    np.testing.assert_allclose(f2.J_phiphi, 4.0 * f1.J_phiphi, rtol=1e-14)
    np.testing.assert_allclose(f2.J_mumu, 4.0 * f1.J_mumu, rtol=1e-14)
    target2 = geometry.PointTarget(distance=TARGET.distance, angle=TARGET.angle,
                                   reflection=3.0 * TARGET.reflection)
    f3 = bounds.fim_point(bounds.point_trm(GEOM, target2), R, NOISE, L)
    np.testing.assert_allclose(f3.J_phiphi, 9.0 * f1.J_phiphi, rtol=1e-12)
    # the reflection block is normalized by |mu|^2, so it is mu-invariant
    np.testing.assert_allclose(f3.J_mumu, f1.J_mumu, rtol=1e-12)


def test_crb_block_inverse_identity():
    trm = bounds.point_trm(GEOM, TARGET)
    R = _random_covariance(2, GEOM.n_tx)
    fim = bounds.fim_point(trm, R, NOISE, L)
    J = np.block([[fim.J_phiphi, fim.J_phimu], [fim.J_phimu.T, fim.J_mumu]])
    top_left = np.linalg.inv(J)[:2, :2]
    np.testing.assert_allclose(bounds.crb_point(fim), top_left, rtol=1e-8)


def test_crb_scaling_inverse_in_power():
    trm = bounds.point_trm(GEOM, TARGET)
    R = _random_covariance(3, GEOM.n_tx)
    c1 = bounds.crb_point(bounds.fim_point(trm, R, NOISE, L))
    c2 = bounds.crb_point(bounds.fim_point(trm, 5.0 * R, NOISE, L))
    np.testing.assert_allclose(c2, c1 / 5.0, rtol=1e-10)


def test_crb_psd_and_loewner_monotone():
    trm = bounds.point_trm(GEOM, TARGET)
    rng = np.random.default_rng(7)
    for i in range(50):
        R = _random_covariance(100 + i, GEOM.n_tx)
        A = rng.standard_normal((GEOM.n_tx, 2)) + 1j * rng.standard_normal((GEOM.n_tx, 2))
        delta = A @ A.conj().T
        c0 = bounds.crb_point(bounds.fim_point(trm, R, NOISE, L))
        c1 = bounds.crb_point(bounds.fim_point(trm, R + delta, NOISE, L))
        assert np.linalg.eigvalsh(c0).min() > 0
        assert np.trace(c1) <= np.trace(c0) * (1 + 1e-10)


def test_fim_rejects_nulled_target():
    trm = bounds.point_trm(GEOM, TARGET)
    bt = geometry.steering_vector(GEOM, TARGET.distance, TARGET.angle, side="tx")
    # build a covariance supported on the orthogonal complement of bt
    Q = np.eye(GEOM.n_tx) - np.outer(bt, bt.conj()) / GEOM.n_tx
    R = Q @ _random_covariance(4, GEOM.n_tx) @ Q.conj().T
    with pytest.raises(SingularInformationError):
        bounds.fim_point(trm, R, NOISE, L)


def test_crb_unidentifiable_for_single_element_array():
    # one antenna: the steering vector has no location dependence at all
    g1 = geometry.ArrayGeometry(n_tx=1, n_rx=1, n_rf=1, carrier_freq=28e9)
    trm = bounds.point_trm(g1, geometry.PointTarget(distance=1.0, angle=0.0, reflection=0.1))
    fim = bounds.fim_point(trm, np.array([[2.0]], dtype=complex), NOISE, L)
    with pytest.raises(UnidentifiableParametersError):
        bounds.crb_point(fim)


def test_fim_input_validation():
    trm = bounds.point_trm(GEOM, TARGET)
    R = _random_covariance(5, GEOM.n_tx)
    with pytest.raises(InvalidArgumentError):
        bounds.fim_point(trm, R, 0.0, L)
    with pytest.raises(InvalidArgumentError):
        bounds.fim_point(trm, R, NOISE, 0)


# ---------------------------------------------------------------------------
# extended target


def test_bcrb_isotropic_closed_form():
    params = bounds.BcrbParams(noise_power=2.0, prior_variance=0.5, frame_length=4, n_rx=3)
    n_tx, P = 5, 10.0
    val = bounds.bcrb_extended_trace((P / n_tx) * np.eye(n_tx), params)
    reg = 2.0 / (0.5 * 4)
    expected = 2.0 * 3 * n_tx / (4 * (P / n_tx + reg))
    assert val == pytest.approx(expected, rel=1e-12)


def test_bcrb_zero_covariance_is_pure_prior():
    params = bounds.BcrbParams(noise_power=1.3, prior_variance=0.7, frame_length=6, n_rx=2)
    n_tx = 4
    val = bounds.bcrb_extended_trace(np.zeros((n_tx, n_tx)), params)
    assert val == pytest.approx(0.7 * n_tx * 2, rel=1e-12)


def test_bcrb_matches_full_realified_fim():
    # the closed-form trace equals the inverse-trace of the full realified
    # Bayesian information matrix of the vectorized response entries
    params = bounds.BcrbParams(noise_power=1.3, prior_variance=0.8, frame_length=4, n_rx=2)
    R = _random_covariance(6, 3)
    J = bounds.extended_fim_bayesian(R, params)
    closed = bounds.bcrb_extended_trace(R, params)
    assert closed == pytest.approx(float(np.trace(np.linalg.inv(J))), rel=1e-8)


def test_bcrb_monotone_in_noise_prior_and_power():
    R = _random_covariance(7, 4)
    # tighter prior (smaller variance) -> smaller Bayesian error
    vals = [bounds.bcrb_extended_trace(R, bounds.BcrbParams(
        noise_power=1.0, prior_variance=pv, frame_length=4, n_rx=2)) for pv in (0.5, 1.0, 2.0)]
    assert vals[0] < vals[1] < vals[2]
    params = bounds.BcrbParams(noise_power=1.0, prior_variance=1.0, frame_length=4, n_rx=2)
    powers = [bounds.bcrb_extended_trace(c * R, params) for c in (1.0, 2.0, 4.0)]
    assert powers[0] > powers[1] > powers[2]
    noises = [bounds.bcrb_extended_trace(R, bounds.BcrbParams(
        noise_power=s, prior_variance=1.0, frame_length=4, n_rx=2)) for s in (0.25, 1.0, 4.0)]
    assert noises[0] < noises[1] < noises[2]


def test_prior_free_fim_singular_below_full_rank():
    for i in range(10):
        n_tx = 4 + (i % 3)
        k = 1 + i % (n_tx - 1)
        R = _random_covariance(200 + i, n_tx, rank=k)
        J = bounds.extended_fim_prior_free(R, 1.0, 4, 3)
        evals = np.linalg.eigvalsh(J)
        assert evals.min() / evals.max() < 1e-9
        assert bounds.extended_fim_min_eigenvalue(R, 1.0, 4, 3) == pytest.approx(
            evals.min(), abs=1e-9 * evals.max())


def test_prior_free_fim_nonsingular_at_full_rank():
    R = _random_covariance(8, 4, rank=4)
    J = bounds.extended_fim_prior_free(R, 1.0, 4, 3)
    evals = np.linalg.eigvalsh(J)
    assert evals.min() / evals.max() > 1e-9


def test_realify_doubles_eigenvalues():
    M = _random_covariance(9, 5)
    evals_c = np.linalg.eigvalsh(M)
    evals_r = np.linalg.eigvalsh(realify_matrix(M))
    np.testing.assert_allclose(np.sort(np.repeat(evals_c, 2)), np.sort(evals_r), rtol=1e-10)


def test_bcrb_params_validation():
    with pytest.raises(InvalidArgumentError):
        bounds.BcrbParams(noise_power=0.0, prior_variance=1.0, frame_length=4, n_rx=2)
    with pytest.raises(InvalidArgumentError):
        bounds.BcrbParams(noise_power=1.0, prior_variance=1.0, frame_length=0, n_rx=2)
