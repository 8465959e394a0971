import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfisac import geometry
from nfisac.errors import InvalidArgumentError

GEOM = geometry.ArrayGeometry(n_tx=16, n_rx=16, n_rf=4, carrier_freq=28e9)


def test_element_offsets_symmetric():
    for n in (1, 2, 5, 16, 64):
        deltas = geometry.element_offsets(n)
        assert len(deltas) == n
        np.testing.assert_allclose(deltas, -deltas[::-1], atol=0)
        assert abs(deltas.sum()) < 1e-12


def test_element_offsets_values():
    np.testing.assert_allclose(geometry.element_offsets(4), [-1.5, -0.5, 0.5, 1.5])
    np.testing.assert_allclose(geometry.element_offsets(3), [-1.0, 0.0, 1.0])


def test_spacing_is_half_wavelength():
    assert GEOM.spacing == pytest.approx(GEOM.wavelength / 2.0, rel=0, abs=0)


def test_rayleigh_distance_formula():
    lam = GEOM.wavelength
    aperture = 16 * lam / 2.0
    expected = 2.0 * aperture**2 / lam
    assert geometry.rayleigh_distance(GEOM) == pytest.approx(expected, rel=1e-15)


def test_rayleigh_distance_quadratic_in_n():
    g2 = geometry.ArrayGeometry(n_tx=32, n_rx=32, n_rf=4, carrier_freq=28e9)
    assert geometry.rayleigh_distance(g2) == pytest.approx(
        4.0 * geometry.rayleigh_distance(GEOM), rel=1e-12)


def test_steering_unit_modulus():
    b = geometry.steering_vector(GEOM, 1.3, 0.4)
    np.testing.assert_allclose(np.abs(b), 1.0, atol=1e-14)


def test_steering_center_element_reference():
    # odd array: the center element sits at the origin, so its phase is zero
    g = geometry.ArrayGeometry(n_tx=5, n_rx=5, n_rf=1, carrier_freq=28e9)
    b = geometry.steering_vector(g, 2.0, 0.2)
    assert b[2] == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_exact_element_distance_law_of_cosines():
    # element at offset delta*d on the x axis, source at (r sin phi, r cos phi)
    r, phi, delta = 1.7, 0.35, 2.5
    d = GEOM.spacing
    px, py = r * np.sin(phi), r * np.cos(phi)
    direct = np.hypot(px - delta * d, py)
    assert geometry.exact_element_distance(r, phi, delta, d) == pytest.approx(direct, rel=1e-14)


def test_quadratic_mode_matches_exact_in_far_field():
    r = 50.0 * geometry.rayleigh_distance(GEOM)
    be = geometry.steering_vector(GEOM, r, 0.3, mode="exact")
    bq = geometry.steering_vector(GEOM, r, 0.3, mode="quadratic")
    assert np.max(np.abs(be - bq)) < 1e-3


def test_quadratic_mode_diverges_from_exact_in_near_field():
    r = 0.1 * geometry.rayleigh_distance(GEOM)
    be = geometry.steering_vector(GEOM, r, 0.3, mode="exact")
    bq = geometry.steering_vector(GEOM, r, 0.3, mode="quadratic")
    assert np.max(np.abs(be - bq)) > 1e-3


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.2, 40.0), phi=st.floats(-1.4, 1.4))
def test_steering_derivatives_match_finite_differences(r, phi):
    db_dr, db_dphi = geometry.steering_derivatives(GEOM, r, phi)
    eps_r = 1e-6 * r
    fd_r = (geometry.steering_vector(GEOM, r + eps_r, phi)
            - geometry.steering_vector(GEOM, r - eps_r, phi)) / (2 * eps_r)
    eps_p = 1e-7
    fd_p = (geometry.steering_vector(GEOM, r, phi + eps_p)
            - geometry.steering_vector(GEOM, r, phi - eps_p)) / (2 * eps_p)
    assert np.linalg.norm(db_dr - fd_r) <= 1e-5 * max(np.linalg.norm(fd_r), 1.0)
    assert np.linalg.norm(db_dphi - fd_p) <= 1e-5 * max(np.linalg.norm(fd_p), 1.0)


def test_path_gain_free_space_magnitude():
    r = 3.0
    g = geometry.path_gain(r, GEOM.carrier_freq)
    lam = GEOM.wavelength
    assert abs(g) == pytest.approx(lam / (4 * np.pi * r), rel=1e-14)
    assert g.imag == 0.0


def test_channel_vector_los_only():
    user = geometry.UserSpec(distance=10.0, angle=0.5, id=0)
    h = geometry.channel_vector(GEOM, user)
    beta = geometry.path_gain(10.0, GEOM.carrier_freq)
    np.testing.assert_allclose(h, beta * geometry.steering_vector(GEOM, 10.0, 0.5), rtol=1e-14)


def test_invalid_arguments_rejected():
    with pytest.raises(InvalidArgumentError):
        geometry.steering_vector(GEOM, -1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        geometry.steering_vector(GEOM, 1.0, np.pi / 2)
    with pytest.raises(InvalidArgumentError):
        geometry.steering_vector(GEOM, 1.0, 0.0, mode="cubic")
    with pytest.raises(InvalidArgumentError):
        geometry.ArrayGeometry(n_tx=4, n_rx=4, n_rf=5, carrier_freq=28e9)
    with pytest.raises(InvalidArgumentError):
        geometry.UserSpec(distance=-1.0, angle=0.0)
    with pytest.raises(InvalidArgumentError):
        geometry.PointTarget(distance=1.0, angle=2.0, reflection=0.05)
    with pytest.raises(InvalidArgumentError):
        geometry.ExtendedTarget(prior_variance=0.0)
    with pytest.raises(InvalidArgumentError):
        geometry.path_gain(0.0, GEOM.carrier_freq)


def test_element_offsets_computed_once_and_read_only(monkeypatch):
    calls = []
    offsets = geometry.element_offsets

    def counting(n):
        calls.append(n)
        return offsets(n)

    monkeypatch.setattr(geometry, "element_offsets", counting)
    geom = geometry.ArrayGeometry(n_tx=8, n_rx=5, n_rf=4, carrier_freq=28e9)
    r, phi = np.array([[1.0], [2.0]]), np.array([[0.1, -0.3]])
    for side in ("tx", "rx", "tx", "rx"):
        geometry.steering_vectors(geom, r, phi, side)
    assert calls == [8, 5]
    assert geom.tx_offsets is geom.tx_offsets and geom.rx_offsets is geom.rx_offsets
    np.testing.assert_array_equal(geom.tx_offsets, offsets(8))
    np.testing.assert_array_equal(geom.rx_offsets, offsets(5))
    for deltas in geom.tx_offsets, geom.rx_offsets:
        with pytest.raises(ValueError):
            deltas[0] = 0.0
    # the cached offsets are not fields: equal geometries stay equal and hash alike
    fresh = geometry.ArrayGeometry(n_tx=8, n_rx=5, n_rf=4, carrier_freq=28e9)
    assert fresh == geom and hash(fresh) == hash(geom)
    # the range check of exact_element_distance still guards the grids
    with pytest.raises(InvalidArgumentError):
        geometry.steering_vectors(geom, np.array([[1.0], [0.0]]), phi)
