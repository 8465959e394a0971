from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfisac import config, geometry, metrics
from nfisac.errors import InvalidArgumentError
from nfisac.units import db_to_linear, dbm_to_mw, mw_to_dbm, mw_to_w

GEOM = geometry.ArrayGeometry(n_tx=8, n_rx=8, n_rf=4, carrier_freq=28e9)
USERS = (geometry.UserSpec(distance=6.0, angle=0.3, id=0),
         geometry.UserSpec(distance=9.0, angle=-0.5, id=1))
CHANNELS = geometry.build_channels(GEOM, USERS)


def test_units_round_trip():
    for dbm in (-70.0, 0.0, 15.0, 34.0):
        assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm, abs=1e-12)
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(30.0) == pytest.approx(1000.0)
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert mw_to_w(2500.0) == pytest.approx(2.5)


def test_sinr_matches_covariance_form():
    # SINR, consumed power and EE of beamformer columns w_k, entered as the
    # covariances w_k w_k^H, against the direct |h_k^H w_i|^2 formulas
    rng = np.random.default_rng(3)
    noise, eff, static = 1e-9, 0.4, 20.0
    for _ in range(5):
        W = rng.standard_normal((GEOM.n_tx, 2)) + 1j * rng.standard_normal((GEOM.n_tx, 2))
        covs = [np.outer(W[:, k], W[:, k].conj()) for k in range(2)]
        sinrs = metrics.sinrs(CHANNELS, covs, noise)
        gains = np.abs(np.stack(CHANNELS.vectors).conj() @ W) ** 2   # [k, i] = |h_k^H w_i|^2
        direct = [gains[k, k] / (gains[k].sum() - gains[k, k] + noise) for k in range(2)]
        np.testing.assert_allclose(sinrs, direct, rtol=1e-10)
        radiated = float(np.sum(np.abs(W) ** 2))
        power = metrics.consumed_power(sum(np.real(np.trace(c)) for c in covs), eff, static)
        assert power == pytest.approx(radiated / eff + static, rel=1e-12)
        rate = np.log2(1.0 + np.array(direct)).sum()
        assert (metrics.energy_efficiency(metrics.sum_rate(sinrs), power)
                == pytest.approx(rate / ((radiated / eff + static) * 1e-3), rel=1e-10))


def test_sinr_interference_free_single_user():
    h = CHANNELS.vectors[0]
    w = h / np.linalg.norm(h) * 4.0
    noise = 1e-9
    expected = 16.0 * np.linalg.norm(h) ** 2 / noise
    (sinr,) = metrics.sinrs(geometry.ChannelSet((h,)), [np.outer(w, w.conj())], noise)
    assert sinr == pytest.approx(expected, rel=1e-10)
    # a second user's beam interferes only through its own overlap
    both = metrics.sinrs(CHANNELS, [np.outer(w, w.conj()), np.zeros((GEOM.n_tx,) * 2)], noise)
    assert both[0] == pytest.approx(expected, rel=1e-10) and both[1] >= 0.0
    with pytest.raises(InvalidArgumentError):
        metrics.sinrs(CHANNELS, [np.outer(w, w.conj())], noise)   # one covariance, two users
    with pytest.raises(InvalidArgumentError):
        metrics.sinrs(CHANNELS, [np.eye(GEOM.n_tx)] * 2, 0.0)


def test_sum_rate_shannon():
    assert metrics.sum_rate([1.0, 3.0]) == pytest.approx(1.0 + 2.0)
    assert metrics.sum_rate([]) == 0.0
    with pytest.raises(InvalidArgumentError):
        metrics.sum_rate([-0.5])


@settings(max_examples=25, deadline=None)
@given(p=st.floats(1e-3, 1e4), rho=st.floats(0.05, 1.0), p0=st.floats(0.0, 100.0))
def test_total_power_linear_model(p, rho, p0):
    assert metrics.consumed_power(p, rho, p0) == pytest.approx(p / rho + p0, rel=1e-10)


def test_energy_efficiency_units():
    # 8 bits/s/Hz over 2 W consumed -> 4 bits/s/Hz per watt
    assert metrics.energy_efficiency(8.0, 2000.0) == pytest.approx(4.0)
    with pytest.raises(InvalidArgumentError):
        metrics.energy_efficiency(1.0, 0.0)


def test_power_model_validation():
    """The scenario rejects power-model fields outside their domains."""
    scn = config.config_to_scenario(config.default_config("desk"))
    for bad in (dict(amplifier_eff=0.0), dict(amplifier_eff=-0.5), dict(amplifier_eff=1.5),
                dict(static_power=-1.0), dict(power_budget=0.0), dict(power_budget=-1.0)):
        with pytest.raises(InvalidArgumentError):
            replace(scn, **bad)
    # the edges of the valid domains are accepted
    replace(scn, amplifier_eff=1.0, static_power=0.0)
