import json

import numpy as np
import pytest

from nfisac import config
from nfisac.errors import InvalidArgumentError


def test_serialize_parse_round_trip_is_byte_identical():
    for scale in ("desk", "paper"):
        text = config.serialize(config.default_config(scale))
        again = config.serialize(config.loads_config(text, scale=scale))
        assert again == text


def test_serialize_is_canonical():
    text = config.serialize(config.default_config("desk"))
    assert text.endswith("\n")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_unknown_keys_rejected_by_name():
    with pytest.raises(InvalidArgumentError, match="geometry.n_antennas"):
        config.loads_config('{"geometry": {"n_antennas": 4}}')
    with pytest.raises(InvalidArgumentError, match="wavelength"):
        config.loads_config('{"wavelength": 0.01}')
    with pytest.raises(InvalidArgumentError, match="constraints.power_w"):
        config.loads_config('{"constraints": {"power_w": 1.0}}')


def test_point_target_missing_key_rejected():
    with pytest.raises(InvalidArgumentError, match="target.angle_deg"):
        config.loads_config(
            '{"target": {"kind": "point", "distance_m": 1.0, "reflection": 0.05}}')


def test_unknown_target_kind_rejected():
    with pytest.raises(InvalidArgumentError, match="target.kind"):
        config.loads_config('{"target": {"kind": "blob"}}')


def test_extended_target_prior_defaults_to_one():
    cfg = config.loads_config('{"target": {"kind": "extended"}}')
    assert cfg.target["prior_variance"] == 1.0


def test_sweep_variable_validated():
    with pytest.raises(InvalidArgumentError, match="sweep.variable"):
        config.loads_config('{"sweep": {"variable": "bandwidth", "values": [1]}}')
    cfg = config.loads_config('{"sweep": {"variable": "power_dbm", "values": [20, 30]}}')
    assert cfg.sweep == {"values": [20.0, 30.0], "variable": "power_dbm"}


def test_output_and_architecture_validated():
    with pytest.raises(InvalidArgumentError):
        config.loads_config('{"output": {"format": "xml", "path": "x"}}')
    with pytest.raises(InvalidArgumentError):
        config.loads_config('{"architectures": ["analogish"]}')
    with pytest.raises(InvalidArgumentError):
        config.loads_config('{"trials": -1}')


def test_trials_zero_or_at_least_two():
    # one trial has no standard error; 0 means no trials
    with pytest.raises(InvalidArgumentError):
        config.loads_config('{"trials": 1}')
    for n in (0, 2, 200):
        assert config.loads_config(f'{{"trials": {n}}}').trials == n


def test_users_block_is_replaced_wholesale():
    cfg = config.loads_config('{"users": [{"angle_deg": 0.0, "distance_m": 3.0}]}',
                              scale="desk")
    assert len(cfg.users) == 1
    assert cfg.users[0]["distance_m"] == 3.0


def test_scale_defaults_differ():
    assert config.default_config("desk").geometry["n_tx"] == 16
    assert config.default_config("paper").geometry["n_tx"] == 64
    with pytest.raises(InvalidArgumentError):
        config.default_config("huge")


def test_unknown_scale_rejected_when_parsing():
    # a configuration is filled from the same scale defaults default_config
    # serves, so an unknown scale fails there too instead of reading as desk
    with pytest.raises(InvalidArgumentError, match="unknown scale 'huge'"):
        config.loads_config("{}", scale="huge")
    assert config.loads_config("{}", scale="desk") == config.default_config("desk")


def test_config_to_scenario_converts_units_once():
    scn = config.config_to_scenario(config.default_config("desk"))
    assert scn.power_budget == pytest.approx(10 ** 3.4)
    assert scn.sinr_threshold == pytest.approx(10.0)
    assert scn.comm_noise == pytest.approx(10 ** -7.0)
    assert scn.static_power == pytest.approx(10 ** 1.5)
    assert scn.target.angle == pytest.approx(np.deg2rad(15.0))
    assert scn.users[0].angle == pytest.approx(np.deg2rad(-60.0))
    assert scn.geom.n_tx == 16


def test_null_sinr_disables_the_constraint():
    cfg = config.loads_config('{"constraints": {"sinr_db": null}}', scale="desk")
    assert config.config_to_scenario(cfg).sinr_threshold == 0.0


def test_save_and_load_round_trip(tmp_path):
    cfg = config.default_config("desk")
    path = tmp_path / "exp.json"
    config.save_config(cfg, path)
    assert config.load_config(path, scale="desk") == cfg


def test_invalid_json_rejected():
    with pytest.raises(InvalidArgumentError, match="JSON"):
        config.loads_config("{not json")
    with pytest.raises(InvalidArgumentError):
        config.loads_config("[1, 2]")
