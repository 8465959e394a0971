"""Experiment configuration: canonical text format and scenario construction.

Configurations are nested key-value blocks serialized as canonical JSON
(sorted keys, two-space indent, trailing newline), so serialize(parse(x))
is byte-identical for canonical input.  Unknown keys are rejected by name.
Unit-suffixed keys (dBm, dB, degrees) are converted exactly once, inside
config_to_scenario.
"""

import copy
import json
from dataclasses import dataclass

import numpy as np

from . import geometry, scenario
from .errors import InvalidArgumentError
from .units import db_to_linear, dbm_to_mw

#: sweep variables understood by the harness
SWEEP_VARIABLES = ("none", "ee_threshold", "target_distance", "radar_snr_db", "power_dbm")

ARCHITECTURES = ("digital", "fully", "partially")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; all blocks are plain dicts/tuples."""

    geometry: dict
    users: tuple
    target: dict
    constraints: dict
    sweep: dict
    trials: int
    seed: int
    architectures: tuple
    output: dict

    def as_dict(self):
        return {
            "architectures": list(self.architectures),
            "constraints": dict(self.constraints),
            "geometry": dict(self.geometry),
            "output": dict(self.output),
            "seed": self.seed,
            "sweep": copy.deepcopy(self.sweep),
            "target": dict(self.target),
            "trials": self.trials,
            "users": [dict(u) for u in self.users],
        }


def _paper_defaults():
    return {
        "architectures": ["digital", "fully", "partially"],
        "constraints": {
            "amplifier_eff": 0.5,
            "comm_noise_dbm": -70.0,
            "ee_threshold": 4.0,
            "frame_length": 64,
            "power_dbm": 34.0,
            "sensing_noise_dbm": 0.0,
            "sinr_db": 10.0,
            "static_power_dbm": 15.0,
        },
        "geometry": {"carrier_freq_hz": 28.0e9, "n_rf": 8, "n_rx": 64, "n_tx": 64},
        "output": {"format": "csv", "path": "results.csv"},
        "seed": 0,
        "sweep": {"values": [], "variable": "none"},
        "target": {"angle_deg": 15.0, "distance_m": 10.0, "kind": "point",
                   "reflection": 0.05},
        "trials": 0,
        "users": [
            {"angle_deg": -60.0, "distance_m": 15.0},
            {"angle_deg": -30.0, "distance_m": 10.0},
            {"angle_deg": 30.0, "distance_m": 15.0},
            {"angle_deg": 60.0, "distance_m": 10.0},
        ],
    }


def _desk_defaults():
    # 16-antenna arrays at 28 GHz put the near-field boundary at about
    # 1.37 m, so the 1 m point target sits where wavefront curvature is
    # resolvable.  The -70 dBm communication noise floor suits the
    # free-space gains of the ~10 m user links.
    d = _paper_defaults()
    d["geometry"] = {"carrier_freq_hz": 28.0e9, "n_rf": 4, "n_rx": 16, "n_tx": 16}
    d["constraints"]["frame_length"] = 16
    d["target"]["distance_m"] = 1.0
    d["trials"] = 200
    d["users"] = d["users"][:2]
    return d


_EXTENDED_TARGET_KEYS = {"kind", "prior_variance"}
_POINT_TARGET_KEYS = {"kind", "angle_deg", "distance_m", "reflection"}


def _check_keys(block, allowed, where):
    for key in block:
        if key not in allowed:
            raise InvalidArgumentError(f"unknown configuration key {where}.{key}")


def _validate(d):
    _check_keys(d, set(_paper_defaults()), "")
    g = d["geometry"]
    _check_keys(g, {"carrier_freq_hz", "n_rf", "n_rx", "n_tx"}, "geometry")
    c = d["constraints"]
    _check_keys(c, set(_paper_defaults()["constraints"]), "constraints")
    t = d["target"]
    if t.get("kind") == "extended":
        _check_keys(t, _EXTENDED_TARGET_KEYS, "target")
        if "prior_variance" not in t:
            t["prior_variance"] = 1.0
    elif t.get("kind") == "point":
        _check_keys(t, _POINT_TARGET_KEYS, "target")
        for key in sorted(_POINT_TARGET_KEYS - set(t)):
            raise InvalidArgumentError(f"missing configuration key target.{key}")
    else:
        raise InvalidArgumentError(f"unknown configuration value target.kind={t.get('kind')!r}")
    for i, u in enumerate(d["users"]):
        _check_keys(u, {"angle_deg", "distance_m"}, f"users[{i}]")
    sw = d["sweep"]
    _check_keys(sw, {"values", "variable"}, "sweep")
    if sw["variable"] is None:
        sw["variable"] = "none"
    if sw["variable"] not in SWEEP_VARIABLES:
        raise InvalidArgumentError(f"unknown configuration value sweep.variable={sw['variable']!r}")
    sw["values"] = [float(v) for v in sw["values"]]
    _check_keys(d["output"], {"format", "path"}, "output")
    if d["output"]["format"] not in ("csv", "json"):
        raise InvalidArgumentError("output.format must be csv or json")
    for arch in d["architectures"]:
        if arch not in ARCHITECTURES:
            raise InvalidArgumentError(f"unknown configuration value architectures={arch!r}")
    if int(d["trials"]) < 0 or int(d["trials"]) == 1:
        # one trial has no standard error; 0 means no trials
        raise InvalidArgumentError("trials must be 0 or at least 2")
    return ExperimentConfig(
        geometry=dict(g),
        users=tuple(dict(u) for u in d["users"]),
        target=dict(t),
        constraints=dict(c),
        sweep={"values": list(sw["values"]), "variable": sw["variable"]},
        trials=int(d["trials"]),
        seed=int(d["seed"]),
        architectures=tuple(d["architectures"]),
        output=dict(d["output"]),
    )


def _merge(base, override, where=""):
    for key, value in override.items():
        path = f"{where}.{key}" if where else key
        if key not in base:
            raise InvalidArgumentError(f"unknown configuration key {path}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            _merge(base[key], value, path)
        else:
            base[key] = value
    return base


def default_config(scale="paper"):
    if scale == "paper":
        return _validate(_paper_defaults())
    if scale == "desk":
        return _validate(_desk_defaults())
    raise InvalidArgumentError(f"unknown scale {scale!r}")


def loads_config(text, scale="paper"):
    """Parse a configuration, filling unspecified keys from the scale defaults."""
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise InvalidArgumentError("configuration must be a JSON object")
    base = _paper_defaults() if scale == "paper" else _desk_defaults()
    # whole-block replacement for the list-valued and variant-typed keys
    for key in ("users", "architectures", "target"):
        if key in user:
            base[key] = user.pop(key)
    _merge(base, user)
    return _validate(base)


def load_config(path, scale="paper"):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read(), scale=scale)


def serialize(cfg):
    """Canonical text form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(cfg.as_dict(), indent=2, sort_keys=True) + "\n"


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(cfg))


def config_to_scenario(cfg):
    """Build a Scenario; this is the single place dBm/dB/degree units convert."""
    g = cfg.geometry
    geom = geometry.ArrayGeometry(n_tx=int(g["n_tx"]), n_rx=int(g["n_rx"]),
                                  n_rf=int(g["n_rf"]),
                                  carrier_freq=float(g["carrier_freq_hz"]))
    users = tuple(
        geometry.UserSpec(distance=float(u["distance_m"]),
                          angle=float(np.deg2rad(u["angle_deg"])), id=i)
        for i, u in enumerate(cfg.users))
    t = cfg.target
    if t["kind"] == "point":
        target = geometry.PointTarget(distance=float(t["distance_m"]),
                                      angle=float(np.deg2rad(t["angle_deg"])),
                                      reflection=complex(t["reflection"]))
    else:
        target = geometry.ExtendedTarget(prior_variance=float(t["prior_variance"]))
    c = cfg.constraints
    sinr_db = c["sinr_db"]
    return scenario.Scenario(
        geom=geom,
        users=users,
        target=target,
        power_budget=dbm_to_mw(float(c["power_dbm"])),
        sinr_threshold=0.0 if sinr_db is None else db_to_linear(float(sinr_db)),
        ee_threshold=float(c["ee_threshold"]),
        amplifier_eff=float(c["amplifier_eff"]),
        static_power=dbm_to_mw(float(c["static_power_dbm"])),
        comm_noise=dbm_to_mw(float(c["comm_noise_dbm"])),
        sensing_noise=dbm_to_mw(float(c["sensing_noise_dbm"])),
        frame_length=int(c["frame_length"]),
    )
