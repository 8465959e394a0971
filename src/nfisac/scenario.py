"""Scenario container: arrays, users, target, and the constraint budgets.

Powers are carried in linear milliwatts; the SINR threshold is linear; the
energy-efficiency threshold is in bits/s/Hz per watt and is converted
exactly once where rate and power meet.  The desk and paper scenarios are
built from their configuration defaults by config.config_to_scenario.
"""

from dataclasses import dataclass
from typing import Union

from . import geometry
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class Scenario:
    geom: geometry.ArrayGeometry
    users: tuple
    target: Union[geometry.PointTarget, geometry.ExtendedTarget]
    power_budget: float        # mW
    sinr_threshold: float      # linear, 0 disables
    ee_threshold: float        # bits/s/Hz per W, 0 disables
    amplifier_eff: float
    static_power: float        # mW
    comm_noise: float          # mW, per user
    sensing_noise: float       # mW
    frame_length: int

    def __post_init__(self):
        if not self.users:
            raise InvalidArgumentError("need at least one user")
        if self.power_budget <= 0 or self.comm_noise <= 0 or self.sensing_noise <= 0:
            raise InvalidArgumentError("powers must be positive")
        if self.sinr_threshold < 0 or self.ee_threshold < 0:
            raise InvalidArgumentError("thresholds must be nonnegative")
        if not 0 < self.amplifier_eff <= 1:
            raise InvalidArgumentError("amplifier efficiency must lie in (0, 1]")
        if self.static_power < 0:
            raise InvalidArgumentError("static power must be nonnegative")
        if self.frame_length < len(self.users):
            raise InvalidArgumentError("frame length must be at least the user count")

    @property
    def n_users(self):
        return len(self.users)

    def channels(self):
        return geometry.build_channels(self.geom, self.users)
