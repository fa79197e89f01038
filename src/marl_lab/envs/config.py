"""Environment configuration and validation."""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(ValueError):
    """A bad setting. `keys` names the fields to blame, most specific first."""

    def __init__(self, message, *keys):
        super().__init__(message)
        self.keys = keys


@dataclass
class EnvConfig:
    kind: str = "cleanup"                 # cleanup | harvest
    map: str = "cleanup_mini"             # built-in map name, file path, or inline rows
    num_agents: int = 2
    episode_length: int = 1000
    view_size: int = 15
    seed: int = 0

    # Cleanup dynamics
    cleanup_depletion_threshold: float = 0.4
    cleanup_max_spawn_rate: float = 0.05
    waste_spawn_prob: float = 0.5
    initial_waste_fraction: float = 0.5

    # Harvest dynamics: regrowth probability by nearby-apple count
    harvest_low_rate: float = 0.01
    harvest_mid_rate: float = 0.05
    harvest_high_rate: float = 0.1

    # Beam geometry
    beam_length: int = 5
    beam_width: int = 3

    def __post_init__(self):
        from .maps import load_map      # maps imports ConfigError from here
        if self.kind not in ("cleanup", "harvest"):
            raise ConfigError(f"unknown environment kind {self.kind!r}", "kind")
        if self.num_agents < 1:
            raise ConfigError("num_agents must be positive", "num_agents")
        if self.episode_length < 1:
            raise ConfigError("episode_length must be positive", "episode_length")
        if self.view_size < 3 or self.view_size % 2 == 0:
            raise ConfigError("view_size must be an odd integer >= 3", "view_size")
        if not (0.0 <= self.initial_waste_fraction <= 1.0):
            raise ConfigError("initial_waste_fraction must lie in [0, 1]",
                              "initial_waste_fraction")
        if not (0.0 < self.cleanup_depletion_threshold <= 1.0):
            raise ConfigError("cleanup_depletion_threshold must lie in (0, 1]",
                              "cleanup_depletion_threshold")
        for key in ("waste_spawn_prob", "cleanup_max_spawn_rate", "harvest_low_rate",
                    "harvest_mid_rate", "harvest_high_rate"):
            if not (0.0 <= getattr(self, key) <= 1.0):
                raise ConfigError(f"{key} must lie in [0, 1]", key)
        if self.beam_length < 1:
            raise ConfigError("beam_length must be >= 1", "beam_length")
        if self.beam_width < 1 or self.beam_width % 2 == 0:
            raise ConfigError("beam_width must be odd and >= 1", "beam_width")
        try:
            # not a field: every env built from this config reads it, no spec sees it
            self.parsed_map = load_map(self.map, self.kind)
        except ConfigError as exc:
            raise ConfigError(str(exc), "map", "kind") from None
        spawns = len(self.parsed_map.spawns)
        if spawns < self.num_agents:
            raise ConfigError(f"map has {spawns} spawn points for "
                              f"{self.num_agents} agents", "num_agents", "map")

    @property
    def num_actions(self):
        from .env import CLEANUP_ACTIONS, HARVEST_ACTIONS
        return len(CLEANUP_ACTIONS) if self.kind == "cleanup" else len(HARVEST_ACTIONS)
