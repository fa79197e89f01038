from .config import ConfigError, EnvConfig
from .env import (
    ACTION_NAMES, APPLE, CLEANUP_ACTIONS, EMPTY, EVENT_REWARDS, EVENTS, EnvState,
    FIRE_CLEAN, FIRE_PUNISH, HARVEST_ACTIONS, MOVE_DOWN, MOVE_LEFT, MOVE_RIGHT, MOVE_UP,
    NOOP, NUM_CHANNELS, RIVER, SPAWN, SSDEnv, StepOutcome, TURN_CCW, TURN_CW, WALL, WASTE,
    parse_render, render_ascii,
)
from .maps import BUILTIN_MAPS, ParsedMap, load_map
from .rates import cleanup_spawn_rate, harvest_regrowth_prob

__all__ = [
    "ACTION_NAMES", "APPLE", "BUILTIN_MAPS", "CLEANUP_ACTIONS", "ConfigError",
    "EMPTY", "EVENTS", "EVENT_REWARDS", "EnvConfig", "EnvState", "FIRE_CLEAN",
    "FIRE_PUNISH", "HARVEST_ACTIONS", "MOVE_DOWN", "MOVE_LEFT", "MOVE_RIGHT", "MOVE_UP",
    "NOOP", "NUM_CHANNELS", "ParsedMap", "RIVER", "SPAWN", "SSDEnv", "StepOutcome",
    "TURN_CCW", "TURN_CW", "WALL", "WASTE", "cleanup_spawn_rate", "harvest_regrowth_prob",
    "load_map", "parse_render", "render_ascii",
]
