from .rewards import (
    MODES, RewardShaper, ShapingConfig, gini_equality, inequity_intrinsics, reshape_reward,
    update_smoothed,
)

__all__ = [
    "MODES", "RewardShaper", "ShapingConfig", "gini_equality", "inequity_intrinsics",
    "reshape_reward", "update_smoothed",
]
