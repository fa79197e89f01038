from .rewards import (
    MODES, RewardShaper, ShapingConfig, emurel_intrinsic, gini_equality,
    ia_intrinsic, reshape_reward, update_smoothed,
)

__all__ = [
    "MODES", "RewardShaper", "ShapingConfig", "emurel_intrinsic", "gini_equality",
    "ia_intrinsic", "reshape_reward", "update_smoothed",
]
