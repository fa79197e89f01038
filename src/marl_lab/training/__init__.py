from .advantages import compute_advantages
from .buffer import EpisodeStat, RolloutBuffer
from .metrics import METRIC_COLUMNS, read_metrics_csv
from .rollout import RolloutWorkers, collect_rollouts, evaluate
from .trainer import Trainer, TrainerConfig
from .update import a2c_sync_update, composite_loss, minibatch_views, ppo_update

__all__ = [
    "METRIC_COLUMNS", "EpisodeStat", "RolloutBuffer",
    "RolloutWorkers", "Trainer", "TrainerConfig", "a2c_sync_update",
    "collect_rollouts", "composite_loss", "compute_advantages", "evaluate",
    "minibatch_views", "ppo_update", "read_metrics_csv",
]
