"""Training orchestration: collect -> advantage -> update, one metrics row
per update. Collection and updates are fork-join and fully seeded, so a
(config, seed) pair determines every number the trainer ever emits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..agents import AgentNets
from ..envs.config import ConfigError
from ..nn.optim import OPTIMIZERS, Optimizer
from .advantages import compute_advantages
from .rollout import RolloutWorkers, collect_rollouts
from .update import a2c_sync_update, ppo_update


@dataclass
class TrainerConfig:
    algo: str = "ppo"                   # ppo | a2c_sync
    batch_steps: int = 2000
    minibatch_steps: int = 500
    ppo_epochs: int = 4
    clip_ratio: float = 0.2
    gae_lambda: float = 0.95
    discount: float = 0.99
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    moa_coef: float = 1.0
    forward_coef: float = 10.0
    inverse_coef: float = 5.0
    workers: int = 4
    updates: int = 200
    learning_rate: float = 3e-4
    optimizer: str = "adam"
    grad_clip_norm: float | None = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.algo not in ("ppo", "a2c_sync"):
            raise ConfigError(f"unknown algo {self.algo!r}", "algo")
        for key in ("batch_steps", "minibatch_steps", "ppo_epochs", "workers", "updates"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1", key)
        if self.minibatch_steps > self.batch_steps:
            raise ConfigError("minibatch_steps must not exceed batch_steps",
                              "minibatch_steps", "batch_steps")
        if self.batch_steps % self.workers != 0:
            raise ConfigError("batch_steps must divide evenly across workers",
                              "batch_steps", "workers")
        if self.algo == "ppo" and self.batch_steps % self.minibatch_steps != 0:
            raise ConfigError("batch_steps must be a multiple of minibatch_steps",
                              "batch_steps", "minibatch_steps")
        if self.clip_ratio <= 0:
            raise ConfigError("clip_ratio must be positive", "clip_ratio")
        for key in ("gae_lambda", "discount"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ConfigError(f"{key} must lie in [0, 1]", key)
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer kind {self.optimizer!r}", "optimizer")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive", "learning_rate")
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ConfigError("grad_clip_norm must be positive when set", "grad_clip_norm")


class Trainer:
    def __init__(self, env_config, shaping_config, trainer_config, sizes=None):
        self.env_config = env_config
        self.shaping_config = shaping_config
        self.cfg = trainer_config
        n = env_config.num_agents
        self.agents = [AgentNets(env_config.view_size, env_config.num_actions,
                                 n, seed=[trainer_config.seed, k], sizes=sizes)
                       for k in range(n)]
        self.workers = RolloutWorkers(env_config, shaping_config, trainer_config.seed,
                                      range(trainer_config.workers),
                                      self.agents[0].sizes.lstm_units)
        # Only emurel's losses reach the MOA and forward/inverse sections (none named: all).
        trained = () if shaping_config.mode == "emurel" else ("encoder", "actor_critic")
        self.optimizers = [Optimizer(a.parameters(*trained), trainer_config.optimizer,
                                     trainer_config.learning_rate,
                                     trainer_config.grad_clip_norm) for a in self.agents]
        self._shuffle_rng = np.random.default_rng(
            np.random.SeedSequence([trainer_config.seed, 7919]))
        self.update_idx = 0

    @property
    def env_steps(self):
        """Env steps collected so far: every update collects one batch."""
        return self.update_idx * self.cfg.batch_steps

    def one_update(self):
        """Collect one batch, apply one update; returns (metrics row, buffer)."""
        cfg = self.cfg
        buffer = collect_rollouts(self.workers, self.agents, cfg.batch_steps)
        advantages, targets = compute_advantages(buffer, cfg.discount, cfg.gae_lambda)
        if cfg.algo == "ppo":
            terms = ppo_update(self.agents, buffer, advantages, targets, cfg,
                               self.optimizers, self._shuffle_rng)
        else:
            terms = a2c_sync_update(self.agents, buffer, advantages, targets, cfg,
                                    self.optimizers)

        self.update_idx += 1
        stats = buffer.episode_stats
        collective = (float(np.mean([s.collective_reward for s in stats]))
                      if stats else float("nan"))
        equality = float(np.mean([s.equality for s in stats])) if stats else float("nan")
        impacts = buffer.impact_rows    # all zeros outside emurel mode
        return {
            "update": self.update_idx,
            "env_steps": self.env_steps,
            "episodes_completed": len(stats),
            "collective_reward": collective,
            "equality": equality,
            **terms,
            "intrinsic_mean": float(buffer.intrinsic.mean()),
            "impact_mean": float(impacts.mean()),
            "impact_min": float(impacts.min()),
            "impact_max": float(impacts.max()),
        }, buffer
