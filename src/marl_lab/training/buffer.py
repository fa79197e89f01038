"""Rollout storage: (workers, steps, ...) arrays plus episode accounting.

Each field takes its shape and dtype from the first step it records. The
uint8 observations are cast to float64 where a net encodes them. Recurrent
state snapshots hold the LSTM states as they were *before* each step, which
is what the stored-state update path replays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..shaping import fellows


@dataclass
class EpisodeStat:
    worker: int
    episode: int
    collective_reward: float
    equality: float
    per_agent_returns: np.ndarray
    events: dict        # {envs.EVENTS name: episode count, summed over agents}


class RolloutBuffer:
    def __init__(self, workers, steps, num_agents):
        self.workers, self.steps, self.num_agents = workers, steps, num_agents
        self.episode_stats: list[EpisodeStat] = []

    def record(self, t, arrays):
        """Store step t's {field: (W, ...) array}. A field's first record
        allocates it as (W, S) + value.shape[1:], with the value's dtype."""
        for name, value in arrays.items():
            if name not in vars(self):
                setattr(self, name, np.zeros((self.workers, self.steps) + value.shape[1:],
                                             dtype=value.dtype))
            getattr(self, name)[:, t] = value

    @property
    def total_samples(self):
        return self.workers * self.steps

    def finalize_moa_targets(self):
        """Targets are the other agents' actions one step later; the final
        step of an episode (or of the buffer) has no target."""
        W, S, N = self.workers, self.steps, self.num_agents
        valid = ~self.dones[:, :-1]
        self.moa_valid = np.zeros((W, S), dtype=bool)
        self.moa_valid[:, :-1] = valid
        nxt = self.actions[:, 1:][:, :, fellows(N)]     # (W, S-1, N, N-1)
        self.moa_targets = np.zeros((W, S, N, max(N - 1, 1)), dtype=np.int64)
        self.moa_targets[:, :-1, :, :N - 1] = np.where(valid[..., None, None], nxt, 0)

    def flat(self, arr):
        """(W, S, ...) -> (W*S, ...) keeping worker-major order."""
        return arr.reshape((self.total_samples,) + arr.shape[2:])

    def consistency_check(self, combine_alpha=1.0, combine_beta=1.0):
        """Reshaped rewards must be recomputable from stored (e, i) and config."""
        assert np.isfinite(self.values).all() and np.isfinite(self.reshaped).all()
        recomb = combine_alpha * self.extrinsic + combine_beta * self.intrinsic
        np.testing.assert_allclose(self.reshaped, recomb, atol=1e-9)
