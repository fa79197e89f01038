"""Rollout storage: (workers, steps, agents) arrays plus episode accounting.

Observations are stored as uint8 one-hot stacks and cast to float64 per
minibatch. Recurrent-state snapshots hold the LSTM states as they were
*before* each step, which is what the stored-state update path replays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EpisodeStat:
    worker: int
    episode: int
    collective_reward: float
    equality: float
    per_agent_returns: np.ndarray
    events: dict        # episode event counts, keyed by rollout.EVENT_COUNTS


class RolloutBuffer:
    def __init__(self, workers, steps, num_agents, view_size, channels, lstm_units):
        W, S, N, V, U = workers, steps, num_agents, view_size, lstm_units
        self.workers, self.steps, self.num_agents = W, S, N
        self.obs = np.zeros((W, S, N, V, V, channels), dtype=np.uint8)
        self.next_obs = np.zeros((W, S, N, V, V, channels), dtype=np.uint8)
        self.actions = np.zeros((W, S, N), dtype=np.int64)
        self.behavior_logp = np.zeros((W, S, N))
        self.values = np.zeros((W, S, N))
        self.v_h = np.zeros((W, S, N, U))
        self.v_c = np.zeros((W, S, N, U))
        self.u_h = np.zeros((W, S, N, U))
        self.u_c = np.zeros((W, S, N, U))
        self.extrinsic = np.zeros((W, S, N))
        self.intrinsic = np.zeros((W, S, N))
        self.reshaped = np.zeros((W, S, N))
        self.impact_rows = np.zeros((W, S, N, max(N - 1, 1)))
        self.dones = np.zeros((W, S), dtype=bool)
        self.episode_starts = np.zeros((W, S), dtype=bool)
        self.moa_targets = np.zeros((W, S, N, max(N - 1, 1)), dtype=np.int64)
        self.moa_valid = np.zeros((W, S), dtype=bool)
        self.bootstrap_values = np.zeros((W, N))
        self.episode_stats: list[EpisodeStat] = []

    @property
    def total_samples(self):
        return self.workers * self.steps

    def finalize_moa_targets(self):
        """Targets are the other agents' actions one step later; the final
        step of an episode (or of the buffer) has no target."""
        N = self.num_agents
        others = np.array([[j for j in range(N) if j != k] for k in range(N)],
                          dtype=np.int64).reshape(N, N - 1)
        valid = ~self.dones[:, :-1]
        self.moa_valid[:, :-1] = valid
        nxt = self.actions[:, 1:][:, :, others]         # (W, S-1, N, N-1)
        self.moa_targets[:, :-1, :, :N - 1] = np.where(valid[..., None, None], nxt, 0)

    def flat(self, arr):
        """(W, S, ...) -> (W*S, ...) keeping worker-major order."""
        return arr.reshape((self.total_samples,) + arr.shape[2:])

    def consistency_check(self, combine_alpha=1.0, combine_beta=1.0):
        """Reshaped rewards must be recomputable from stored (e, i) and config."""
        assert np.isfinite(self.values).all() and np.isfinite(self.reshaped).all()
        recomb = combine_alpha * self.extrinsic + combine_beta * self.intrinsic
        np.testing.assert_allclose(self.reshaped, recomb, atol=1e-9)
