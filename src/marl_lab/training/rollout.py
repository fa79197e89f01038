"""Rollout collection: logical workers stepping independent env instances.

The W workers step in lockstep. Each step, the envs step one after another,
and each agent's nets run once on a W-row batch: encode, act, the impact
rows, the MOA advance, and at the end the bootstrap value. phi is encoded
once per agent-step and shared by act, `impact_row` and the MOA advance.

Every random stream (env dynamics, per-agent action sampling) derives from
(run_seed, worker, episode) and is drawn only by its own worker, and each
worker resets its own env when that env is done. The batched nets give every
row the bits of a lone call (see `marl_lab.nn.layers`), and episode stats
are kept in worker-major order. So a collection is a pure function of seeds
and parameters, and a worker's slice of the buffer is the same whether it
runs alone or beside others.
"""

from __future__ import annotations

import numpy as np

from ..agents.memory import AgentMemory
from ..agents.nets import joint_one_hot
from ..eicm import impact_row
from ..envs import SSDEnv
from ..shaping import RewardShaper, gini_equality
from .buffer import EpisodeStat, RolloutBuffer

_ENV_STREAM = 11
_ACTION_STREAM = 23


class RolloutWorker:
    """Owns one env instance plus per-agent memories and shaping state; state
    persists across collections so episodes may span batch boundaries."""

    def __init__(self, env_config, shaping_config, run_seed, worker_idx):
        self.env = SSDEnv(env_config)
        self.shaping_config = shaping_config
        self.run_seed = run_seed
        self.worker_idx = worker_idx
        self.num_agents = env_config.num_agents
        self.episode_idx = -1
        self.memories = None
        self.action_rngs = None
        self.shaper = RewardShaper(shaping_config, self.num_agents)
        self.obs = None
        self.episode_returns = None

    def episode_env_seed(self, episode_idx):
        return [self.run_seed, self.worker_idx, episode_idx, _ENV_STREAM]

    def episode_action_seed(self, episode_idx, agent_idx):
        return [self.run_seed, self.worker_idx, episode_idx, agent_idx, _ACTION_STREAM]

    def _begin_episode(self, agents):
        self.episode_idx += 1
        self.env.reset(seed=self.episode_env_seed(self.episode_idx))
        self.memories = [a.fresh_memory(episode_tag=self.episode_idx) for a in agents]
        self.action_rngs = [np.random.default_rng(
            np.random.SeedSequence(self.episode_action_seed(self.episode_idx, k)))
            for k in range(self.num_agents)]
        self.shaper.reset()
        self.obs = [self.env.observe(k) for k in range(self.num_agents)]
        self.episode_returns = np.zeros(self.num_agents)

    def begin_step(self, agents):
        """Start a new episode if none is running; True when one started."""
        fresh = self.episode_idx < 0 or self.env.done
        if fresh:
            self._begin_episode(agents)
        for memory in self.memories:
            memory.check_tag(self.episode_idx)
        return fresh

    def finish_step(self, actions, impacts):
        """Step the env on the joint action and shape its rewards; returns
        (extrinsic, intrinsic, reshaped, EpisodeStat or None)."""
        _, outcome = self.env.step(actions)
        e, i, r = self.shaper.step(outcome.extrinsic, impacts)
        self.episode_returns += e
        self.obs = [self.env.observe(k) for k in range(self.num_agents)]
        stat = None
        if self.env.done:
            clamped = np.maximum(self.episode_returns, 0.0)
            stat = EpisodeStat(
                worker=self.worker_idx, episode=self.episode_idx,
                collective_reward=float(self.episode_returns.sum()),
                equality=gini_equality(clamped),
                per_agent_returns=self.episode_returns.copy())
        return e, i, r, stat


def collect_rollouts(workers, agents, batch_steps, view_size, channels, lstm_units):
    """Step every worker batch_steps/len(workers) times in lockstep into one
    buffer; worker w fills slice [w]."""
    W = len(workers)
    if batch_steps % W != 0:
        raise ValueError(f"batch_steps {batch_steps} not divisible by {W} workers")
    steps = batch_steps // W
    N = workers[0].num_agents
    num_actions = workers[0].env.num_actions
    emurel = workers[0].shaping_config.mode == "emurel"
    buffer = RolloutBuffer(W, steps, N, view_size, channels, lstm_units)
    stats = [[] for _ in workers]
    rows = np.arange(W)

    for t in range(steps):
        for w, worker in enumerate(workers):
            buffer.episode_starts[w, t] = worker.begin_step(agents)

        obs = [np.stack([worker.obs[k] for worker in workers]) for k in range(N)]
        mems = [AgentMemory.stack([worker.memories[k] for worker in workers])
                for k in range(N)]
        phis = []
        for k in range(N):
            buffer.obs[:, t, k] = obs[k].astype(np.uint8)
            buffer.v_h[:, t, k], buffer.v_c[:, t, k] = mems[k].v.hidden, mems[k].v.cell
            buffer.u_h[:, t, k], buffer.u_c[:, t, k] = mems[k].u.hidden, mems[k].u.cell
            phis.append(agents[k].encode(obs[k]))
            out, mems[k] = agents[k].act(obs[k], mems[k],
                                         [worker.action_rngs[k] for worker in workers],
                                         feat=phis[k])
            buffer.actions[:, t, k] = out.action
            buffer.behavior_logp[:, t, k] = np.log(out.probs[rows, out.action])
            buffer.values[:, t, k] = out.value

        if emurel:
            joint = joint_one_hot(buffer.actions[:, t], num_actions)
            for k in range(N):
                buffer.impact_rows[:, t, k], _ = impact_row(
                    agents[k], phis[k], mems[k].u.hidden, joint, k)
                _, mems[k] = agents[k].moa_predict(obs[k], joint, mems[k], feat=phis[k])

        per_agent = [m.unstack() for m in mems]
        for w, worker in enumerate(workers):
            worker.memories = [per_agent[k][w] for k in range(N)]
            impacts = buffer.impact_rows[w, t] if emurel else None
            (buffer.extrinsic[w, t], buffer.intrinsic[w, t], buffer.reshaped[w, t],
             stat) = worker.finish_step(buffer.actions[w, t].copy(), impacts)
            buffer.next_obs[w, t] = np.stack(worker.obs).astype(np.uint8)
            if stat is not None:
                buffer.dones[w, t] = True
                stats[w].append(stat)

    buffer.episode_stats = [s for per_worker in stats for s in per_worker]
    live = [w for w, worker in enumerate(workers) if not worker.env.done]
    if live:
        for k in range(N):
            buffer.bootstrap_values[live, k] = agents[k].value_only(
                np.stack([workers[w].obs[k] for w in live]),
                AgentMemory.stack([workers[w].memories[k] for w in live]))
    buffer.finalize_moa_targets()
    return buffer
