"""Rollout collection and evaluation: logical workers stepping independent
env instances.

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

Evaluation and replay step through the same `lockstep_step`: their episodes
are baseline-shaped workers, reset with their own seeds and stepped together
to the end of the episode.
"""

from __future__ import annotations

import numpy as np

from ..agents.nets import joint_one_hot
from ..eicm import impact_row
from ..envs import SSDEnv
from ..shaping import RewardShaper, ShapingConfig, gini_equality
from .buffer import EpisodeStat, RolloutBuffer

_ENV_STREAM = 11
_ACTION_STREAM = 23
_EVAL_ENV_STREAM = 31
_EVAL_ACTION_STREAM = 37


# Episode event counts, tallied from the env's step events.
EVENT_COUNTS = ("apple_collected", "beam_fired", "agent_hit", "waste_cleaned",
                "clean_beams")

# The LSTM states a worker carries, named as the RolloutBuffer fields that
# store them: actor-critic (v) and MOA (u), hidden and cell.
LSTM_STATE = ("v_h", "v_c", "u_h", "u_c")


class RolloutWorker:
    """Owns one env instance, its current observations `obs` (N, V, V, C),
    the agents' LSTM states (one (N, U) array per name in `lstm_state`: the
    MOA's only in emurel mode, the one mode that reads it) and the shaping
    state. State persists across collections so episodes may span batch
    boundaries; only `reset` zeros the LSTM state and only `lockstep_step`
    advances it."""

    def __init__(self, env_config, shaping_config, run_seed, worker_idx):
        self.env = SSDEnv(env_config)
        self.shaping_config = shaping_config
        self.run_seed = run_seed
        self.worker_idx = worker_idx
        self.num_agents = env_config.num_agents
        self.lstm_state = LSTM_STATE if shaping_config.mode == "emurel" else LSTM_STATE[:2]
        self.episode_idx = -1
        self.v_h = self.v_c = self.u_h = self.u_c = None
        self.action_rngs = None
        self.shaper = RewardShaper(shaping_config, self.num_agents)
        self.obs = None
        self.episode_returns = None
        self.episode_events = None

    def episode_env_seed(self, episode_idx):
        return [self.run_seed, self.worker_idx, episode_idx, _ENV_STREAM]

    def episode_action_seed(self, episode_idx, agent_idx):
        return [self.run_seed, self.worker_idx, episode_idx, agent_idx, _ACTION_STREAM]

    def reset(self, agents, env_seed, action_seeds):
        """Start the worker's next episode: the env from env_seed, and agent
        k's action draws from action_seeds[k]."""
        self.episode_idx += 1
        self.env.reset(seed=env_seed)
        for name in self.lstm_state:
            setattr(self, name, np.zeros((self.num_agents, agents[0].sizes.lstm_units)))
        self.action_rngs = [np.random.default_rng(np.random.SeedSequence(seed))
                            for seed in action_seeds]
        self.shaper.reset()
        self.obs = self.env.observe()
        self.episode_returns = np.zeros(self.num_agents)
        self.episode_events = dict.fromkeys(EVENT_COUNTS, 0)

    def begin_step(self, agents):
        """Start a new episode if none is running; True when one started."""
        fresh = self.episode_idx < 0 or self.env.done
        if fresh:
            episode = self.episode_idx + 1
            self.reset(agents, self.episode_env_seed(episode),
                       [self.episode_action_seed(episode, k)
                        for k in range(self.num_agents)])
        return fresh

    def finish_step(self, actions, impacts):
        """Step the env on the joint action and shape its rewards (impact rows
        count in emurel mode only); returns (extrinsic, intrinsic, reshaped,
        EpisodeStat or None)."""
        _, outcome = self.env.step(actions)
        e, i, r = self.shaper.step(outcome.extrinsic, impacts)
        self.episode_returns += e
        for event in outcome.events:
            self.episode_events[event["kind"]] += 1
            if event["kind"] == "beam_fired" and event["beam"] == "clean":
                self.episode_events["clean_beams"] += 1
        self.obs = self.env.observe()
        stat = None
        if self.env.done:
            clamped = np.maximum(self.episode_returns, 0.0)
            stat = EpisodeStat(
                worker=self.worker_idx, episode=self.episode_idx,
                collective_reward=float(self.episode_returns.sum()),
                equality=gini_equality(clamped),
                per_agent_returns=self.episode_returns.copy(),
                events=self.episode_events)
        return e, i, r, stat


def lockstep_step(workers, agents, greedy=False):
    """Step every worker once, in lockstep. The workers' `obs` and LSTM
    states are stacked once each to (W, N, ...), and agent k's nets run once
    on column [:, k]: encode, act and, in emurel mode, the impact rows and
    the MOA advance. The advanced states go into copies, whose row w becomes
    worker w's state. Then each worker steps its env and shapes its rewards.

    Returns ({RolloutBuffer field: (W, ...) array of this step},
    [EpisodeStat or None per worker]).
    """
    W, N = len(workers), len(agents)
    emurel = workers[0].shaping_config.mode == "emurel"
    carried = workers[0].lstm_state
    rows = np.arange(W)
    arrays = {name: np.stack([getattr(worker, name) for worker in workers])
              for name in ("obs",) + carried}
    obs = arrays["obs"]
    state = {name: arrays[name].copy() for name in carried}

    actions = np.zeros((W, N), dtype=np.int64)
    logp, values = np.zeros((W, N)), np.zeros((W, N))
    phis = []
    for k in range(N):
        phis.append(agents[k].window_features(obs[:, k]))
        out, state["v_h"][:, k], state["v_c"][:, k] = agents[k].act(
            obs[:, k], arrays["v_h"][:, k], arrays["v_c"][:, k],
            [worker.action_rngs[k] for worker in workers], greedy=greedy, feat=phis[k])
        actions[:, k] = out.action
        logp[:, k] = np.log(out.probs[rows, out.action])
        values[:, k] = out.value

    impacts = np.zeros((W, N, max(N - 1, 1)))
    if emurel:
        joint = joint_one_hot(actions, workers[0].env.num_actions)
        for k in range(N):
            u_h, u_c = arrays["u_h"][:, k], arrays["u_c"][:, k]
            impacts[:, k], _ = impact_row(agents[k], phis[k], u_h, joint, k)
            _, state["u_h"][:, k], state["u_c"][:, k] = agents[k].moa_predict(
                obs[:, k], joint, u_h, u_c, feat=phis[k])

    rewards, stats = [], []
    for w, worker in enumerate(workers):
        for name in carried:
            setattr(worker, name, state[name][w])
        e, i, r, stat = worker.finish_step(actions[w], impacts[w])
        rewards.append((e, i, r))
        stats.append(stat)
    extrinsic, intrinsic, reshaped = np.stack(rewards, axis=1)
    arrays.update(
        actions=actions, behavior_logp=logp, values=values, impact_rows=impacts,
        extrinsic=extrinsic, intrinsic=intrinsic, reshaped=reshaped,
        dones=np.array([stat is not None for stat in stats]))
    return arrays, stats


def collect_rollouts(workers, agents, batch_steps):
    """Step every worker batch_steps/len(workers) times in lockstep into one
    buffer; worker w fills slice [w]. Each step records `lockstep_step`'s
    arrays plus `episode_starts` and, in emurel mode, whose auxiliary losses
    read it, `next_obs`."""
    W = len(workers)
    if batch_steps % W != 0:
        raise ValueError(f"batch_steps {batch_steps} not divisible by {W} workers")
    steps = batch_steps // W
    N = workers[0].num_agents
    emurel = workers[0].shaping_config.mode == "emurel"
    buffer = RolloutBuffer(W, steps, N)
    stats = [[] for _ in workers]

    for t in range(steps):
        starts = np.array([worker.begin_step(agents) for worker in workers])
        arrays, step_stats = lockstep_step(workers, agents)
        arrays["episode_starts"] = starts
        if emurel:
            arrays["next_obs"] = np.stack([worker.obs for worker in workers])
        buffer.record(t, arrays)
        for w, stat in enumerate(step_stats):
            if stat is not None:
                stats[w].append(stat)

    buffer.episode_stats = [s for per_worker in stats for s in per_worker]
    buffer.bootstrap_values = np.zeros((W, N))
    live = [w for w, worker in enumerate(workers) if not worker.env.done]
    if live:
        obs, v_h, v_c = (np.stack([getattr(workers[w], name) for w in live])
                         for name in ("obs", "v_h", "v_c"))
        for k in range(N):
            buffer.bootstrap_values[live, k] = agents[k].value_only(
                obs[:, k], v_h[:, k], v_c[:, k])
    buffer.finalize_moa_targets()
    return buffer


def evaluate(policies, env_config, episodes, seed, greedy=False):
    """Mean collective extrinsic reward and mean equality over fresh episodes.

    The episodes run as baseline-shaped workers stepped in lockstep. Negative
    per-agent returns are clamped at zero for the equality metric only;
    collective reward keeps its sign.
    """
    if episodes < 1:
        raise ValueError("evaluate needs at least one episode")
    n = env_config.num_agents
    if len(policies) != n:
        raise ValueError(f"need {n} policies, got {len(policies)}")
    workers = [RolloutWorker(env_config, ShapingConfig(), seed, ep)
               for ep in range(episodes)]
    for ep, worker in enumerate(workers):
        worker.reset(policies, [seed, ep, _EVAL_ENV_STREAM],
                     [[seed, ep, k, _EVAL_ACTION_STREAM] for k in range(n)])
    while not workers[0].env.done:
        _, stats = lockstep_step(workers, policies, greedy=greedy)
    return (float(np.mean([s.collective_reward for s in stats])),
            float(np.mean([s.equality for s in stats])))
