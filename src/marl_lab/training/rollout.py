"""Rollout collection and evaluation: one batch of logical workers, each
stepping its own env instance.

The W workers' state lives in (W, N, ...) arrays, and they step in lockstep.
Each step, each agent's nets run once on a W-row batch (encode, act, the
impact rows, the MOA advance, and at the end the bootstrap value), the envs
step one after another, and one shaper step shapes every row. phi is encoded
once per agent-step and shared by act, `impact_row` and the MOA advance, and
once per agent for the bootstrap value.

Every random stream (env dynamics, per-agent action sampling) derives from
(run_seed, worker id, episode) and is drawn only by its own row, and each row
resets when its env is done. The batched nets and shaper give every row the
bits of a lone call (see `marl_lab.nn.layers`), and episode stats are kept in
worker-major order. So a collection is a pure function of seeds and
parameters, and a worker's slice of the buffer is the same whether it runs
alone or beside others.

Evaluation and replay step through the same `lockstep_step`: their episodes
are the rows of a baseline-shaped batch, reset with their own seeds and
stepped together to the end of the episode.
"""

from __future__ import annotations

import numpy as np

from ..agents.nets import joint_one_hot
from ..eicm import impact_row
from ..envs import EVENT_REWARDS, EVENTS, NUM_CHANNELS, SSDEnv
from ..shaping import RewardShaper, ShapingConfig, gini_equality
from .buffer import EpisodeStat, RolloutBuffer

_ENV_STREAM = 11
_ACTION_STREAM = 23
_EVAL_ENV_STREAM = 31
_EVAL_ACTION_STREAM = 37
_REPLAY_ENV_STREAM = 41
_REPLAY_ACTION_STREAM = 43


# The LSTM states a worker carries, named as the RolloutBuffer fields that
# store them: actor-critic (v) and MOA (u), hidden and cell.
LSTM_STATE = ("v_h", "v_c", "u_h", "u_c")


class RolloutWorkers:
    """W workers as one batch; row w is the worker with id ids[w], and owns
    `envs[w]` and row w of each state array: `obs` (W, N, V, V, C) uint8, one
    (W, N, U) array per name in `lstm_state` (the MOA's only in emurel mode,
    the one mode that reads it), the running episode's `episode_idx`,
    `smoothed` (the shaper's smoothed extrinsic rewards) and `episode_events`
    (W, N, len(EVENTS)), each agent's event counts, and agent k's action
    Generator `action_rngs[k][w]`. State persists across collections so
    episodes may span batch boundaries; only `reset` zeros a row's state and
    only `lockstep_step` advances it."""

    def __init__(self, env_config, shaping_config, run_seed, ids, lstm_units):
        self.ids = [int(i) for i in ids]
        self.envs = [SSDEnv(env_config) for _ in self.ids]
        self.shaping_config = shaping_config
        self.run_seed = run_seed
        W, N, V = len(self.ids), env_config.num_agents, env_config.view_size
        self.num_agents = N
        if N < 2 and shaping_config.mode != "baseline":
            raise ValueError("ia/emurel modes need at least two agents")
        self.lstm_state = LSTM_STATE if shaping_config.mode == "emurel" else LSTM_STATE[:2]
        for name in self.lstm_state:
            setattr(self, name, np.zeros((W, N, lstm_units)))
        self.obs = np.zeros((W, N, V, V, NUM_CHANNELS), dtype=np.uint8)
        self.episode_idx = np.full(W, -1)
        self.smoothed = np.zeros((W, N))
        self.episode_events = np.zeros((W, N, len(EVENTS)), dtype=np.int64)
        self.action_rngs = [[None] * W for _ in range(N)]
        self.shaper = RewardShaper(shaping_config)

    def __len__(self):
        return len(self.envs)

    def episode_env_seed(self, w, episode):
        return [self.run_seed, self.ids[w], episode, _ENV_STREAM]

    def reset(self, w, env_seed, action_seeds):
        """Start row w's next episode: the env from env_seed, and agent k's
        action draws from action_seeds[k]."""
        self.episode_idx[w] += 1
        self.envs[w].reset(seed=env_seed)
        for name in self.lstm_state:
            getattr(self, name)[w] = 0.0
        for rngs, seed in zip(self.action_rngs, action_seeds):
            rngs[w] = np.random.default_rng(np.random.SeedSequence(seed))
        self.obs[w] = self.envs[w].observe()
        self.smoothed[w] = 0.0
        self.episode_events[w] = 0

    def begin_step(self):
        """Start a new episode in every row that has none running; returns
        the (W,) mask of rows that started one."""
        starts = (self.episode_idx < 0) | np.array([env.done for env in self.envs])
        for w in np.flatnonzero(starts):
            episode = int(self.episode_idx[w]) + 1
            self.reset(w, self.episode_env_seed(w, episode),
                       [[self.run_seed, self.ids[w], episode, k, _ACTION_STREAM]
                        for k in range(self.num_agents)])
        return starts

    def episode_stat(self, w):
        """The stats of row w's episode, which has just ended: the returns
        its event counts earned, and each event's total over the agents."""
        returns = self.episode_events[w] @ EVENT_REWARDS
        return EpisodeStat(
            worker=self.ids[w], episode=int(self.episode_idx[w]),
            collective_reward=float(returns.sum()),
            equality=gini_equality(np.maximum(returns, 0.0)),
            per_agent_returns=returns,
            events=dict(zip(EVENTS, self.episode_events[w].sum(axis=0).tolist())))


def lockstep_step(workers, agents, greedy=False):
    """Step every worker once, in lockstep. Agent k's nets run once on column
    [:, k] of a pre-step copy of the workers' `obs` and LSTM states: encode,
    act and, in emurel mode, the impact rows and the MOA advance. The advanced
    states go straight into the workers' arrays. Then the envs step one after
    another, each observing into its row, and one shaper step advances
    `smoothed` and shapes every row.

    Returns ({RolloutBuffer field: (W, ...) array of this step},
    [EpisodeStat or None per worker]).
    """
    W, N = len(workers), len(agents)
    emurel = workers.shaping_config.mode == "emurel"
    rows = np.arange(W)
    arrays = {name: getattr(workers, name).copy() for name in ("obs",) + workers.lstm_state}
    obs = arrays["obs"]

    actions = np.zeros((W, N), dtype=np.int64)
    logp, values = np.zeros((W, N)), np.zeros((W, N))
    phis = [agents[k].window_features(obs[:, k]) for k in range(N)]
    for k in range(N):
        out, workers.v_h[:, k], workers.v_c[:, k] = agents[k].act(
            phis[k], arrays["v_h"][:, k], arrays["v_c"][:, k], workers.action_rngs[k],
            greedy=greedy)
        actions[:, k] = out.action
        logp[:, k] = np.log(out.probs[rows, out.action])
        values[:, k] = out.value

    impacts = np.zeros((W, N, max(N - 1, 1)))
    if emurel:
        joint = joint_one_hot(actions, agents[0].num_actions)
        for k in range(N):
            u_h, u_c = arrays["u_h"][:, k], arrays["u_c"][:, k]
            impacts[:, k], _ = impact_row(agents[k], phis[k], u_h, joint, k)
            _, workers.u_h[:, k], workers.u_c[:, k] = agents[k].moa_predict(
                phis[k], joint, u_h, u_c)

    extrinsic = np.zeros((W, N))
    for w, env in enumerate(workers.envs):
        _, outcome = env.step(actions[w])
        extrinsic[w] = outcome.extrinsic
        workers.episode_events[w] += outcome.counts
        workers.obs[w] = env.observe()
    workers.smoothed, extrinsic, intrinsic, reshaped = workers.shaper.step(
        workers.smoothed, extrinsic, impacts)
    dones = np.array([env.done for env in workers.envs])
    stats = [workers.episode_stat(w) if done else None for w, done in enumerate(dones)]
    arrays.update(
        actions=actions, behavior_logp=logp, values=values, impact_rows=impacts,
        extrinsic=extrinsic, intrinsic=intrinsic, reshaped=reshaped, dones=dones)
    return arrays, stats


def collect_rollouts(workers, agents, batch_steps):
    """Step every worker batch_steps/len(workers) times in lockstep into one
    buffer (`TrainerConfig` requires the division to be exact); worker w
    fills slice [w]. Each step records `lockstep_step`'s arrays plus
    `episode_starts` and, in emurel mode, whose auxiliary losses read them,
    `next_obs` and the MOA targets."""
    W = len(workers)
    steps = batch_steps // W
    N = workers.num_agents
    emurel = workers.shaping_config.mode == "emurel"
    buffer = RolloutBuffer(W, steps, N)
    stats = [[] for _ in range(W)]

    for t in range(steps):
        starts = workers.begin_step()
        arrays, step_stats = lockstep_step(workers, agents)
        arrays["episode_starts"] = starts
        if emurel:
            arrays["next_obs"] = workers.obs
        buffer.record(t, arrays)
        for w, stat in enumerate(step_stats):
            if stat is not None:
                stats[w].append(stat)

    buffer.episode_stats = [s for per_worker in stats for s in per_worker]
    buffer.bootstrap_values = np.zeros((W, N))
    live = [w for w, env in enumerate(workers.envs) if not env.done]
    if live:
        for k, agent in enumerate(agents):
            buffer.bootstrap_values[live, k] = agent.value_only(
                agent.window_features(workers.obs[live, k]),
                workers.v_h[live, k], workers.v_c[live, k])
    if emurel:
        buffer.finalize_moa_targets()
    return buffer


def episode_batch(policies, env_config, seed, ids, replay=False):
    """A baseline-shaped batch whose row w starts episode ids[w] of `seed`,
    from evaluation's seed streams, or from replay's."""
    env_stream, action_stream = ((_REPLAY_ENV_STREAM, _REPLAY_ACTION_STREAM) if replay
                                 else (_EVAL_ENV_STREAM, _EVAL_ACTION_STREAM))
    workers = RolloutWorkers(env_config, ShapingConfig(), seed, ids,
                             policies[0].sizes.lstm_units)
    for w, ep in enumerate(workers.ids):
        workers.reset(w, [seed, ep, env_stream],
                      [[seed, ep, k, action_stream] for k in range(workers.num_agents)])
    return workers


def evaluate(policies, env_config, episodes, seed, greedy=False):
    """Mean collective extrinsic reward and mean equality over fresh episodes.

    The episodes run as the rows of one baseline-shaped batch, stepped in
    lockstep. Negative per-agent returns are clamped at zero for the equality
    metric only; collective reward keeps its sign.
    """
    if episodes < 1:
        raise ValueError("evaluate needs at least one episode")
    n = env_config.num_agents
    if len(policies) != n:
        raise ValueError(f"need {n} policies, got {len(policies)}")
    workers = episode_batch(policies, env_config, seed, range(episodes))
    while not workers.envs[0].done:
        _, stats = lockstep_step(workers, policies, greedy=greedy)
    return (float(np.mean([s.collective_reward for s in stats])),
            float(np.mean([s.equality for s in stats])))
