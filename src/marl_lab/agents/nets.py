"""Per-agent networks.

One shared 3x3 conv encoder feeds three stacks:
  actor-critic: FC -> FC -> LSTM -> {value head, policy head}
  MOA:          FC -> FC -> LSTM (joint action concatenated onto its input)
                -> head with one action distribution per other agent
  EICM:         forward model FC -> FC(q) and inverse model FC -> FC(N*|A|),
                both consuming the MOA LSTM hidden state (see eicm module).

Default sizes are the full-scale architecture (f=6, FC 32, LSTM 128); tests
shrink them through NetSizes. Rollout-time calls use the gradient-free numpy
path; `*_tape` variants rebuild the same computation on the autodiff tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..envs.env import NUM_CHANNELS
from ..nn import ComputationGraph, Conv2d, Dense, LSTMCell
from ..nn import tensor as T
from .memory import AgentMemory, RecurrentState


@dataclass
class NetSizes:
    conv_filters: int = 6
    fc_units: int = 32
    lstm_units: int = 128
    eicm_hidden: int = 32


@dataclass
class PolicyOutput:
    action: int
    probs: np.ndarray
    value: float


def stable_softmax(logits, axis=-1):
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def sample_from_probs(probs, rng):
    """Inverse-CDF draw; consumes exactly one uniform per call."""
    return int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))


class AgentNets:
    """All parameters of one agent, grouped into checkpoint sections."""

    def __init__(self, view_size, num_actions, num_agents, seed, sizes=None):
        self.sizes = sizes or NetSizes()
        self.view_size = view_size
        self.num_actions = num_actions
        self.num_agents = num_agents
        self.seed = seed
        s = self.sizes
        self.q = (view_size - 2) ** 2 * s.conv_filters
        joint_dim = num_agents * num_actions

        ss = np.random.SeedSequence(seed)
        rngs = [np.random.default_rng(child) for child in ss.spawn(12)]

        self.encoder = ComputationGraph("encoder", seed=seed)
        self.conv = self.encoder.add(Conv2d("conv", NUM_CHANNELS, s.conv_filters, rngs[0]))

        self.actor_critic = ComputationGraph("actor_critic", seed=seed)
        self.ac_fc1 = self.actor_critic.add(Dense("ac_fc1", self.q, s.fc_units, rngs[1]))
        self.ac_fc2 = self.actor_critic.add(Dense("ac_fc2", s.fc_units, s.fc_units, rngs[2]))
        self.ac_lstm = self.actor_critic.add(LSTMCell("ac_lstm", s.fc_units,
                                                      s.lstm_units, rngs[3]))
        self.value_head = self.actor_critic.add(Dense("value_head", s.lstm_units, 1,
                                                      rngs[4], activation="linear"))
        self.policy_head = self.actor_critic.add(Dense("policy_head", s.lstm_units,
                                                       num_actions, rngs[5],
                                                       activation="linear"))

        self.moa = ComputationGraph("moa", seed=seed)
        self.moa_fc1 = self.moa.add(Dense("moa_fc1", self.q, s.fc_units, rngs[6]))
        self.moa_fc2 = self.moa.add(Dense("moa_fc2", s.fc_units, s.fc_units, rngs[7]))
        self.moa_lstm = self.moa.add(LSTMCell("moa_lstm", s.fc_units + joint_dim,
                                              s.lstm_units, rngs[8]))
        self.moa_head = self.moa.add(Dense("moa_head", s.lstm_units,
                                           (num_agents - 1) * num_actions, rngs[9],
                                           activation="linear"))

        self.forward_model = ComputationGraph("forward", seed=seed)
        self.fwd_fc1 = self.forward_model.add(Dense(
            "fwd_fc1", self.q + s.lstm_units + joint_dim, s.eicm_hidden, rngs[10]))
        self.fwd_out = self.forward_model.add(Dense(
            "fwd_out", s.eicm_hidden, self.q, rngs[10], activation="linear"))

        self.inverse_model = ComputationGraph("inverse", seed=seed)
        self.inv_fc1 = self.inverse_model.add(Dense(
            "inv_fc1", 2 * self.q + s.lstm_units, s.eicm_hidden, rngs[11]))
        self.inv_out = self.inverse_model.add(Dense(
            "inv_out", s.eicm_hidden, num_agents * num_actions, rngs[11],
            activation="linear"))

    # -- checkpointing ---------------------------------------------------

    def sections(self):
        return {"encoder": self.encoder, "actor_critic": self.actor_critic,
                "moa": self.moa, "forward": self.forward_model,
                "inverse": self.inverse_model}

    def parameters(self):
        out = []
        for graph in self.sections().values():
            out.extend(graph.parameters())
        return out

    def fresh_memory(self, episode_tag=0):
        return AgentMemory.zeros(self.sizes.lstm_units, episode_tag)

    # -- gradient-free paths (rollout / evaluation) -----------------------
    #
    # Each takes one window (V, V, C) with one memory, or a lockstep stack of
    # W windows (W, V, V, C) with a stacked memory (AgentMemory.stack). Dense
    # and LSTM inputs are shaped (..., 1, n), so each row of a stack goes
    # through the same BLAS call as a lone window and gets the same bits.

    def encode(self, obs):
        """Flattened shared-conv features phi(obs): (q,) or (W, q)."""
        obs = np.asarray(obs, dtype=np.float64)
        lead = obs.shape[:-3]
        feat = self.conv.apply(obs.reshape((-1,) + obs.shape[-3:]))
        return feat.reshape(lead + (self.q,))

    def _actor_critic_state(self, feat, memory):
        h = self.ac_fc2.apply(self.ac_fc1.apply(feat[..., None, :]))
        return self.ac_lstm.apply(h, memory.v.hidden[..., None, :],
                                  memory.v.cell[..., None, :])

    def act(self, obs, memory, rng, greedy=False, feat=None):
        """Sample an action; advances the actor-critic LSTM state only.

        For a stack, `rng` holds one Generator per row and the PolicyOutput
        fields are arrays over rows. `feat`, when given, is encode(obs),
        computed once by the caller.
        """
        feat = self.encode(obs) if feat is None else feat
        v_h, v_c = self._actor_critic_state(feat, memory)
        value = self.value_head.apply(v_h)[..., 0, 0]
        logits = self.policy_head.apply(v_h)[..., 0, :]
        if not np.isfinite(logits).all():
            raise FloatingPointError(f"non-finite policy logits for seed {self.seed}")
        probs = stable_softmax(logits)
        new_mem = AgentMemory(v=RecurrentState(v_h[..., 0, :], v_c[..., 0, :]),
                              u=memory.u.copy(), episode_tag=memory.episode_tag)
        if probs.ndim == 1:
            action = int(np.argmax(probs)) if greedy else sample_from_probs(probs, rng)
            return PolicyOutput(action=action, probs=probs, value=float(value)), new_mem
        if greedy:
            action = np.argmax(probs, axis=-1)
        else:
            action = np.array([sample_from_probs(p, r) for p, r in zip(probs, rng)])
        return PolicyOutput(action=action, probs=probs, value=value), new_mem

    def value_only(self, obs, memory):
        """Value estimate without sampling, state advance, or RNG use."""
        v_h, _ = self._actor_critic_state(self.encode(obs), memory)
        value = self.value_head.apply(v_h)[..., 0, 0]
        return float(value) if value.ndim == 0 else value

    def moa_predict(self, obs, joint_action_onehot, memory, feat=None):
        """Predict the other agents' next actions; advances the MOA LSTM.

        joint_action_onehot: flat (N*|A|,) one-hot stacking of the most
        recent joint action, one per row for a stack. Returns
        ((..., N-1, |A|) probabilities, memory'). `feat` is as in `act`.
        """
        feat = self.encode(obs) if feat is None else feat
        joint = np.asarray(joint_action_onehot, dtype=np.float64)
        want = self.num_agents * self.num_actions
        if joint.shape != feat.shape[:-1] + (want,):
            raise ValueError(f"joint action one-hot must have {want} entries, "
                             f"got {joint.shape}")
        h = self.moa_fc2.apply(self.moa_fc1.apply(feat[..., None, :]))
        x = np.concatenate([h, joint[..., None, :]], axis=-1)
        u_h, u_c = self.moa_lstm.apply(x, memory.u.hidden[..., None, :],
                                       memory.u.cell[..., None, :])
        logits = self.moa_head.apply(u_h)[..., 0, :].reshape(
            joint.shape[:-1] + (self.num_agents - 1, self.num_actions))
        probs = stable_softmax(logits, axis=-1)
        new_mem = AgentMemory(v=memory.v.copy(),
                              u=RecurrentState(u_h[..., 0, :], u_c[..., 0, :]),
                              episode_tag=memory.episode_tag)
        return probs, new_mem

    # -- tape paths (training) --------------------------------------------

    def encode_tape(self, obs_t):
        B = obs_t.data.shape[0]
        return T.reshape(self.conv.forward(obs_t), (B, self.q))

    def actor_critic_tape(self, feat, v_h, v_c):
        h = self.ac_fc2.forward(self.ac_fc1.forward(feat))
        hh, _ = self.ac_lstm.forward(h, v_h, v_c)
        value = self.value_head.forward(hh)
        logits = self.policy_head.forward(hh)
        return logits, value

    def moa_tape(self, feat, joint_onehot, u_h, u_c):
        h = self.moa_fc2.forward(self.moa_fc1.forward(feat))
        x = T.concat([h, joint_onehot], axis=-1)
        hh, _ = self.moa_lstm.forward(x, u_h, u_c)
        return self.moa_head.forward(hh)

    def forward_model_tape(self, feat, u_h, joint_onehot):
        x = T.concat([feat, u_h, joint_onehot], axis=-1)
        return self.fwd_out.forward(self.fwd_fc1.forward(x))

    def inverse_model_tape(self, feat_prev, feat_curr, u_h):
        x = T.concat([feat_prev, feat_curr, u_h], axis=-1)
        return self.inv_out.forward(self.inv_fc1.forward(x))


def moa_loss(predicted, actual):
    """Mean cross-entropy over the N-1 other agents.

    predicted: (N-1, |A|) probability rows; actual: (N-1,) action indices.
    Zero predicted probability on the true action is clamped at 1e-10.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.int64)
    if predicted.ndim != 2 or actual.shape != (predicted.shape[0],):
        raise ValueError(f"moa_loss shapes disagree: {predicted.shape} vs {actual.shape}")
    picked = predicted[np.arange(predicted.shape[0]), actual]
    return float(-np.log(np.maximum(picked, 1e-10)).mean())


def joint_one_hot(actions, num_actions):
    """Stack per-agent one-hot blocks: (..., N) action indices give flat
    (..., N*|A|) vectors, one per leading index."""
    actions = np.asarray(actions, dtype=np.int64)
    n = actions.shape[-1]
    out = np.zeros(actions.shape[:-1] + (n * num_actions,))
    np.put_along_axis(out, np.arange(n) * num_actions + actions, 1.0, axis=-1)
    return out
