"""Per-agent networks.

One shared 3x3 conv encoder feeds three stacks:
  actor-critic: FC -> FC -> LSTM -> {value head, policy head}
  MOA:          FC -> FC -> LSTM (joint action concatenated onto its input)
                -> head with one action distribution per other agent
  EICM:         forward model FC -> FC(q) and inverse model FC -> FC(N*|A|),
                both consuming the MOA LSTM hidden state (see eicm module).

Default sizes are the full-scale architecture (f=6, FC 32, LSTM 128); tests
shrink them through NetSizes. Each stack is one method (`encode`,
`run_actor_critic`, `run_moa`, `run_forward_model`, `run_inverse_model`)
that rollouts call on arrays and training calls on Tensors; the input's type
alone decides whether the tape records (see `marl_lab.nn.layers`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..envs.env import NUM_CHANNELS
from ..nn import ComputationGraph, Conv2d, Dense, LSTMCell, Tensor
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

    # -- the stacks: arrays for rollouts, Tensors for the tape -------------
    #
    # Rows lie along leading axes. Training passes flat (B, n) minibatches.
    # Rollouts pass one window (V, V, C) with one memory, or a lockstep stack
    # of W windows (W, V, V, C) with a stacked memory (AgentMemory.stack), and
    # shape every input (..., 1, n), so each row of a stack goes through the
    # same BLAS call as a lone window and gets the same bits.

    def encode(self, obs):
        """Flattened shared-conv features phi(obs): (..., q) for (..., V, V, C).
        The windows along the axis before (V, V, C) form one conv gemm, and
        earlier axes are stacked (see `nn.tensor.conv2d`); a lone window is a
        batch of one."""
        if not isinstance(obs, Tensor):
            obs = np.asarray(obs, dtype=np.float64)
        lead = obs.shape[:-3]
        x = obs if lead else T.reshape(obs, (1,) + obs.shape)
        return T.reshape(self.conv.apply(x), lead + (self.q,))

    def window_features(self, obs):
        """phi of one window (V, V, C) or of a lockstep stack (W, V, V, C):
        (q,) or (W, q), with one conv gemm per window."""
        obs = np.asarray(obs, dtype=np.float64)
        return self.encode(obs[..., None, :, :, :])[..., 0, :]

    def run_actor_critic(self, feat, v_h, v_c):
        """(policy logits, value, v_h', v_c') from features and the
        actor-critic LSTM state."""
        h, c = self.ac_lstm.apply(self.ac_fc2.apply(self.ac_fc1.apply(feat)), v_h, v_c)
        return self.policy_head.apply(h), self.value_head.apply(h), h, c

    def run_moa(self, feat, joint_onehot, u_h, u_c):
        """(flat logits over the other agents' next actions, u_h', u_c') from
        features, the latest joint action and the MOA LSTM state."""
        x = T.concat([self.moa_fc2.apply(self.moa_fc1.apply(feat)), joint_onehot], axis=-1)
        h, c = self.moa_lstm.apply(x, u_h, u_c)
        return self.moa_head.apply(h), h, c

    def run_forward_model(self, feat, u_h, joint_onehot):
        """Predicted features of the next observation."""
        x = T.concat([feat, u_h, joint_onehot], axis=-1)
        return self.fwd_out.apply(self.fwd_fc1.apply(x))

    def run_inverse_model(self, feat_prev, feat_curr, u_h):
        """Flat joint-action logits, N*|A| per row."""
        x = T.concat([feat_prev, feat_curr, u_h], axis=-1)
        return self.inv_out.apply(self.inv_fc1.apply(x))

    def act(self, obs, memory, rng, greedy=False, feat=None):
        """Sample an action; advances the actor-critic LSTM state only.

        For a stack, `rng` holds one Generator per row and the PolicyOutput
        fields are arrays over rows. `feat`, when given, is
        window_features(obs), computed once by the caller.
        """
        feat = self.window_features(obs) if feat is None else feat
        logits, value, v_h, v_c = self.run_actor_critic(
            *_one_row(feat, memory.v.hidden, memory.v.cell))
        logits, value = logits[..., 0, :], value[..., 0, 0]
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
        _, value, _, _ = self.run_actor_critic(
            *_one_row(self.window_features(obs), memory.v.hidden, memory.v.cell))
        value = value[..., 0, 0]
        return float(value) if value.ndim == 0 else value

    def moa_predict(self, obs, joint_action_onehot, memory, feat=None):
        """Predict the other agents' next actions; advances the MOA LSTM.

        joint_action_onehot: flat (N*|A|,) one-hot stacking of the most
        recent joint action, one per row for a stack. Returns
        ((..., N-1, |A|) probabilities, memory'). `feat` is as in `act`.
        """
        feat = self.window_features(obs) if feat is None else feat
        joint = np.asarray(joint_action_onehot, dtype=np.float64)
        want = self.num_agents * self.num_actions
        if joint.shape != feat.shape[:-1] + (want,):
            raise ValueError(f"joint action one-hot must have {want} entries, "
                             f"got {joint.shape}")
        logits, u_h, u_c = self.run_moa(*_one_row(feat, joint, memory.u.hidden,
                                                  memory.u.cell))
        logits = logits[..., 0, :].reshape(
            joint.shape[:-1] + (self.num_agents - 1, self.num_actions))
        probs = stable_softmax(logits, axis=-1)
        new_mem = AgentMemory(v=memory.v.copy(),
                              u=RecurrentState(u_h[..., 0, :], u_c[..., 0, :]),
                              episode_tag=memory.episode_tag)
        return probs, new_mem


def _one_row(*arrays):
    """Each (..., n) array as (..., 1, n): one BLAS call per leading index."""
    return [a[..., None, :] for a in arrays]


def joint_one_hot(actions, num_actions):
    """Stack per-agent one-hot blocks: (..., N) action indices give flat
    (..., N*|A|) vectors, one per leading index."""
    actions = np.asarray(actions, dtype=np.int64)
    n = actions.shape[-1]
    out = np.zeros(actions.shape[:-1] + (n * num_actions,))
    np.put_along_axis(out, np.arange(n) * num_actions + actions, 1.0, axis=-1)
    return out
