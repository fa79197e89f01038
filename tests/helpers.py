"""Shared test data, oracles and reference policies. They live outside conftest.py because the
suite collects a second conftest (perfbench/tests), and `from conftest
import ...` would then pick whichever was imported first."""

import json
import os
import subprocess
import sys

import numpy as np

import marl_lab
from marl_lab.agents import NetSizes, PolicyOutput
from marl_lab.envs.env import (
    APPLE, C_APPLE, C_BEAM, C_EMPTY, C_OTHER, C_RIVER, C_SELF, C_WALL, C_WASTE, EMPTY,
    NUM_CHANNELS, RIVER, SPAWN, WALL, WASTE,
)
from marl_lab.nn import Tensor, gradients

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(code, **env):
    """stdout of `python -c code` in a fresh interpreter that imports this
    marl_lab and the tests' modules, with the BLAS thread variables unset
    unless given in env."""
    paths = [os.path.dirname(os.path.dirname(marl_lab.__file__)), os.path.dirname(__file__)]
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    base["PYTHONPATH"] = os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code], env=dict(base, **env), check=True,
                          capture_output=True, text=True).stdout


# The rows of the built-in cleanup_mini3: cleanup_mini with a third spawn
# point, so impact rows have two fellows and their min-max normalization is
# not the degenerate all-ones row.
with open(os.path.join(os.path.dirname(marl_lab.__file__), "envs", "maps",
                       "cleanup_mini3.txt"), encoding="utf-8") as _f:
    THREE_AGENT_CLEANUP = _f.read().splitlines()


# The CLI tests' spec: two-agent mini Cleanup with tiny nets, two updates.
TINY_SPEC = """
name = "tiny"
seeds = [1]
output_dir = "{out}"
summary_window_steps = 40

[env]
kind = "cleanup"
map = "cleanup_mini"
num_agents = 2
episode_length = 10
view_size = 5
initial_waste_fraction = 0.2

[method]
mode = "{mode}"
alpha = 0.0
beta = 0.05

[trainer]
algo = "ppo"
batch_steps = 40
minibatch_steps = 20
ppo_epochs = 2
workers = 2
updates = 2
learning_rate = 0.001

[eval]
interval = 2
episodes = 1

[checkpoint]
interval = 2

[net]
conv_filters = 2
fc_units = 8
lstm_units = 8
eicm_hidden = 8
"""


def malformed_manifests(meta=None, sections=()):
    """Manifests a checkpoint reader must reject, by name: (manifest, the
    length field to write, or None for the manifest's own length). `meta` and
    the section names are the reader's own, so only the layout is wrong."""
    meta = meta or {}
    entries = [{"section": name, "seed": 0, "nodes": []} for name in sections]
    return {
        "no_sections": ({"meta": meta}, None),
        "huge_length": ({"meta": meta, "sections": []}, 2 ** 63),
        "list_manifest": ([meta, entries], None),
        "entry_without_params": ({"meta": meta, "sections": entries}, None),
    }


def write_checkpoint_header(path, manifest, length=None):
    """A checkpoint file of magic, length field and JSON manifest alone."""
    raw = json.dumps(manifest).encode("utf-8")
    length = len(raw) if length is None else length
    path.write_bytes(b"MARLCKP1" + length.to_bytes(8, "little") + raw)
    return path


def reference_observe(env, k):
    """Agent k's egocentric window, built for that agent alone from one-hot
    planes and `np.rot90`: an independent oracle for row k of
    `SSDEnv.observe()`."""
    st = env.state
    V = env.config.view_size
    R = V // 2
    padded = np.full((env.height + 2 * R, env.width + 2 * R), WALL, dtype=np.uint8)
    padded[R:R + env.height, R:R + env.width] = st.grid
    r, c = st.positions[k]
    window = padded[r:r + V, c:c + V]

    obs = np.zeros((V, V, NUM_CHANNELS), dtype=np.uint8)
    obs[:, :, C_EMPTY] = (window == EMPTY) | (window == SPAWN)
    obs[:, :, C_WALL] = window == WALL
    obs[:, :, C_APPLE] = window == APPLE
    obs[:, :, C_RIVER] = window == RIVER
    obs[:, :, C_WASTE] = window == WASTE
    obs[R, R, C_SELF] = 1.0
    for j in range(env.config.num_agents):
        if j == k:
            continue
        dr = st.positions[j][0] - r
        dc = st.positions[j][1] - c
        if abs(dr) <= R and abs(dc) <= R:
            obs[R + dr, R + dc, C_OTHER] = 1.0
    for (br, bc) in st.beam_cells:
        dr, dc = br - r, bc - c
        if abs(dr) <= R and abs(dc) <= R:
            obs[R + dr, R + dc, C_BEAM] = 1.0

    return np.rot90(obs, k=int(st.orientations[k]), axes=(0, 1)).copy()


# The finite-difference oracle for reverse-mode gradients. It perturbs every
# parameter element by +/-epsilon, re-runs the forward closure on arrays, and
# compares the two-sided slope against the analytic gradient. It shares no
# code with the backward pass, so it serves as the independent oracle for the
# whole kernel.

def relative_error(a, b):
    """|a - b| / max(|a|, |b|, 1e-8), elementwise max over arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def finite_difference_check(loss_fn, params, epsilon=1e-4):
    """Max relative error between tape gradients and central differences.

    loss_fn: callable taking `lift`, the function that wraps each input, and
        re-running the forward pass on the lifted inputs. The one analytic
        pass calls loss_fn(Tensor) and backpropagates the loss Tensor; every
        numeric pass calls loss_fn(np.asarray) and reads the plain loss value,
        so it builds no tape (a Tensor returned there fails `float`).
    params: (name, Tensor) pairs to verify; every element is perturbed.
    epsilon: central-difference step, must lie in [1e-6, 1e-3].
    """
    if not (1e-6 <= epsilon <= 1e-3):
        raise ValueError(f"epsilon {epsilon} outside [1e-6, 1e-3]")
    analytic = gradients(params, loss_fn(Tensor))

    worst = 0.0
    for name, p in params:
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = float(loss_fn(np.asarray))
            flat[i] = orig - epsilon
            down = float(loss_fn(np.asarray))
            flat[i] = orig
            numeric[i] = (up - down) / (2.0 * epsilon)
        err = relative_error(analytic[name].reshape(-1), numeric)
        worst = max(worst, err)
    return worst


class ReferenceOptimizer:
    """Per-array SGD and Adam with moments in dicts keyed by parameter name,
    stepping copies of the parameters given as (name, Tensor) pairs: an
    independent oracle for the flat-vector `marl_lab.nn.Optimizer`. Each
    update is the same expression per array, and the global norm the same
    per-array sum in the same order, so the two must agree byte for byte."""

    def __init__(self, params, kind, learning_rate, grad_clip_norm=None):
        self.params = {name: t.data.copy() for name, t in params}
        self.kind = kind
        self.learning_rate = learning_rate
        self.grad_clip_norm = grad_clip_norm
        self.step_count = 0
        self._m = {}
        self._v = {}

    def step(self, grads):
        """One update; returns the pre-clip global gradient norm."""
        norm = float(np.sqrt(sum(float((grads[name] * grads[name]).sum())
                                 for name in self.params)))
        if self.grad_clip_norm is not None and norm > self.grad_clip_norm:
            scale = self.grad_clip_norm / norm
            grads = {name: g * scale for name, g in grads.items()}
        self.step_count += 1
        t = self.step_count
        for name in self.params:
            g = grads[name]
            if self.kind == "sgd":
                self.params[name] = self.params[name] - self.learning_rate * g
                continue
            m = 0.9 * self._m.get(name, np.zeros_like(g)) + (1.0 - 0.9) * g
            v = 0.999 * self._v.get(name, np.zeros_like(g)) + (1.0 - 0.999) * (g * g)
            self._m[name], self._v[name] = m, v
            mhat = m / (1.0 - 0.9 ** t)
            vhat = v / (1.0 - 0.999 ** t)
            self.params[name] = (self.params[name]
                                 - self.learning_rate * mhat / (np.sqrt(vhat) + 1e-8))
        return norm


def conv_linear_response(x, kernel, bias):
    """Pre-ReLU conv output, for screening instances away from ReLU kinks."""
    B, H, W, C = x.shape
    Ho, Wo = H - 2, W - 2
    win = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(1, 2))
    patches = win.transpose(0, 1, 2, 4, 5, 3).reshape(B * Ho * Wo, 9 * C)
    return (patches @ kernel.reshape(9 * C, -1) + bias).reshape(B, Ho, Wo, -1)


class StatelessPolicy:
    """A policy with no nets whose one-unit LSTM state stays zero. Like
    AgentNets.act, its `act` takes a lockstep stack's features and (W, 1)
    state and returns W actions and the state it was given."""

    sizes = NetSizes(lstm_units=1)

    def __init__(self, num_actions):
        self.num_actions = num_actions

    def window_features(self, obs):
        return None     # no encoder: `act` ignores feat


class UniformRandomPolicy(StatelessPolicy):
    """Baseline reference: uniform action draws, one per row from that row's
    generator."""

    def act(self, feat, v_h, v_c, rng, greedy=False):
        rows = len(v_h)
        probs = np.full((rows, self.num_actions), 1.0 / self.num_actions)
        action = np.array([r.integers(self.num_actions) for r in rng])
        return PolicyOutput(action=action, probs=probs, value=np.zeros(rows)), v_h, v_c


class ScriptedPolicy(StatelessPolicy):
    """Always plays a fixed action; used by symmetry checks."""

    def __init__(self, action, num_actions):
        super().__init__(num_actions)
        self.action = action

    def act(self, feat, v_h, v_c, rng, greedy=False):
        rows = len(v_h)
        probs = np.zeros((rows, self.num_actions))
        probs[:, self.action] = 1.0
        action = np.full(rows, self.action)
        return PolicyOutput(action=action, probs=probs, value=np.zeros(rows)), v_h, v_c
