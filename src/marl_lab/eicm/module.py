"""Forward/inverse feature prediction and agent-elimination impact scores.

The forward model predicts the next encoded observation from the current
features, the MOA hidden state and the joint action; eliminating agent j
means zeroing j's one-hot block at the input (equivalent to zeroing that
block's first-layer weights, and distinct from feeding a NOOP action). The
impact of j is half the squared distance between the two predictions, and a
per-step min-max normalization maps each agent's impact row into [0, 1].
"""

from __future__ import annotations

import numpy as np

from ..agents.nets import stable_softmax
from ..nn import tensor as T


def forward_predict(nets, phi_prev, u_prev, joint_onehot):
    """Predicted phi of the next observation, one per input row: (q,) for a
    sample, (..., q) for rows stacked along leading axes."""
    phi_prev = np.asarray(phi_prev, dtype=np.float64)
    u_prev = np.asarray(u_prev, dtype=np.float64)
    joint = np.asarray(joint_onehot, dtype=np.float64)
    want = nets.num_agents * nets.num_actions
    if joint.shape[-1:] != (want,):
        raise ValueError(f"joint action one-hot must have {want} entries, got {joint.shape}")
    if phi_prev.shape[-1:] != (nets.q,):
        raise ValueError(f"feature vector must have {nets.q} entries, got {phi_prev.shape}")
    return nets.run_forward_model(phi_prev, u_prev, joint)


def eliminate(nets, joint_onehot, j):
    """A copy of the joint action(s) with agent j's one-hot block zeroed."""
    if not 0 <= j < nets.num_agents:
        raise ValueError(f"agent index {j} out of range for N={nets.num_agents}")
    joint = np.array(joint_onehot, dtype=np.float64)
    a = nets.num_actions
    joint[..., j * a:(j + 1) * a] = 0.0
    return joint


def normalize_impacts(raw):
    """Min-max normalize each row (last axis) of raw impacts into [0, 1].

    Degenerate rows (all entries equal) map to all-ones, which makes the
    impact-scaled comparison collapse to plain inequity aversion.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size == 0:
        return raw.copy()
    if np.any(raw < 0) or not np.isfinite(raw).all():
        raise ValueError("raw impacts must be finite and nonnegative")
    lo = raw.min(axis=-1, keepdims=True)
    span = raw.max(axis=-1, keepdims=True) - lo
    flat = span == 0.0
    return np.where(flat, 1.0, (raw - lo) / np.where(flat, 1.0, span))


def impact_row(nets, phi_prev, u_prev, joint_onehot, k):
    """Normalized impacts of every other agent in view of agent k, ordered by
    ascending fellow index, plus the raw impacts.

    Takes one sample, (q,) features, (U,) MOA state and (N*|A|,) joint action,
    or a lockstep stack of W of each, and returns (N-1,) or (W, N-1) rows.
    Per sample the full prediction and all eliminations run as one batched
    forward pass of N rows, so a stack gets the bits of W lone calls.
    """
    if not 0 <= k < nets.num_agents:
        raise ValueError(f"agent index {k} out of range for N={nets.num_agents}")
    joint = np.asarray(joint_onehot, dtype=np.float64)
    joints = np.stack([joint] + [eliminate(nets, joint, j)
                                 for j in range(nets.num_agents) if j != k], axis=-2)
    rows = joints.shape[:-1]
    phi, u = (np.broadcast_to(np.asarray(v)[..., None, :], rows + np.shape(v)[-1:])
              for v in (phi_prev, u_prev))
    preds = forward_predict(nets, phi, u, joints)
    diffs = preds[..., 1:, :] - preds[..., :1, :]
    raw = 0.5 * np.einsum("...ij,...ij->...i", diffs, diffs)
    return normalize_impacts(raw), raw


def inverse_predict(nets, phi_prev, phi_curr, u_prev):
    """Predicted joint action: (N, |A|) softmax rows."""
    rows = [np.asarray(v, dtype=np.float64)[None] for v in (phi_prev, phi_curr, u_prev)]
    logits = nets.run_inverse_model(*rows)[0]
    return stable_softmax(logits.reshape(nets.num_agents, nets.num_actions))


# -- tape losses (shared with the composite training objective) -------------

def forward_loss_tape(nets, feat_prev, feat_next, u_h, joint_onehot):
    """Mean-per-sample L_F on the tape; gradients reach the forward model and
    the shared encoder through both the input and target features."""
    pred = nets.run_forward_model(feat_prev, u_h, joint_onehot)
    diff = T.sub(pred, feat_next)
    per_sample = T.tsum(T.mul(diff, diff), axis=-1)
    return T.mul(T.tmean(per_sample), T.constant(0.5))


def inverse_loss_tape(nets, feat_prev, feat_curr, u_h, joint_actions):
    """Mean-per-sample L_I on the tape. joint_actions: (B, N) int indices."""
    logits = nets.run_inverse_model(feat_prev, feat_curr, u_h)
    B = logits.data.shape[0]
    blocks = T.reshape(logits, (B, nets.num_agents, nets.num_actions))
    logp = T.log_softmax(blocks, axis=-1)
    picked = T.gather_last(logp, np.asarray(joint_actions, dtype=np.int64))
    return T.mul(T.tmean(T.tsum(picked, axis=-1)), T.constant(-1.0))


def moa_loss_tape(nets, feat, joint_onehot, u_h, u_c, targets, mask):
    """Masked mean cross-entropy of the MOA head over other agents' next
    actions. targets: (B, N-1) ints; mask: (B,) 0/1 validity."""
    logits, _, _ = nets.run_moa(feat, joint_onehot, u_h, u_c)
    B = logits.data.shape[0]
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (B, nets.num_agents - 1):
        raise ValueError(f"MOA targets must be ({B}, {nets.num_agents - 1}), "
                         f"got {targets.shape}")
    blocks = T.reshape(logits, (B, nets.num_agents - 1, nets.num_actions))
    logp = T.log_softmax(blocks, axis=-1)
    picked = T.gather_last(logp, targets)
    per_sample = T.tmean(picked, axis=-1)
    m = np.asarray(mask, dtype=np.float64)
    denom = max(float(m.sum()), 1.0)
    masked = T.mul(per_sample, T.constant(m))
    return T.mul(T.tsum(masked), T.constant(-1.0 / denom))
