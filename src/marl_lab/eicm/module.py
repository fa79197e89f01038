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

from ..nn import tensor as T
from ..shaping import fellows


def normalize_impacts(raw):
    """Min-max normalize each row (last axis) of raw impacts into [0, 1].

    Degenerate rows (all entries equal) map to all-ones, which makes the
    impact-scaled comparison collapse to plain inequity aversion.
    """
    raw = np.asarray(raw, dtype=np.float64)
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
    Per sample the forward model runs once on a masked batch of N joints: one
    multiply by a 0/1 keep-mask, whose row 0 keeps every block and whose row
    i zeroes the i-th fellow's block. A stack gets the bits of W lone calls.
    """
    N, A = nets.num_agents, nets.num_actions
    if not 0 <= k < N:
        raise ValueError(f"agent index {k} out of range for N={N}")
    joint = np.asarray(joint_onehot, dtype=np.float64)
    if joint.shape[-1:] != (N * A,):    # the mask multiply would broadcast one entry
        raise ValueError(f"joint action one-hot must have {N * A} entries, got {joint.shape}")
    keep = np.ones((N, N))
    keep[np.arange(1, N), fellows(N)[k]] = 0.0
    joints = joint[..., None, :] * np.repeat(keep, A, axis=1)
    rows = joints.shape[:-1]
    phi, u = (np.broadcast_to(np.asarray(v)[..., None, :], rows + np.shape(v)[-1:])
              for v in (phi_prev, u_prev))
    preds = nets.run_forward_model(phi, u, joints)
    diffs = preds[..., 1:, :] - preds[..., :1, :]
    raw = 0.5 * np.einsum("...ij,...ij->...i", diffs, diffs)
    return normalize_impacts(raw), raw


# -- losses (shared with the composite objective); Tensor inputs record -----

def forward_loss_tape(nets, feat_prev, feat_next, u_h, joint_onehot):
    """Mean-per-sample L_F; on the tape, gradients reach the forward model and
    the shared encoder through both the input and target features."""
    pred = nets.run_forward_model(feat_prev, u_h, joint_onehot)
    diff = T.sub(pred, feat_next)
    per_sample = T.tsum(T.mul(diff, diff), axis=-1)
    return T.mul(T.tmean(per_sample), 0.5)


def inverse_loss_tape(nets, feat_prev, feat_curr, u_h, joint_actions):
    """Mean-per-sample L_I. joint_actions: (B, N) int indices."""
    logits = nets.run_inverse_model(feat_prev, feat_curr, u_h)
    B = logits.shape[0]
    blocks = T.reshape(logits, (B, nets.num_agents, nets.num_actions))
    logp = T.log_softmax(blocks, axis=-1)
    picked = T.gather_last(logp, np.asarray(joint_actions, dtype=np.int64))
    return T.mul(T.tmean(T.tsum(picked, axis=-1)), -1.0)


def moa_loss_tape(nets, feat, joint_onehot, u_h, u_c, targets, mask):
    """Masked mean cross-entropy of the MOA head over other agents' next
    actions. targets: (B, N-1) ints; mask: (B,) 0/1 validity."""
    logits, _, _ = nets.run_moa(feat, joint_onehot, u_h, u_c)
    B = logits.shape[0]
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
    masked = T.mul(per_sample, m)
    return T.mul(T.tsum(masked), -1.0 / denom)
