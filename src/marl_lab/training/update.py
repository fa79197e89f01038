"""Parameter updates: the composite loss, PPO-clip epochs, and synchronous
advantage-actor-critic with per-worker gradient averaging.

The composite objective per agent is
    policy term + value_coef * value MSE - entropy_coef * entropy
    (+ moa_coef * MOA cross-entropy + forward_coef * L_F + inverse_coef * L_I
     in emurel mode),
recomputed from stored observations and recurrent-state snapshots.
"""

from __future__ import annotations

import numpy as np

from ..agents.nets import joint_one_hot
from ..eicm import forward_loss_tape, inverse_loss_tape, moa_loss_tape
from ..nn import Tensor, gradients
from ..nn import tensor as T


def minibatch_views(buffer, idx):
    """Flattened sample views for index array idx, shared across agents."""
    take = lambda arr: buffer.flat(arr)[idx]
    return {
        "obs": take(buffer.obs).astype(np.float64),
        "next_obs": take(buffer.next_obs).astype(np.float64),
        "actions": take(buffer.actions),
        "behavior_logp": take(buffer.behavior_logp),
        "values": take(buffer.values),
        "v_h": take(buffer.v_h), "v_c": take(buffer.v_c),
        "u_h": take(buffer.u_h), "u_c": take(buffer.u_c),
        "moa_targets": take(buffer.moa_targets),
        "moa_valid": take(buffer.moa_valid),
    }


def composite_loss(nets, k, view, adv, targets, cfg, mode, ppo=True):
    """Build the tape loss for agent k on one minibatch view.

    adv/targets: (B,) normalized advantages and value targets for agent k.
    Returns (loss Tensor, {term: float}).
    """
    feat = nets.encode(Tensor(view["obs"][:, k]))
    logits, value, _, _ = nets.run_actor_critic(feat, view["v_h"][:, k], view["v_c"][:, k])
    logp = T.log_softmax(logits)
    logp_a = T.gather_last(logp, view["actions"][:, k])
    adv_t = T.constant(adv)

    if ppo:
        ratio = T.exp(T.sub(logp_a, T.constant(view["behavior_logp"][:, k])))
        clipped = T.clip(ratio, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio)
        surrogate = T.minimum(T.mul(ratio, adv_t), T.mul(clipped, adv_t))
        policy_loss = T.mul(T.tmean(surrogate), T.constant(-1.0))
    else:
        policy_loss = T.mul(T.tmean(T.mul(logp_a, adv_t)), T.constant(-1.0))

    vdiff = T.sub(T.reshape(value, (value.data.shape[0],)), T.constant(targets))
    value_loss = T.tmean(T.mul(vdiff, vdiff))

    probs = T.exp(logp)
    entropy = T.mul(T.tmean(T.tsum(T.mul(probs, logp), axis=-1)), T.constant(-1.0))

    loss = T.add(policy_loss, T.mul(value_loss, T.constant(cfg.value_coef)))
    loss = T.sub(loss, T.mul(entropy, T.constant(cfg.entropy_coef)))
    terms = {"policy_loss": float(policy_loss.data),
             "value_loss": float(value_loss.data),
             "entropy": float(entropy.data),
             "moa_loss": 0.0, "forward_loss": 0.0, "inverse_loss": 0.0}

    if mode == "emurel":
        joint = joint_one_hot(view["actions"], nets.num_actions)
        feat_next = nets.encode(Tensor(view["next_obs"][:, k]))
        u_h, u_c = view["u_h"][:, k], view["u_c"][:, k]
        if cfg.moa_coef != 0.0:
            moa_l = moa_loss_tape(nets, feat, joint, u_h, u_c,
                                  view["moa_targets"][:, k], view["moa_valid"])
            loss = T.add(loss, T.mul(moa_l, T.constant(cfg.moa_coef)))
            terms["moa_loss"] = float(moa_l.data)
        if cfg.forward_coef != 0.0:
            fwd_l = forward_loss_tape(nets, feat, feat_next, u_h, joint)
            loss = T.add(loss, T.mul(fwd_l, T.constant(cfg.forward_coef)))
            terms["forward_loss"] = float(fwd_l.data)
        if cfg.inverse_coef != 0.0:
            inv_l = inverse_loss_tape(nets, feat, feat_next, u_h, view["actions"])
            loss = T.add(loss, T.mul(inv_l, T.constant(cfg.inverse_coef)))
            terms["inverse_loss"] = float(inv_l.data)

    if not np.isfinite(loss.data).all():
        raise FloatingPointError(f"non-finite composite loss for agent {k}: {terms}")
    return loss, terms


def normalize_advantages(adv):
    return (adv - adv.mean()) / (adv.std() + 1e-8)


def ppo_update(agents, buffer, advantages, value_targets, cfg, mode, optimizers, rng):
    """Clipped-surrogate epochs over shuffled minibatches; one optimizer step
    per minibatch per agent. Returns averaged loss terms and gradient norm."""
    B = buffer.total_samples
    adv_flat = advantages.reshape(B, -1)
    tgt_flat = value_targets.reshape(B, -1)
    sums, count = {}, 0
    grad_norms = []
    for _ in range(cfg.ppo_epochs):
        perm = rng.permutation(B)
        for lo in range(0, B, cfg.minibatch_steps):
            idx = perm[lo:lo + cfg.minibatch_steps]
            view = minibatch_views(buffer, idx)
            for k, nets in enumerate(agents):
                adv = normalize_advantages(adv_flat[idx, k])
                loss, terms = composite_loss(nets, k, view, adv, tgt_flat[idx, k],
                                             cfg, mode, ppo=True)
                grads = gradients(nets.parameters(), loss)
                grad_norms.append(optimizers[k].step(grads))
                for key, val in terms.items():
                    sums[key] = sums.get(key, 0.0) + val
                count += 1
    out = {key: val / max(count, 1) for key, val in sums.items()}
    out["grad_norm"] = float(np.mean(grad_norms)) if grad_norms else 0.0
    return out


def a2c_sync_update(agents, buffer, advantages, value_targets, cfg, mode, optimizers):
    """One pass: per-worker gradients averaged, then a single optimizer step
    per agent. Advantages enter unnormalized (gae_lambda defaults to 1)."""
    W, S = buffer.workers, buffer.steps
    sums, count = {}, 0
    grad_norms = []
    for k, nets in enumerate(agents):
        avg = None
        for w in range(W):
            idx = np.arange(w * S, (w + 1) * S)
            view = minibatch_views(buffer, idx)
            adv = advantages[w, :, k]
            loss, terms = composite_loss(nets, k, view, adv, value_targets[w, :, k],
                                         cfg, mode, ppo=False)
            grads = gradients(nets.parameters(), loss)
            if avg is None:
                avg = {name: g / W for name, g in grads.items()}
            else:
                for name, g in grads.items():
                    avg[name] += g / W
            for key, val in terms.items():
                sums[key] = sums.get(key, 0.0) + val
            count += 1
        grad_norms.append(optimizers[k].step(avg))
    out = {key: val / max(count, 1) for key, val in sums.items()}
    out["grad_norm"] = float(np.mean(grad_norms)) if grad_norms else 0.0
    return out
