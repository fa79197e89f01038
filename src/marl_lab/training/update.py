"""Parameter updates: the composite loss, and one learner loop that runs
both PPO-clip epochs and synchronous advantage actor-critic.

The composite objective per agent is
    policy term + value_coef * value MSE - entropy_coef * entropy
    (+ moa_coef * MOA cross-entropy + forward_coef * L_F + inverse_coef * L_I
     on buffers that record next_obs, which emurel's alone do),
recomputed from stored observations and recurrent-state snapshots. PPO and
A2C differ only in that policy term, in advantage normalization and in their
schedule: a list of steps, each a list of index sets into the flat buffer.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..agents.nets import joint_one_hot
from ..eicm import forward_loss_tape, inverse_loss_tape, moa_loss_tape
from ..nn import Tensor, gradients
from ..nn import tensor as T


# The per-agent buffer fields a loss reads, and the joint ones; baseline and IA
# buffers hold no MOA state (u_h, u_c), no next_obs and no MOA targets
# (moa_targets, moa_valid).
AGENT_FIELDS = ("obs", "next_obs", "behavior_logp", "v_h", "v_c", "u_h", "u_c", "moa_targets")
JOINT_FIELDS = ("actions", "moa_valid")


def minibatch_views(buffer, idx, k):
    """Agent k's samples at an index array or slice idx of the flat buffer:
    its own column of each AGENT_FIELDS field the buffer holds, plus the
    joint (B, N) actions and the (B,) moa_valid. A slice makes views, not
    copies. Observations stay uint8; `on_tape` lifts them for training."""
    held = vars(buffer)
    return {name: buffer.flat(held[name])[(idx, k) if name in AGENT_FIELDS else idx]
            for name in AGENT_FIELDS + JOINT_FIELDS if name in held}


def on_tape(view):
    """The view with its observations as Tensors, so a loss on it records."""
    return {name: Tensor(a) if name in ("obs", "next_obs") else a
            for name, a in view.items()}


def composite_loss(nets, k, view, adv, targets, cfg):
    """Agent k's loss on its minibatch view (see `minibatch_views`), with the
    policy term of `cfg.algo`, and the auxiliary terms when the view holds
    `next_obs`. On an `on_tape` view it records on the tape and returns a
    Tensor; on the plain view it returns the same value as an ndarray and
    records nothing.

    adv/targets: (B,) advantages and value targets for agent k.
    Returns (loss, {term: float}).
    """
    feat = nets.encode(view["obs"])
    logits, value, _, _ = nets.run_actor_critic(feat, view["v_h"], view["v_c"])
    logp = T.log_softmax(logits)
    logp_a = T.gather_last(logp, view["actions"][:, k])

    if cfg.algo == "ppo":
        ratio = T.exp(T.sub(logp_a, view["behavior_logp"]))
        clipped = T.clip(ratio, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio)
        surrogate = T.minimum(T.mul(ratio, adv), T.mul(clipped, adv))
        policy_loss = T.mul(T.tmean(surrogate), -1.0)
    else:
        policy_loss = T.mul(T.tmean(T.mul(logp_a, adv)), -1.0)

    vdiff = T.sub(T.reshape(value, (value.shape[0],)), targets)
    value_loss = T.tmean(T.mul(vdiff, vdiff))

    probs = T.exp(logp)
    entropy = T.mul(T.tmean(T.tsum(T.mul(probs, logp), axis=-1)), -1.0)

    loss = T.add(policy_loss, T.mul(value_loss, cfg.value_coef))
    loss = T.sub(loss, T.mul(entropy, cfg.entropy_coef))
    terms = {"policy_loss": float(T._data(policy_loss)),
             "value_loss": float(T._data(value_loss)),
             "entropy": float(T._data(entropy)),
             "moa_loss": 0.0, "forward_loss": 0.0, "inverse_loss": 0.0}

    if "next_obs" in view:
        joint = joint_one_hot(view["actions"], nets.num_actions)
        feat_next = nets.encode(view["next_obs"])
        u_h, u_c = view["u_h"], view["u_c"]
        if cfg.moa_coef != 0.0:
            moa_l = moa_loss_tape(nets, feat, joint, u_h, u_c,
                                  view["moa_targets"], view["moa_valid"])
            loss = T.add(loss, T.mul(moa_l, cfg.moa_coef))
            terms["moa_loss"] = float(T._data(moa_l))
        if cfg.forward_coef != 0.0:
            fwd_l = forward_loss_tape(nets, feat, feat_next, u_h, joint)
            loss = T.add(loss, T.mul(fwd_l, cfg.forward_coef))
            terms["forward_loss"] = float(T._data(fwd_l))
        if cfg.inverse_coef != 0.0:
            inv_l = inverse_loss_tape(nets, feat, feat_next, u_h, view["actions"])
            loss = T.add(loss, T.mul(inv_l, cfg.inverse_coef))
            terms["inverse_loss"] = float(T._data(inv_l))

    if not np.isfinite(T._data(loss)).all():
        raise FloatingPointError(f"non-finite composite loss for agent {k}: {terms}")
    return loss, terms


def normalize_advantages(adv):
    return (adv - adv.mean()) / (adv.std() + 1e-8)


def ppo_update(agents, buffer, advantages, value_targets, cfg, optimizers, rng):
    """Clipped-surrogate epochs: one step per minibatch, cut from one
    permutation per epoch."""
    B = buffer.total_samples
    schedule = []
    for _ in range(cfg.ppo_epochs):
        perm = rng.permutation(B)
        schedule += [[perm[lo:lo + cfg.minibatch_steps]]
                     for lo in range(0, B, cfg.minibatch_steps)]
    return _run_schedule(agents, buffer, advantages, value_targets, cfg, optimizers,
                         schedule)


def a2c_sync_update(agents, buffer, advantages, value_targets, cfg, optimizers):
    """One step on the mean of the W worker-slice gradients. Advantages enter
    unnormalized (the A2C specs set gae_lambda to 1)."""
    S = buffer.steps
    schedule = [[slice(w * S, (w + 1) * S) for w in range(buffer.workers)]]
    return _run_schedule(agents, buffer, advantages, value_targets, cfg, optimizers,
                         schedule)


def _run_schedule(agents, buffer, advantages, value_targets, cfg, optimizers, schedule):
    """Each agent walks the whole schedule as one task (see `_each_agent`):
    per step, the mean gradient over the step's index sets of the parameters
    its optimizer holds, then one optimizer step; PPO normalizes each set's
    advantages. Each tape is freed by its backward. Once one agent raises, the
    others stop at their next step. Returns the loss terms averaged over
    (step, agent, set), summed in that order, and the mean gradient norm."""
    B = buffer.total_samples
    adv_flat = advantages.reshape(B, -1)
    tgt_flat = value_targets.reshape(B, -1)

    failed = threading.Event()

    def learn(k):
        nets, optimizer, steps = agents[k], optimizers[k], []
        try:
            for index_sets in schedule:
                if failed.is_set():     # another agent raised; _each_agent raises it
                    break
                mean, terms = {}, []
                for idx in index_sets:
                    adv = adv_flat[idx, k]
                    adv = normalize_advantages(adv) if cfg.algo == "ppo" else adv
                    view = on_tape(minibatch_views(buffer, idx, k))
                    loss, set_terms = composite_loss(nets, k, view, adv, tgt_flat[idx, k], cfg)
                    for name, g in gradients(optimizer.params, loss).items():
                        g = g / len(index_sets)
                        mean[name] = mean[name] + g if name in mean else g
                    terms.append(set_terms)
                steps.append((terms, optimizer.step(mean)))
        except BaseException:
            failed.set()
            raise
        return steps

    per_agent = _each_agent(learn, len(agents), min(len(agents), _usable_cpus()))
    sums, count, grad_norms = {}, 0, []
    for step in zip(*per_agent):
        for terms, norm in step:
            for set_terms in terms:
                for key, val in set_terms.items():
                    sums[key] = sums.get(key, 0.0) + val
                count += 1
            grad_norms.append(norm)
    out = {key: val / max(count, 1) for key, val in sums.items()}
    out["grad_norm"] = float(np.mean(grad_norms)) if grad_norms else 0.0
    return out


def _usable_cpus():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _each_agent(fn, n, threads):
    """[fn(0), ..., fn(n-1)] on a pool of `threads` threads. Independent
    learners share no array they write, and numpy releases the GIL inside
    gemms, ufuncs and copies.

    Every thread is joined before this returns. If calls raised, the error
    of the lowest agent that raised is raised."""
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, range(n)))
