"""Training-stack contracts: rollout buffers, GAE oracles, PPO/A2C update
mechanics, evaluation, and full-loop determinism."""

import dataclasses
import os
import sys
import threading
import weakref

import numpy as np
import pytest

from marl_lab.agents import AgentNets, NetSizes, joint_one_hot
from marl_lab.cli import resolve_spec, run_experiment
from marl_lab.cli.rundir import find_agent_checkpoints
from marl_lab.eicm import forward_loss_tape, inverse_loss_tape, moa_loss_tape
from marl_lab.envs import EVENTS, EnvConfig, SSDEnv
from marl_lab.nn import Optimizer, Tensor, gradients, load_checkpoint, save_checkpoint
from marl_lab.nn import tensor as T
from marl_lab.shaping import ShapingConfig
from marl_lab.training import (
    RolloutBuffer, RolloutWorkers, Trainer, TrainerConfig, collect_rollouts,
    composite_loss, compute_advantages, evaluate, minibatch_views, ppo_update,
)
from marl_lab.training import update
from marl_lab.training.update import _each_agent, on_tape

from helpers import (
    THREE_AGENT_CLEANUP, TINY_SPEC, ScriptedPolicy, UniformRandomPolicy, run_python,
)

SMALL = NetSizes(conv_filters=2, fc_units=8, lstm_units=8, eicm_hidden=8)
SPECS = os.path.join(os.path.dirname(__file__), "..", "specs")


# Buffer fields recorded in emurel mode only.
MOA_ONLY = ("u_h", "u_c", "next_obs", "moa_targets", "moa_valid")


def mini_env_config(**kw):
    kw.setdefault("kind", "cleanup")
    kw.setdefault("map", "cleanup_mini")
    kw.setdefault("num_agents", 2)
    kw.setdefault("episode_length", 20)
    kw.setdefault("view_size", 7)
    kw.setdefault("initial_waste_fraction", 0.2)
    return EnvConfig(**kw)


def mini_trainer(mode="baseline", algo="ppo", seed=1, **tkw):
    tkw.setdefault("batch_steps", 80)
    tkw.setdefault("minibatch_steps", 40)
    tkw.setdefault("ppo_epochs", 2)
    tkw.setdefault("workers", 2)
    tkw.setdefault("learning_rate", 1e-3)
    if algo == "a2c_sync":
        tkw.setdefault("gae_lambda", 1.0)
    shaping = ShapingConfig(mode=mode, alpha=0.0 if mode != "ia" else 5.0, beta=0.05)
    return Trainer(mini_env_config(), shaping, TrainerConfig(algo=algo, seed=seed, **tkw),
                   sizes=SMALL)


def three_agent_cleanup(mode):
    """3 agents, so impact rows are not all ones, on 9-step episodes: 14
    steps per worker per collection end collections mid-episode."""
    env = EnvConfig(kind="cleanup", map=THREE_AGENT_CLEANUP, num_agents=3,
                    episode_length=9, view_size=7, initial_waste_fraction=0.2)
    shaping = ShapingConfig(mode=mode, alpha=0.0 if mode == "baseline" else 5.0,
                            beta=0.05)
    agents = [AgentNets(7, env.num_actions, 3, seed=[4, k], sizes=SMALL)
              for k in range(3)]
    return env, shaping, agents


def collect_steps(workers, agents, steps):
    """Collect `steps` lockstep steps per worker on the three-agent setup."""
    return collect_rollouts(workers, agents, steps * len(workers))


class TestCollectRollouts:
    def test_baseline_mode_zero_intrinsic(self):
        tr = mini_trainer("baseline")
        _, buffer = tr.one_update()
        np.testing.assert_array_equal(buffer.intrinsic, np.zeros_like(buffer.intrinsic))
        np.testing.assert_array_equal(buffer.reshaped, buffer.extrinsic)

    def test_buffer_lengths_match_requested_steps(self):
        for mode in ("baseline", "emurel"):
            tr = mini_trainer(mode)
            _, buffer = tr.one_update()
            assert buffer.obs.shape[:3] == (2, 40, 2)
            assert buffer.obs.dtype == np.uint8
            assert buffer.actions.shape == (2, 40, 2)
            buffer.consistency_check()
            # only emurel's auxiliary losses read the MOA state, next_obs and
            # the MOA targets
            for name in MOA_ONLY:
                assert hasattr(buffer, name) == (mode == "emurel"), (mode, name)
        assert buffer.next_obs.dtype == np.uint8
        assert buffer.u_h.shape == buffer.u_c.shape == (2, 40, 2, SMALL.lstm_units)

    def test_replaying_stored_actions_reproduces_rewards(self):
        tr = mini_trainer("baseline")
        _, buffer = tr.one_update()
        # worker 0, fresh env with the worker's episode seeds
        t = 0
        episode = 0
        while t < buffer.steps:
            env = SSDEnv(tr.env_config)
            env.reset(seed=tr.workers.episode_env_seed(0, episode))
            while t < buffer.steps and not env.done:
                _, out = env.step(buffer.actions[0, t])
                np.testing.assert_array_equal(out.extrinsic, buffer.extrinsic[0, t])
                t += 1
            episode += 1

    def test_emurel_impacts_stored_in_unit_interval(self):
        tr = mini_trainer("emurel")
        _, buffer = tr.one_update()
        assert np.all(buffer.impact_rows >= 0.0)
        assert np.all(buffer.impact_rows <= 1.0)

    def test_episode_boundaries_partition_buffer(self):
        tr = mini_trainer("baseline")
        _, buffer = tr.one_update()
        # 20-step episodes, 40 steps/worker -> dones at 19 and 39, starts at 0 and 20
        for w in range(2):
            assert buffer.episode_starts[w, 0]
            assert buffer.dones[w, 19] and buffer.dones[w, 39]
            assert buffer.episode_starts[w, 20]
        assert len(buffer.episode_stats) == 4

    def test_collective_reward_counts_extrinsic_only(self):
        tr = mini_trainer("ia")
        _, buffer = tr.one_update()
        for stat in buffer.episode_stats:
            assert stat.collective_reward == pytest.approx(
                float(stat.per_agent_returns.sum()), abs=1e-12)
        assert not np.array_equal(buffer.reshaped, buffer.extrinsic)

    @pytest.mark.parametrize("mode", ["baseline", "ia", "emurel"])
    def test_episode_returns_are_their_extrinsic_rows_summed(self, mode):
        # An episode's returns come from its event counts, not from the
        # rewards the buffer stored; both must agree to the last bit.
        env, shaping, agents = three_agent_cleanup(mode)
        workers = RolloutWorkers(env, shaping, 9, range(3), SMALL.lstm_units)
        checked = 0
        for _ in range(2):      # the second collection resumes open episodes
            buffer = collect_steps(workers, agents, 14)
            for w in range(3):
                stats = [s for s in buffer.episode_stats if s.worker == w]
                ends = np.flatnonzero(buffer.dones[w])
                assert len(stats) == len(ends)
                for stat, end in zip(stats, ends):
                    starts = np.flatnonzero(buffer.episode_starts[w, :end + 1])
                    if not len(starts):
                        continue    # began in the previous collection
                    rows = buffer.extrinsic[w, starts[-1]:end + 1]
                    assert stat.per_agent_returns.tobytes() == rows.sum(axis=0).tobytes()
                    assert stat.collective_reward == float(rows.sum(axis=0).sum())
                    assert list(stat.events) == list(EVENTS)
                    checked += 1
        assert checked == 6     # one per worker in each collection

    def test_moa_targets_are_next_step_actions(self):
        tr = mini_trainer("emurel")
        _, buffer = tr.one_update()
        w, t = 0, 3
        assert buffer.moa_valid[w, t]
        np.testing.assert_array_equal(buffer.moa_targets[w, t, 0],
                                      buffer.actions[w, t + 1, 1:])
        assert not buffer.moa_valid[w, 19]   # episode-final step has no target

    def test_episodes_start_from_zero_lstm_state(self):
        env, shaping, agents = three_agent_cleanup("emurel")
        workers = RolloutWorkers(env, shaping, 9, range(3), SMALL.lstm_units)
        first = collect_steps(workers, agents, 14)
        second = collect_steps(workers, agents, 14)   # resumes open episodes
        states = ("v_h", "v_c", "u_h", "u_c")
        for buffer in (first, second):
            w, t = np.nonzero(buffer.episode_starts)
            assert len(w) == 6      # two episode starts per worker per collection
            for name in states:
                assert np.all(getattr(buffer, name)[w, t] == 0.0), name
        continuing = np.flatnonzero(~second.episode_starts[:, 0])
        assert len(continuing) == 3
        for name in states:
            rows = getattr(second, name)[continuing, 0]     # (workers, N, U)
            assert np.all((rows != 0.0).any(axis=-1)), name

    @pytest.mark.parametrize("mode", ["baseline", "emurel"])
    def test_each_agent_encodes_its_stack_once_per_step(self, mode):
        # one conv pass over the W windows per lockstep step, shared by act,
        # the impact rows and the MOA advance, and one for the bootstrap
        env, shaping, agents = three_agent_cleanup(mode)
        steps, W = 14, 3
        workers = RolloutWorkers(env, shaping, 9, range(W), SMALL.lstm_units)
        windows = [[] for _ in agents]
        for agent, seen in zip(agents, windows):
            def counted(x, apply=agent.conv.apply, seen=seen):
                seen.append(int(np.prod(x.shape[:-3])))
                return apply(x)
            agent.conv.apply = counted
        buffer = collect_steps(workers, agents, steps)
        assert not buffer.dones[:, -1].any()    # every row bootstraps
        for seen in windows:
            assert seen == [W] * steps + [W]


class TestRolloutWorkers:
    def test_reset_zeroes_one_row(self):
        env, shaping, _ = three_agent_cleanup("emurel")
        workers = RolloutWorkers(env, shaping, 9, range(3), SMALL.lstm_units)
        workers.begin_step()
        rng = np.random.default_rng(0)
        zeroed = ("smoothed", "episode_events") + workers.lstm_state
        assert len(workers.lstm_state) == 4
        assert workers.episode_events.shape == (3, 3, len(EVENTS))
        for name in zeroed:
            array = getattr(workers, name)
            array[...] = rng.integers(1, 9, size=array.shape)
        before = {name: getattr(workers, name).copy()
                  for name in zeroed + ("obs", "episode_idx")}
        w = 1
        workers.reset(w, workers.episode_env_seed(w, 1), [[9, w, 1, k] for k in range(3)])
        for name, old in before.items():
            new = getattr(workers, name)
            if name in zeroed:
                assert not new[w].any(), name
            for other in (0, 2):
                assert new[other].tobytes() == old[other].tobytes(), (name, other)
        assert workers.episode_idx[w] == before["episode_idx"][w] + 1

    @pytest.mark.parametrize("mode", ["ia", "emurel"])
    def test_fellow_modes_need_two_agents(self, mode):
        with pytest.raises(ValueError, match="ia/emurel modes need at least two agents"):
            Trainer(mini_env_config(num_agents=1), ShapingConfig(mode=mode, alpha=5.0),
                    TrainerConfig(batch_steps=80, minibatch_steps=40, workers=2),
                    sizes=SMALL)


class TestLockstepBatching:
    """Workers stepped in lockstep with batched nets fill each worker's slice
    with exactly the bytes that worker produces alone."""

    ARRAYS = ("obs", "next_obs", "actions", "behavior_logp", "values", "v_h", "v_c",
              "u_h", "u_c", "extrinsic", "intrinsic", "reshaped", "impact_rows",
              "dones", "episode_starts", "moa_targets", "moa_valid",
              "bootstrap_values")

    @pytest.mark.parametrize("mode", ["baseline", "ia", "emurel"])
    def test_each_worker_slice_equals_its_lone_collection(self, mode):
        # Collections end mid-episode, so the bootstrap values are exercised.
        env, shaping, agents = three_agent_cleanup(mode)
        steps, W = 14, 3
        together = RolloutWorkers(env, shaping, 9, range(W), SMALL.lstm_units)
        alone = [RolloutWorkers(env, shaping, 9, [w], SMALL.lstm_units) for w in range(W)]
        for _ in range(2):      # the second collection resumes open episodes
            batched = collect_steps(together, agents, steps)
            singles = [collect_steps(worker, agents, steps) for worker in alone]
            assert not batched.dones[:, -1].all()
            for name in MOA_ONLY:
                assert hasattr(batched, name) == (mode == "emurel"), name
            for name in self.ARRAYS:
                if name in MOA_ONLY and mode != "emurel":
                    continue
                got = getattr(batched, name)
                for w, single in enumerate(singles):
                    want = getattr(single, name)[0]
                    assert got[w].tobytes() == want.tobytes(), (name, w)
            keys = [(s.worker, s.episode) for s in batched.episode_stats]
            assert keys == sorted(keys)
            lone_stats = [s for single in singles for s in single.episode_stats]
            assert [(s.worker, s.episode, s.collective_reward, s.equality,
                     s.per_agent_returns.tobytes()) for s in batched.episode_stats] == \
                [(s.worker, s.episode, s.collective_reward, s.equality,
                  s.per_agent_returns.tobytes()) for s in lone_stats]


def joint_one_hot_per_sample(actions, num_actions):
    """The per-sample form the batched joint_one_hot replaced."""
    out = np.zeros(actions.shape[0] * num_actions)
    out[np.arange(actions.shape[0]) * num_actions + actions] = 1.0
    return out


def moa_targets_per_sample(buffer):
    """The W x S x N np.delete loop finalize_moa_targets replaced."""
    W, S, N = buffer.workers, buffer.steps, buffer.num_agents
    targets = np.zeros_like(buffer.moa_targets)
    valid = np.zeros_like(buffer.moa_valid)
    for w in range(W):
        for t in range(S - 1):
            if buffer.dones[w, t]:
                continue
            nxt = buffer.actions[w, t + 1]
            for k in range(N):
                targets[w, t, k] = np.delete(nxt, k)
            valid[w, t] = True
    return targets, valid


class TestVectorisedIndexing:
    def test_joint_one_hot_batch_matches_per_sample(self):
        actions = np.random.default_rng(3).integers(0, 9, size=(50, 3))
        want = np.stack([joint_one_hot_per_sample(a, 9) for a in actions])
        assert joint_one_hot(actions, 9).tobytes() == want.tobytes()
        assert joint_one_hot(actions[0], 9).tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_finalize_moa_targets_matches_per_sample(self, N):
        rng = np.random.default_rng(N)
        buffer = RolloutBuffer(3, 17, N)
        buffer.actions = rng.integers(0, 9, size=(3, 17, N))
        buffer.dones = rng.random((3, 17)) < 0.2
        buffer.finalize_moa_targets()
        targets, valid = moa_targets_per_sample(buffer)
        assert buffer.moa_targets.tobytes() == targets.tobytes()
        assert buffer.moa_valid.tobytes() == valid.tobytes()


class TestComputeAdvantages:
    def _buffer_with_rewards(self, rewards, values, dones, bootstrap=0.0):
        S = len(rewards)
        buf = RolloutBuffer(1, S, 1)
        buf.reshaped = np.asarray(rewards, dtype=np.float64).reshape(1, S, 1)
        buf.values = np.asarray(values, dtype=np.float64).reshape(1, S, 1)
        buf.dones = np.asarray(dones, dtype=bool).reshape(1, S)
        buf.bootstrap_values = np.full((1, 1), bootstrap)
        return buf

    def test_all_zero_rewards_and_values(self):
        buf = self._buffer_with_rewards(np.zeros(5), np.zeros(5),
                                        [False] * 4 + [True])
        adv, tgt = compute_advantages(buf, 0.9, 0.95)
        np.testing.assert_array_equal(adv, np.zeros_like(adv))
        np.testing.assert_array_equal(tgt, np.zeros_like(tgt))

    def test_three_step_discounted_returns(self):
        buf = self._buffer_with_rewards([1.0, 1.0, 1.0], np.zeros(3),
                                        [False, False, True])
        adv, tgt = compute_advantages(buf, 0.9, 1.0)
        np.testing.assert_allclose(adv[0, :, 0], [2.71, 1.9, 1.0], atol=1e-12)
        np.testing.assert_allclose(tgt[0, :, 0], [2.71, 1.9, 1.0], atol=1e-12)

    def test_gae_lambda_zero_is_one_step_td(self):
        rng = np.random.default_rng(0)
        r = rng.normal(size=4)
        v = rng.normal(size=4)
        buf = self._buffer_with_rewards(r, v, [False, False, False, True])
        adv, _ = compute_advantages(buf, 0.9, 0.0)
        for t in range(3):
            assert adv[0, t, 0] == pytest.approx(r[t] + 0.9 * v[t + 1] - v[t], abs=1e-12)
        assert adv[0, 3, 0] == pytest.approx(r[3] - v[3], abs=1e-12)

    def test_mid_buffer_truncation_bootstraps(self):
        buf = self._buffer_with_rewards([1.0, 1.0], [0.0, 0.0], [False, False],
                                        bootstrap=2.0)
        adv, _ = compute_advantages(buf, 0.5, 1.0)
        # returns: t1: 1 + 0.5*2 = 2; t0: 1 + 0.5*2 = 2
        np.testing.assert_allclose(adv[0, :, 0], [2.0, 2.0], atol=1e-12)

    def test_gae_lambda_one_zero_values_equal_discounted_returns(self):
        # brute-force oracle over random rewards and episode boundaries
        rng = np.random.default_rng(17)
        for _ in range(20):
            S = int(rng.integers(3, 30))
            r = rng.normal(size=S)
            dones = rng.random(S) < 0.2
            dones[-1] = True
            gamma = float(rng.uniform(0.5, 1.0))
            buf = self._buffer_with_rewards(r, np.zeros(S), dones)
            adv, _ = compute_advantages(buf, gamma, 1.0)
            expected = np.zeros(S)
            for t in range(S):
                acc, disc = 0.0, 1.0
                for i in range(t, S):
                    acc += disc * r[i]
                    if dones[i]:
                        break
                    disc *= gamma
                expected[t] = acc
            np.testing.assert_allclose(adv[0, :, 0], expected, atol=1e-12)


class TestPPOUpdate:
    def test_ratios_are_one_before_any_update(self):
        tr = mini_trainer("baseline")
        buffer = collect_rollouts(tr.workers, tr.agents, 80)
        view = minibatch_views(buffer, np.arange(20), 0)
        nets = tr.agents[0]
        feat = nets.encode(Tensor(view["obs"]))
        logits, _, _, _ = nets.run_actor_critic(feat, Tensor(view["v_h"]),
                                                Tensor(view["v_c"]))
        logp = T.log_softmax(logits)
        logp_a = T.gather_last(logp, view["actions"][:, 0]).data
        np.testing.assert_allclose(logp_a, view["behavior_logp"], atol=1e-12)

    def test_clip_boundary_uses_clipped_branch(self):
        adv = np.array([1.0, 1.0, -1.0])
        ratio = Tensor(np.array([1.5, 1.0, 0.5]), needs_grad=True)
        clipped = T.clip(ratio, 0.8, 1.2)
        surr = T.minimum(T.mul(ratio, Tensor(adv)), T.mul(clipped, Tensor(adv)))
        # out-of-interval ratios contribute through the clipped branch: the
        # pessimistic min picks 1.2*1 over 1.5*1 and 0.8*(-1) over 0.5*(-1)
        np.testing.assert_allclose(surr.data, [1.2, 1.0, -0.8], atol=1e-15)
        loss = T.tsum(surr)
        # saturated clip passes no gradient
        np.testing.assert_allclose(loss.backward()[id(ratio)], [0.0, 1.0, 0.0], atol=1e-15)

    def test_coefficient_zero_removes_term_gradient_exactly(self):
        tr = mini_trainer("emurel")
        _, buffer = tr.one_update()
        view = on_tape(minibatch_views(buffer, np.arange(10), 0))
        nets = tr.agents[0]
        adv = np.linspace(-1, 1, 10)
        tgt = np.zeros(10)
        cfg_off = TrainerConfig(batch_steps=80, minibatch_steps=40, moa_coef=0.0,
                                forward_coef=0.0, inverse_coef=0.0)
        loss_off, _ = composite_loss(nets, 0, view, adv, tgt, cfg_off)
        g_off = gradients(nets.parameters(), loss_off)
        plain = {name: a for name, a in view.items() if name not in MOA_ONLY}
        loss_plain, _ = composite_loss(nets, 0, plain, adv, tgt, cfg_off)
        g_plain = gradients(nets.parameters(), loss_plain)
        for name in g_off:
            np.testing.assert_array_equal(g_off[name], g_plain[name])

    def test_value_coef_zero_zeroes_value_head_gradient(self):
        tr = mini_trainer("baseline")
        _, buffer = tr.one_update()
        view = on_tape(minibatch_views(buffer, np.arange(10), 0))
        nets = tr.agents[0]
        cfg = TrainerConfig(batch_steps=80, minibatch_steps=40, value_coef=0.0)
        loss, _ = composite_loss(nets, 0, view, np.ones(10), np.ones(10), cfg)
        grads = gradients(nets.parameters(), loss)
        np.testing.assert_array_equal(grads["value_head.weight"],
                                      np.zeros_like(grads["value_head.weight"]))


class TestOneTapeSwitch:
    """A loss records on the tape only when handed Tensors: on the plain view
    it returns the tape's value as an ndarray."""

    @pytest.mark.parametrize("algo", ["ppo", "a2c_sync"])
    @pytest.mark.parametrize("mode", ["baseline", "ia", "emurel"])
    def test_losses_on_arrays_equal_the_tape_and_record_nothing(self, mode, algo):
        tr = mini_trainer(mode, algo=algo)
        buffer = collect_rollouts(tr.workers, tr.agents, tr.cfg.batch_steps)
        adv, tgt = compute_advantages(buffer, tr.cfg.discount, tr.cfg.gae_lambda)
        B, idx = buffer.total_samples, np.arange(0, buffer.total_samples, 3)
        for k, nets in enumerate(tr.agents):
            view = minibatch_views(buffer, idx, k)
            args = (adv.reshape(B, -1)[idx, k], tgt.reshape(B, -1)[idx, k], tr.cfg)
            plain, plain_terms = composite_loss(nets, k, view, *args)
            taped, taped_terms = composite_loss(nets, k, on_tape(view), *args)
            assert type(plain) is not Tensor and type(taped) is Tensor
            assert np.asarray(plain).tobytes() == taped.data.tobytes()
            assert plain_terms == taped_terms
            if mode == "emurel":
                for plain, taped in zip(self.aux_losses(nets, view),
                                        self.aux_losses(nets, on_tape(view))):
                    assert type(plain) is not Tensor and type(taped) is Tensor
                    assert np.asarray(plain).tobytes() == taped.data.tobytes()

    @staticmethod
    def aux_losses(nets, view):
        joint = joint_one_hot(view["actions"], nets.num_actions)
        feat, feat_next = nets.encode(view["obs"]), nets.encode(view["next_obs"])
        return [moa_loss_tape(nets, feat, joint, view["u_h"], view["u_c"],
                              view["moa_targets"], view["moa_valid"]),
                forward_loss_tape(nets, feat, feat_next, view["u_h"], joint),
                inverse_loss_tape(nets, feat, feat_next, view["u_h"], view["actions"])]


def tape_refs(root):
    """Weak references to every recorded node reachable from root."""
    refs, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._vjp is None:
            continue
        seen.add(id(node))
        refs.append(weakref.ref(node))
        stack.extend(node._parents)
    return refs


class TestThreadedLearner:
    """Agents learn side by side on up to min(N, CPUs) threads."""

    def test_composite_loss_tape_is_freed_by_gradients(self):
        tr = mini_trainer("emurel")
        _, buffer = tr.one_update()
        view = on_tape(minibatch_views(buffer, np.arange(10), 0))
        nets = tr.agents[0]
        loss, _ = composite_loss(nets, 0, view, np.linspace(-1, 1, 10), np.ones(10),
                                 tr.cfg)
        refs = tape_refs(loss)
        assert len(refs) > 100
        gradients(nets.parameters(), loss)
        # backward consumed the tape: only the loss itself is still held
        assert [ref() for ref in refs if ref() is not None] == [loss]
        del loss
        assert all(ref() is None for ref in refs)

    def test_error_in_agent_one_propagates_and_no_thread_outlives_it(self):
        tr = mini_trainer("baseline")
        buffer = collect_rollouts(tr.workers, tr.agents, tr.cfg.batch_steps)
        adv, tgt = compute_advantages(buffer, tr.cfg.discount, tr.cfg.gae_lambda)
        for _, p in tr.agents[1].parameters():
            p.data[...] = np.nan
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="for agent 1"):
            ppo_update(tr.agents, buffer, adv, tgt, tr.cfg, tr.optimizers,
                       np.random.default_rng(0))
        assert threading.active_count() == before

    def test_each_agent_keeps_agent_order_and_raises_the_lowest_error(self):
        # more threads than cores, switching often: each result lands at its
        # agent's index, from read-only shared input
        shared = np.random.default_rng(0).normal(size=(64, 64))
        work = lambda k: float((shared @ shared.T).sum()) + k
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert _each_agent(work, 8, 4) == [work(k) for k in range(8)]
        finally:
            sys.setswitchinterval(interval)
        before = threading.active_count()

        def fail_late(k):
            if k >= 2:
                raise ValueError(f"agent {k}")
            return k

        with pytest.raises(ValueError, match="agent 2"):
            _each_agent(fail_late, 5, 3)
        assert threading.active_count() == before

    def test_one_failing_agent_stops_the_others_at_their_next_step(self, monkeypatch):
        tr = mini_trainer("baseline", minibatch_steps=10)   # 2 epochs x 8 = 16 steps
        buffer = collect_rollouts(tr.workers, tr.agents, tr.cfg.batch_steps)
        adv, tgt = compute_advantages(buffer, tr.cfg.discount, tr.cfg.gae_lambda)
        entered, calls = threading.Event(), []
        loss = update.composite_loss

        def failing(nets, k, *args):
            calls.append(k)
            if k == 1:
                entered.set()
                raise FloatingPointError("non-finite composite loss for agent 1")
            if calls.count(0) == 1:     # agent 0 starts once agent 1 is in its call
                entered.wait(timeout=60)
            return loss(nets, k, *args)

        monkeypatch.setattr(update, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(update, "composite_loss", failing)
        with pytest.raises(FloatingPointError, match="for agent 1"):
            ppo_update(tr.agents, buffer, adv, tgt, tr.cfg, tr.optimizers,
                       np.random.default_rng(0))
        assert calls.count(1) == 1 and calls.count(0) <= 2

    @pytest.mark.parametrize("algo", ["ppo", "a2c_sync"])
    def test_each_agent_runs_once_per_update(self, monkeypatch, algo):
        # each agent walks the whole schedule (2 epochs x 2 minibatches for
        # PPO) as one task, with no fork-join per schedule step
        calls = []

        def counted(fn, n, threads):
            calls.append(n)
            return _each_agent(fn, n, threads)

        monkeypatch.setattr(update, "_each_agent", counted)
        mini_trainer("emurel", algo=algo).one_update()
        assert calls == [2]

    def test_views_hold_agent_k_column_and_the_joint_fields(self):
        env, shaping, agents = three_agent_cleanup("emurel")
        workers = RolloutWorkers(env, shaping, 9, range(2), SMALL.lstm_units)
        buffer = collect_steps(workers, agents, 14)
        perm = np.random.default_rng(0).permutation(buffer.total_samples)
        for idx, rows in ((perm[:10], 10), (slice(14, 28), 14)):
            for k in range(3):
                view = minibatch_views(buffer, idx, k)
                assert set(view) == set(update.AGENT_FIELDS + update.JOINT_FIELDS)
                for name, got in view.items():
                    whole = buffer.flat(getattr(buffer, name))[idx]
                    want = whole if name in update.JOINT_FIELDS else whole[:, k]
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), name
                assert view["actions"].shape == (rows, 3)

    def test_import_holds_blas_at_one_thread_unless_set(self):
        code = "import os, marl_lab; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert run_python(code).strip() == "1"
        assert run_python(code, OPENBLAS_NUM_THREADS="2").strip() == "2"

    def test_import_after_numpy_holds_openblas_at_one_thread_unless_set(self):
        # numpy reads the variables when it loads, so marl_lab tells numpy's
        # bundled OpenBLAS directly; the reading comes from the library.
        code = ("import ctypes, glob, os, numpy, marl_lab\n"
                "libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "
                "'numpy.libs')\n"
                "paths = glob.glob(os.path.join(libs, 'libscipy_openblas*.so'))\n"
                "lib = ctypes.CDLL(paths[0]) if paths else None\n"
                "print(lib.scipy_openblas_get_num_threads64_() "
                "if hasattr(lib, 'scipy_openblas_get_num_threads64_') else 'none')")
        unset = run_python(code).strip()
        if unset == "none":
            pytest.skip("numpy carries no bundled 64-bit scipy-openblas")
        assert unset == "1"
        assert run_python(code, OPENBLAS_NUM_THREADS="2").strip() == "2"


class TestThreeAgentDeskSpecs:
    def test_one_emurel_update_has_live_impact_scaling(self):
        # with two agents every impact row normalizes to 1.0; with three the
        # two fellows' impacts spread over [0, 1]
        spec = resolve_spec(os.path.join(SPECS, "mini_cleanup3_emurel.spec"))
        tr = Trainer(dataclasses.replace(spec.env, seed=1), spec.method,
                     dataclasses.replace(spec.trainer, seed=1), sizes=spec.net)
        row, _ = tr.one_update()
        assert row["impact_min"] < row["impact_max"]


class TestA2CUpdate:
    def _duplicated_worker_buffer(self):
        tr = mini_trainer("baseline", algo="a2c_sync")
        _, buffer = tr.one_update()
        # a baseline buffer holds no MOA state, no next_obs and no MOA targets
        assert not any(hasattr(buffer, name) for name in MOA_ONLY)
        # copy worker 0's slice over worker 1 so the two are identical
        for name in ("obs", "actions", "behavior_logp", "values", "v_h", "v_c",
                     "extrinsic", "intrinsic", "reshaped", "impact_rows", "dones",
                     "episode_starts", "bootstrap_values"):
            arr = getattr(buffer, name)
            arr[1] = arr[0]
        return tr, buffer

    def test_identical_workers_average_to_single_gradient(self):
        tr, buffer = self._duplicated_worker_buffer()
        adv, tgt = compute_advantages(buffer, 0.99, 1.0)
        cfg = tr.cfg
        nets = tr.agents[0]
        grads = []
        for w in range(2):
            idx = np.arange(w * buffer.steps, (w + 1) * buffer.steps)
            view = on_tape(minibatch_views(buffer, idx, 0))
            loss, _ = composite_loss(nets, 0, view, adv[w, :, 0], tgt[w, :, 0], cfg)
            grads.append(gradients(nets.parameters(), loss))
        for name in grads[0]:
            avg = 0.5 * (grads[0][name] + grads[1][name])
            np.testing.assert_allclose(avg, grads[0][name], atol=1e-15)

    def test_gradient_of_average_equals_average_of_gradients(self):
        tr = mini_trainer("baseline", algo="a2c_sync", seed=3)
        _, buffer = tr.one_update()
        adv, tgt = compute_advantages(buffer, 0.99, 1.0)
        nets = tr.agents[0]
        cfg = tr.cfg
        views = [on_tape(minibatch_views(buffer, np.arange(w * buffer.steps,
                                                           (w + 1) * buffer.steps), 0))
                 for w in range(2)]
        per_worker = []
        for w in range(2):
            loss, _ = composite_loss(nets, 0, views[w], adv[w, :, 0], tgt[w, :, 0], cfg)
            per_worker.append(gradients(nets.parameters(), loss))
        l0, _ = composite_loss(nets, 0, views[0], adv[0, :, 0], tgt[0, :, 0], cfg)
        l1, _ = composite_loss(nets, 0, views[1], adv[1, :, 0], tgt[1, :, 0], cfg)
        combined = T.add(T.mul(l0, 0.5), T.mul(l1, 0.5))
        g_comb = gradients(nets.parameters(), combined)
        for name in g_comb:
            avg = 0.5 * (per_worker[0][name] + per_worker[1][name])
            np.testing.assert_allclose(g_comb[name], avg, atol=1e-12)

    def test_entropy_term_zero_for_deterministic_buffer(self):
        # entropy coefficient 0 -> the entropy term contributes nothing
        tr = mini_trainer("baseline", algo="a2c_sync")
        _, buffer = tr.one_update()
        view = on_tape(minibatch_views(buffer, np.arange(10), 0))
        cfg0 = TrainerConfig(algo="a2c_sync", batch_steps=80, minibatch_steps=40,
                             entropy_coef=0.0)
        nets = tr.agents[0]
        loss0, terms0 = composite_loss(nets, 0, view, np.zeros(10), np.zeros(10), cfg0)
        # with zero advantages and entropy_coef 0 only the value term remains
        assert float(loss0.data) == pytest.approx(
            cfg0.value_coef * terms0["value_loss"], abs=1e-12)


def test_each_agent_parameters_are_views_of_its_optimizer_vector():
    # Each agent's optimizer holds, in order, exactly the parameters one
    # backward of its composite loss reaches, and each of them is a view of
    # that optimizer's vector and of no other's.
    for mode in ("baseline", "ia", "emurel"):
        for algo in ("ppo", "a2c_sync"):
            trainer = mini_trainer(mode, algo=algo)
            buffer = collect_rollouts(trainer.workers, trainer.agents, trainer.cfg.batch_steps)
            adv, tgt = compute_advantages(buffer, trainer.cfg.discount, trainer.cfg.gae_lambda)
            B = buffer.total_samples
            for k, (nets, opt) in enumerate(zip(trainer.agents, trainer.optimizers)):
                view = on_tape(minibatch_views(buffer, np.arange(B), k))
                loss, _ = composite_loss(nets, k, view, adv.reshape(B, -1)[:, k],
                                         tgt.reshape(B, -1)[:, k], trainer.cfg)
                reached = loss.backward()
                assert [(name, id(p)) for name, p in opt.params] == [
                    (name, id(p)) for name, p in nets.parameters() if id(p) in reached
                ], (mode, algo)
                params = [p for _, p in opt.params]
                assert opt.vector.size == sum(p.data.size for p in params)
                assert all(np.shares_memory(p.data, opt.vector) for p in params)
                for other in trainer.optimizers:
                    if other is not opt:
                        assert not any(np.shares_memory(p.data, other.vector)
                                       for p in params)


@pytest.mark.parametrize("mode", ["baseline", "ia"])
def test_sections_no_loss_reaches_keep_their_initial_bytes(mode, tmp_path):
    # Baseline and IA train the encoder and the actor-critic alone: the MOA
    # and forward/inverse arrays stay as a fresh net of the same seed draws
    # them, in the live nets and in the run's final checkpoint.
    untrained = ("moa", "forward", "inverse")

    def assert_untrained_bytes(nets, fresh):
        for (name, p), (_, want) in zip(nets.parameters(*untrained),
                                        fresh.parameters(*untrained)):
            assert p.data.tobytes() == want.data.tobytes(), name

    trainer = mini_trainer(mode)
    metric_rows(trainer, 2)
    for nets in trainer.agents:
        assert_untrained_bytes(nets, AgentNets(nets.view_size, nets.num_actions,
                                               nets.num_agents, seed=nets.seed, sizes=SMALL))

    spec_path = tmp_path / "tiny.spec"
    spec_path.write_text(TINY_SPEC.format(out=str(tmp_path / "runs"), mode=mode))
    spec = resolve_spec(str(spec_path))
    (run_dir, _), = run_experiment(str(spec_path))
    paths = find_agent_checkpoints(os.path.join(run_dir, "checkpoints"))
    env = spec.env
    assert len(paths) == env.num_agents
    for k, path in enumerate(paths):
        loaded, fresh = (AgentNets(env.view_size, env.num_actions, env.num_agents,
                                   seed=[seed, k], sizes=spec.net)
                         for seed in (99, spec.seeds[0]))
        load_checkpoint(path, loaded.sections)
        assert_untrained_bytes(loaded, fresh)


def test_optimizer_steps_the_parameters_a_checkpoint_loaded(tmp_path):
    # Resuming relies on this: the loader writes into the Tensors the
    # trainer's optimizers hold, so their next step moves the loaded values.
    trainer = mini_trainer(mode="emurel")
    cfg = trainer.cfg
    for k, nets in enumerate(trainer.agents):
        source = AgentNets(nets.view_size, nets.num_actions, nets.num_agents,
                           seed=[99, k], sizes=SMALL)
        path = tmp_path / f"agent{k}.ckpt"
        save_checkpoint(path, source.sections, seed=source.seed)
        load_checkpoint(path, nets.sections)
        grads = {name: np.full_like(p.data, 0.5 + k) for name, p in nets.parameters()}
        trainer.optimizers[k].step(grads)
        Optimizer(source.parameters(), cfg.optimizer, cfg.learning_rate,
                  cfg.grad_clip_norm).step(grads)
        for (name, p), (_, want) in zip(nets.parameters(), source.parameters()):
            assert p.data.tobytes() == want.data.tobytes(), name


class TestEvaluate:
    def test_zero_episodes_rejected(self):
        with pytest.raises(ValueError):
            evaluate([UniformRandomPolicy(9)] * 2, mini_env_config(), 0, seed=1)

    def test_random_agents_mini_harvest_frozen_value(self):
        cfg = EnvConfig(kind="harvest", map="harvest_mini", num_agents=2,
                        episode_length=200, view_size=9)
        reward, equality = evaluate([UniformRandomPolicy(8)] * 2, cfg, episodes=3,
                                    seed=123)
        # regression oracle: measured once with this exact seed derivation;
        # random firing dominates the apple pickups on this map
        assert reward == -450.0
        assert equality == 1.0

    def test_random_agents_eval_reproducible(self):
        cfg = mini_env_config(kind="harvest", map="harvest_mini")
        first = evaluate([UniformRandomPolicy(8)] * 2, cfg, episodes=3, seed=123)
        again = evaluate([UniformRandomPolicy(8)] * 2, cfg, episodes=3, seed=123)
        assert first == again

    def test_identical_scripted_agents_perfect_equality(self):
        from marl_lab.envs.env import NOOP
        cfg = mini_env_config()
        _, equality = evaluate([ScriptedPolicy(NOOP, 9)] * 2, cfg, episodes=2, seed=7)
        assert equality == pytest.approx(1.0, abs=0.05)

    def test_policy_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate([UniformRandomPolicy(9)], mini_env_config(), 1, seed=0)


def metric_rows(trainer, updates):
    return [trainer.one_update()[0] for _ in range(updates)]


def test_env_steps_is_derived_from_the_update_count():
    trainer = mini_trainer("baseline", algo="a2c_sync")
    rows = metric_rows(trainer, 2)
    batch = trainer.cfg.batch_steps
    assert [row["env_steps"] for row in rows] == [batch, 2 * batch]
    assert trainer.env_steps == 2 * batch
    assert "env_steps" not in vars(trainer)


class TestDeterminism:
    def test_two_trainers_produce_identical_metrics(self):
        rows_a = metric_rows(mini_trainer("emurel", seed=5), 2)
        rows_b = metric_rows(mini_trainer("emurel", seed=5), 2)
        assert rows_a == rows_b

    def test_different_seeds_differ(self):
        rows_a = metric_rows(mini_trainer("baseline", seed=5), 1)
        rows_b = metric_rows(mini_trainer("baseline", seed=6), 1)
        assert rows_a != rows_b


class TestTrainerConfigValidation:
    def test_minibatch_larger_than_batch_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(batch_steps=100, minibatch_steps=200)

    def test_worker_divisibility_enforced(self):
        with pytest.raises(ValueError):
            TrainerConfig(batch_steps=100, minibatch_steps=50, workers=3)

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(algo="dqn")
