"""Training-stack contracts: rollout buffers, GAE oracles, PPO/A2C update
mechanics, evaluation, and full-loop determinism."""

import numpy as np
import pytest

from marl_lab.agents import AgentNets, NetSizes, joint_one_hot
from marl_lab.envs import EnvConfig, SSDEnv
from marl_lab.nn import Tensor, gradients
from marl_lab.nn import tensor as T
from marl_lab.shaping import ShapingConfig
from marl_lab.training import (
    RolloutBuffer, ScriptedPolicy, Trainer, TrainerConfig, UniformRandomPolicy,
    RolloutWorker, collect_rollouts, composite_loss, compute_advantages, evaluate,
    minibatch_views,
)

from helpers import THREE_AGENT_CLEANUP

SMALL = NetSizes(conv_filters=2, fc_units=8, lstm_units=8, eicm_hidden=8)


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


class TestCollectRollouts:
    def test_baseline_mode_zero_intrinsic(self):
        tr = mini_trainer("baseline")
        _, buffer = tr.one_update()
        np.testing.assert_array_equal(buffer.intrinsic, np.zeros_like(buffer.intrinsic))
        np.testing.assert_array_equal(buffer.reshaped, buffer.extrinsic)

    def test_buffer_lengths_match_requested_steps(self):
        tr = mini_trainer("baseline")
        _, buffer = tr.one_update()
        assert buffer.obs.shape[:3] == (2, 40, 2)
        assert buffer.actions.shape == (2, 40, 2)
        buffer.consistency_check()

    def test_replaying_stored_actions_reproduces_rewards(self):
        tr = mini_trainer("baseline")
        _, buffer = tr.one_update()
        # worker 0, fresh env with the worker's episode seeds
        worker = tr.workers[0]
        t = 0
        episode = 0
        while t < buffer.steps:
            env = SSDEnv(tr.env_config)
            env.reset(seed=worker.episode_env_seed(episode))
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

    def test_moa_targets_are_next_step_actions(self):
        tr = mini_trainer("emurel")
        _, buffer = tr.one_update()
        w, t = 0, 3
        assert buffer.moa_valid[w, t]
        np.testing.assert_array_equal(buffer.moa_targets[w, t, 0],
                                      buffer.actions[w, t + 1, 1:])
        assert not buffer.moa_valid[w, 19]   # episode-final step has no target


class TestLockstepBatching:
    """Workers stepped in lockstep with batched nets fill each worker's slice
    with exactly the bytes that worker produces alone."""

    ARRAYS = ("obs", "next_obs", "actions", "behavior_logp", "values", "v_h", "v_c",
              "u_h", "u_c", "extrinsic", "intrinsic", "reshaped", "impact_rows",
              "dones", "episode_starts", "moa_targets", "moa_valid",
              "bootstrap_values")

    def setup(self, mode):
        # 3 agents, so impact rows are not all ones; 14 steps per worker per
        # collection against 9-step episodes, so collections end mid-episode
        # and the bootstrap values are exercised.
        env = EnvConfig(kind="cleanup", map_rows=THREE_AGENT_CLEANUP, num_agents=3,
                        episode_length=9, view_size=7, initial_waste_fraction=0.2)
        shaping = ShapingConfig(mode=mode, alpha=0.0 if mode == "baseline" else 5.0,
                                beta=0.05)
        agents = [AgentNets(7, env.num_actions, 3, seed=[4, k], sizes=SMALL)
                  for k in range(3)]
        return env, shaping, agents

    def collect(self, workers, agents, steps):
        return collect_rollouts(workers, agents, steps * len(workers), 7,
                                8, SMALL.lstm_units)

    @pytest.mark.parametrize("mode", ["baseline", "ia", "emurel"])
    def test_each_worker_slice_equals_its_lone_collection(self, mode):
        env, shaping, agents = self.setup(mode)
        steps, W = 14, 3
        together = [RolloutWorker(env, shaping, 9, w) for w in range(W)]
        alone = [RolloutWorker(env, shaping, 9, w) for w in range(W)]
        for _ in range(2):      # the second collection resumes open episodes
            batched = self.collect(together, agents, steps)
            singles = [self.collect([worker], agents, steps) for worker in alone]
            assert not batched.dones[:, -1].all()
            for name in self.ARRAYS:
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
        buffer = RolloutBuffer(3, 17, N, 5, 8, 4)
        buffer.actions[:] = rng.integers(0, 9, size=buffer.actions.shape)
        buffer.dones[:] = rng.random(buffer.dones.shape) < 0.2
        buffer.finalize_moa_targets()
        targets, valid = moa_targets_per_sample(buffer)
        assert buffer.moa_targets.tobytes() == targets.tobytes()
        assert buffer.moa_valid.tobytes() == valid.tobytes()


class TestComputeAdvantages:
    def _buffer_with_rewards(self, rewards, values, dones, bootstrap=0.0):
        S = len(rewards)
        buf = RolloutBuffer(1, S, 1, 3, 8, 4)
        buf.reshaped[0, :, 0] = rewards
        buf.values[0, :, 0] = values
        buf.dones[0, :] = dones
        buf.bootstrap_values[0, 0] = bootstrap
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
        from marl_lab.envs.env import NUM_CHANNELS
        from marl_lab.training import collect_rollouts
        buffer = collect_rollouts(tr.workers, tr.agents, 80, 7, NUM_CHANNELS, 8)
        view = minibatch_views(buffer, np.arange(20))
        nets = tr.agents[0]
        feat = nets.encode(Tensor(view["obs"][:, 0]))
        logits, _, _, _ = nets.run_actor_critic(feat, Tensor(view["v_h"][:, 0]),
                                                Tensor(view["v_c"][:, 0]))
        logp = T.log_softmax(logits)
        logp_a = T.gather_last(logp, view["actions"][:, 0]).data
        np.testing.assert_allclose(logp_a, view["behavior_logp"][:, 0], atol=1e-12)

    def test_clip_boundary_uses_clipped_branch(self):
        adv = np.array([1.0, 1.0, -1.0])
        ratio = Tensor(np.array([1.5, 1.0, 0.5]), needs_grad=True)
        clipped = T.clip(ratio, 0.8, 1.2)
        surr = T.minimum(T.mul(ratio, Tensor(adv)), T.mul(clipped, Tensor(adv)))
        # out-of-interval ratios contribute through the clipped branch: the
        # pessimistic min picks 1.2*1 over 1.5*1 and 0.8*(-1) over 0.5*(-1)
        np.testing.assert_allclose(surr.data, [1.2, 1.0, -0.8], atol=1e-15)
        loss = T.tsum(surr)
        loss.backward()
        # saturated clip passes no gradient
        np.testing.assert_allclose(ratio.grad, [0.0, 1.0, 0.0], atol=1e-15)

    def test_coefficient_zero_removes_term_gradient_exactly(self):
        tr = mini_trainer("emurel")
        _, buffer = tr.one_update()
        view = minibatch_views(buffer, np.arange(10))
        nets = tr.agents[0]
        adv = np.linspace(-1, 1, 10)
        tgt = np.zeros(10)
        cfg_off = TrainerConfig(batch_steps=80, minibatch_steps=40, moa_coef=0.0,
                                forward_coef=0.0, inverse_coef=0.0)
        loss_off, _ = composite_loss(nets, 0, view, adv, tgt, cfg_off, "emurel")
        g_off = gradients(nets.parameters(), loss_off)
        loss_plain, _ = composite_loss(nets, 0, view, adv, tgt, cfg_off, "baseline")
        g_plain = gradients(nets.parameters(), loss_plain)
        for name in g_off:
            np.testing.assert_array_equal(g_off[name], g_plain[name])

    def test_value_coef_zero_zeroes_value_head_gradient(self):
        tr = mini_trainer("baseline")
        _, buffer = tr.one_update()
        view = minibatch_views(buffer, np.arange(10))
        nets = tr.agents[0]
        cfg = TrainerConfig(batch_steps=80, minibatch_steps=40, value_coef=0.0)
        loss, _ = composite_loss(nets, 0, view, np.ones(10), np.ones(10), cfg,
                                 "baseline")
        grads = gradients(nets.parameters(), loss)
        np.testing.assert_array_equal(grads["value_head.weight"],
                                      np.zeros_like(grads["value_head.weight"]))


class TestA2CUpdate:
    def _duplicated_worker_buffer(self):
        tr = mini_trainer("baseline", algo="a2c_sync")
        _, buffer = tr.one_update()
        # copy worker 0's slice over worker 1 so the two are identical
        for name in ("obs", "next_obs", "actions", "behavior_logp", "values",
                     "v_h", "v_c", "u_h", "u_c", "extrinsic", "intrinsic",
                     "reshaped", "impact_rows", "dones", "episode_starts",
                     "moa_targets", "moa_valid", "bootstrap_values"):
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
            view = minibatch_views(buffer, idx)
            loss, _ = composite_loss(nets, 0, view, adv[w, :, 0], tgt[w, :, 0],
                                     cfg, "baseline", ppo=False)
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
        views = [minibatch_views(buffer, np.arange(w * buffer.steps,
                                                   (w + 1) * buffer.steps))
                 for w in range(2)]
        per_worker = []
        for w in range(2):
            loss, _ = composite_loss(nets, 0, views[w], adv[w, :, 0], tgt[w, :, 0],
                                     cfg, "baseline", ppo=False)
            per_worker.append(gradients(nets.parameters(), loss))
        l0, _ = composite_loss(nets, 0, views[0], adv[0, :, 0], tgt[0, :, 0],
                               cfg, "baseline", ppo=False)
        l1, _ = composite_loss(nets, 0, views[1], adv[1, :, 0], tgt[1, :, 0],
                               cfg, "baseline", ppo=False)
        combined = T.add(T.mul(l0, T.constant(0.5)), T.mul(l1, T.constant(0.5)))
        g_comb = gradients(nets.parameters(), combined)
        for name in g_comb:
            avg = 0.5 * (per_worker[0][name] + per_worker[1][name])
            np.testing.assert_allclose(g_comb[name], avg, atol=1e-12)

    def test_entropy_term_zero_for_deterministic_buffer(self):
        # entropy coefficient 0 -> the entropy term contributes nothing
        tr = mini_trainer("baseline", algo="a2c_sync")
        _, buffer = tr.one_update()
        view = minibatch_views(buffer, np.arange(10))
        cfg0 = TrainerConfig(batch_steps=80, minibatch_steps=40, entropy_coef=0.0)
        nets = tr.agents[0]
        loss0, terms0 = composite_loss(nets, 0, view, np.zeros(10), np.zeros(10),
                                       cfg0, "baseline", ppo=False)
        # with zero advantages and entropy_coef 0 only the value term remains
        assert float(loss0.data) == pytest.approx(
            cfg0.value_coef * terms0["value_loss"], abs=1e-12)


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


class TestDeterminism:
    def test_two_trainers_produce_identical_metrics(self):
        rows_a = mini_trainer("emurel", seed=5).run(updates=2)
        rows_b = mini_trainer("emurel", seed=5).run(updates=2)
        assert rows_a == rows_b

    def test_different_seeds_differ(self):
        rows_a = mini_trainer("baseline", seed=5).run(updates=1)
        rows_b = mini_trainer("baseline", seed=6).run(updates=1)
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
