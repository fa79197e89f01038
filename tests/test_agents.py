"""Agent network contracts: policy sampling, value output, MOA arity and
training, recurrent-state discipline."""

import numpy as np
import pytest

from marl_lab.agents import AgentNets, NetSizes, joint_one_hot
from marl_lab.agents.nets import sample_from_probs, stable_softmax
from marl_lab.eicm import moa_loss_tape
from marl_lab.nn import Optimizer, Tensor, gradients

SMALL = NetSizes(conv_filters=2, fc_units=8, lstm_units=8, eicm_hidden=8)


def small_nets(seed=0, n=2, actions=9, view=5):
    return AgentNets(view_size=view, num_actions=actions, num_agents=n,
                     seed=seed, sizes=SMALL)


def random_obs(rng, view=5):
    obs = np.zeros((view, view, 8))
    idx = rng.integers(0, 5, size=(view, view))
    for r in range(view):
        for c in range(view):
            obs[r, c, idx[r, c]] = 1.0
    return obs


def zero_state(rows=()):
    """A zero LSTM state pair (h, c): (U,) for a lone window, (W, U) for a
    lockstep stack of W windows."""
    shape = tuple(rows) + (SMALL.lstm_units,)
    return np.zeros(shape), np.zeros(shape)


class TestAct:
    def test_fresh_nets_are_near_uniform(self):
        rng = np.random.default_rng(0)
        obs = random_obs(rng)
        for seed in range(100):
            nets = small_nets(seed=seed)
            out, _, _ = nets.act(nets.window_features(obs[None]), *zero_state([1]),
                                [np.random.default_rng(1)])
            assert out.probs.max() / out.probs.min() < 1.5

    def test_identical_inputs_give_identical_outputs(self):
        nets = small_nets()
        obs = random_obs(np.random.default_rng(3))
        v = zero_state([1])
        feat = nets.window_features(obs[None])
        o1, h1, _ = nets.act(feat, *v, [np.random.default_rng(7)])
        o2, h2, _ = nets.act(feat, *v, [np.random.default_rng(7)])
        assert o1.action == o2.action and o1.value == o2.value
        np.testing.assert_array_equal(o1.probs, o2.probs)
        np.testing.assert_array_equal(h1, h2)

    def test_probs_are_distribution(self):
        nets = small_nets()
        rng = np.random.default_rng(5)
        v_h, v_c = zero_state([1])
        for _ in range(10):
            out, v_h, v_c = nets.act(nets.window_features(random_obs(rng)[None]), v_h, v_c,
                                     [rng])
            assert abs(out.probs.sum() - 1.0) < 1e-9
            assert np.all(out.probs >= 0)

    def test_act_advances_v_only(self):
        nets = small_nets()
        v_h, v_c = zero_state([1])
        feat = nets.window_features(random_obs(np.random.default_rng(0))[None])
        _, h2, c2 = nets.act(feat, v_h, v_c, [np.random.default_rng(1)])
        np.testing.assert_array_equal(v_h, 0.0)
        np.testing.assert_array_equal(v_c, 0.0)
        assert h2.shape == c2.shape == v_h.shape
        assert not np.array_equal(h2, v_h)
        assert not np.array_equal(c2, v_c)

    def test_nan_logits_abort(self):
        nets = small_nets()
        nets.policy_head.bias.data[:] = np.nan
        with pytest.raises(FloatingPointError):
            nets.act(nets.window_features(random_obs(np.random.default_rng(0))[None]),
                     *zero_state([1]), [np.random.default_rng(1)])


class FixedUniform:
    """A generator stub that draws the uniform `u`."""
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestSampleFromProbs:
    def test_cumsum_short_of_one_draws_the_last_action(self):
        rng = np.random.default_rng(11)
        rows = stable_softmax(rng.normal(size=(200, 9)) * 3.0)
        top = np.nextafter(1.0, 0.0)        # the largest uniform a Generator draws
        short = [p for p in rows if np.cumsum(p)[-1] <= top]
        assert short, "no softmax row whose cumsum ends below the largest uniform"
        for probs in short:
            assert sample_from_probs(probs, FixedUniform(top)) == 8

    def test_in_range_draws_follow_the_cumsum(self):
        probs = np.array([0.25, 0.25, 0.5])
        for u, want in ((0.0, 0), (0.2499, 0), (0.25, 1), (0.5, 2), (0.9999, 2)):
            assert sample_from_probs(probs, FixedUniform(u)) == want


class TestMoaPredict:
    def test_blocks_are_distributions(self):
        nets = small_nets(n=4)
        joint = joint_one_hot([0, 3, 5, 8], 9)
        feat = nets.window_features(random_obs(np.random.default_rng(2)))
        probs, _, _ = nets.moa_predict(feat, joint, *zero_state())
        assert probs.shape == (3, 9)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_two_agents_one_block(self):
        nets = small_nets(n=2)
        feat = nets.window_features(random_obs(np.random.default_rng(2)))
        probs, _, _ = nets.moa_predict(feat, joint_one_hot([1, 2], 9), *zero_state())
        assert probs.shape == (1, 9)

    def test_wrong_joint_arity_rejected(self):
        nets = small_nets(n=2)
        with pytest.raises(ValueError):
            nets.moa_predict(nets.window_features(random_obs(np.random.default_rng(2))),
                             joint_one_hot([1, 2, 3], 9), *zero_state())

    def test_moa_advances_u_only(self):
        nets = small_nets()
        u_h, u_c = zero_state()
        feat = nets.window_features(random_obs(np.random.default_rng(0)))
        _, h2, c2 = nets.moa_predict(feat, joint_one_hot([0, 1], 9), u_h, u_c)
        np.testing.assert_array_equal(u_h, 0.0)
        np.testing.assert_array_equal(u_c, 0.0)
        assert h2.shape == c2.shape == u_h.shape
        assert not np.array_equal(h2, u_h)
        assert not np.array_equal(c2, u_c)

    def test_overfits_scripted_partner(self):
        # partner always moves up (action 0); MOA should learn p(up) > 0.9
        nets = small_nets(seed=4)
        rng = np.random.default_rng(0)
        observations = np.stack([random_obs(rng) for _ in range(8)])
        joints = np.stack([joint_one_hot([int(rng.integers(0, 9)), 0], 9)
                           for _ in range(8)])
        targets = np.zeros((8, 1), dtype=np.int64)
        mask = np.ones(8)
        u0 = np.zeros((8, SMALL.lstm_units))

        sections = ("encoder", "moa")
        opts = [Optimizer(nets.parameters(name), "adam", learning_rate=0.03)
                for name in sections]
        for _ in range(150):
            feat = nets.encode(Tensor(observations))
            loss = moa_loss_tape(nets, feat, Tensor(joints), Tensor(u0), Tensor(u0),
                                 targets, mask)
            grads = gradients(nets.parameters(*sections), loss)
            for name, opt in zip(sections, opts):
                opt.step({n: grads[n] for n, _ in nets.parameters(name)})

        probs, _, _ = nets.moa_predict(nets.window_features(observations[0]), joints[0],
                                       *zero_state())
        assert probs[0, 0] > 0.9


def moa_loss_on(nets, targets, seed=0):
    """The MOA tape loss on random rows of features, joint actions and
    states, every row valid; targets: (B, N-1) action indices."""
    targets = np.asarray(targets)
    B = targets.shape[0]
    rng = np.random.default_rng(seed)
    feat = rng.normal(size=(B, nets.q))
    joint = joint_one_hot(rng.integers(0, 9, size=(B, nets.num_agents)), 9)
    u = rng.normal(size=(B, SMALL.lstm_units)) * 0.1
    return float(moa_loss_tape(nets, Tensor(feat), joint, u, u, targets,
                               np.ones(B)).data)


def constant_moa_head(nets, logits):
    """Make the MOA head ignore its input and emit `logits` for every block."""
    nets.moa_head.weight.data[:] = 0.0
    nets.moa_head.bias.data = np.tile(logits, nets.num_agents - 1)
    return nets


class TestMoaLoss:
    def test_one_hot_correct_predictions(self):
        logits = np.zeros(9)
        logits[4] = 1e3
        nets = constant_moa_head(small_nets(n=4), logits)
        assert moa_loss_on(nets, [[4, 4, 4]]) <= 1e-9

    def test_uniform_predictions_equal_log_n_actions(self):
        nets = constant_moa_head(small_nets(n=3), np.zeros(9))
        assert moa_loss_on(nets, [[0, 5]]) == pytest.approx(np.log(9.0), abs=1e-12)

    def test_permutation_equivariant(self):
        # the mean over samples does not depend on their order
        nets = small_nets(n=3, seed=8)
        rng = np.random.default_rng(8)
        B = 4
        feat = rng.normal(size=(B, nets.q))
        joint = joint_one_hot(rng.integers(0, 9, size=(B, 3)), 9)
        u = rng.normal(size=(B, SMALL.lstm_units)) * 0.1
        actual = rng.integers(0, 9, size=(B, 2))
        perm = rng.permutation(B)
        loss = lambda idx: float(moa_loss_tape(nets, Tensor(feat[idx]), joint[idx], u[idx],
                                               u[idx], actual[idx], np.ones(B)).data)
        assert loss(np.arange(B)) == pytest.approx(loss(perm), abs=1e-12)

    def test_confident_miss_stays_finite(self):
        # p(true action) = exp(-1000) underflows to 0.0; the log-softmax
        # loss stays finite and equals the logit gap
        logits = np.zeros(9)
        logits[0] = 1e3
        nets = constant_moa_head(small_nets(n=2), logits)
        loss = moa_loss_on(nets, [[3]])
        assert np.isfinite(loss) and loss == pytest.approx(1e3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            moa_loss_on(small_nets(n=3), [[1, 2, 3]])


class TestArchitecture:
    def test_moa_head_arity_matches_agents(self):
        for n in (2, 3, 5):
            nets = small_nets(n=n)
            assert nets.moa_head.out_dim == (n - 1) * 9

    def test_default_sizes_match_full_scale_architecture(self):
        nets = AgentNets(view_size=15, num_actions=9, num_agents=5, seed=0)
        assert nets.q == 13 * 13 * 6 == 1014
        assert nets.ac_lstm.units == 128
        assert nets.ac_fc1.out_dim == 32
        assert nets.moa_head.out_dim == 4 * 9
        assert nets.inv_out.out_dim == 5 * 9
        assert nets.fwd_out.out_dim == 1014
        assert nets.fwd_fc1.in_dim == 1014 + 128 + 45

    def test_encoder_is_shared_parameter_tensor(self):
        nets = small_nets()
        feat_direct = nets.encode(np.ones((5, 5, 8)))
        nets.conv.kernel.data *= 2.0
        feat_scaled = nets.encode(np.ones((5, 5, 8)))
        assert not np.allclose(feat_direct, feat_scaled)

    def test_checkpoint_sections_cover_all_nets(self):
        nets = small_nets()
        assert set(nets.sections) == {"encoder", "actor_critic", "moa",
                                        "forward", "inverse"}
