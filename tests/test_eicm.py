"""Impact-module contracts: encoding, forward/inverse predictions, the
elimination computation, normalization, losses and their gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marl_lab.agents import AgentNets, NetSizes, joint_one_hot
from marl_lab.eicm import (
    eliminate, forward_loss_tape, forward_predict, impact_row, inverse_loss_tape,
    inverse_predict, normalize_impacts,
)
from marl_lab.nn import (
    Optimizer, OptimizerConfig, Tensor, finite_difference_check, gradients,
)

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


class TestEncode:
    def test_zero_observation_gives_zero_features(self):
        nets = small_nets()
        np.testing.assert_array_equal(nets.encode(np.zeros((5, 5, 8))),
                                      np.zeros(nets.q))

    def test_feature_length_for_full_scale_sizes(self):
        nets = AgentNets(view_size=15, num_actions=9, num_agents=2, seed=0)
        assert nets.encode(np.zeros((15, 15, 8))).shape == (1014,)

    def test_deterministic(self):
        nets = small_nets()
        obs = random_obs(np.random.default_rng(1))
        np.testing.assert_array_equal(nets.encode(obs), nets.encode(obs))


class TestForwardPredict:
    def test_zero_params_zero_prediction(self):
        nets = small_nets()
        for _, p in nets.forward_model.parameters():
            p.data[:] = 0.0
        phi = np.ones(nets.q)
        out = forward_predict(nets, phi, np.zeros(8), joint_one_hot([1, 2], 9))
        np.testing.assert_array_equal(out, np.zeros(nets.q))

    def test_prediction_length_is_q(self):
        nets = small_nets()
        out = forward_predict(nets, np.zeros(nets.q), np.zeros(8),
                              joint_one_hot([0, 0], 9))
        assert out.shape == (nets.q,)

    def test_arity_mismatch_rejected(self):
        nets = small_nets()
        with pytest.raises(ValueError):
            forward_predict(nets, np.zeros(nets.q), np.zeros(8), np.zeros(5))
        with pytest.raises(ValueError):
            forward_predict(nets, np.zeros(3), np.zeros(8), joint_one_hot([0, 0], 9))

    def test_overfit_one_transition(self):
        nets = small_nets(seed=2)
        rng = np.random.default_rng(0)
        obs_prev, obs_next = random_obs(rng), random_obs(rng)
        phi_prev = nets.encode(obs_prev)[None]
        phi_next = nets.encode(obs_next)[None]
        u = rng.normal(size=(1, 8)) * 0.1
        joint = joint_one_hot([3, 7], 9)[None]

        def loss_fn():
            return forward_loss_tape(nets, Tensor(phi_prev), Tensor(phi_next),
                                     Tensor(u), Tensor(joint))

        initial = float(loss_fn().data)
        opt = Optimizer(nets.forward_model, OptimizerConfig(kind="adam",
                                                            learning_rate=0.02))
        for _ in range(400):
            opt.step(gradients(nets.forward_model.parameters(), loss_fn()))
        assert float(loss_fn().data) < 1e-3 * initial


class TestElimination:
    def test_zeroed_input_weights_make_elimination_invisible(self):
        nets = small_nets()
        a = nets.num_actions
        block = slice(nets.q + 8 + 1 * a, nets.q + 8 + 2 * a)
        nets.fwd_fc1.weight.data[block, :] = 0.0
        phi = np.random.default_rng(0).normal(size=nets.q)
        joint = joint_one_hot([4, 6], 9)
        full = forward_predict(nets, phi, np.zeros(8), joint)
        without = forward_predict(nets, phi, np.zeros(8), eliminate(nets, joint, 1))
        np.testing.assert_array_equal(full, without)
        np.testing.assert_array_equal(impact_row(nets, phi, np.zeros(8), joint, 0)[1], [0.0])

    def test_elimination_differs_from_noop(self):
        # zeroing the block is not one-hot at the noop action
        nets = small_nets(seed=5)
        phi = np.random.default_rng(1).normal(size=nets.q)
        joint = joint_one_hot([0, 3], 9)
        noop_joint = joint_one_hot([0, 6], 9)   # action 6 is noop
        eliminated = forward_predict(nets, phi, np.zeros(8), eliminate(nets, joint, 1))
        noop = forward_predict(nets, phi, np.zeros(8), noop_joint)
        assert not np.allclose(eliminated, noop)

    def test_nonlinearity_witness(self):
        # sum of one-at-a-time elimination deltas != delta of eliminating all
        nets = small_nets(seed=7)
        rng = np.random.default_rng(2)
        phi = rng.normal(size=nets.q)
        u = rng.normal(size=8) * 0.2
        joint = joint_one_hot([2, 5], 9)
        full = forward_predict(nets, phi, u, joint)
        deltas = sum(full - forward_predict(nets, phi, u, eliminate(nets, joint, j))
                     for j in range(2))
        both = forward_predict(nets, phi, u, np.zeros_like(joint))
        assert not np.allclose(deltas, full - both)

    def test_raw_impact_hand_case(self):
        # crafted net: predictions differ by (1, -1) -> impact 0.5*2 = 1
        nets = small_nets()
        nets.q = 2
        nets.fwd_fc1.in_dim = 2 + 8 + 18
        nets.fwd_fc1.weight.data = np.zeros((28, 8))
        nets.fwd_fc1.bias.data = np.zeros(8)
        nets.fwd_fc1.weight.data[10 + 9, 0] = 2.0   # agent 1's one-hot at action 0
        nets.fwd_out.weight.data = np.zeros((8, 2))
        nets.fwd_out.in_dim, nets.fwd_out.out_dim = 8, 2
        nets.fwd_out.weight.data[0, 0] = 0.5
        nets.fwd_out.weight.data[0, 1] = -0.5
        nets.fwd_out.bias.data = np.zeros(2)
        joint = joint_one_hot([0, 0], 9)
        (impact,) = impact_row(nets, np.zeros(2), np.zeros(8), joint, 0)[1]
        assert impact == pytest.approx(1.0, abs=1e-12)

    def test_raw_impact_nonnegative_and_pure(self):
        nets = small_nets(seed=9)
        rng = np.random.default_rng(3)
        phi = rng.normal(size=nets.q)
        u = rng.normal(size=8) * 0.1
        joint = joint_one_hot([1, 8], 9)
        row1, raw1 = impact_row(nets, phi, u, joint, 0)
        row2, raw2 = impact_row(nets, phi, u, joint, 0)
        np.testing.assert_array_equal(row1, row2)
        np.testing.assert_array_equal(raw1, raw2)
        assert np.all(raw1 >= 0.0)

    def test_without_branch_ignores_stored_action_value(self):
        nets = small_nets(seed=11)
        phi = np.random.default_rng(4).normal(size=nets.q)
        u = np.zeros(8)
        j1 = joint_one_hot([0, 2], 9)
        j2 = joint_one_hot([0, 7], 9)   # only agent 1's action differs
        p1 = forward_predict(nets, phi, u, eliminate(nets, j1, 1))
        p2 = forward_predict(nets, phi, u, eliminate(nets, j2, 1))
        np.testing.assert_array_equal(p1, p2)

    def test_out_of_range_agent_rejected(self):
        nets = small_nets()
        with pytest.raises(ValueError):
            eliminate(nets, joint_one_hot([0, 0], 9), 2)
        with pytest.raises(ValueError):
            impact_row(nets, np.zeros(nets.q), np.zeros(8), joint_one_hot([0, 0], 9), 2)


class TestNormalizeImpacts:
    def test_hand_min_max(self):
        np.testing.assert_allclose(normalize_impacts([0.2, 0.5, 0.8]),
                                   [0.0, 0.5, 1.0], atol=1e-12)

    def test_degenerate_maps_to_ones(self):
        np.testing.assert_array_equal(normalize_impacts([0.3, 0.3]), [1.0, 1.0])
        np.testing.assert_array_equal(normalize_impacts([0.0, 0.0, 0.0]), [1.0, 1.0, 1.0])

    @given(hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(0, 1e6)))
    @settings(max_examples=200, deadline=None)
    def test_range_and_order_preservation(self, raw):
        out = normalize_impacts(raw)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        order = np.argsort(raw, kind="stable")
        assert np.all(np.diff(out[order]) >= -1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_impacts([-0.1, 0.5])


class TestInverseModel:
    def test_blocks_sum_to_one(self):
        nets = small_nets(n=3)
        rng = np.random.default_rng(1)
        probs = inverse_predict(nets, rng.normal(size=nets.q),
                                rng.normal(size=nets.q), rng.normal(size=8))
        assert probs.shape == (3, 9)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_overfit_one_transition(self):
        nets = small_nets(seed=6)
        rng = np.random.default_rng(2)
        phi_prev = rng.normal(size=(1, nets.q))
        phi_curr = rng.normal(size=(1, nets.q))
        u = np.zeros((1, 8))
        actions = np.array([[3, 5]])

        opt = Optimizer(nets.inverse_model, OptimizerConfig(kind="adam",
                                                            learning_rate=0.05))
        for _ in range(300):
            loss = inverse_loss_tape(nets, Tensor(phi_prev), Tensor(phi_curr),
                                     Tensor(u), actions)
            opt.step(gradients(nets.inverse_model.parameters(), loss))
        probs = inverse_predict(nets, phi_prev[0], phi_curr[0], u[0])
        assert probs[0, 3] > 0.99 and probs[1, 5] > 0.99


def loss_rows(nets, seed, B=1):
    """Random (feat_prev, feat_next, u, joint) rows for the tape losses."""
    rng = np.random.default_rng(seed)
    feat_prev, feat_next = rng.normal(size=(2, B, nets.q))
    u = rng.normal(size=(B, SMALL.lstm_units)) * 0.1
    joint = joint_one_hot(rng.integers(0, 9, size=(B, nets.num_agents)), 9)
    return feat_prev, feat_next, u, joint


def constant_output(dense, bias):
    """Make a Dense layer ignore its input and emit `bias`."""
    dense.weight.data[:] = 0.0
    dense.bias.data = np.asarray(bias, dtype=np.float64)


class TestLosses:
    def test_forward_loss_zero_when_equal(self):
        # the target is the plain-array prediction on the same rows: one
        # forward definition gives the tape the same bits, so L_F is exactly 0
        nets = small_nets()
        feat_prev, _, u, joint = loss_rows(nets, 0)
        target = forward_predict(nets, feat_prev, u, joint)
        assert float(forward_loss_tape(nets, Tensor(feat_prev), target, u, joint).data) == 0.0

    def test_forward_loss_hand_norm(self):
        nets = small_nets()
        out = np.zeros(nets.q)
        out[0] = 1.0
        constant_output(nets.fwd_out, out)
        feat_prev, _, u, joint = loss_rows(nets, 1)
        target = np.zeros((1, nets.q))
        target[0, 1] = 1.0
        loss = forward_loss_tape(nets, Tensor(feat_prev), target, u, joint)
        assert float(loss.data) == pytest.approx(1.0, abs=1e-15)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_forward_loss_nonnegative(self, seed, scale):
        nets = small_nets()
        feat_prev, feat_next, u, joint = loss_rows(nets, seed, B=3)
        loss = forward_loss_tape(nets, Tensor(feat_prev * scale), feat_next * scale, u, joint)
        assert float(loss.data) >= 0.0

    def test_inverse_loss_perfect_predictions(self):
        nets = small_nets(n=3)
        logits = np.zeros((3, 9))
        logits[0, 1] = logits[1, 4] = logits[2, 8] = 1e3
        constant_output(nets.inv_out, logits.ravel())
        feat_prev, feat_next, u, _ = loss_rows(nets, 2)
        loss = inverse_loss_tape(nets, Tensor(feat_prev), feat_next, u, [[1, 4, 8]])
        assert float(loss.data) <= 1e-9

    def test_inverse_loss_uniform_five_agents(self):
        nets = small_nets(n=5)
        constant_output(nets.inv_out, np.zeros(5 * 9))
        feat_prev, feat_next, u, _ = loss_rows(nets, 3)
        loss = inverse_loss_tape(nets, Tensor(feat_prev), feat_next, u, [[0, 1, 2, 3, 4]])
        assert float(loss.data) == pytest.approx(5 * np.log(9.0), abs=1e-12)

    def test_inverse_loss_nonnegative(self):
        rng = np.random.default_rng(4)
        nets = small_nets(n=4, seed=4)
        for seed in range(20):
            feat_prev, feat_next, u, _ = loss_rows(nets, seed, B=2)
            loss = inverse_loss_tape(nets, Tensor(feat_prev), feat_next, u,
                                     rng.integers(0, 9, size=(2, 4)))
            assert float(loss.data) >= 0.0


def margin_safe_instance(seed0, count=1, batch=2):
    """Scan seeds for (nets, obs_prev, obs_next, u) instances whose ReLU
    preactivations stay >= 1e-2 away from zero, so central differences with
    epsilon 1e-4 cannot cross a kink."""
    from helpers import conv_linear_response

    found = []
    seed = seed0
    while len(found) < count:
        seed += 1
        rng = np.random.default_rng(seed)
        nets = small_nets(seed=seed)
        obs_prev = np.stack([random_obs(rng) for _ in range(batch)])
        obs_next = np.stack([random_obs(rng) for _ in range(batch)])
        u = rng.normal(size=(batch, 8)) * 0.1
        stacked = np.concatenate([obs_prev, obs_next])
        lin = conv_linear_response(stacked, nets.conv.kernel.data, nets.conv.bias.data)
        if np.abs(lin).min() < 1e-2:
            continue
        feats = nets.conv.apply(stacked).reshape(2 * batch, -1)
        joint = np.stack([joint_one_hot(np.random.default_rng(seed + 1).integers(0, 9, 2), 9)
                          for _ in range(batch)])
        fwd_in = np.concatenate([feats[:batch], u, joint], axis=-1)
        if np.abs(fwd_in @ nets.fwd_fc1.weight.data + nets.fwd_fc1.bias.data).min() < 1e-2:
            continue
        inv_in = np.concatenate([feats[:batch], feats[batch:], u], axis=-1)
        if np.abs(inv_in @ nets.inv_fc1.weight.data + nets.inv_fc1.bias.data).min() < 1e-2:
            continue
        found.append((nets, obs_prev, obs_next, u, joint))
    return found


class TestGradients:
    def test_forward_loss_gradients_reach_encoder_and_forward_params(self):
        for nets, obs_prev, obs_next, u, joint in margin_safe_instance(0, count=2):
            def loss_fn():
                feat_prev = nets.encode(Tensor(obs_prev))
                feat_next = nets.encode(Tensor(obs_next))
                return forward_loss_tape(nets, feat_prev, feat_next, Tensor(u),
                                         Tensor(joint))

            params = nets.forward_model.parameters() + nets.encoder.parameters()
            err = finite_difference_check(loss_fn, params, epsilon=1e-4)
            assert err < 1e-4

    def test_inverse_loss_gradients_reach_encoder_and_inverse_params(self):
        for nets, obs_prev, obs_next, u, joint in margin_safe_instance(50, count=2):
            actions = np.array([[1, 2], [0, 6]])

            def loss_fn():
                feat_prev = nets.encode(Tensor(obs_prev))
                feat_next = nets.encode(Tensor(obs_next))
                return inverse_loss_tape(nets, feat_prev, feat_next, Tensor(u), actions)

            params = nets.inverse_model.parameters() + nets.encoder.parameters()
            err = finite_difference_check(loss_fn, params, epsilon=1e-4)
            assert err < 1e-4
