"""Layer-level oracles: hand-evaluated conv / dense / LSTM cases on layers
whose parameters are set by hand, softmax normalization, optimizer updates,
checkpoint round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marl_lab.nn import (
    ComputationGraph, Conv2d, Dense, LSTMCell, Optimizer, OptimizerConfig,
    ShapeError, Tensor, load_checkpoint, read_manifest, save_checkpoint,
)
from marl_lab.nn import tensor as T


def conv(kernel, bias):
    lay = Conv2d("conv", kernel.shape[2], kernel.shape[3], np.random.default_rng(0))
    lay.kernel.data, lay.bias.data = kernel, bias
    return lay


def dense(weights, bias, activation="linear"):
    lay = Dense("dense", *weights.shape, np.random.default_rng(0), activation=activation)
    lay.weight.data, lay.bias.data = weights, bias
    return lay


def lstm(w_x, w_h, bias):
    lay = LSTMCell("lstm", w_x.shape[0], w_h.shape[0], np.random.default_rng(0))
    lay.w_x.data, lay.w_h.data, lay.bias.data = w_x, w_h, bias
    return lay


class TestConv2dForward:
    def test_zero_input_gives_zero_output(self, rng):
        x = np.zeros((1, 6, 5, 1))
        k = rng.normal(size=(3, 3, 1, 4))
        out = conv(k, np.zeros(4)).apply(x)
        assert out.shape == (1, 4, 3, 4)
        assert np.all(out == 0.0)

    def test_center_identity_kernel_reproduces_interior(self, rng):
        x = rng.uniform(0.0, 2.0, size=(1, 7, 7, 1))
        k = np.zeros((3, 3, 1, 1))
        k[1, 1, 0, 0] = 1.0
        out = conv(k, np.zeros(1)).apply(x)
        np.testing.assert_array_equal(out[0, :, :, 0], x[0, 1:-1, 1:-1, 0])

    def test_all_ones_4x4_sums_to_nine(self):
        # hand oracle: each 3x3 patch of ones dotted with a ones kernel is 9
        out = conv(np.ones((3, 3, 1, 1)), np.zeros(1)).apply(np.ones((1, 4, 4, 1)))
        assert out.shape == (1, 2, 2, 1)
        np.testing.assert_array_equal(out, np.full((1, 2, 2, 1), 9.0))

    def test_shape_mismatch_rejected(self):
        lay = conv(np.zeros((3, 3, 1, 1)), np.zeros(1))
        with pytest.raises(ShapeError):
            lay.apply(np.zeros((1, 4, 4, 2)))
        with pytest.raises(ShapeError):
            lay.apply(np.zeros((1, 2, 4, 1)))
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.zeros((1, 4, 4, 1))), Tensor(np.zeros((5, 5, 1, 1))),
                     Tensor(np.zeros(1)))


class TestDenseForward:
    def test_zero_weights_and_bias(self):
        out = dense(np.zeros((3, 2)), np.zeros(2)).apply(np.array([1.0, -2.0, 3.0]))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_identity_map(self):
        x = np.array([0.3, -1.2, 5.0])
        out = dense(np.eye(3), np.zeros(3), activation="linear").apply(x)
        np.testing.assert_array_equal(out, x)

    def test_hand_matrix_multiply(self):
        # x=(1,2), rows of the mapping (1,0),(0,1),(1,1), b=(0,0,1), relu -> (1,2,4)
        x = np.array([1.0, 2.0])
        W = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]).T  # stored as (n, m)
        b = np.array([0.0, 0.0, 1.0])
        out = dense(W, b, activation="relu").apply(x)
        np.testing.assert_array_equal(out, np.array([1.0, 2.0, 4.0]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            dense(np.zeros((4, 2)), np.zeros(2)).apply(np.zeros(3))


class TestLSTMStep:
    def test_zero_params_zero_state_give_zero_output(self):
        cell = lstm(np.zeros((2, 12)), np.zeros((3, 12)), np.zeros(12))
        h, c = cell.apply(np.zeros(2), np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros(3))
        np.testing.assert_array_equal(c, np.zeros(3))

    def test_zero_is_fixed_point_of_zero_params(self):
        cell = lstm(np.zeros((2, 12)), np.zeros((3, 12)), np.zeros(12))
        h, c = np.zeros(3), np.zeros(3)
        for _ in range(5):
            h, c = cell.apply(np.zeros(2), h, c)
        np.testing.assert_array_equal(h, np.zeros(3))

    def test_scalar_gate_by_gate_oracle(self):
        # 1-unit cell, gate order (i, f, g, o); evaluated by hand below.
        w_x = np.array([[0.5, -0.3, 0.8, 0.2]])
        w_h = np.array([[0.1, 0.4, -0.2, 0.3]])
        b = np.array([0.05, -0.1, 0.2, 0.0])
        h0, c0 = 0.3, -0.5
        h1, c1 = lstm(w_x, w_h, b).apply(np.array([1.0]), np.array([h0]), np.array([c0]))

        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        i = sig(1.0 * 0.5 + h0 * 0.1 + 0.05)
        f = sig(1.0 * -0.3 + h0 * 0.4 - 0.1)
        g = math.tanh(1.0 * 0.8 + h0 * -0.2 + 0.2)
        o = sig(1.0 * 0.2 + h0 * 0.3 + 0.0)
        c_ref = f * c0 + i * g
        h_ref = o * math.tanh(c_ref)
        assert abs(c1[0] - c_ref) < 1e-12
        assert abs(h1[0] - h_ref) < 1e-12

    def test_nonfinite_state_rejected(self):
        cell = lstm(np.zeros((2, 12)), np.zeros((3, 12)), np.zeros(12))
        with pytest.raises(ValueError):
            cell.apply(np.zeros(2), np.array([np.nan, 0.0, 0.0]), np.zeros(3))

    def test_tape_and_apply_paths_agree_bitwise(self, rng):
        cell = LSTMCell("lstm", 3, 4, rng)
        x = rng.normal(size=(2, 3))
        h = rng.normal(size=(2, 4)) * 0.1
        c = rng.normal(size=(2, 4)) * 0.1
        th, tc = cell.forward(Tensor(x), Tensor(h), Tensor(c))
        ah, ac = cell.apply(x, h, c)
        np.testing.assert_array_equal(th.data, ah)
        np.testing.assert_array_equal(tc.data, ac)


class TestSoftmax:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rows_are_distributions(self, seed):
        logits = np.random.default_rng(seed).normal(scale=3.0, size=(4, 9))
        p = T.softmax(Tensor(logits)).data
        assert np.all(p >= 0.0)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)

    def test_forward_pass_is_pure(self, rng):
        lay = Dense("d", 5, 3, rng)
        x = rng.normal(size=(2, 5))
        np.testing.assert_array_equal(lay.apply(x), lay.apply(x))


class TestOptimizer:
    def _graph_with_param(self, value):
        g = ComputationGraph("g", seed=0)
        lay = Dense("p", 1, 1, np.random.default_rng(0), activation="linear")
        lay.weight.data = np.array([[value]])
        g.add(lay)
        return g, lay

    def test_zero_gradient_leaves_params_unchanged(self):
        g, lay = self._graph_with_param(1.5)
        opt = Optimizer(g, OptimizerConfig(kind="adam", learning_rate=0.1))
        before = lay.weight.data.copy()
        opt.step({"p.weight": np.zeros((1, 1)), "p.bias": np.zeros(1)})
        np.testing.assert_array_equal(lay.weight.data, before)

    def test_sgd_definition(self):
        g, lay = self._graph_with_param(1.0)
        opt = Optimizer(g, OptimizerConfig(kind="sgd", learning_rate=0.1))
        opt.step({"p.weight": np.array([[2.0]]), "p.bias": np.zeros(1)})
        assert lay.weight.data[0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_adam_first_step_is_bias_corrected_lr(self):
        g, lay = self._graph_with_param(1.0)
        opt = Optimizer(g, OptimizerConfig(kind="adam", learning_rate=1e-3))
        opt.step({"p.weight": np.array([[1.0]]), "p.bias": np.zeros(1)})
        # m_hat = 1, v_hat = 1 -> delta = lr / (1 + eps)
        assert lay.weight.data[0, 0] == pytest.approx(1.0 - 1e-3, abs=1e-9)

    def test_nonfinite_gradient_aborts(self):
        g, _ = self._graph_with_param(1.0)
        opt = Optimizer(g, OptimizerConfig())
        with pytest.raises(FloatingPointError):
            opt.step({"p.weight": np.array([[np.inf]]), "p.bias": np.zeros(1)})

    def test_global_norm_clip(self):
        g, lay = self._graph_with_param(0.0)
        opt = Optimizer(g, OptimizerConfig(kind="sgd", learning_rate=1.0,
                                           grad_clip_norm=1.0))
        opt.step({"p.weight": np.array([[3.0]]), "p.bias": np.array([4.0])})
        # norm 5 -> scaled by 1/5
        assert lay.weight.data[0, 0] == pytest.approx(-0.6, abs=1e-12)
        assert lay.bias.data[0] == pytest.approx(-0.8, abs=1e-12)

    def test_adam_two_steps_match_hand_adam(self):
        g, lay = self._graph_with_param(1.0)
        opt = Optimizer(g, OptimizerConfig(kind="adam", learning_rate=1e-3))
        grads = {"p.weight": np.array([[1.0]]), "p.bias": np.zeros(1)}
        opt.step(grads)
        first = lay.weight.data[0, 0]
        assert first == pytest.approx(1.0 - 1e-3, abs=1e-9)
        opt.step(grads)
        # constant gradient: m_hat = v_hat = 1 again -> the same step
        assert lay.weight.data[0, 0] < first
        assert lay.weight.data[0, 0] == pytest.approx(1.0 - 2e-3, abs=1e-9)

    def test_gradient_shape_mismatch_rejected(self):
        g, _ = self._graph_with_param(1.0)
        opt = Optimizer(g, OptimizerConfig())
        with pytest.raises(ValueError):
            opt.step({"p.weight": np.zeros(3), "p.bias": np.zeros(1)})


class TestCheckpoint:
    def _build(self, seed):
        rng = np.random.default_rng(seed)
        g = ComputationGraph("net", seed=seed)
        g.add(Conv2d("enc", 2, 3, rng))
        g.add(Dense("fc", 27, 4, rng))
        g.add(LSTMCell("mem", 4, 4, rng))
        return g

    def test_round_trip_is_bit_exact(self, tmp_path):
        g = self._build(7)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, {"net": g}, meta={"step": 3})
        g2 = self._build(99)   # different init, must be overwritten exactly
        load_checkpoint(path, {"net": g2})
        for (n1, p1), (n2, p2) in zip(g.parameters(), g2.parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_manifest_records_nodes_shapes_seed(self, tmp_path):
        g = self._build(7)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, {"net": g})
        man = read_manifest(path)
        sec = man["sections"][0]
        assert sec["seed"] == 7
        assert [n["kind"] for n in sec["nodes"]] == ["Conv2d", "Dense", "LSTMCell"]
        assert sec["params"][0]["shape"] == [3, 3, 2, 3]

    def test_section_mismatch_rejected(self, tmp_path):
        g = self._build(7)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, {"net": g})
        from marl_lab.nn import CheckpointError
        with pytest.raises(CheckpointError):
            load_checkpoint(path, {"other": self._build(7)})

    def test_save_twice_is_byte_identical(self, tmp_path):
        g = self._build(7)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, {"net": g}, meta={"step": 1})
        save_checkpoint(p2, {"net": g}, meta={"step": 1})
        assert p1.read_bytes() == p2.read_bytes()
