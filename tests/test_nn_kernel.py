"""Layer-level oracles: hand-evaluated conv / dense / LSTM cases on layers
whose parameters are set by hand, the one-forward-definition contract (an op,
a layer or a net stack called on arrays returns the bytes its Tensor call
holds in `.data`), optimizer updates, checkpoint round trips, truncated,
padded or half-saved checkpoint files, and the kernel's place below the envs."""

import math
import os
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marl_lab.agents import AgentNets, NetSizes, joint_one_hot
from marl_lab.nn import (
    CheckpointError, Conv2d, Dense, LSTMCell, Optimizer,
    ShapeError, Tensor, load_checkpoint, read_manifest, save_checkpoint,
)
from marl_lab.nn import tensor as T

from helpers import (
    ReferenceOptimizer, malformed_manifests, run_python, write_checkpoint_header,
)


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
        # one apply for both paths: Tensor input records on the tape, array
        # input returns arrays, and the bytes agree for the update-shaped
        # (B, n) rows and the rollout-shaped (W, 1, n) rows alike
        cell = LSTMCell("lstm", 3, 4, rng)
        dense = Dense("dense", 3, 5, rng)
        for lead in ((2,), (4, 1)):
            x = rng.normal(size=lead + (3,))
            h = rng.normal(size=lead + (4,)) * 0.1
            c = rng.normal(size=lead + (4,)) * 0.1
            th, tc = cell.apply(Tensor(x), Tensor(h), Tensor(c))
            ah, ac = cell.apply(x, h, c)
            assert type(ah) is np.ndarray and type(ac) is np.ndarray
            assert th.needs_grad and tc.needs_grad
            assert th.data.tobytes() == ah.tobytes() and th.data.shape == ah.shape
            assert tc.data.tobytes() == ac.tobytes()
            assert dense.apply(Tensor(x)).data.tobytes() == dense.apply(x).tobytes()
        for shape in ((3, 5, 5, 2), (4, 1, 5, 5, 2)):
            lay = Conv2d("conv", 2, 3, rng)
            x = rng.normal(size=shape)
            out = lay.apply(x)
            assert type(out) is np.ndarray and out.shape == shape[:-3] + (3, 3, 3)
            assert lay.apply(Tensor(x)).data.tobytes() == out.tobytes()


def _op_cases(rng, lead):
    """(name, op, operands) for every op the layers and losses use, on rows
    along `lead`: (B,) for update minibatches, (W, 1) for lockstep rollouts."""
    x = rng.normal(size=lead + (6,))
    y = rng.normal(size=lead + (6,))
    w = rng.normal(size=(6, 4))
    b = rng.normal(size=4)
    idx = rng.integers(0, 6, size=lead)
    return [
        ("matmul", T.matmul, (x, w)),
        ("add", T.add, (x, y)),
        ("add broadcast", T.add, (T.matmul(x, w), b)),
        ("sub", T.sub, (x, y)),
        ("mul", T.mul, (x, y)),
        ("relu", T.relu, (x,)),
        ("sigmoid", T.sigmoid, (x,)),
        ("tanh", T.tanh, (x,)),
        ("exp", T.exp, (x,)),
        ("log", T.log, (np.abs(x) + 0.1,)),
        ("slice_last", lambda t: T.slice_last(t, 2, 5), (x,)),
        ("concat", lambda s, t: T.concat([s, t], axis=-1), (x, y)),
        ("reshape", lambda t: T.reshape(t, (-1, 3)), (x,)),
        ("tsum", lambda t: T.tsum(t, axis=-1), (x,)),
        ("tmean", lambda t: T.tmean(t, axis=-1), (x,)),
        ("minimum", T.minimum, (x, y)),
        ("clip", lambda t: T.clip(t, -0.5, 0.5), (x,)),
        ("gather_last", lambda t: T.gather_last(t, idx), (x,)),
        ("log_softmax", T.log_softmax, (x,)),
    ]


class TestOneForwardDefinition:
    """Called on arrays, an op returns a plain ndarray and records nothing;
    its bytes are those of `.data` of the same op called on Tensors."""

    @pytest.mark.parametrize("lead", [(5,), (4, 1)], ids=["update_rows", "rollout_rows"])
    def test_ops_plain_call_equals_tape_data(self, rng, lead):
        for name, op, args in _op_cases(rng, lead):
            plain = op(*args)
            traced = op(*[Tensor(a, needs_grad=True) for a in args])
            assert type(plain) is np.ndarray, name
            assert isinstance(traced, Tensor) and traced.needs_grad, name
            assert plain.shape == traced.data.shape, name
            assert plain.tobytes() == traced.data.tobytes(), name

    @pytest.mark.parametrize("shape", [(3, 5, 5, 2), (4, 1, 5, 5, 2)],
                             ids=["update_batch", "rollout_stack"])
    def test_conv2d_plain_call_equals_tape_data(self, rng, shape):
        x, k, b = rng.normal(size=shape), rng.normal(size=(3, 3, 2, 3)), rng.normal(size=3)
        plain = T.conv2d(x, k, b)
        traced = T.conv2d(Tensor(x), Tensor(k, needs_grad=True), Tensor(b, needs_grad=True))
        assert type(plain) is np.ndarray
        assert plain.tobytes() == traced.data.tobytes()

    def test_stacked_matmul_rows_match_lone_rows(self, rng):
        # (W, 1, n) operands make one BLAS call per row, on either path
        x, w = rng.normal(size=(4, 1, 6)), rng.normal(size=(6, 3))
        lone = np.stack([T.matmul(x[i], w) for i in range(4)])
        assert T.matmul(x, w).tobytes() == lone.tobytes()
        assert T.matmul(Tensor(x), Tensor(w)).data.tobytes() == lone.tobytes()

    def test_stacked_matmul_gradient(self, rng):
        # the weight gradient of stacked rows sums every row's outer product
        x, w = rng.normal(size=(4, 1, 6)), Tensor(rng.normal(size=(6, 3)), needs_grad=True)
        grad = T.tsum(T.matmul(Tensor(x), w)).backward()[id(w)]
        np.testing.assert_allclose(grad, np.repeat(x.reshape(4, 6).sum(0)[:, None], 3, 1),
                                   atol=1e-12)

    @pytest.mark.parametrize("lead", [(5,), (4, 1)], ids=["update_rows", "rollout_rows"])
    def test_net_stacks_plain_call_equals_tape_data(self, lead):
        sizes = NetSizes(conv_filters=2, fc_units=8, lstm_units=8, eicm_hidden=8)
        nets = AgentNets(view_size=5, num_actions=9, num_agents=3, seed=3, sizes=sizes)
        rng = np.random.default_rng(5)
        obs = rng.normal(size=lead + (5, 5, 8))
        feat, feat_next = rng.normal(size=(2,) + lead + (nets.q,))
        h, c = rng.normal(size=(2,) + lead + (8,)) * 0.1
        joint = joint_one_hot(rng.integers(0, 9, size=lead + (3,)), 9)
        stacks = [
            ("encode", nets.encode, (obs,)),
            ("actor_critic", nets.run_actor_critic, (feat, h, c)),
            ("moa", nets.run_moa, (feat, joint, h, c)),
            ("forward_model", nets.run_forward_model, (feat, h, joint)),
            ("inverse_model", nets.run_inverse_model, (feat, feat_next, h)),
        ]
        for name, stack, args in stacks:
            plain = stack(*args)
            traced = stack(Tensor(args[0]), *args[1:])
            plain = plain if isinstance(plain, tuple) else (plain,)
            traced = traced if isinstance(traced, tuple) else (traced,)
            for p, t in zip(plain, traced):
                assert type(p) is np.ndarray and isinstance(t, Tensor), name
                assert p.tobytes() == t.data.tobytes() and p.shape == t.data.shape, name


class TestTapeLifetime:
    """Backward consumes the tape: each node drops its vjp and parents."""

    def test_backward_releases_every_recorded_node(self, rng):
        w = Tensor(rng.normal(size=(4, 3)), needs_grad=True)
        hidden = T.relu(T.matmul(Tensor(rng.normal(size=(5, 4))), w))
        loss = T.tsum(T.mul(hidden, hidden))
        ref = weakref.ref(hidden)
        del hidden
        leaves = loss.backward()
        assert ref() is None
        assert loss._parents == () and loss._vjp is None
        assert leaves[id(w)] is not None

    @pytest.mark.parametrize("shape", [(3, 5, 5, 2), (4, 1, 5, 5, 2)],
                             ids=["update_batch", "rollout_stack"])
    def test_conv_kernel_gradient_is_the_im2col_product(self, rng, shape):
        # the vjp rebuilds the patch matrix from its strided view of the input
        x, k, b = rng.normal(size=shape), rng.normal(size=(3, 3, 2, 3)), rng.normal(size=3)
        kernel = Tensor(k, needs_grad=True)
        out = T.conv2d(Tensor(x), kernel, Tensor(b, needs_grad=True))
        g = rng.normal(size=out.shape)
        grad = T.tsum(T.mul(out, g)).backward()[id(kernel)]
        H, W, C = shape[-3:]
        images = x.reshape((-1, H, W, C))
        patches = np.array([images[n, i:i + 3, j:j + 3, :].reshape(-1)
                            for n in range(images.shape[0])
                            for i in range(H - 2) for j in range(W - 2)])
        want = (patches.T @ g.reshape(-1, 3)).reshape(3, 3, 2, 3)
        assert grad.tobytes() == want.tobytes()


class TestSoftmax:
    def test_forward_pass_is_pure(self, rng):
        lay = Dense("d", 5, 3, rng)
        x = rng.normal(size=(2, 5))
        np.testing.assert_array_equal(lay.apply(x), lay.apply(x))


class TestOptimizer:
    def _graph_with_param(self, value):
        lay = Dense("p", 1, 1, np.random.default_rng(0), activation="linear")
        lay.weight.data = np.array([[value]])
        return lay.params(), lay

    def test_zero_gradient_leaves_params_unchanged(self):
        g, lay = self._graph_with_param(1.5)
        opt = Optimizer(g, "adam", learning_rate=0.1)
        before = lay.weight.data.copy()
        opt.step({"p.weight": np.zeros((1, 1)), "p.bias": np.zeros(1)})
        np.testing.assert_array_equal(lay.weight.data, before)

    def test_sgd_definition(self):
        g, lay = self._graph_with_param(1.0)
        opt = Optimizer(g, "sgd", learning_rate=0.1)
        opt.step({"p.weight": np.array([[2.0]]), "p.bias": np.zeros(1)})
        assert lay.weight.data[0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_adam_first_step_is_bias_corrected_lr(self):
        g, lay = self._graph_with_param(1.0)
        opt = Optimizer(g, "adam", learning_rate=1e-3)
        opt.step({"p.weight": np.array([[1.0]]), "p.bias": np.zeros(1)})
        # m_hat = 1, v_hat = 1 -> delta = lr / (1 + eps)
        assert lay.weight.data[0, 0] == pytest.approx(1.0 - 1e-3, abs=1e-9)

    def test_nonfinite_gradient_aborts(self):
        g, lay = self._graph_with_param(1.0)
        opt = Optimizer(g, "adam", learning_rate=3e-4)
        opt.step({"p.weight": np.array([[1.0]]), "p.bias": np.zeros(1)})
        before = lay.weight.data.copy()
        with pytest.raises(FloatingPointError, match=re.escape(
                "non-finite gradient for p.bias at optimizer step 1")):
            opt.step({"p.weight": np.array([[1.0]]), "p.bias": np.array([np.nan])})
        assert lay.weight.data.tobytes() == before.tobytes()

    def test_global_norm_clip(self):
        g, lay = self._graph_with_param(0.0)
        opt = Optimizer(g, "sgd", learning_rate=1.0, grad_clip_norm=1.0)
        opt.step({"p.weight": np.array([[3.0]]), "p.bias": np.array([4.0])})
        # norm 5 -> scaled by 1/5
        assert lay.weight.data[0, 0] == pytest.approx(-0.6, abs=1e-12)
        assert lay.bias.data[0] == pytest.approx(-0.8, abs=1e-12)

    def test_adam_two_steps_match_hand_adam(self):
        g, lay = self._graph_with_param(1.0)
        opt = Optimizer(g, "adam", learning_rate=1e-3)
        grads = {"p.weight": np.array([[1.0]]), "p.bias": np.zeros(1)}
        opt.step(grads)
        first = lay.weight.data[0, 0]
        assert first == pytest.approx(1.0 - 1e-3, abs=1e-9)
        opt.step(grads)
        # constant gradient: m_hat = v_hat = 1 again -> the same step
        assert lay.weight.data[0, 0] < first
        assert lay.weight.data[0, 0] == pytest.approx(1.0 - 2e-3, abs=1e-9)

    def test_unknown_kind_rejected(self):
        g, _ = self._graph_with_param(1.0)
        with pytest.raises(ValueError, match="unknown optimizer kind 'rmsprop'"):
            Optimizer(g, "rmsprop", learning_rate=0.1)

    def test_gradient_shape_mismatch_rejected(self):
        g, _ = self._graph_with_param(1.0)
        opt = Optimizer(g, "adam", learning_rate=3e-4)
        with pytest.raises(ValueError, match=re.escape(
                "gradient/parameter shape mismatch for p.weight: (3,) != (1, 1)")):
            opt.step({"p.weight": np.zeros(3), "p.bias": np.zeros(1)})

    def test_every_parameter_needs_one_gradient(self):
        g, _ = self._graph_with_param(1.0)
        opt = Optimizer(g, "sgd", learning_rate=0.1)
        with pytest.raises(ValueError, match="1 gradients for 2 parameters"):
            opt.step({"p.weight": np.zeros((1, 1))})
        with pytest.raises(KeyError, match="p.bias"):
            opt.step({"p.weight": np.zeros((1, 1)), "q.bias": np.zeros(1)})

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    @pytest.mark.parametrize("clip", [None, 1.0])
    def test_flat_vector_matches_the_per_array_reference(self, kind, clip):
        sizes = NetSizes(conv_filters=2, fc_units=8, lstm_units=8, eicm_hidden=8)
        nets = AgentNets(view_size=5, num_actions=9, num_agents=3, seed=3, sizes=sizes)
        ref = ReferenceOptimizer(nets.parameters(), kind, 1e-2, clip)
        opt = Optimizer(nets.parameters(), kind, 1e-2, clip)
        rng = np.random.default_rng(11)
        for step in range(3):
            # magnitudes spread over 8 decades, so a norm summed in another
            # order than per parameter, in order, reads other bits
            grads = {name: rng.normal(size=p.shape) * 10.0 ** rng.uniform(-4, 4)
                     for name, p in nets.parameters()}
            if step == 1:   # gradients in another memory order, as a vjp may return
                grads = {name: np.asfortranarray(g) for name, g in grads.items()}
            norm = opt.step(grads)
            assert norm == ref.step(grads)
            assert clip is None or norm > clip     # the clip triggers
            for name, p in nets.parameters():
                assert p.data.tobytes() == ref.params[name].tobytes(), (step, name)
        assert all(np.shares_memory(p.data, opt.vector) for _, p in nets.parameters())
        assert opt.vector.size == sum(p.data.size for _, p in nets.parameters())


class TestCheckpoint:
    def _build(self, seed):
        rng = np.random.default_rng(seed)
        return [Conv2d("enc", 2, 3, rng), Dense("fc", 27, 4, rng), LSTMCell("mem", 4, 4, rng)]

    def test_round_trip_is_bit_exact(self, tmp_path):
        g = self._build(7)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, {"net": g}, meta={"step": 3})
        g2 = self._build(99)   # different init, must be overwritten exactly
        load_checkpoint(path, {"net": g2})
        pairs = [[pair for lay in layers for pair in lay.params()] for layers in (g, g2)]
        for (n1, p1), (n2, p2) in zip(*pairs):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_manifest_records_nodes_shapes_seed(self, tmp_path):
        g = self._build(7)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, {"net": g}, seed=7)
        man = read_manifest(path)
        sec = man["sections"][0]
        assert sec["seed"] == 7
        assert [n["kind"] for n in sec["nodes"]] == ["Conv2d", "Dense", "LSTMCell"]
        assert sec["params"][0]["shape"] == [3, 3, 2, 3]

    def test_section_mismatch_rejected(self, tmp_path):
        g = self._build(7)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, {"net": g})
        with pytest.raises(CheckpointError):
            load_checkpoint(path, {"other": self._build(7)})

    def test_short_length_field_rejected(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"MARLCKP1" + b"\x01")
        with pytest.raises(CheckpointError):
            read_manifest(path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, {"net": self._build(7)})

    def test_cut_or_undecodable_manifest_rejected(self, tmp_path):
        good = tmp_path / "good.ckpt"
        save_checkpoint(good, {"net": self._build(7)})
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(good.read_bytes()[:40])
        garbled = tmp_path / "garbled.ckpt"
        garbled.write_bytes(b"MARLCKP1" + (2).to_bytes(8, "little") + b"\xff\xfe")
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(b"MARLCKP1" + (3).to_bytes(8, "little") + b"{x}")
        for path in (cut, garbled, broken):
            with pytest.raises(CheckpointError):
                read_manifest(path)
            with pytest.raises(CheckpointError):
                load_checkpoint(path, {"net": self._build(7)})

    def test_bytes_after_the_last_tensor_rejected(self, tmp_path):
        path = tmp_path / "padded.ckpt"
        save_checkpoint(path, {"net": self._build(7)})
        path.write_bytes(path.read_bytes() + bytes(64))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: unexpected bytes")):
            load_checkpoint(path, {"net": self._build(7)})

    def test_shape_mismatch_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, {"net": self._build(7)})
        target = [Conv2d("enc", 2, 5, np.random.default_rng(0)), *self._build(7)[1:]]
        before = [p.data.copy() for lay in target for _, p in lay.params()]
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: net: shape mismatch for enc.kernel: (3, 3, 2, 3) != (3, 3, 2, 5)")):
            load_checkpoint(path, {"net": target})
        # nothing is assigned until the whole file has checked out
        after = [p.data for lay in target for _, p in lay.params()]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))

    @pytest.mark.parametrize("repeat", ["section", "parameter"])
    def test_name_listed_twice_rejected_naming_it(self, tmp_path, repeat):
        # A consistent file that lists a section, or one parameter, twice
        # (its tensors written twice too) would otherwise load the later copy.
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, {"net": self._build(7)})
        raw = path.read_bytes()
        tensors = raw[16 + int.from_bytes(raw[8:16], "little"):]
        manifest = read_manifest(path)
        entry = manifest["sections"][0]
        if repeat == "section":
            manifest["sections"].append(entry)
            tensors *= 2
            want = "section net listed twice"
        else:
            last = entry["params"][-1]
            entry["params"].append(last)
            tensors += tensors[-8 * math.prod(last["shape"]):]
            want = f"net: parameter {last['name']} listed twice"
        write_checkpoint_header(path, manifest)
        with open(path, "ab") as f:
            f.write(tensors)
        target = self._build(9)
        before = [p.data.copy() for lay in target for _, p in lay.params()]
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: {want}")):
            load_checkpoint(path, {"net": target})
        after = [p.data for lay in target for _, p in lay.params()]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))

    def test_failed_save_leaves_no_file_under_the_name(self, tmp_path, monkeypatch):
        def interrupted(src, dst):
            raise OSError("interrupted")
        monkeypatch.setattr(os, "replace", interrupted)
        path = tmp_path / "agent0_step0000000010.ckpt"
        with pytest.raises(OSError, match="interrupted"):
            save_checkpoint(path, {"net": self._build(7)})
        assert not path.exists()
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("case", sorted(malformed_manifests()))
    def test_malformed_manifest_rejected_naming_the_file(self, tmp_path, case):
        manifest, length = malformed_manifests(sections=["net"])[case]
        path = write_checkpoint_header(tmp_path / f"{case}.ckpt", manifest, length)
        for read in (read_manifest, lambda p: load_checkpoint(p, {"net": self._build(7)})):
            with pytest.raises(CheckpointError, match=re.escape(f"{path}: ")):
                read(path)

    def test_save_twice_is_byte_identical(self, tmp_path):
        g = self._build(7)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, {"net": g}, meta={"step": 1})
        save_checkpoint(p2, {"net": g}, meta={"step": 1})
        assert p1.read_bytes() == p2.read_bytes()


def test_nn_loads_no_env_module():
    """The autodiff kernel depends on numpy alone: importing it in a fresh
    interpreter loads no module of the envs package."""
    code = ("import sys, marl_lab.nn; "
            "print(sorted(m for m in sys.modules if m.startswith('marl_lab.envs')))")
    assert run_python(code).strip() == "[]"
