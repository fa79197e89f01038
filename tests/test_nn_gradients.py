"""Backprop correctness: hand-derivative cases plus finite-difference suites
over the layer compositions the agent networks actually use."""

import numpy as np
import pytest

from marl_lab.nn import Conv2d, Dense, LSTMCell, Tensor, gradients
from marl_lab.nn import tensor as T

from helpers import conv_linear_response, finite_difference_check, relative_error


def test_constant_loss_has_exactly_zero_gradient(rng):
    lay = Dense("d", 2, 2, rng)
    x = Tensor(rng.normal(size=(1, 2)))
    loss = T.tsum(x)                    # loss never touches the dense layer
    grads = gradients(lay.params(), loss)
    np.testing.assert_array_equal(grads["d.weight"], np.zeros((2, 2)))
    np.testing.assert_array_equal(grads["d.bias"], np.zeros(2))


def test_scalar_chain_rule_oracle():
    # y = (w*x)^2 with x=2, w=3: dy/dw = 2*(wx)*x = 24
    w = Tensor(np.array(3.0), needs_grad=True)
    x = Tensor(np.array(2.0))
    y = T.mul(T.mul(w, x), T.mul(w, x))
    assert y.backward()[id(w)] == pytest.approx(24.0, abs=1e-12)


def test_backprop_is_deterministic(rng):
    lay = Dense("d", 4, 3, rng)
    x = rng.normal(size=(5, 4))

    def run():
        out = lay.apply(Tensor(x))
        return gradients(lay.params(), T.tsum(T.mul(out, out)))["d.weight"]

    np.testing.assert_array_equal(run(), run())


def test_linear_graph_fd_error_is_rounding_level(rng):
    lay = Dense("d", 3, 2, rng, activation="linear")
    x = rng.normal(size=(4, 3))
    err = finite_difference_check(lambda lift: T.tsum(lay.apply(lift(x))),
                                  lay.params(), epsilon=1e-4)
    assert err <= 1e-10


def test_epsilon_outside_range_rejected(rng):
    lay = Dense("d", 2, 2, rng)
    with pytest.raises(ValueError):
        finite_difference_check(lambda lift: T.tsum(lay.apply(lift(np.ones((1, 2))))),
                                lay.params(), epsilon=1e-2)


def _relu_margins_ok(stack, x, margin=1e-2):
    """True when every ReLU preactivation in a dense stack stays away from 0."""
    h = x
    for lay in stack:
        pre = h @ lay.weight.data + lay.bias.data
        if lay.activation == "relu" and np.min(np.abs(pre)) < margin:
            return False
        h = np.where(pre > 0, pre, 0.0) if lay.activation == "relu" else pre
    return True


def test_two_layer_dense_relu_fd(rng):
    checked = 0
    seed = 0
    while checked < 5:
        seed += 1
        r = np.random.default_rng(seed)
        l1 = Dense("l1", 4, 6, r)
        l2 = Dense("l2", 6, 3, r, activation="linear")
        x = r.normal(size=(3, 4))
        if not _relu_margins_ok([l1, l2], x):
            continue
        def loss_fn(lift):
            h = l2.apply(l1.apply(lift(x)))
            return T.tsum(T.mul(h, h))
        err = finite_difference_check(loss_fn, l1.params() + l2.params(), epsilon=1e-4)
        assert err < 1e-4, f"seed {seed}: fd error {err}"
        checked += 1


def test_conv_lstm_dense_composite_fd():
    checked = 0
    seed = 100
    while checked < 3:
        seed += 1
        r = np.random.default_rng(seed)
        conv = Conv2d("conv", 2, 2, r)
        fc = Dense("fc", 18, 4, r)
        cell = LSTMCell("cell", 4, 3, r)
        head = Dense("head", 3, 2, r, activation="linear")
        x = r.normal(size=(2, 5, 5, 2))
        h0 = r.normal(size=(2, 3)) * 0.1
        c0 = r.normal(size=(2, 3)) * 0.1
        if np.min(np.abs(conv_linear_response(x, conv.kernel.data, conv.bias.data))) < 1e-2:
            continue
        flat = conv.apply(x).reshape(2, -1)
        if not _relu_margins_ok([fc], flat):
            continue

        def loss_fn(lift):
            feat = T.reshape(conv.apply(lift(x)), (2, 18))
            hid = fc.apply(feat)
            h, c = cell.apply(hid, lift(h0), lift(c0))
            out = head.apply(h)
            return T.tsum(T.mul(out, out))

        params = conv.params() + fc.params() + cell.params() + head.params()
        err = finite_difference_check(loss_fn, params, epsilon=1e-4)
        assert err < 1e-4, f"seed {seed}: fd error {err}"
        checked += 1


def test_softmax_cross_entropy_gradient_fd(rng):
    lay = Dense("d", 5, 4, rng, activation="linear")
    x = rng.normal(size=(6, 5))
    actions = rng.integers(0, 4, size=6)

    def loss_fn(lift):
        lp = T.log_softmax(lay.apply(lift(x)))
        return T.mul(T.tmean(T.gather_last(lp, actions)), -1.0)

    err = finite_difference_check(loss_fn, lay.params(), epsilon=1e-4)
    assert err < 1e-4


def test_minimum_and_clip_gradients(rng):
    # surrogate-style composite: min(r*a, clip(r, 0.8, 1.2)*a)
    w = Tensor(rng.normal(size=(3, 1)), needs_grad=True)
    x = rng.normal(size=(4, 3))
    adv = rng.normal(size=(4, 1))

    def loss_fn(lift):
        # the parameter Tensor on the tape, its array otherwise, as layers do
        r = T.exp(T.matmul(lift(x), w if lift is Tensor else w.data))
        return T.tmean(T.minimum(T.mul(r, adv), T.mul(T.clip(r, 0.8, 1.2), adv)))

    err = finite_difference_check(loss_fn, [("w", w)], epsilon=1e-4)
    assert err < 1e-4


def test_relative_error_uses_floor_denominator():
    assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
    assert relative_error(np.array([1e-12]), np.array([0.0])) == pytest.approx(1e-4, rel=1e-6)


def test_conv_rejects_an_input_that_needs_a_gradient(rng):
    # The conv computes kernel and bias gradients only: its input is always
    # observations. An input that needs a gradient fails in the forward pass
    # rather than lose that gradient in backward.
    conv = Conv2d("c", 4, 5, np.random.default_rng(2))
    x = Tensor(rng.normal(size=(3, 6, 6, 4)), needs_grad=True)
    with pytest.raises(ValueError, match="no input gradient"):
        T.conv2d(x, conv.kernel, conv.bias)
    with pytest.raises(ValueError, match="no input gradient"):
        conv.apply(x)


def test_matmul_skips_gradients_of_constant_operands(rng):
    a_data, b_data = rng.normal(size=(4, 3)), rng.normal(size=(3, 2))
    a, b = Tensor(a_data), Tensor(b_data, needs_grad=True)
    leaves = T.tsum(T.matmul(a, b)).backward()
    a_ref, b_ref = Tensor(a_data, needs_grad=True), Tensor(b_data, needs_grad=True)
    leaves_ref = T.tsum(T.matmul(a_ref, b_ref)).backward()
    assert id(a) not in leaves
    assert leaves[id(b)].tobytes() == leaves_ref[id(b_ref)].tobytes()
