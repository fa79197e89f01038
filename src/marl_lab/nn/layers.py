"""Layer primitives: 3x3 valid conv, dense, LSTM cell.

Each layer owns its parameter Tensors (float64, seeded uniform fan-in init),
lists them as ordered (name, Tensor) pairs through `params()`, and has one
call, `apply`, built from the ops of `nn.tensor`. The input's
type picks the path: an ndarray runs on the parameters' `.data` and returns
ndarrays, for rollouts and other gradient-free evaluation; a Tensor runs on
the parameter Tensors and records on the tape, for training. Both are the
same expressions, so on the same input they give the same bits.

`apply` takes leading axes. Its matmuls are `np.matmul` on stacked operands,
which makes one BLAS call per leading index: a (W, 1, n) input runs W
one-row calls, each bit-identical to a lone (1, n) input. A flat (W, n)
input would run one W-row gemm instead, whose rows need not match the
one-row results. The conv follows the same rule: (W, 1, H, W, C) windows run
one gemm per window, (B, H, W, C) windows one flat gemm.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


def _params(x, *params):
    """The parameter Tensors for a Tensor input, their arrays otherwise."""
    return params if type(x) is Tensor else [p.data for p in params]


def _init_uniform(rng, shape, fan_in):
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv2d:
    """3x3 valid cross-correlation + bias + ReLU (the only conv the nets use)."""

    def __init__(self, name, in_channels, filters, rng):
        self.name = name
        self.in_channels = in_channels
        self.filters = filters
        fan_in = 9 * in_channels
        self.kernel = Tensor(_init_uniform(rng, (3, 3, in_channels, filters), fan_in),
                             needs_grad=True)
        self.bias = Tensor(np.zeros(filters), needs_grad=True)

    def params(self):
        return [(f"{self.name}.kernel", self.kernel), (f"{self.name}.bias", self.bias)]

    def apply(self, x):
        """x: (..., B, H, W, C) windows; (..., B, H-2, W-2, filters) after the
        ReLU. Leading axes before B stay stacked (see `nn.tensor.conv2d`)."""
        return T.relu(T.conv2d(x, *_params(x, self.kernel, self.bias)))


class Dense:
    """y = act(x @ W + b), activation in {relu, linear}."""

    def __init__(self, name, in_dim, out_dim, rng, activation="relu"):
        if activation not in ("relu", "linear"):
            raise ValueError(f"unknown activation {activation!r}")
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.weight = Tensor(_init_uniform(rng, (in_dim, out_dim), in_dim), needs_grad=True)
        self.bias = Tensor(np.zeros(out_dim), needs_grad=True)

    def params(self):
        return [(f"{self.name}.weight", self.weight), (f"{self.name}.bias", self.bias)]

    def apply(self, x):
        """x: (..., in_dim); see the module docstring for leading axes."""
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"dense {self.name}: input dim {x.shape[-1]} != {self.in_dim}")
        weight, bias = _params(x, self.weight, self.bias)
        y = T.add(T.matmul(x, weight), bias)
        return T.relu(y) if self.activation == "relu" else y


class LSTMCell:
    """Standard LSTM cell. Gate order in the fused matrices is (i, f, g, o):
    input and forget gates sigmoid, candidate g tanh, output gate sigmoid;
    c' = f*c + i*g, h' = o*tanh(c')."""

    def __init__(self, name, in_dim, units, rng):
        self.name = name
        self.in_dim = in_dim
        self.units = units
        self.w_x = Tensor(_init_uniform(rng, (in_dim, 4 * units), in_dim), needs_grad=True)
        self.w_h = Tensor(_init_uniform(rng, (units, 4 * units), units), needs_grad=True)
        self.bias = Tensor(np.zeros(4 * units), needs_grad=True)

    def params(self):
        return [(f"{self.name}.w_x", self.w_x), (f"{self.name}.w_h", self.w_h),
                (f"{self.name}.bias", self.bias)]

    def apply(self, x, h, c):
        """x: (..., in_dim), h and c: (..., units), with matching leading axes;
        returns (h', c'). A Tensor x records on the tape; h and c may be
        arrays or Tensors either way."""
        if h.shape[-1] != self.units or c.shape[-1] != self.units:
            raise ShapeError(f"lstm {self.name}: state dims {h.shape[-1]}/{c.shape[-1]} "
                             f"!= {self.units} units")
        if not (np.isfinite(T._data(h)).all() and np.isfinite(T._data(c)).all()):
            raise ValueError(f"lstm {self.name}: non-finite recurrent state")
        w_x, w_h, bias = _params(x, self.w_x, self.w_h, self.bias)
        z = T.add(T.add(T.matmul(x, w_x), T.matmul(h, w_h)), bias)
        u = self.units
        i = T.sigmoid(T.slice_last(z, 0, u))
        f = T.sigmoid(T.slice_last(z, u, 2 * u))
        g = T.tanh(T.slice_last(z, 2 * u, 3 * u))
        o = T.sigmoid(T.slice_last(z, 3 * u, 4 * u))
        c_new = T.add(T.mul(f, c), T.mul(i, g))
        h_new = T.mul(o, T.tanh(c_new))
        return h_new, c_new
