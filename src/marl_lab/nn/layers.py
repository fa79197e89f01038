"""Layer primitives: 3x3 valid conv, dense, LSTM cell.

Each layer owns its parameter Tensors (float64, seeded uniform fan-in init)
and exposes two call paths: `forward` builds tape nodes for training, `apply`
is a pure-numpy fast path for rollouts and other gradient-free evaluation.
The two paths run the same float64 operations in the same order, so on the
same input shapes their outputs are bit-identical.

`apply` takes leading axes. Its matmuls are `np.matmul` on stacked operands,
which makes one BLAS call per leading index: a (W, 1, n) input runs W
one-row calls, each bit-identical to a lone (1, n) input. A flat (W, n)
input would run one W-row gemm instead, whose rows need not match the
one-row results.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


def _init_uniform(rng, shape, fan_in):
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base: a named parameter collection."""

    name: str

    def params(self):
        """Ordered (name, Tensor) pairs for this layer."""
        raise NotImplementedError

    def param_arrays(self):
        return [(n, t.data) for n, t in self.params()]


class Conv2d(Layer):
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

    def forward(self, x):
        return T.relu(T.conv2d(x, self.kernel, self.bias))

    def apply(self, x):
        """x: (B, H, W, C). Each window's patches form one (Ho*Wo, 9C) gemm,
        so a batch row gets the bits of the same window alone."""
        B, H, W, C = x.shape
        if C != self.in_channels or H < 3 or W < 3:
            raise ShapeError(f"conv input {x.shape} incompatible with "
                             f"{self.in_channels}-channel 3x3 kernel")
        Ho, Wo = H - 2, W - 2
        windows = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(1, 2))
        patches = windows.transpose(0, 1, 2, 4, 5, 3).reshape(B, Ho * Wo, 9 * C)
        out = patches @ self.kernel.data.reshape(9 * C, self.filters) + self.bias.data
        out = out.reshape(B, Ho, Wo, self.filters)
        return np.where(out > 0.0, out, 0.0)


class Dense(Layer):
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

    def forward(self, x):
        y = T.add(T.matmul(x, self.weight), self.bias)
        return T.relu(y) if self.activation == "relu" else y

    def apply(self, x):
        """x: (..., in_dim); see the module docstring for leading axes."""
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"dense {self.name}: input dim {x.shape[-1]} != {self.in_dim}")
        y = x @ self.weight.data + self.bias.data
        return np.where(y > 0.0, y, 0.0) if self.activation == "relu" else y


class LSTMCell(Layer):
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

    def forward(self, x, h, c):
        """Tape path; h and c are Tensors of shape (B, units)."""
        z = T.add(T.add(T.matmul(x, self.w_x), T.matmul(h, self.w_h)), self.bias)
        u = self.units
        i = T.sigmoid(T.slice_last(z, 0, u))
        f = T.sigmoid(T.slice_last(z, u, 2 * u))
        g = T.tanh(T.slice_last(z, 2 * u, 3 * u))
        o = T.sigmoid(T.slice_last(z, 3 * u, 4 * u))
        c_new = T.add(T.mul(f, c), T.mul(i, g))
        h_new = T.mul(o, T.tanh(c_new))
        return h_new, c_new

    def apply(self, x, h, c):
        """x: (..., in_dim), h and c: (..., units), with matching leading axes."""
        if h.shape[-1] != self.units or c.shape[-1] != self.units:
            raise ShapeError(f"lstm {self.name}: state dims {h.shape[-1]}/{c.shape[-1]} "
                             f"!= {self.units} units")
        if not (np.isfinite(h).all() and np.isfinite(c).all()):
            raise ValueError(f"lstm {self.name}: non-finite recurrent state")
        z = x @ self.w_x.data + h @ self.w_h.data + self.bias.data
        u = self.units
        i = _sigmoid(z[..., :u])
        f = _sigmoid(z[..., u:2 * u])
        g = np.tanh(z[..., 2 * u:3 * u])
        o = _sigmoid(z[..., 3 * u:])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        return h_new, c_new


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))

