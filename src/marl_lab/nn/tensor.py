"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray plus the tape machinery needed to pull gradients
back through the handful of operations the agent networks use: matmul,
broadcast add, elementwise nonlinearities, concat/slice, reshape, reductions,
3x3 valid convolution, gather, minimum and clip. Everything is float64 and
every op is deterministic, so repeated forward passes are bit-identical.

A vjp may return None for a parent that does not need a gradient; matmul
and conv2d do, so backward spends nothing on gradients no one reads (the
conv's col2im input gradient for observations, say).
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are inconsistent with an operation."""


class Tensor:
    __slots__ = ("data", "grad", "needs_grad", "_parents", "_vjp")

    def __init__(self, data, needs_grad=False, _parents=(), _vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.needs_grad = bool(needs_grad)
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, needs_grad={self.needs_grad})"

    # Operator sugar for the common arithmetic.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self):
        """Reverse-accumulate gradients from this scalar into every
        reachable tensor with needs_grad=True."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.data.shape}")
        order = _toposort(self)
        grads = {id(self): np.ones_like(self.data)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None or node._vjp is None:
                if g is not None and node._vjp is None:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            parent_grads = node._vjp(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.needs_grad:
                    continue
                prev = grads.get(id(parent))
                grads[id(parent)] = pg if prev is None else prev + pg


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root):
    """Iterative DFS topological order, children before parents reversed."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.needs_grad and id(p) not in visited:
                stack.append((p, False))
    return list(reversed(order))


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _make(data, parents, vjp):
    needs = any(p.needs_grad for p in parents)
    return Tensor(data, needs_grad=needs, _parents=parents if needs else (),
                  _vjp=vjp if needs else None)


def constant(x):
    """Wrap an array as a non-differentiable tensor."""
    return Tensor(x, needs_grad=False)


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), vjp)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def vjp(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape))

    return _make(out, (a, b), vjp)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), vjp)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def vjp(g):
        return (g @ b.data.T if a.needs_grad else None,
                a.data.T @ g if b.needs_grad else None)

    return _make(out, (a, b), vjp)


def relu(t):
    mask = t.data > 0.0
    out = np.where(mask, t.data, 0.0)

    def vjp(g):
        return (g * mask,)

    return _make(out, (t,), vjp)


def sigmoid(t):
    out = 1.0 / (1.0 + np.exp(-t.data))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _make(out, (t,), vjp)


def tanh(t):
    out = np.tanh(t.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _make(out, (t,), vjp)


def exp(t):
    out = np.exp(t.data)

    def vjp(g):
        return (g * out,)

    return _make(out, (t,), vjp)


def log(t):
    out = np.log(t.data)

    def vjp(g):
        return (g / t.data,)

    return _make(out, (t,), vjp)


def concat(tensors, axis=-1):
    tensors = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), vjp)


def slice_last(t, start, stop):
    """Slice along the last axis with gradient scatter on the way back."""
    out = t.data[..., start:stop]

    def vjp(g):
        full = np.zeros_like(t.data)
        full[..., start:stop] = g
        return (full,)

    return _make(out, (t,), vjp)


def reshape(t, shape):
    out = t.data.reshape(shape)

    def vjp(g):
        return (g.reshape(t.data.shape),)

    return _make(out, (t,), vjp)


def tsum(t, axis=None, keepdims=False):
    out = t.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, t.data.shape).copy(),)

    return _make(out, (t,), vjp)


def tmean(t, axis=None, keepdims=False):
    n = t.data.size if axis is None else t.data.shape[axis]
    return mul(tsum(t, axis=axis, keepdims=keepdims), _as_tensor(1.0 / n))


def minimum(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    take_a = a.data <= b.data
    out = np.where(take_a, a.data, b.data)

    def vjp(g):
        return (_unbroadcast(g * take_a, a.data.shape),
                _unbroadcast(g * ~take_a, b.data.shape))

    return _make(out, (a, b), vjp)


def clip(t, lo, hi):
    """Clamp to constant bounds; gradient passes only inside the interval."""
    inside = (t.data >= lo) & (t.data <= hi)
    out = np.clip(t.data, lo, hi)

    def vjp(g):
        return (g * inside,)

    return _make(out, (t,), vjp)


def gather_last(t, idx):
    """Pick one entry per row along the last axis: out[..., 0] = t[..., idx]."""
    idx = np.asarray(idx)
    expanded = np.expand_dims(idx, -1)
    out = np.take_along_axis(t.data, expanded, axis=-1)[..., 0]

    def vjp(g):
        full = np.zeros_like(t.data)
        np.put_along_axis(full, expanded, np.expand_dims(g, -1), axis=-1)
        return (full,)

    return _make(out, (t,), vjp)


def log_softmax(t, axis=-1):
    """Numerically stable log-softmax; the max shift is gradient-exact."""
    shifted = add(t, constant(-t.data.max(axis=axis, keepdims=True)))
    lse = log(tsum(exp(shifted), axis=axis, keepdims=True))
    return sub(shifted, lse)


def softmax(t, axis=-1):
    return exp(log_softmax(t, axis=axis))


def conv2d(x, kernel, bias):
    """Valid 3x3 cross-correlation, stride 1, NHWC layout.

    x: (B, H, W, C); kernel: (3, 3, C, F); bias: (F,). Output (B, H-2, W-2, F).
    """
    kh, kw, cin, cout = kernel.data.shape
    if (kh, kw) != (3, 3):
        raise ShapeError(f"conv2d expects a 3x3 kernel, got {kernel.data.shape}")
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d expects NHWC input, got shape {x.data.shape}")
    B, H, W, C = x.data.shape
    if C != cin:
        raise ShapeError(f"conv2d channel mismatch: input has {C}, kernel expects {cin}")
    if H < 3 or W < 3:
        raise ShapeError(f"conv2d needs H,W >= 3, got {x.data.shape}")
    Ho, Wo = H - 2, W - 2

    windows = np.lib.stride_tricks.sliding_window_view(x.data, (3, 3), axis=(1, 2))
    # (B, Ho, Wo, C, 3, 3) -> (B*Ho*Wo, 3*3*C) ordered (kh, kw, C)
    patches = windows.transpose(0, 1, 2, 4, 5, 3).reshape(B * Ho * Wo, 9 * C)
    kmat = kernel.data.reshape(9 * C, cout)
    out = (patches @ kmat + bias.data).reshape(B, Ho, Wo, cout)

    def vjp(g):
        gmat = g.reshape(B * Ho * Wo, cout)
        gk = (patches.T @ gmat).reshape(3, 3, C, cout) if kernel.needs_grad else None
        gb = gmat.sum(axis=0) if bias.needs_grad else None
        if not x.needs_grad:    # observations: skip the col2im input gradient
            return (None, gk, gb)
        gpatches = (gmat @ kmat.T).reshape(B, Ho, Wo, 3, 3, C)
        gx = np.zeros_like(x.data)
        for i in range(3):
            for j in range(3):
                gx[:, i:i + Ho, j:j + Wo, :] += gpatches[:, :, :, i, j, :]
        return (gx, gk, gb)

    return _make(out, (x, kernel, bias), vjp)
