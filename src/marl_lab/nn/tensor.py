"""Reverse-mode automatic differentiation over float64 numpy arrays, and
the one forward definition of every op the agent networks use.

Each op is one function over ndarrays or Tensors: matmul, broadcast add,
elementwise nonlinearities, concat/slice, reshape, reductions, 3x3 valid
convolution, gather, minimum and clip. Its forward value is a single numpy
expression over the operands' data. Given no Tensor, an op returns that
ndarray and records nothing; rollouts and evaluation run the nets this way.
Given a Tensor, it returns a Tensor whose `.data` is the same ndarray, with
the vjp that pulls gradients back on the tape (the primitive-wrapping idiom
of HIPS autograd). The input's type is the only switch, so gradient-free
evaluation and training cannot drift apart. Everything is float64 and every
op is deterministic, so repeated forward passes are bit-identical.

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
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

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


def _data(x):
    return x.data if type(x) is Tensor else x


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


# Ops test `type(x) is Tensor` inline rather than through a helper: rollout
# operands are small, and a helper call per operand measurably slowed rollouts.

def add(a, b):
    ta, tb = type(a) is Tensor, type(b) is Tensor
    out = (a.data if ta else a) + (b.data if tb else b)
    if not (ta or tb):
        return out
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                         _unbroadcast(g, b.data.shape)))


def sub(a, b):
    ta, tb = type(a) is Tensor, type(b) is Tensor
    out = (a.data if ta else a) - (b.data if tb else b)
    if not (ta or tb):
        return out
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                         _unbroadcast(-g, b.data.shape)))


def mul(a, b):
    ta, tb = type(a) is Tensor, type(b) is Tensor
    out = (a.data if ta else a) * (b.data if tb else b)
    if not (ta or tb):
        return out
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(out, (a, b), lambda g: (_unbroadcast(g * b.data, a.data.shape),
                                         _unbroadcast(g * a.data, b.data.shape)))


def matmul(a, b):
    """(..., n) @ (n, m). Leading axes stay stacked: a (W, 1, n) operand makes
    np.matmul issue one one-row BLAS call per leading index (see nn.layers)."""
    ta, tb = type(a) is Tensor, type(b) is Tensor
    x, w = (a.data if ta else a), (b.data if tb else b)
    if w.ndim != 2 or x.ndim == 0 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"matmul expects (..., n) @ (n, m), got {x.shape} @ {w.shape}")
    out = x @ w
    if not (ta or tb):
        return out
    a, b = _as_tensor(a), _as_tensor(b)

    def vjp(g):
        if not b.needs_grad:
            gw = None
        elif x.ndim == 2:
            gw = x.T @ g
        else:   # sum the per-row outer products over every leading axis
            gw = x.reshape(-1, w.shape[0]).T @ g.reshape(-1, w.shape[1])
        return (g @ w.T if a.needs_grad else None), gw

    return _make(out, (a, b), vjp)


def relu(t):
    traced = type(t) is Tensor
    x = t.data if traced else t
    mask = x > 0.0
    out = np.where(mask, x, 0.0)
    if not traced:
        return out
    return _make(out, (t,), lambda g: (g * mask,))


def sigmoid(t):
    traced = type(t) is Tensor
    out = 1.0 / (1.0 + np.exp(-(t.data if traced else t)))
    if not traced:
        return out
    return _make(out, (t,), lambda g: (g * out * (1.0 - out),))


def tanh(t):
    traced = type(t) is Tensor
    out = np.tanh(t.data if traced else t)
    if not traced:
        return out
    return _make(out, (t,), lambda g: (g * (1.0 - out * out),))


def exp(t):
    traced = type(t) is Tensor
    out = np.exp(t.data if traced else t)
    if not traced:
        return out
    return _make(out, (t,), lambda g: (g * out,))


def log(t):
    traced = type(t) is Tensor
    out = np.log(t.data if traced else t)
    if not traced:
        return out
    return _make(out, (t,), lambda g: (g / t.data,))


def concat(tensors, axis=-1):
    out = np.concatenate([_data(t) for t in tensors], axis=axis)
    if not any(type(t) is Tensor for t in tensors):
        return out
    tensors = tuple(_as_tensor(t) for t in tensors)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return _make(out, tensors, lambda g: tuple(np.split(g, splits, axis=axis)))


def slice_last(t, start, stop):
    """Slice along the last axis with gradient scatter on the way back."""
    traced = type(t) is Tensor
    out = (t.data if traced else t)[..., start:stop]
    if not traced:
        return out

    def vjp(g):
        full = np.zeros_like(t.data)
        full[..., start:stop] = g
        return (full,)

    return _make(out, (t,), vjp)


def reshape(t, shape):
    traced = type(t) is Tensor
    out = (t.data if traced else t).reshape(shape)
    if not traced:
        return out
    return _make(out, (t,), lambda g: (g.reshape(t.data.shape),))


def tsum(t, axis=None, keepdims=False):
    traced = type(t) is Tensor
    out = (t.data if traced else t).sum(axis=axis, keepdims=keepdims)
    if not traced:
        return out

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, t.data.shape).copy(),)

    return _make(out, (t,), vjp)


def tmean(t, axis=None, keepdims=False):
    x = _data(t)
    n = x.size if axis is None else x.shape[axis]
    return mul(tsum(t, axis=axis, keepdims=keepdims), 1.0 / n)


def minimum(a, b):
    ta, tb = type(a) is Tensor, type(b) is Tensor
    x, y = (a.data if ta else a), (b.data if tb else b)
    take_a = x <= y
    out = np.where(take_a, x, y)
    if not (ta or tb):
        return out
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(out, (a, b), lambda g: (_unbroadcast(g * take_a, a.data.shape),
                                         _unbroadcast(g * ~take_a, b.data.shape)))


def clip(t, lo, hi):
    """Clamp to constant bounds; gradient passes only inside the interval."""
    traced = type(t) is Tensor
    x = t.data if traced else t
    inside = (x >= lo) & (x <= hi)
    out = np.clip(x, lo, hi)
    if not traced:
        return out
    return _make(out, (t,), lambda g: (g * inside,))


def gather_last(t, idx):
    """Pick one entry per row along the last axis: out[..., 0] = t[..., idx]."""
    traced = type(t) is Tensor
    expanded = np.expand_dims(np.asarray(idx), -1)
    out = np.take_along_axis(t.data if traced else t, expanded, axis=-1)[..., 0]
    if not traced:
        return out

    def vjp(g):
        full = np.zeros_like(t.data)
        np.put_along_axis(full, expanded, np.expand_dims(g, -1), axis=-1)
        return (full,)

    return _make(out, (t,), vjp)


def log_softmax(t, axis=-1):
    """Numerically stable log-softmax; the max shift is gradient-exact."""
    shifted = add(t, -_data(t).max(axis=axis, keepdims=True))
    lse = log(tsum(exp(shifted), axis=axis, keepdims=True))
    return sub(shifted, lse)


def softmax(t, axis=-1):
    return exp(log_softmax(t, axis=axis))


def conv2d(x, kernel, bias):
    """Valid 3x3 cross-correlation, stride 1, NHWC layout.

    x: (..., B, H, W, C); kernel: (3, 3, C, F); bias: (F,). Output
    (..., B, H-2, W-2, F). As in `matmul`, leading axes before B stay
    stacked: the B*Ho*Wo patches of each leading index form one gemm. So a
    (B, H, W, C) minibatch runs one flat gemm, and a (W, 1, H, W, C) lockstep
    stack runs one gemm per window, each with the bits of that window alone.
    """
    xd, kd = _data(x), _data(kernel)
    kh, kw, cin, cout = kd.shape
    if (kh, kw) != (3, 3):
        raise ShapeError(f"conv2d expects a 3x3 kernel, got {kd.shape}")
    if xd.ndim < 4:
        raise ShapeError(f"conv2d expects (..., B, H, W, C) input, got shape {xd.shape}")
    H, W, C = xd.shape[-3:]
    if C != cin:
        raise ShapeError(f"conv2d channel mismatch: input has {C}, kernel expects {cin}")
    if H < 3 or W < 3:
        raise ShapeError(f"conv2d needs H,W >= 3, got {xd.shape}")
    Ho, Wo = H - 2, W - 2
    rows = xd.shape[:-4] + (xd.shape[-4] * Ho * Wo,)

    s = xd.strides
    windows = np.lib.stride_tricks.as_strided(    # a read-only view, no copy
        xd, xd.shape[:-3] + (Ho, Wo, 3, 3, C), s[:-3] + s[-3:-1] + s[-3:], writeable=False)
    # (..., B, Ho, Wo, 3, 3, C) -> (..., B*Ho*Wo, 3*3*C) ordered (kh, kw, C)
    patches = windows.reshape(rows + (9 * C,))
    kmat = kd.reshape(9 * C, cout)
    out = (patches @ kmat + _data(bias)).reshape(xd.shape[:-3] + (Ho, Wo, cout))
    if not (type(x) is Tensor or type(kernel) is Tensor or type(bias) is Tensor):
        return out
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)

    def vjp(g):
        gmat = g.reshape(-1, cout)
        gk = ((patches.reshape(-1, 9 * C).T @ gmat).reshape(3, 3, C, cout)
              if kernel.needs_grad else None)
        gb = gmat.sum(axis=0) if bias.needs_grad else None
        if not x.needs_grad:    # observations: skip the col2im input gradient
            return (None, gk, gb)
        gpatches = (gmat @ kmat.T).reshape(xd.shape[:-3] + (Ho, Wo, 3, 3, C))
        gx = np.zeros_like(xd)
        for i in range(3):
            for j in range(3):
                gx[..., i:i + Ho, j:j + Wo, :] += gpatches[..., i, j, :]
        return (gx, gk, gb)

    return _make(out, (x, kernel, bias), vjp)
