"""SGD and Adam over one flat parameter vector, with optional global-norm
gradient clipping."""

from __future__ import annotations

import numpy as np

OPTIMIZERS = ("sgd", "adam")

# Adam's moment decays and denominator guard (Kingma & Ba 2015 defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class Optimizer:
    """Holds the (name, Tensor) pairs given, in order, as `params`, and their
    values as one float64 `vector`, with Adam's moments `m` and `v` beside it.
    Each Tensor's `.data` becomes a view of the vector, so what writes into
    the views (a checkpoint load, say) is what the next step moves. One
    optimizer steps each parameter: a second one over the same Tensors takes
    their storage. Non-finite or mis-shaped gradients abort the run with a
    diagnostic, per the training contract."""

    def __init__(self, params, kind, learning_rate, grad_clip_norm=None):
        if kind not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer kind {kind!r}")
        self.kind = kind
        self.learning_rate = learning_rate
        self.grad_clip_norm = grad_clip_norm
        self.step_count = 0
        self.params = params = list(params)
        self.vector = np.concatenate([t.data.reshape(-1) for _, t in params])
        self.m = np.zeros(self.vector.size)
        self.v = np.zeros(self.vector.size)
        ends = np.cumsum([t.data.size for _, t in params])
        for (_, tensor), view in zip(params, np.split(self.vector, ends[:-1])):
            tensor.data = view.reshape(tensor.data.shape)

    def step(self, grads):
        """Apply one update from {name: gradient}, one for every parameter.
        Returns the pre-clip global norm, summed per parameter in order."""
        if len(grads) != len(self.params):
            raise ValueError(f"{len(grads)} gradients for {len(self.params)} parameters")
        sq = 0.0
        for name, param in self.params:
            g = grads[name]
            if not np.isfinite(g).all():
                raise FloatingPointError(
                    f"non-finite gradient for {name} at optimizer step {self.step_count}")
            if g.shape != param.data.shape:
                raise ValueError(f"gradient/parameter shape mismatch for {name}: "
                                 f"{g.shape} != {param.data.shape}")
            sq += float((g * g).sum())
        norm = float(np.sqrt(sq))
        g = np.concatenate([grads[name].reshape(-1) for name, _ in self.params])
        if self.grad_clip_norm is not None and norm > self.grad_clip_norm:
            g *= self.grad_clip_norm / norm
        self.step_count += 1
        if self.kind == "sgd":
            self.vector -= self.learning_rate * g
            return norm
        t = self.step_count
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * (g * g)
        self.vector -= self.learning_rate * (self.m / (1.0 - ADAM_BETA1 ** t)) / (
            np.sqrt(self.v / (1.0 - ADAM_BETA2 ** t)) + ADAM_EPSILON)
        return norm
