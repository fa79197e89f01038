"""SGD and Adam parameter updates with optional global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

OPTIMIZERS = ("sgd", "adam")

# Adam's moment decays and denominator guard (Kingma & Ba 2015 defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def global_norm(grads):
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def clip_by_global_norm(grads, max_norm):
    """Scale all gradients by max_norm/norm when the global norm exceeds it."""
    norm = global_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        grads = {k: g * scale for k, g in grads.items()}
    return grads, norm


class Optimizer:
    """Applies updates to the parameters given as (name, Tensor) pairs.

    It writes each Tensor's `.data`, so whatever loads into those Tensors
    (a checkpoint, say) is what the next step moves. Adam moment buffers are
    keyed by parameter name. Non-finite or mis-shaped gradients abort the run
    with a diagnostic, per the training contract.
    """

    def __init__(self, params, kind, learning_rate, grad_clip_norm=None):
        if kind not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer kind {kind!r}")
        self.params = dict(params)
        self.kind = kind
        self.learning_rate = learning_rate
        self.grad_clip_norm = grad_clip_norm
        self.step_count = 0
        self._m = {}
        self._v = {}

    def step(self, grads):
        """Apply one update. Returns the pre-clip global gradient norm."""
        params = self.params
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise FloatingPointError(
                    f"non-finite gradient for {name} at optimizer step {self.step_count}")
            if g.shape != params[name].data.shape:
                raise ValueError(f"gradient/parameter shape mismatch for {name}: "
                                 f"{g.shape} != {params[name].data.shape}")
        if self.grad_clip_norm is not None:
            grads, norm = clip_by_global_norm(grads, self.grad_clip_norm)
        else:
            norm = global_norm(grads)
        self.step_count += 1
        if self.kind == "sgd":
            for name, g in grads.items():
                params[name].data -= self.learning_rate * g
        else:
            t = self.step_count
            bc1 = 1.0 - ADAM_BETA1 ** t
            bc2 = 1.0 - ADAM_BETA2 ** t
            for name, g in grads.items():
                m = self._m.get(name)
                v = self._v.get(name)
                if m is None:
                    m = np.zeros_like(g)
                    v = np.zeros_like(g)
                m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
                v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
                self._m[name] = m
                self._v[name] = v
                mhat = m / bc1
                vhat = v / bc2
                params[name].data -= self.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPSILON)
        return norm

