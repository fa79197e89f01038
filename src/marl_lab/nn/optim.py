"""SGD and Adam parameter updates with optional global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..envs.config import ConfigError


@dataclass
class OptimizerConfig:
    kind: str = "adam"              # sgd | adam
    learning_rate: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    grad_clip_norm: float | None = None

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer kind {self.kind!r}", "kind")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive", "learning_rate")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)", "beta1", "beta2")
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ConfigError("grad_clip_norm must be positive when set", "grad_clip_norm")


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
    """Applies updates to a ComputationGraph's parameters.

    One instance per graph; Adam moment buffers are keyed by parameter name.
    Non-finite or mis-shaped gradients abort the run with a diagnostic, per
    the training contract.
    """

    def __init__(self, graph, config: OptimizerConfig):
        self.graph = graph
        self.config = config
        self.step_count = 0
        self._m = {}
        self._v = {}

    def step(self, grads):
        """Apply one update. Returns the pre-clip global gradient norm."""
        params = dict(self.graph.parameters())
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise FloatingPointError(
                    f"non-finite gradient for {name} at optimizer step {self.step_count}")
            if g.shape != params[name].data.shape:
                raise ValueError(f"gradient/parameter shape mismatch for {name}: "
                                 f"{g.shape} != {params[name].data.shape}")
        cfg = self.config
        if cfg.grad_clip_norm is not None:
            grads, norm = clip_by_global_norm(grads, cfg.grad_clip_norm)
        else:
            norm = global_norm(grads)
        self.step_count += 1
        if cfg.kind == "sgd":
            for name, g in grads.items():
                params[name].data -= cfg.learning_rate * g
        else:
            t = self.step_count
            bc1 = 1.0 - cfg.beta1 ** t
            bc2 = 1.0 - cfg.beta2 ** t
            for name, g in grads.items():
                m = self._m.get(name)
                v = self._v.get(name)
                if m is None:
                    m = np.zeros_like(g)
                    v = np.zeros_like(g)
                m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
                v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
                self._m[name] = m
                self._v[name] = v
                mhat = m / bc1
                vhat = v / bc2
                params[name].data -= cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.epsilon)
        return norm

