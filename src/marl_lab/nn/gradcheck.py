"""Central finite-difference verification of reverse-mode gradients.

The checker perturbs every parameter element by +/-epsilon, re-runs the
forward closure, and compares the two-sided slope against the analytic
gradient. It shares no code with the backward pass, so it serves as the
independent oracle for the whole kernel.
"""

from __future__ import annotations

import numpy as np

from .graph import gradients


def relative_error(a, b):
    """|a - b| / max(|a|, |b|, 1e-8), elementwise max over arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def finite_difference_check(loss_fn, params, epsilon=1e-4):
    """Max relative error between tape gradients and central differences.

    loss_fn: zero-argument callable re-running the forward pass and returning
        the scalar loss Tensor (a fresh tape each call).
    params: (name, Tensor) pairs to verify; every element is perturbed.
    epsilon: central-difference step, must lie in [1e-6, 1e-3].
    """
    if not (1e-6 <= epsilon <= 1e-3):
        raise ValueError(f"epsilon {epsilon} outside [1e-6, 1e-3]")
    analytic = gradients(params, loss_fn())

    worst = 0.0
    for name, p in params:
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = float(loss_fn().data)
            flat[i] = orig - epsilon
            down = float(loss_fn().data)
            flat[i] = orig
            numeric[i] = (up - down) / (2.0 * epsilon)
        err = relative_error(analytic[name].reshape(-1), numeric)
        worst = max(worst, err)
    return worst
