"""Reward reshaping: temporal smoothing, inequity-aversion intrinsic rewards,
impact-scaled intrinsic rewards, linear reward combination, and the Gini
equality metric.

All functions are pure float64 arithmetic on per-agent vectors, stacked along
any leading axes. Nothing here holds state: the smoothed rewards of running
episodes are passed in and returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..envs.config import ConfigError

MODES = ("baseline", "ia", "emurel")


@dataclass
class ShapingConfig:
    mode: str = "baseline"
    alpha: float = 0.0              # aversion to disadvantageous inequity
    beta: float = 0.0               # aversion to advantageous inequity
    smoothing_lambda: float = 0.975
    smoothing_gamma: float = 0.99
    combine_alpha: float = 1.0      # extrinsic scaler in the linear combination
    combine_beta: float = 1.0       # intrinsic scaler

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown shaping mode {self.mode!r}; expected one of {MODES}",
                              "mode")
        for key in ("smoothing_lambda", "smoothing_gamma"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ConfigError(f"{key} must lie in [0, 1]", key)
        for key in ("alpha", "beta"):
            if getattr(self, key) < 0:
                raise ConfigError(f"aversion parameter {key} must be nonnegative", key)


def update_smoothed(w, extrinsic, gamma, lam):
    """One step of the smoothing recursion w' = gamma*lambda*w + e."""
    w = np.asarray(w, dtype=np.float64)
    e = np.asarray(extrinsic, dtype=np.float64)
    if w.shape != e.shape:
        raise ValueError(f"smoothed/extrinsic shapes differ: {w.shape} vs {e.shape}")
    return gamma * lam * w + e


def fellows(n):
    """(n, n-1) indices: row k lists agent k's fellows, ascending."""
    j = np.arange(n - 1)
    return j + (j >= np.arange(n)[:, None])


def inequity_intrinsics(w, impact_rows, alpha, beta):
    """Impact-scaled inequity-aversion intrinsic rewards of all N agents.

    w: (..., N) smoothed rewards. impact_rows: (..., N, N-1) entries in
    [0, 1]; row k scales agent k's fellows, ordered as `fellows(N)[k]`, before
    the comparison. Each agent averages envy (fellows ahead) and guilt
    (fellows behind) gaps over its N-1 fellows, each weighted by its aversion
    parameter, negated. Plain inequity aversion is the all-ones case, since
    1.0 * w is exact. Leading axes are independent rows.
    """
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(impact_rows, dtype=np.float64)
    n = w.shape[-1]
    if n < 2:
        raise ValueError("inequity aversion needs at least two agents")
    if d.shape != w.shape + (n - 1,):
        raise ValueError(f"impact rows must have shape {w.shape + (n - 1,)}, got {d.shape}")
    if np.any(d < 0.0) or np.any(d > 1.0):
        raise ValueError("impact values must lie in [0, 1]")
    scaled = d * w[..., fellows(n)]
    mine = w[..., None]
    envy = np.maximum(scaled - mine, 0.0).sum(axis=-1)
    guilt = np.maximum(mine - scaled, 0.0).sum(axis=-1)
    return -(alpha / (n - 1)) * envy - (beta / (n - 1)) * guilt


def reshape_reward(extrinsic, intrinsic, combine_alpha=1.0, combine_beta=1.0):
    """Linear combination r = combine_alpha*e + combine_beta*i."""
    return combine_alpha * extrinsic + combine_beta * intrinsic


def gini_equality(returns):
    """Equality = 1 - sum_ij |R_i - R_j| / (2 N sum_i R_i), in [0, 1].

    Inputs must be nonnegative; an all-zero vector is defined as perfectly
    equal (1.0).
    """
    r = np.asarray(returns, dtype=np.float64)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("returns must be a nonempty 1-D vector")
    if np.any(r < 0.0):
        raise ValueError("gini equality requires nonnegative returns")
    total = r.sum()
    if total == 0.0:
        return 1.0
    n = r.size
    pairwise = np.abs(r[:, None] - r[None, :]).sum()
    return float(1.0 - pairwise / (2.0 * n * total))


class RewardShaper:
    """Shaping pipeline of one env or of a batch: smooth, compare, combine.

    Holds only its config. The smoothed extrinsic rewards `w` belong to the
    caller, which passes them in and keeps what `step` returns: (N,) for one
    env, or (W, N) for W envs, one row each, zeroed at the row's episode
    start (see `RolloutWorkers.smoothed`).
    """

    def __init__(self, config: ShapingConfig):
        self.config = config

    def step(self, w, extrinsic, impact_rows=None):
        """Returns (w', extrinsic, intrinsic, reshaped), each of w's shape.
        impact_rows: w.shape + (N-1,) normalized impacts, agent k's row
        ordered by ascending fellow index; required in emurel mode, ignored
        otherwise."""
        cfg = self.config
        e = np.asarray(extrinsic, dtype=np.float64)
        w = update_smoothed(w, e, cfg.smoothing_gamma, cfg.smoothing_lambda)
        intrinsic = np.zeros(w.shape)
        if cfg.mode == "ia":
            intrinsic = inequity_intrinsics(w, np.ones(w.shape + (w.shape[-1] - 1,)),
                                            cfg.alpha, cfg.beta)
        elif cfg.mode == "emurel":
            if impact_rows is None:
                raise ValueError("emurel mode requires impact rows")
            intrinsic = inequity_intrinsics(w, impact_rows, cfg.alpha, cfg.beta)
        reshaped = reshape_reward(e, intrinsic, cfg.combine_alpha, cfg.combine_beta)
        return w, e, intrinsic, reshaped
