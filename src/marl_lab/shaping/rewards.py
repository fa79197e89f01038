"""Reward reshaping: temporal smoothing, inequity-aversion intrinsic rewards,
impact-scaled intrinsic rewards, linear reward combination, and the Gini
equality metric.

All functions are pure float64 arithmetic on small per-agent vectors; the only
state is the smoothed-reward vector carried across a single episode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
            raise ValueError(f"unknown shaping mode {self.mode!r}; expected one of {MODES}")
        if not (0.0 <= self.smoothing_lambda <= 1.0 and 0.0 <= self.smoothing_gamma <= 1.0):
            raise ValueError("smoothing lambda and gamma must lie in [0, 1]")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("aversion parameters must be nonnegative")


def update_smoothed(w, extrinsic, gamma, lam):
    """One step of the smoothing recursion w' = gamma*lambda*w + e."""
    w = np.asarray(w, dtype=np.float64)
    e = np.asarray(extrinsic, dtype=np.float64)
    if w.shape != e.shape:
        raise ValueError(f"smoothed/extrinsic shapes differ: {w.shape} vs {e.shape}")
    return gamma * lam * w + e


def inequity_intrinsics(w, impact_rows, alpha, beta):
    """Impact-scaled inequity-aversion intrinsic rewards of all N agents.

    w: (N,) smoothed rewards. impact_rows: (N, N-1) entries in [0, 1]; row k
    scales agent k's fellows, ordered by ascending fellow index, before the
    comparison. Each agent averages envy (fellows ahead) and guilt (fellows
    behind) gaps over its N-1 fellows, each weighted by its aversion
    parameter, negated. Plain inequity aversion is the all-ones case, since
    1.0 * w is exact.
    """
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(impact_rows, dtype=np.float64)
    n = w.shape[0]
    if n < 2:
        raise ValueError("inequity aversion needs at least two agents")
    if d.shape != (n, n - 1):
        raise ValueError(f"impact rows must have shape ({n}, {n - 1}), got {d.shape}")
    if np.any(d < 0.0) or np.any(d > 1.0):
        raise ValueError("impact values must lie in [0, 1]")
    fellows = np.broadcast_to(w, (n, n))[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    scaled = d * fellows
    mine = w[:, None]
    envy = np.maximum(scaled - mine, 0.0).sum(axis=1)
    guilt = np.maximum(mine - scaled, 0.0).sum(axis=1)
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
    """Per-environment shaping pipeline: smooth, compare, combine.

    Owns `w`, the smoothed extrinsic rewards, zeroed at episode start; `step`
    consumes the per-agent extrinsic rewards and (in emurel mode) the
    per-agent normalized impact rows, returning the per-agent (extrinsic,
    intrinsic, reshaped) triple for the step.
    """

    def __init__(self, config: ShapingConfig, num_agents):
        if num_agents < 2 and config.mode != "baseline":
            raise ValueError("ia/emurel modes need at least two agents")
        self.config = config
        self.num_agents = num_agents
        self.w = np.zeros(num_agents)

    def reset(self):
        self.w[:] = 0.0

    def step(self, extrinsic, impact_rows=None):
        """impact_rows: (N, N-1) normalized impacts, agent k's row ordered by
        ascending fellow index; required in emurel mode, ignored otherwise."""
        cfg = self.config
        e = np.asarray(extrinsic, dtype=np.float64)
        self.w = update_smoothed(self.w, e, cfg.smoothing_gamma, cfg.smoothing_lambda)
        n = self.num_agents
        intrinsic = np.zeros(n)
        if cfg.mode == "ia":
            intrinsic = inequity_intrinsics(self.w, np.ones((n, n - 1)), cfg.alpha, cfg.beta)
        elif cfg.mode == "emurel":
            if impact_rows is None:
                raise ValueError("emurel mode requires impact rows")
            intrinsic = inequity_intrinsics(self.w, impact_rows, cfg.alpha, cfg.beta)
        reshaped = reshape_reward(e, intrinsic, cfg.combine_alpha, cfg.combine_beta)
        return e, intrinsic, reshaped
