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


def ia_intrinsic(w, k, alpha, beta):
    """Inequity-aversion intrinsic reward for agent k over smoothed rewards w.

    Averages envy (others ahead) and guilt (others behind) gaps over the
    N-1 fellows, each weighted by its aversion parameter, negated.
    """
    w = np.asarray(w, dtype=np.float64)
    n = w.shape[0]
    if n < 2:
        raise ValueError("inequity aversion needs at least two agents")
    others = np.delete(w, k)
    envy = np.maximum(others - w[k], 0.0).sum()
    guilt = np.maximum(w[k] - others, 0.0).sum()
    return float(-(alpha / (n - 1)) * envy - (beta / (n - 1)) * guilt)


def emurel_intrinsic(w, d_row, k, alpha, beta):
    """Impact-scaled inequity aversion: fellow j's smoothed reward is scaled
    by its impact d_row entry before the comparison. d_row has N-1 entries in
    [0, 1], ordered by ascending fellow index."""
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(d_row, dtype=np.float64)
    n = w.shape[0]
    if n < 2:
        raise ValueError("inequity aversion needs at least two agents")
    if d.shape != (n - 1,):
        raise ValueError(f"impact row must have {n - 1} entries, got {d.shape}")
    if np.any(d < 0.0) or np.any(d > 1.0):
        raise ValueError("impact values must lie in [0, 1]")
    others = np.delete(w, k)
    scaled = d * others
    envy = np.maximum(scaled - w[k], 0.0).sum()
    guilt = np.maximum(w[k] - scaled, 0.0).sum()
    return float(-(alpha / (n - 1)) * envy - (beta / (n - 1)) * guilt)


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
            for k in range(n):
                intrinsic[k] = ia_intrinsic(self.w, k, cfg.alpha, cfg.beta)
        elif cfg.mode == "emurel":
            if impact_rows is None:
                raise ValueError("emurel mode requires impact rows")
            for k in range(n):
                intrinsic[k] = emurel_intrinsic(self.w, impact_rows[k], k,
                                                cfg.alpha, cfg.beta)
        reshaped = reshape_reward(e, intrinsic, cfg.combine_alpha, cfg.combine_beta)
        return e, intrinsic, reshaped
