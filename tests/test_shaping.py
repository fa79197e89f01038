"""Reward-shaping oracles and properties. Brute-force evaluations of the
intrinsic-reward formulas live here and stay loop-based on purpose."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marl_lab.shaping import (
    RewardShaper, ShapingConfig, gini_equality, inequity_intrinsics, reshape_reward,
    update_smoothed,
)


def brute_force_ia(w, k, alpha, beta):
    n = len(w)
    envy = guilt = 0.0
    for j in range(n):
        if j == k:
            continue
        envy += max(w[j] - w[k], 0.0)
        guilt += max(w[k] - w[j], 0.0)
    return -alpha / (n - 1) * envy - beta / (n - 1) * guilt


def brute_force_emurel(w, d, k, alpha, beta):
    n = len(w)
    envy = guilt = 0.0
    pos = 0
    for j in range(n):
        if j == k:
            continue
        scaled = d[pos] * w[j]
        pos += 1
        envy += max(scaled - w[k], 0.0)
        guilt += max(w[k] - scaled, 0.0)
    return -alpha / (n - 1) * envy - beta / (n - 1) * guilt


class TestSmoothing:
    def test_first_step_equals_first_reward(self):
        w = update_smoothed(np.zeros(3), [1.0, -2.0, 0.5], 0.99, 0.975)
        np.testing.assert_array_equal(w, [1.0, -2.0, 0.5])

    def test_one_recursion_step_by_hand(self):
        w = update_smoothed(np.zeros(1), [1.0], 0.99, 0.975)
        w = update_smoothed(w, [0.0], 0.99, 0.975)
        assert w[0] == pytest.approx(0.96525, abs=1e-15)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_closed_form_over_50_steps(self, seed):
        rng = np.random.default_rng(seed)
        gamma, lam = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
        e = rng.normal(size=(50, 4))
        w = np.zeros(4)
        for t in range(50):
            w = update_smoothed(w, e[t], gamma, lam)
        decay = (gamma * lam) ** np.arange(49, -1, -1)
        closed = (decay[:, None] * e).sum(axis=0)
        np.testing.assert_allclose(w, closed, atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_linearity_in_reward_stream(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(10, 3))
        b = rng.normal(size=(10, 3))
        wa = wb = wab = np.zeros(3)
        for t in range(10):
            wa = update_smoothed(wa, a[t], 0.99, 0.975)
            wb = update_smoothed(wb, b[t], 0.99, 0.975)
            wab = update_smoothed(wab, a[t] + b[t], 0.99, 0.975)
        np.testing.assert_allclose(wab, wa + wb, atol=1e-12)


def ia(w, alpha, beta):
    """Plain inequity aversion: every impact row all ones."""
    w = np.asarray(w)
    return inequity_intrinsics(w, np.ones(w.shape + (w.shape[-1] - 1,)), alpha, beta)


def with_row(w, k, d_row):
    """All-ones impact rows except agent k's, which is d_row."""
    n = len(w)
    rows = np.ones((n, n - 1))
    rows[k] = d_row
    return rows


class TestIAIntrinsic:
    def test_equal_rewards_give_zero(self):
        np.testing.assert_array_equal(ia([2.0, 2.0, 2.0], 5.0, 0.05), np.zeros(3))

    def test_disadvantageous_hand_case(self):
        # first agent of (2,4,6), alpha=5: -(5/2)*((4-2)+(6-2)) = -15
        assert ia([2.0, 4.0, 6.0], 5.0, 0.0)[0] == pytest.approx(-15.0, abs=1e-12)

    def test_advantageous_hand_case(self):
        # first agent of (6,2,4), beta=0.05: -(0.05/2)*((6-2)+(6-4)) = -0.15
        assert ia([6.0, 2.0, 4.0], 0.0, 0.05)[0] == pytest.approx(-0.15, abs=1e-12)

    def test_single_agent_rejected(self):
        with pytest.raises(ValueError):
            inequity_intrinsics([1.0], np.ones((1, 0)), 1.0, 1.0)


class TestEmurelIntrinsic:
    def test_all_ones_impacts_reduce_to_ia(self):
        w = [1.0, -0.5, 3.0, 0.2]
        got = ia(w, 5.0, 0.05)
        for k in range(4):
            assert got[k] == pytest.approx(brute_force_ia(w, k, 5.0, 0.05), abs=1e-15)

    def test_disadvantageous_hand_case(self):
        # w=(2,4,6), k first, d=(0.5,0.5): max(2-2,0)=0, max(3-2,0)=1 -> -(5/2)*1
        w = [2.0, 4.0, 6.0]
        assert inequity_intrinsics(w, with_row(w, 0, [0.5, 0.5]), 5.0, 0.0)[0] == \
            pytest.approx(-2.5, abs=1e-12)

    def test_advantageous_hand_case(self):
        # w=(6,2,4), k first, d=(0,0), beta=0.05: -(0.05/2)*(6+6) = -0.3
        w = [6.0, 2.0, 4.0]
        assert inequity_intrinsics(w, with_row(w, 0, [0.0, 0.0]), 0.0, 0.05)[0] == \
            pytest.approx(-0.3, abs=1e-12)

    def test_out_of_range_impacts_rejected(self):
        with pytest.raises(ValueError):
            inequity_intrinsics([1.0, 2.0], [[1.5], [1.0]], 1.0, 1.0)
        with pytest.raises(ValueError):
            inequity_intrinsics([1.0, 2.0], [[1.0], [-0.1]], 1.0, 1.0)

    def test_row_shape_rejected(self):
        with pytest.raises(ValueError):
            inequity_intrinsics([1.0, 2.0, 3.0], np.ones((3, 3)), 1.0, 1.0)
        with pytest.raises(ValueError):
            inequity_intrinsics([1.0, 2.0, 3.0], np.ones(2), 1.0, 1.0)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, seed):
        # a leading axis of W rows, one per rollout worker, each row on its own
        rng = np.random.default_rng(seed)
        n, W = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        w = rng.normal(scale=3.0, size=(W, n))
        d = rng.uniform(size=(W, n, n - 1))
        alpha, beta = rng.uniform(0, 6), rng.uniform(0, 1)
        got = inequity_intrinsics(w, d, alpha, beta)
        got_ia = ia(w, alpha, beta)
        assert got.shape == got_ia.shape == (W, n)
        for row in range(W):
            for k in range(n):
                assert got[row, k] == pytest.approx(
                    brute_force_emurel(w[row], d[row, k], k, alpha, beta), abs=1e-12)
                assert got_ia[row, k] == pytest.approx(
                    brute_force_ia(w[row], k, alpha, beta), abs=1e-12)

    @given(hnp.arrays(np.float64, 4, elements=st.floats(-50, 50)),
           hnp.arrays(np.float64, (4, 3), elements=st.floats(0, 1)))
    @settings(max_examples=100, deadline=None)
    def test_intrinsic_is_never_positive(self, w, d):
        assert np.all(inequity_intrinsics(w, d, 5.0, 0.05) <= 0.0)
        assert np.all(ia(w, 5.0, 0.05) <= 0.0)

    def test_advantageous_monotone_in_impact(self):
        # with w_k > d*w_j, lowering d deepens the guilt penalty
        w = [5.0, 3.0]
        lo = inequity_intrinsics(w, [[0.2], [1.0]], 0.0, 0.05)[0]
        hi = inequity_intrinsics(w, [[0.8], [1.0]], 0.0, 0.05)[0]
        assert lo < hi <= 0.0


class TestReshape:
    def test_zero_intrinsic(self):
        assert reshape_reward(2.0, 0.0, 1.0, 1.0) == 2.0

    def test_baseline_passthrough(self):
        assert reshape_reward(3.0, -1.0, 1.0, 0.0) == 3.0

    def test_hand_combination(self):
        assert reshape_reward(1.0, -2.5, 1.0, 1.0) == pytest.approx(-1.5)


class TestGiniEquality:
    def test_equal_returns_give_one(self):
        assert gini_equality([3.0, 3.0, 3.0]) == 1.0

    def test_one_hot_returns_give_one_over_n(self):
        assert gini_equality([7.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25, abs=1e-12)

    @given(hnp.arrays(np.float64, st.integers(2, 8),
                      elements=st.floats(0, 1e6)),
           st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    @example(np.array([5e-324, 0.0]), 0.5)
    def test_scale_invariance_and_range(self, r, c):
        v = gini_equality(r)
        assert 0.0 <= v <= 1.0 + 1e-12
        scaled = c * r
        assert 0.0 <= gini_equality(scaled) <= 1.0 + 1e-12
        # Invariance holds only while scaling keeps every entry's sign: a
        # subnormal entry that underflows to 0 changes the vector, e.g.
        # [5e-324, 0] has equality 0.5 but 0.5 * it is [0, 0], equality 1.
        if np.array_equal(scaled > 0, r > 0):
            assert gini_equality(scaled) == pytest.approx(v, abs=1e-9)

    def test_all_zero_defined_as_equal(self):
        assert gini_equality([0.0, 0.0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini_equality([1.0, -0.5])


class TestRewardShaper:
    def test_baseline_mode_zero_intrinsic(self):
        shaper = RewardShaper(ShapingConfig(mode="baseline"))
        w, e, i, r = shaper.step(np.zeros(2), [1.0, 0.0])
        np.testing.assert_array_equal(w, [1.0, 0.0])
        np.testing.assert_array_equal(i, [0.0, 0.0])
        np.testing.assert_array_equal(r, e)

    def test_emurel_all_ones_equals_ia_trajectory(self):
        rng = np.random.default_rng(3)
        cfg_ia = ShapingConfig(mode="ia", alpha=5.0, beta=0.05)
        cfg_em = ShapingConfig(mode="emurel", alpha=5.0, beta=0.05)
        s_ia, s_em = RewardShaper(cfg_ia), RewardShaper(cfg_em)
        w_ia, w_em = np.zeros(3), np.zeros(3)
        ones = np.ones((3, 2))
        for _ in range(20):
            e = rng.normal(size=3)
            w_ia, _, i_ia, _ = s_ia.step(w_ia, e)
            w_em, _, i_em, _ = s_em.step(w_em, e, impact_rows=ones)
            np.testing.assert_allclose(i_em, i_ia, atol=1e-12)

    def test_emurel_requires_impacts(self):
        shaper = RewardShaper(ShapingConfig(mode="emurel"))
        with pytest.raises(ValueError):
            shaper.step(np.zeros(2), [0.0, 0.0])

    @pytest.mark.parametrize("mode", ["baseline", "ia", "emurel"])
    def test_the_shaper_holds_only_its_config(self, mode):
        # the smoothed rewards are the caller's: steps leave no state behind
        cfg = ShapingConfig(mode=mode, alpha=1.0, beta=0.5)
        shaper = RewardShaper(cfg)
        w = np.zeros((2, 3))
        for t in range(4):
            w, *_ = shaper.step(w, np.full((2, 3), float(t)), np.ones((2, 3, 2)))
        assert vars(shaper) == {"config": cfg}

    @given(st.integers(2, 5), st.integers(1, 4), st.sampled_from(["baseline", "ia", "emurel"]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_batch_rows_equal_lone_shapers(self, n, W, mode, seed):
        # one step over (W, N) smoothed rewards gives each row the bytes of a
        # step over that (N,) row alone
        rng = np.random.default_rng(seed)
        cfg = ShapingConfig(mode=mode, alpha=rng.uniform(0, 6), beta=rng.uniform(0, 1))
        shaper = RewardShaper(cfg)
        batch = np.zeros((W, n))
        lone = [np.zeros(n) for _ in range(W)]
        steps, reset_row = 6, int(rng.integers(W))
        for t in range(steps):
            if t == steps // 2:
                batch[reset_row] = 0.0
                lone[reset_row] = np.zeros(n)
            e = rng.normal(scale=2.0, size=(W, n))
            d = rng.uniform(size=(W, n, n - 1))
            got = shaper.step(batch, e, d)
            batch = got[0]
            for row in range(W):
                want = shaper.step(lone[row], e[row], d[row])
                lone[row] = want[0]
                for g, x in zip(got, want):
                    assert g[row].tobytes() == x.tobytes(), (t, row)
