"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest -v -s tests/test_acceptance.py`).

Scale knobs, tolerances untouched: the byte-identical determinism runs use
the shipped desk spec shortened to 12 updates and the learning smoke test
stops as soon as its criterion holds; set MARL_LAB_FULL_ACCEPTANCE=1 to run
the full 200-update schedules.
"""

import contextlib
import os
import time

import numpy as np
import pytest

from marl_lab.agents import AgentNets, NetSizes, joint_one_hot
from marl_lab.cli import resolve_spec, run_single_seed, summarize, format_table
from marl_lab.eicm import (
    forward_loss_tape, impact_row, inverse_loss_tape, normalize_impacts,
)
from marl_lab.envs import EnvConfig, SSDEnv, cleanup_spawn_rate
from marl_lab.envs.env import EAST, FIRE_PUNISH, MOVE_UP, NOOP, APPLE
from marl_lab.nn import Conv2d, Dense, LSTMCell, Tensor, finite_difference_check
from marl_lab.nn import tensor as T
from marl_lab.shaping import gini_equality, inequity_intrinsics, update_smoothed
from marl_lab.training import (
    Trainer, TrainerConfig, UniformRandomPolicy, composite_loss, evaluate,
)

FULL = os.environ.get("MARL_LAB_FULL_ACCEPTANCE") == "1"
SPECS = os.path.join(os.path.dirname(__file__), "..", "specs")


@contextlib.contextmanager
def criterion(name, budget_s=None):
    t0 = time.time()
    try:
        yield
        dt = time.time() - t0
        if budget_s is not None and dt >= budget_s:
            print(f"ACCEPTANCE {name}: FAIL (runtime {dt:.1f}s over budget "
                  f"{budget_s}s)", flush=True)
            raise AssertionError(f"{name}: runtime {dt:.1f}s exceeds {budget_s}s")
        print(f"ACCEPTANCE {name}: PASS ({dt:.1f}s)", flush=True)
    except BaseException:
        if time.time() - t0 >= 0:
            print(f"ACCEPTANCE {name}: FAIL", flush=True)
        raise


# -- 1. equation oracles ------------------------------------------------------

def brute_ia(w, k, alpha, beta):
    n = len(w)
    envy = sum(max(w[j] - w[k], 0.0) for j in range(n) if j != k)
    guilt = sum(max(w[k] - w[j], 0.0) for j in range(n) if j != k)
    return -alpha / (n - 1) * envy - beta / (n - 1) * guilt


def brute_emurel(w, d, k, alpha, beta):
    n = len(w)
    envy = guilt = 0.0
    pos = 0
    for j in range(n):
        if j == k:
            continue
        s = d[pos] * w[j]
        pos += 1
        envy += max(s - w[k], 0.0)
        guilt += max(w[k] - s, 0.0)
    return -alpha / (n - 1) * envy - beta / (n - 1) * guilt


def test_equation_oracles():
    with criterion("equation-oracles", budget_s=5):
        rng = np.random.default_rng(20240001)
        ones_cases = 0
        for _ in range(10000):
            n = int(rng.integers(2, 7))
            w = rng.normal(scale=3.0, size=n)
            d = rng.uniform(size=n - 1)
            k = int(rng.integers(n))
            alpha = float(rng.uniform(0, 6))
            beta = float(rng.uniform(0, 1))
            rows = np.ones((n, n - 1))
            rows[k] = d
            emurel = inequity_intrinsics(w, rows, alpha, beta)
            plain = inequity_intrinsics(w, np.ones((n, n - 1)), alpha, beta)
            assert abs(plain[k] - brute_ia(w, k, alpha, beta)) < 1e-12
            assert abs(emurel[k] - brute_emurel(w, d, k, alpha, beta)) < 1e-12
            if plain[k] == brute_ia(w, k, alpha, beta):
                ones_cases += 1
        assert ones_cases == 10000   # d = 1 reduces to plain IA exactly


# -- 2. smoothing oracle ------------------------------------------------------

def test_smoothing_oracle():
    with criterion("smoothing-oracle", budget_s=5):
        rng = np.random.default_rng(20240002)
        for _ in range(1000):
            gamma = float(rng.uniform(0.5, 1.0))
            lam = float(rng.uniform(0.5, 1.0))
            e = rng.normal(size=50)
            w = np.zeros(1)
            for t in range(50):
                w = update_smoothed(w, e[t:t + 1], gamma, lam)
            decay = (gamma * lam) ** np.arange(49, -1, -1)
            assert abs(w[0] - float(decay @ e)) < 1e-12


# -- 3. gradient suite --------------------------------------------------------

TINY = NetSizes(conv_filters=1, fc_units=3, lstm_units=3, eicm_hidden=3)


def _dense_margin(x, layer):
    return float(np.min(np.abs(x @ layer.weight.data + layer.bias.data)))


def _conv_margin(x, conv):
    B, H, W, C = x.shape
    win = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(1, 2))
    patches = win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, 9 * C)
    lin = patches @ conv.kernel.data.reshape(9 * C, -1) + conv.bias.data
    return float(np.min(np.abs(lin)))


def _composite_instance(seed):
    """Margin-screened random instance of the full training loss."""
    rng = np.random.default_rng(seed)
    nets = AgentNets(view_size=5, num_actions=3, num_agents=2, seed=seed, sizes=TINY)
    B = 2
    view = {
        "obs": rng.normal(size=(B, 2, 5, 5, 8)) * 0.5,
        "next_obs": rng.normal(size=(B, 2, 5, 5, 8)) * 0.5,
        "actions": rng.integers(0, 3, size=(B, 2)),
        "behavior_logp": np.log(rng.uniform(0.2, 0.5, size=(B, 2))),
        "values": rng.normal(size=(B, 2)),
        "v_h": rng.normal(size=(B, 2, 3)) * 0.1,
        "v_c": rng.normal(size=(B, 2, 3)) * 0.1,
        "u_h": rng.normal(size=(B, 2, 3)) * 0.1,
        "u_c": rng.normal(size=(B, 2, 3)) * 0.1,
        "moa_targets": rng.integers(0, 3, size=(B, 2, 1)),
        "moa_valid": np.ones(B, dtype=bool),
    }
    stacked = np.concatenate([view["obs"][:, 0], view["next_obs"][:, 0]])
    if _conv_margin(stacked, nets.conv) < 1e-2:
        return None
    feats = nets.conv.apply(stacked).reshape(2 * B, -1)
    fp, fn_ = feats[:B], feats[B:]
    for stack_x, l1, l2 in ((fp, nets.ac_fc1, nets.ac_fc2),
                            (fp, nets.moa_fc1, nets.moa_fc2)):
        h = l1.apply(stack_x)
        if _dense_margin(stack_x, l1) < 1e-2 or _dense_margin(h, l2) < 1e-2:
            return None
    joint = np.stack([joint_one_hot(a, 3) for a in view["actions"]])
    fwd_in = np.concatenate([fp, view["u_h"][:, 0], joint], axis=-1)
    inv_in = np.concatenate([fp, fn_, view["u_h"][:, 0]], axis=-1)
    if (_dense_margin(fwd_in, nets.fwd_fc1) < 1e-2
            or _dense_margin(inv_in, nets.inv_fc1) < 1e-2):
        return None
    # keep probability ratios away from the clip boundaries
    logits, _, _, _ = nets.run_actor_critic(Tensor(fp), Tensor(view["v_h"][:, 0]),
                                            Tensor(view["v_c"][:, 0]))
    logp = T.log_softmax(logits).data
    logp_a = logp[np.arange(B), view["actions"][:, 0]]
    ratio = np.exp(logp_a - view["behavior_logp"][:, 0])
    if np.min(np.abs(ratio - 0.8)) < 1e-2 or np.min(np.abs(ratio - 1.2)) < 1e-2:
        return None
    adv = rng.normal(size=B) * 0.3
    tgt = rng.normal(size=B) * 0.3
    # every term active, but scaled so the loss magnitude stays ~O(0.3):
    # central differences at epsilon 1e-4 carry an absolute noise floor of
    # ~5e-13 * |loss|, which must stay below 1e-4 * the 1e-8 denominator floor
    cfg = TrainerConfig(batch_steps=8, minibatch_steps=4, workers=1,
                        value_coef=0.1, entropy_coef=0.01, moa_coef=0.05,
                        forward_coef=0.05, inverse_coef=0.05)
    return nets, view, adv, tgt, cfg


def test_gradient_suite():
    with criterion("gradient-suite", budget_s=120):
        # (a) conv + dense + lstm composites
        done, seed = 0, 0
        while done < 50:
            seed += 1
            r = np.random.default_rng(seed)
            conv = Conv2d("conv", 2, 2, r)
            fc = Dense("fc", 18, 4, r)
            cell = LSTMCell("cell", 4, 3, r)
            head = Dense("head", 3, 2, r, activation="linear")
            x = r.normal(size=(2, 5, 5, 2))
            h0 = r.normal(size=(2, 3)) * 0.1
            c0 = r.normal(size=(2, 3)) * 0.1
            if _conv_margin(x, conv) < 1e-2:
                continue
            flat = conv.apply(x).reshape(2, -1)
            if _dense_margin(flat, fc) < 1e-2:
                continue

            def loss_a():
                feat = T.reshape(conv.apply(Tensor(x)), (2, 18))
                h, _ = cell.apply(fc.apply(feat), Tensor(h0), Tensor(c0))
                out = head.apply(h)
                return T.tsum(T.mul(out, out))

            err = finite_difference_check(
                loss_a, conv.params() + fc.params() + cell.params() + head.params(),
                epsilon=1e-4)
            assert err < 1e-4, f"(a) seed {seed}: {err}"
            done += 1

        # (b) L_F through forward-model and encoder parameters
        # (c) L_I through inverse-model and encoder parameters
        for leg, loss_builder, param_picker in (
                ("b", forward_loss_tape, lambda n: n.forward_model.parameters()
                 + n.encoder.parameters()),
                ("c", inverse_loss_tape, lambda n: n.inverse_model.parameters()
                 + n.encoder.parameters())):
            done, seed = 0, 1000 if leg == "b" else 2000
            while done < 50:
                seed += 1
                r = np.random.default_rng(seed)
                nets = AgentNets(view_size=5, num_actions=3, num_agents=2,
                                 seed=seed, sizes=TINY)
                obs_prev = r.normal(size=(2, 5, 5, 8)) * 0.5
                obs_next = r.normal(size=(2, 5, 5, 8)) * 0.5
                u = r.normal(size=(2, 3)) * 0.1
                stacked = np.concatenate([obs_prev, obs_next])
                if _conv_margin(stacked, nets.conv) < 1e-2:
                    continue
                feats = nets.conv.apply(stacked).reshape(4, -1)
                joint = np.stack([joint_one_hot(r.integers(0, 3, size=2), 3)
                                  for _ in range(2)])
                fwd_in = np.concatenate([feats[:2], u, joint], axis=-1)
                inv_in = np.concatenate([feats[:2], feats[2:], u], axis=-1)
                if (_dense_margin(fwd_in, nets.fwd_fc1) < 1e-2
                        or _dense_margin(inv_in, nets.inv_fc1) < 1e-2):
                    continue
                if leg == "b":
                    def loss_fn():
                        return forward_loss_tape(
                            nets, nets.encode(Tensor(obs_prev)),
                            nets.encode(Tensor(obs_next)), Tensor(u),
                            Tensor(joint))
                else:
                    actions = r.integers(0, 3, size=(2, 2))

                    def loss_fn():
                        return inverse_loss_tape(
                            nets, nets.encode(Tensor(obs_prev)),
                            nets.encode(Tensor(obs_next)), Tensor(u), actions)

                err = finite_difference_check(loss_fn, param_picker(nets),
                                              epsilon=1e-4)
                assert err < 1e-4, f"({leg}) seed {seed}: {err}"
                done += 1

        # (d) the composite training loss, every term active
        done, seed = 0, 3000
        while done < 50:
            seed += 1
            inst = _composite_instance(seed)
            if inst is None:
                continue
            nets, view, adv, tgt, cfg = inst

            def loss_d():
                loss, _ = composite_loss(nets, 0, view, adv, tgt, cfg, "emurel",
                                         ppo=True)
                return loss

            err = finite_difference_check(loss_d, nets.parameters(), epsilon=1e-4)
            assert err < 1e-4, f"(d) seed {seed}: {err}"
            done += 1


# -- 4. elimination correctness ----------------------------------------------

def test_elimination_correctness():
    with criterion("elimination-correctness"):
        sizes = NetSizes(conv_filters=2, fc_units=8, lstm_units=8, eicm_hidden=8)
        nets = AgentNets(view_size=5, num_actions=9, num_agents=3, seed=5,
                         sizes=sizes)
        a = nets.num_actions
        for j in range(1, 3):
            block = slice(nets.q + 8 + j * a, nets.q + 8 + (j + 1) * a)
            nets.fwd_fc1.weight.data[block, :] = 0.0
        rng = np.random.default_rng(0)
        phi = rng.normal(size=nets.q)
        joint = joint_one_hot([2, 5, 7], 9)
        _, raw = impact_row(nets, phi, np.zeros(8), joint, 0)
        np.testing.assert_array_equal(raw, [0.0, 0.0])      # fellows 1 and 2

        rng = np.random.default_rng(20240004)
        for _ in range(10000):
            n = int(rng.integers(1, 8))
            raw = rng.uniform(0, 10, size=n)
            out = normalize_impacts(raw)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)
            order = np.argsort(raw, kind="stable")
            assert np.all(np.diff(out[order]) >= 0.0)
        for n in range(1, 6):
            np.testing.assert_array_equal(normalize_impacts(np.full(n, 0.7)),
                                          np.ones(n))


# -- 5. environment semantics -------------------------------------------------

def test_environment_semantics():
    with criterion("environment-semantics"):
        env = SSDEnv(EnvConfig(kind="cleanup", map_rows=["#####", "#PA #", "#   #",
                                                         "#####"],
                               num_agents=1, episode_length=50, view_size=5,
                               cleanup_max_spawn_rate=0.0, waste_spawn_prob=0.0,
                               initial_waste_fraction=0.0))
        env.reset()
        env.state.orientations[0] = EAST
        _, out = env.step([MOVE_UP])
        assert out.extrinsic[0] == 1.0

        env = SSDEnv(EnvConfig(kind="cleanup", map_rows=["#######", "#P  P #",
                                                         "#     #", "#######"],
                               num_agents=2, episode_length=50, view_size=5,
                               cleanup_max_spawn_rate=0.0, waste_spawn_prob=0.0,
                               initial_waste_fraction=0.0))
        env.reset()
        env.state.positions[0] = (1, 1)
        env.state.positions[1] = (1, 3)
        env.state.orientations[:] = EAST
        _, out = env.step([FIRE_PUNISH, NOOP])
        assert out.extrinsic[0] == -1.0 and out.extrinsic[1] == -50.0

        rows = ["#####", "#AA #", "#A P#", "# AA#", "#####"]
        for seed in range(100):
            env = SSDEnv(EnvConfig(kind="harvest", map_rows=rows, num_agents=1,
                                   episode_length=200, view_size=5, seed=seed))
            env.reset()
            rng = np.random.default_rng(seed)
            extinct = False
            for _ in range(200):
                env.step([rng.integers(0, env.num_actions)])
                apples = int(np.sum(env.state.grid == APPLE))
                if extinct:
                    assert apples == 0, f"seed {seed}: apples regrew after extinction"
                extinct = extinct or apples == 0

        assert cleanup_spawn_rate(0.4) == 0.0
        assert cleanup_spawn_rate(0.9) == 0.0
        assert cleanup_spawn_rate(0.0) == 0.05


# -- 6. determinism -----------------------------------------------------------

def test_determinism_byte_identical_metrics(tmp_path):
    with criterion("determinism", budget_s=3600):
        spec = resolve_spec(os.path.join(SPECS, "mini_cleanup_baseline.spec"))
        spec.trainer.updates = 200 if FULL else 12
        spec.eval_interval = 0
        spec.checkpoint_interval = 0
        spec.seeds = [1]
        blobs = []
        for attempt in ("a", "b"):
            spec.output_dir = str(tmp_path / attempt)
            run_dir, _ = run_single_seed(spec, 1)
            with open(os.path.join(run_dir, "metrics.csv"), "rb") as f:
                blobs.append(f.read())
        assert blobs[0] == blobs[1], "metrics CSVs differ between identical runs"


# -- 7. learning smoke test ---------------------------------------------------

def test_learning_smoke(tmp_path):
    with criterion("learning-smoke", budget_s=3600):
        base_spec = resolve_spec(os.path.join(SPECS, "mini_cleanup_baseline.spec"))
        env_cfg = base_spec.env
        env_cfg.seed = 1
        random_reward, _ = evaluate([UniformRandomPolicy(9)] * 2, env_cfg,
                                    episodes=100, seed=4242)
        target = 1.2 * random_reward

        tcfg = base_spec.trainer
        tcfg.seed = 1
        trainer = Trainer(env_cfg, base_spec.method, tcfg, sizes=base_spec.net)
        cap = 200
        eval_every = 20
        updates_used, trained_reward = None, None
        for u in range(1, cap + 1):
            trainer.one_update()
            if u % eval_every == 0:
                trained_reward, _ = evaluate(trainer.agents, env_cfg, episodes=100,
                                             seed=2424)
                if trained_reward >= target:
                    updates_used = u
                    break
        assert updates_used is not None, (
            f"baseline never reached 1.2x random ({target:.1f}) within {cap} "
            f"updates; last eval {trained_reward}")
        print(f"  smoke: random={random_reward:.1f} target={target:.1f} "
              f"trained={trained_reward:.1f} after {updates_used} updates",
              flush=True)

        emurel_spec = resolve_spec(os.path.join(SPECS, "mini_cleanup_emurel.spec"))
        ecfg = emurel_spec.trainer
        ecfg.seed = 1
        em_trainer = Trainer(env_cfg, emurel_spec.method, ecfg,
                             sizes=emurel_spec.net)
        schedule = cap if FULL else updates_used
        for _ in range(schedule):
            row, buffer = em_trainer.one_update()
            for key in ("policy_loss", "value_loss", "moa_loss", "forward_loss",
                        "inverse_loss"):
                assert np.isfinite(row[key]), f"non-finite {key} in emurel mode"
            assert np.all(buffer.impact_rows >= 0.0)
            assert np.all(buffer.impact_rows <= 1.0)


# -- 8. equality metric -------------------------------------------------------

def test_equality_metric():
    with criterion("equality-metric"):
        assert gini_equality([4.4, 4.4, 4.4]) == 1.0
        assert gini_equality([9.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25, abs=1e-12)
        rng = np.random.default_rng(20240008)
        for _ in range(10000):
            n = int(rng.integers(2, 9))
            r = rng.uniform(0, 100, size=n)
            c = float(rng.uniform(1e-3, 1e3))
            v = gini_equality(r)
            assert 0.0 <= v <= 1.0 + 1e-12
            assert abs(gini_equality(c * r) - v) < 1e-9


# -- 9. method-ordering table (reported, not gated) ----------------------------

def test_method_table_emitted(tmp_path):
    with criterion("method-table-emitted", budget_s=3600):
        out_dir = str(tmp_path / "table_runs")
        for name in ("mini_cleanup_baseline.spec", "mini_cleanup_ia.spec",
                     "mini_cleanup_emurel.spec"):
            spec = resolve_spec(os.path.join(SPECS, name))
            spec.trainer.updates = 200 if FULL else 5
            spec.eval_interval = 0
            spec.checkpoint_interval = 0
            spec.output_dir = out_dir
            spec.seeds = [1, 2]
            for seed in spec.seeds:
                run_single_seed(spec, seed)
        rows = summarize([out_dir], last_steps=4000)
        table = format_table(rows)
        print("  method comparison (desk scale, NOT gated):", flush=True)
        for line in table.splitlines():
            print("   ", line, flush=True)
        assert {r["method"] for r in rows} == {"baseline", "ia", "emurel"}
        for r in rows:
            assert r["runs"] == 2
            assert np.isfinite(r["mean_collective_reward"])
            assert r["ci_low"] <= r["mean_collective_reward"] <= r["ci_high"]
