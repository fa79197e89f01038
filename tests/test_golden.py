"""Golden digests: the sha256 of metrics.csv and of the final checkpoints for
a small training matrix.

Every cell of {baseline, ia, emurel} x {ppo, a2c_sync} runs two updates of a
three-agent mini Cleanup with small nets, writes its rows with `MetricsWriter`
and saves each agent with `save_agents`, exactly as `marl-lab run` does. The
digests pin every bit of every metric and every parameter, so a change that
moves any number fails here and must re-pin in the same diff, saying why.

float64 BLAS results may differ between builds and CPU kernels, so the digests
are stored with the fingerprint of the build that produced them. On another
build the test skips and prints both fingerprints; it never re-pins itself.
Print the digests of the current build with

    PYTHONPATH=src python tests/test_golden.py
"""

import functools
import hashlib
import os
import platform
import tempfile

import numpy as np
import pytest

from marl_lab.agents import NetSizes
from marl_lab.cli.experiment import save_agents
from marl_lab.envs import EnvConfig
from marl_lab.shaping import ShapingConfig
from marl_lab.training import Trainer, TrainerConfig
from marl_lab.training.metrics import MetricsWriter

from helpers import THREE_AGENT_CLEANUP

SMALL = NetSizes(conv_filters=2, fc_units=8, lstm_units=8, eicm_hidden=8)

FINGERPRINT = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "machine": "x86_64",
    "cpu": "AVX2 AVX512F FMA3",
}

DIGESTS = {
    "baseline-ppo": "ad83f354df283d017bd64b84aefc180dc2ef6e2a7f75ba8d321cd13bffd36821",
    "baseline-a2c_sync": "87d00a32af3e05fb2d3eb25b363301a027731800581fc5248bfd8acea87782f6",
    "ia-ppo": "a4b12c7101b1dfb0b123553194c62c6a7ffc6f4719bf216024823acd27e27371",
    "ia-a2c_sync": "02c4e981317f62dae05c87b5368ed9c9f87c7aa88370e1e41414eb60969fb887",
    "emurel-ppo": "69579707cc65d2ca6569a5b8a2a1704e993dd808e7607b13a44df1a114708d0a",
    "emurel-a2c_sync": "355de84051a19cc0b78e6e0c5957b844db083d605f0bd48448279696a2c15761",
}

# Final checkpoint of agent 0, 1, 2, as `save_agents` writes it.
CHECKPOINT_DIGESTS = {
    "baseline-ppo": [
        "1e6201cc5d485dd53758f451e1f868235deacc37aad7333a83bb78a4acd5724f",
        "5059634ce86f1c6845792c7c5739e725cc3c1ae2c7379618ce66c3ee6bb38cd8",
        "b705cdccfa9cdee25246e04cda6cda75600e251851b2e3eb91002384a751d0f5",
    ],
    "baseline-a2c_sync": [
        "e2f42b38045ac9c502de968e9f1d03bdb803ec6c9e59539565c79a60265f3c01",
        "d331109640b26dcaa503466c014f38fbf3651d8a4daf255b43107f56dcbe2633",
        "2fd391ecce8fd9368be358f329df9799d7879dd411fe95fdcf60926db246a95b",
    ],
    "ia-ppo": [
        "9aa41d8bf11aa516574d0f97019fdba71e5ce5a5c1600be2b26cb863b445c8b1",
        "a8b94b19f9ffa67e2f9fea1f246f91aa32fc6f41493fb91b307049477df364a3",
        "224304e02237f72bd169462a1cdef0a2c7164ba54774ad0ff4c7ef49542c8a6e",
    ],
    "ia-a2c_sync": [
        "9fb8ed8f3b1e6a24c7bc80b0d2382f2ec0b952a8b10440d009f8a17f5c176ada",
        "80b19a4236bd7bf6c10b8f1cd90223d72488a3e72afbcaba2b96ee4b1f5b9a7a",
        "20e03249d23aa8d23a5f68022829645d0065c2568f3987ee019eedea5f47701f",
    ],
    "emurel-ppo": [
        "42d22a26cd4e16fbd43b16cbab558b3fbd30a1a1f2f8a0c5ff7c5f751592e897",
        "acf0e938d7b03690da27e14286cd19ec3bc521a2a53ccd5dec14a0a9b07ff79b",
        "4924fa81ed22df2750b13ffca2e0331a1f601f5a9d226f6092d454291bb43fdc",
    ],
    "emurel-a2c_sync": [
        "74e96ea844e89a09b1bd23e4d95f1a185f28608b82eac73e5d9e32ba4577ecb2",
        "2051b353b01800de70e8afb8cc04213177445f77eb4cfc4f8d7636c893e779b7",
        "1d36470671a3f266d77bbab7d3ead2a77fa8742856412af5b54ebcf68e7fcb9b",
    ],
}


def fingerprint():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    from numpy._core._multiarray_umath import __cpu_features__ as features
    cpu = " ".join(f for f in ("AVX2", "AVX512F", "FMA3") if features.get(f))
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine(),
            "cpu": cpu}


def golden_trainer(mode, algo):
    env = EnvConfig(kind="cleanup", map_rows=THREE_AGENT_CLEANUP, num_agents=3,
                    episode_length=15, view_size=7, initial_waste_fraction=0.2, seed=5)
    shaping = ShapingConfig(mode=mode, alpha=0.0 if mode == "baseline" else 5.0,
                            beta=0.05)
    cfg = TrainerConfig(algo=algo, batch_steps=64, minibatch_steps=32, ppo_epochs=2,
                        workers=4, learning_rate=1e-3, seed=5,
                        gae_lambda=1.0 if algo == "a2c_sync" else 0.95)
    return Trainer(env, shaping, cfg, sizes=SMALL)


def sha256_of(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@functools.lru_cache(maxsize=None)
def golden_digests(mode, algo, updates=2):
    """(metrics.csv digest, [final checkpoint digest per agent]) of one cell."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "metrics.csv")
        writer = MetricsWriter(path)
        trainer = golden_trainer(mode, algo)
        try:
            trainer.run(updates, on_update=lambda row, *_: writer.write_row(row))
        finally:
            writer.close()
        ckpts = save_agents(trainer, os.path.join(tmp, "checkpoints"), trainer.env_steps)
        return sha256_of(path), [sha256_of(p) for p in ckpts]


CELLS = [(mode, algo) for mode in ("baseline", "ia", "emurel")
         for algo in ("ppo", "a2c_sync")]


@pytest.mark.parametrize("mode,algo", CELLS)
def test_metrics_csv_matches_golden_digest(mode, algo):
    here = fingerprint()
    if here != FINGERPRINT:
        pytest.skip(f"digests were pinned on {FINGERPRINT}; this build is {here}")
    got, _ = golden_digests(mode, algo)
    assert got == DIGESTS[f"{mode}-{algo}"], (
        f"metrics.csv of {mode}-{algo} moved; re-pin only for a deliberate numeric change")


@pytest.mark.parametrize("mode,algo", CELLS)
def test_final_checkpoints_match_golden_digest(mode, algo):
    here = fingerprint()
    if here != FINGERPRINT:
        pytest.skip(f"digests were pinned on {FINGERPRINT}; this build is {here}")
    _, got = golden_digests(mode, algo)
    assert got == CHECKPOINT_DIGESTS[f"{mode}-{algo}"], (
        f"final checkpoints of {mode}-{algo} moved; re-pin only for a deliberate "
        f"numeric change")


if __name__ == "__main__":
    print(fingerprint())
    runs = {f"{mode}-{algo}": golden_digests(mode, algo) for mode, algo in CELLS}
    print("DIGESTS")
    for cell, (metrics, _) in runs.items():
        print(f'    "{cell}": "{metrics}",')
    print("CHECKPOINT_DIGESTS")
    for cell, (_, ckpts) in runs.items():
        print(f'    "{cell}": {ckpts},')
