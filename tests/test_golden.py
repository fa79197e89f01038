"""Golden digests: the sha256 of metrics.csv for a small training matrix.

Every cell of {baseline, ia, emurel} x {ppo, a2c_sync} runs two updates of a
three-agent mini Cleanup with small nets and writes its rows with
`MetricsWriter`, exactly as `marl-lab run` does. The digests pin every bit of
every metric, so a change that moves any number fails here and must re-pin in
the same diff, saying why.

float64 BLAS results may differ between builds and CPU kernels, so the digests
are stored with the fingerprint of the build that produced them. On another
build the test skips and prints both fingerprints; it never re-pins itself.
Print the digests of the current build with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import platform

import numpy as np
import pytest

from marl_lab.agents import NetSizes
from marl_lab.envs import EnvConfig
from marl_lab.shaping import ShapingConfig
from marl_lab.training import Trainer, TrainerConfig
from marl_lab.training.metrics import MetricsWriter

from conftest import THREE_AGENT_CLEANUP

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


def metrics_digest(mode, algo, path, updates=2):
    writer = MetricsWriter(path)
    try:
        golden_trainer(mode, algo).run(updates, on_update=lambda row, *_: writer.write_row(row))
    finally:
        writer.close()
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


CELLS = [(mode, algo) for mode in ("baseline", "ia", "emurel")
         for algo in ("ppo", "a2c_sync")]


@pytest.mark.parametrize("mode,algo", CELLS)
def test_metrics_csv_matches_golden_digest(mode, algo, tmp_path):
    here = fingerprint()
    if here != FINGERPRINT:
        pytest.skip(f"digests were pinned on {FINGERPRINT}; this build is {here}")
    got = metrics_digest(mode, algo, tmp_path / "metrics.csv")
    assert got == DIGESTS[f"{mode}-{algo}"], (
        f"metrics.csv of {mode}-{algo} moved; re-pin only for a deliberate numeric change")


if __name__ == "__main__":
    import tempfile
    print(fingerprint())
    with tempfile.TemporaryDirectory() as tmp:
        for mode, algo in CELLS:
            print(f'    "{mode}-{algo}": "{metrics_digest(mode, algo, f"{tmp}/m.csv")}",')
