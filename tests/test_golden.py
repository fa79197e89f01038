"""Golden digests: the sha256 of metrics.csv and of the final checkpoints for
a small training matrix, and of the evaluation and replay streams.

Every cell of {baseline, ia, emurel} x {ppo, a2c_sync} runs two updates of a
three-agent mini Cleanup with small nets into a `RunDirectory`, which writes
its rows and saves each agent exactly as `marl-lab run` does. Two
Harvest cells, baseline and emurel with `a2c_sync`, do the same on two-agent
`harvest_mini`, with regrowth rates high enough that apples regrow during the
run. The digests pin every bit of every metric and every parameter, so a
change that moves any number fails here and must re-pin in the same diff,
saying why.

The emurel-ppo cell also runs from a spec file through `run_single_seed` with
an evaluation after every update, sampled and greedy; its `events.jsonl` is
pinned, and so is `replay` of its final checkpoints: the frames and the
per-episode results, as `marl-lab replay --out` and stdout carry them.

A whole run directory is pinned too: the same spec with the shaping audit on
and a checkpoint after every update, run through `run_single_seed`. Its file
list is pinned, and the digest of every file but `snapshot.spec`, which holds
the temporary output_dir and whose text SNAPSHOT_DIGESTS pins.

The env alone is pinned on the two large maps, which no training cell runs:
one digest per map over 1,500 seeded random-action steps, covering every
observation, grid, pose, reward and event count.

The snapshot each shipped spec (and the CLI tests' tiny spec) writes for seed
1 is pinned too. `summarize` groups runs by those bytes, so a change to how a
spec resolves or is written out fails here. They are plain text, so these
digests hold on every build.

float64 BLAS results may differ between builds and CPU kernels, so the digests
are stored with the fingerprint of the build that produced them. On another
build the test skips and prints both fingerprints; it never re-pins itself.
The env digests use no float BLAS, only numpy's seeded generators, whose
streams numpy may change between versions; they skip on another numpy
version only.

Print the digests of the current build with

    PYTHONPATH=src python tests/test_golden.py
"""

import functools
import hashlib
import json
import os
import platform
import tempfile

import numpy as np
import pytest

from marl_lab.agents import NetSizes
from marl_lab.cli.experiment import ExperimentSpec, resolve_spec, run_single_seed
from marl_lab.cli.replay import replay
from marl_lab.cli.rundir import RunDirectory
from marl_lab.envs import EnvConfig, SSDEnv
from marl_lab.shaping import ShapingConfig
from marl_lab.training import Trainer, TrainerConfig

from helpers import THREE_AGENT_CLEANUP, TINY_SPEC, run_python

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
    "harvest-baseline-a2c_sync": "c6026f423deac31cfb173d33d6d09c45881a9243231742cfac87cbedf20e2a3f",
    "harvest-emurel-a2c_sync": "0974666c9b470d7a1a835a053736c2cc10839521f5df6784ca8addf64a44cdd7",
}

# Final checkpoint of each agent, in agent order, as `RunDirectory.finish`
# writes it.
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
    "harvest-baseline-a2c_sync": [
        "f5da6c2d1ab1457e6be57d49ff5044c0cedd8f6a342f33f69cfc69060e56b992",
        "c5f091be9233d94a0b728bef7144848a8142b99ab355cb177b95505607071607",
    ],
    "harvest-emurel-a2c_sync": [
        "c813ff8865f0f9b834a401100768b3289577e51c411b1e1942b1fa452819983f",
        "a5c2027f7b0bc50da68a23a4c3cac84d2a5e68e4a02ecd90cd03c7d937d4b42c",
    ],
}

# events.jsonl of the eval cell, and replay frames plus per-episode JSON lines.
EVAL_DIGESTS = {
    "sampled": "5754acbdceed13b4633cb15a0b15ba0d73c800a6f4004cec2e50d8da82616488",
    "greedy": "b8ff2031caf8067c684175236ba59c375db773bcc49a5580832582634ca0300f",
}

REPLAY_DIGESTS = {
    "sampled": "b4bcdad2ac3cceeb616fe116da4811294426026772c95d04e0144f8cbf230101",
    "greedy": "66f5a3c4081b436740a856462992a33b813d62c32e0a2d8b0fb324b825ac0e97",
}

# The run-directory cell: every file it writes, and the sha256 of each but
# snapshot.spec, by path relative to the run directory.
RUN_DIRECTORY_FILES = [
    "checkpoints/agent0_step0000000064.ckpt",
    "checkpoints/agent0_step0000000128.ckpt",
    "checkpoints/agent1_step0000000064.ckpt",
    "checkpoints/agent1_step0000000128.ckpt",
    "checkpoints/agent2_step0000000064.ckpt",
    "checkpoints/agent2_step0000000128.ckpt",
    "events.jsonl",
    "metrics.csv",
    "shaping_audit.csv",
    "snapshot.spec",
    "summary.json",
]

RUN_DIRECTORY_DIGESTS = {
    "checkpoints/agent0_step0000000064.ckpt": "750251ea5386cfab22c9e7b6894d5c3c412fb353608a8e51d564f4057707c771",
    "checkpoints/agent0_step0000000128.ckpt": "42d22a26cd4e16fbd43b16cbab558b3fbd30a1a1f2f8a0c5ff7c5f751592e897",
    "checkpoints/agent1_step0000000064.ckpt": "aeeeeb5c56e35a93c7bd7f255de2b0f9b3e6dc5eeaf69f89a2d5aa466f14b0ef",
    "checkpoints/agent1_step0000000128.ckpt": "acf0e938d7b03690da27e14286cd19ec3bc521a2a53ccd5dec14a0a9b07ff79b",
    "checkpoints/agent2_step0000000064.ckpt": "8801c73cb78e160176f54ae13a2ddd86792425c23748e5d48d00fbdda0fa9db7",
    "checkpoints/agent2_step0000000128.ckpt": "4924fa81ed22df2750b13ffca2e0331a1f601f5a9d226f6092d454291bb43fdc",
    "events.jsonl": "6d6329e2aec2406c5b58e5099f281f35ec5c07b45c780ff98d4dee91c88ce74a",
    "metrics.csv": "69579707cc65d2ca6569a5b8a2a1704e993dd808e7607b13a44df1a114708d0a",
    "shaping_audit.csv": "6b665e75eacf8dd117a30b15125bd3c6e26292c31dcb6abe9c306c089d7b74fc",
    "summary.json": "7953938e750eb574219f4326f2ee6f9d56fffe7b7814cb37ff52d86a1bfd1663",
}

# 1,500 random-action steps of one env on each large map: (kind, agents, digest).
ENV_DIGESTS = {
    "cleanup_large": ("cleanup", 5,
                      "f4cd34f882e3a0f083854e6de2afc8c92fdd816bbcbe7bf887fd2f60329d45c4"),
    "harvest_large": ("harvest", 4,
                      "3e7f20f872b4824912622b5ace688d1db5de83db92457339108b94be9c66d5d1"),
}

# snapshot.spec text of seed 1, keyed by spec file name ("tiny": the CLI tests'
# spec, baseline mode, output_dir "runs").
SNAPSHOT_DIGESTS = {
    "full_scale_cleanup_emurel.spec": "b6ceeacee0b1269ff077ab1146bb2ac575b292b876956e76d8a5a79b57880f1e",
    "full_scale_harvest_emurel_a2c.spec": "2af3a1f326731dede1674c73f66d60e05941ef2c2edbcce8524fb1c889e19555",
    "mini_cleanup3_baseline.spec": "5a2173d93c5df58325c6c9f4c41feb02fde759f4bd7bf38532da7511f93c8ee1",
    "mini_cleanup3_emurel.spec": "d224f1ed7d5e603c3095b87dffff966e34ee73413bd04c78ad808b5c54b016b4",
    "mini_cleanup3_ia.spec": "8efd812dee8ec37a057aa7aa95ae304152f31e0855f404c78add24e286be4efd",
    "mini_cleanup_baseline.spec": "f1e12c71e8265ce933b237f7eb34ba8e3d01ffce82eb9da3d952b22e435392fb",
    "mini_cleanup_emurel.spec": "3fc5253f9dabd5c77629cbec2aef05b373fb1c760d6b0dd5027da97765becc05",
    "mini_cleanup_ia.spec": "d8cead8283beb90dd48c3840f7e1ca13e0cf047c0f5dedd050ab902785360dcf",
    "mini_harvest_a2c_baseline.spec": "055cd394b0a798cbc383dea9a43c3920bb1135bfb253f5736a5a102f0c8ba528",
    "tiny": "f1f82698b90a50a23fe382c127078f0b9b683de34b5470a62dbc22ab0496264f",
}

SPECS_DIR = os.path.join(os.path.dirname(__file__), "..", "specs")

EVAL_SPEC = """name = "golden-eval"
seeds = [5]
output_dir = "{out}"

[env]
kind = "cleanup"
map = "{map}"
num_agents = 3
episode_length = 15
view_size = 7
initial_waste_fraction = 0.2

[method]
mode = "emurel"
alpha = 5.0
beta = 0.05

[trainer]
algo = "ppo"
batch_steps = 64
minibatch_steps = 32
ppo_epochs = 2
workers = 4
updates = 2
learning_rate = 0.001

[eval]
interval = 1
episodes = 3
greedy = {greedy}

[net]
conv_filters = 2
fc_units = 8
lstm_units = 8
eicm_hidden = 8
"""


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


def golden_trainer(cell):
    """The trainer of one cell: "<mode>-<algo>" on Cleanup, or
    "harvest-<mode>-<algo>"."""
    *kind, mode, algo = cell.split("-")
    if kind == ["harvest"]:
        env = EnvConfig(kind="harvest", map="harvest_mini", num_agents=2,
                        episode_length=15, view_size=7, harvest_low_rate=0.3,
                        harvest_mid_rate=0.6, harvest_high_rate=0.9, seed=5)
    else:
        env = EnvConfig(kind="cleanup", map=THREE_AGENT_CLEANUP, num_agents=3,
                        episode_length=15, view_size=7, initial_waste_fraction=0.2,
                        seed=5)
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
def golden_digests(cell, updates=2):
    """(metrics.csv digest, [final checkpoint digest per agent]) of one cell."""
    with tempfile.TemporaryDirectory() as tmp:
        trainer = golden_trainer(cell)
        spec = ExperimentSpec(name=cell, seeds=[5], output_dir=tmp,
                              env=trainer.env_config, method=trainer.shaping_config,
                              trainer=trainer.cfg, net=SMALL)
        run_dir = RunDirectory(spec, 5)
        run_dir.create(force=False)
        for _ in range(updates):
            run_dir.record(*trainer.one_update(), trainer)
        run_dir.finish(trainer)
        ckpt_dir = os.path.join(run_dir.path, "checkpoints")
        return (sha256_of(os.path.join(run_dir.path, "metrics.csv")),
                [sha256_of(os.path.join(ckpt_dir, name))
                 for name in sorted(os.listdir(ckpt_dir))])


def write_eval_spec(tmp, greedy, whole_run=False):
    """Write the eval cell's map and spec under tmp and return the spec path.
    whole_run adds the run-directory cell's shaping audit and a checkpoint
    after every update."""
    map_path = os.path.join(tmp, "three_agents.txt")
    with open(map_path, "w", encoding="utf-8") as f:
        f.write("\n".join(THREE_AGENT_CLEANUP) + "\n")
    text = EVAL_SPEC.format(out=os.path.join(tmp, "runs"), map=map_path,
                            greedy="true" if greedy else "false")
    if whole_run:
        text = text.replace("seeds = [5]\n", "seeds = [5]\naudit_shaping = true\n")
        text = text.replace("[eval]\n", "[checkpoint]\ninterval = 1\n\n[eval]\n")
    spec_path = os.path.join(tmp, "eval.spec")
    with open(spec_path, "w", encoding="utf-8") as f:
        f.write(text)
    return spec_path


@functools.lru_cache(maxsize=None)
def eval_replay_digests(greedy):
    """(events.jsonl digest, replay digest) of the eval cell."""
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = write_eval_spec(tmp, greedy)
        spec = resolve_spec(spec_path)
        run_dir, _ = run_single_seed(spec, spec.seeds[0])
        frames = []
        results = replay(os.path.join(run_dir, "checkpoints"), spec_path, episodes=2,
                         seed=3, greedy=greedy, sink=frames.append)
        stream = "".join(frame + "\n" for frame in frames)
        stream += "".join(json.dumps(r, sort_keys=True) + "\n" for r in results)
        return (sha256_of(os.path.join(run_dir, "events.jsonl")),
                hashlib.sha256(stream.encode("utf-8")).hexdigest())


@functools.lru_cache(maxsize=None)
def run_directory_digests():
    """{path relative to the run directory: sha256} of every file the
    run-directory cell writes, with None for snapshot.spec."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = resolve_spec(write_eval_spec(tmp, greedy=False, whole_run=True))
        run_dir, _ = run_single_seed(spec, spec.seeds[0])
        digests = {}
        for root, _, names in os.walk(run_dir):
            for name in names:
                path = os.path.join(root, name)
                rel = os.path.relpath(path, run_dir).replace(os.sep, "/")
                digests[rel] = None if rel == "snapshot.spec" else sha256_of(path)
        return digests


def env_digest(map_name, kind, num_agents, steps=1500):
    """sha256 over a seeded random-action episode of one env: the observations
    after reset and after every step, and each step's grid, positions,
    orientations, rewards and event counts."""
    env = SSDEnv(EnvConfig(kind=kind, map=map_name, num_agents=num_agents,
                           episode_length=steps, seed=3))
    env.reset()
    rng = np.random.default_rng(4)
    digest = hashlib.sha256(env.observe().tobytes())
    for _ in range(steps):
        _, out = env.step(rng.integers(0, env.num_actions, size=num_agents))
        st = env.state
        for part in (env.observe(), st.grid, st.positions, st.orientations, out.extrinsic,
                     out.counts):
            digest.update(part.tobytes())
    return digest.hexdigest()


def snapshot_digest(name):
    """sha256 of the snapshot.spec text that `run_single_seed` writes for seed 1."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(SPECS_DIR, name)
        if name == "tiny":
            path = os.path.join(tmp, "tiny.spec")
            with open(path, "w", encoding="utf-8") as f:
                f.write(TINY_SPEC.format(out="runs", mode="baseline"))
        text = resolve_spec(path).snapshot(seed=1)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CELLS = [f"{mode}-{algo}" for mode in ("baseline", "ia", "emurel")
         for algo in ("ppo", "a2c_sync")] + [
    "harvest-baseline-a2c_sync", "harvest-emurel-a2c_sync"]


@pytest.mark.parametrize("cell", CELLS)
def test_metrics_csv_matches_golden_digest(cell):
    here = fingerprint()
    if here != FINGERPRINT:
        pytest.skip(f"digests were pinned on {FINGERPRINT}; this build is {here}")
    got, _ = golden_digests(cell)
    assert got == DIGESTS[cell], (
        f"metrics.csv of {cell} moved; re-pin only for a deliberate numeric change")


@pytest.mark.parametrize("cell", CELLS)
def test_final_checkpoints_match_golden_digest(cell):
    here = fingerprint()
    if here != FINGERPRINT:
        pytest.skip(f"digests were pinned on {FINGERPRINT}; this build is {here}")
    _, got = golden_digests(cell)
    assert got == CHECKPOINT_DIGESTS[cell], (
        f"final checkpoints of {cell} moved; re-pin only for a deliberate "
        f"numeric change")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_reproduces_golden_cell():
    # The learner runs agents on min(N, usable CPUs) threads. Pinned to one
    # CPU (its own process only), it runs them on one: the bytes must hold.
    here = fingerprint()
    if here != FINGERPRINT:
        pytest.skip(f"digests were pinned on {FINGERPRINT}; this build is {here}")
    code = ("import json, os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from test_golden import golden_digests\n"
            "print(json.dumps([len(os.sched_getaffinity(0)), golden_digests('emurel-ppo')]))")
    cpus, (metrics, checkpoints) = json.loads(run_python(code))
    assert cpus == 1
    assert metrics == DIGESTS["emurel-ppo"]
    assert checkpoints == CHECKPOINT_DIGESTS["emurel-ppo"]


@pytest.mark.parametrize("policy", ["sampled", "greedy"])
def test_eval_events_match_golden_digest(policy):
    here = fingerprint()
    if here != FINGERPRINT:
        pytest.skip(f"digests were pinned on {FINGERPRINT}; this build is {here}")
    got, _ = eval_replay_digests(policy == "greedy")
    assert got == EVAL_DIGESTS[policy], (
        f"{policy} eval results in events.jsonl moved; re-pin only for a deliberate "
        f"numeric change")


@pytest.mark.parametrize("policy", ["sampled", "greedy"])
def test_replay_matches_golden_digest(policy):
    here = fingerprint()
    if here != FINGERPRINT:
        pytest.skip(f"digests were pinned on {FINGERPRINT}; this build is {here}")
    _, got = eval_replay_digests(policy == "greedy")
    assert got == REPLAY_DIGESTS[policy], (
        f"{policy} replay frames or results moved; re-pin only for a deliberate "
        f"numeric change")


def test_run_directory_holds_golden_files():
    # File names do not depend on the build, so this holds on every build.
    assert sorted(run_directory_digests()) == RUN_DIRECTORY_FILES


@pytest.mark.parametrize("rel", sorted(RUN_DIRECTORY_DIGESTS))
def test_run_directory_file_matches_golden_digest(rel):
    here = fingerprint()
    if here != FINGERPRINT:
        pytest.skip(f"digests were pinned on {FINGERPRINT}; this build is {here}")
    assert run_directory_digests().get(rel) == RUN_DIRECTORY_DIGESTS[rel], (
        f"{rel} of the run-directory cell moved; re-pin only for a deliberate "
        f"change to what a run writes")


@pytest.mark.parametrize("map_name", sorted(ENV_DIGESTS))
def test_large_map_env_matches_golden_digest(map_name):
    if np.__version__ != FINGERPRINT["numpy"]:
        pytest.skip(f"env digests were pinned on numpy {FINGERPRINT['numpy']}; "
                    f"this is {np.__version__}")
    kind, num_agents, want = ENV_DIGESTS[map_name]
    assert env_digest(map_name, kind, num_agents) == want, (
        f"the env on {map_name} moved; re-pin only for a deliberate change to its "
        f"dynamics or observations")


@pytest.mark.parametrize("name", sorted(SNAPSHOT_DIGESTS))
def test_snapshot_matches_golden_digest(name):
    assert snapshot_digest(name) == SNAPSHOT_DIGESTS[name], (
        f"the snapshot of {name} moved; runs written before and after would no "
        f"longer group together in summarize")


if __name__ == "__main__":
    print(fingerprint())
    runs = {cell: golden_digests(cell) for cell in CELLS}
    print("DIGESTS")
    for cell, (metrics, _) in runs.items():
        print(f'    "{cell}": "{metrics}",')
    print("CHECKPOINT_DIGESTS")
    for cell, (_, ckpts) in runs.items():
        print(f'    "{cell}": {ckpts},')
    streams = {policy: eval_replay_digests(policy == "greedy")
               for policy in ("sampled", "greedy")}
    print("EVAL_DIGESTS")
    for policy, (events, _) in streams.items():
        print(f'    "{policy}": "{events}",')
    print("REPLAY_DIGESTS")
    for policy, (_, frames) in streams.items():
        print(f'    "{policy}": "{frames}",')
    files = run_directory_digests()
    print("RUN_DIRECTORY_FILES")
    for rel in sorted(files):
        print(f'    "{rel}",')
    print("RUN_DIRECTORY_DIGESTS")
    for rel in sorted(files):
        if files[rel] is not None:
            print(f'    "{rel}": "{files[rel]}",')
    print("ENV_DIGESTS")
    for map_name, (kind, num_agents, _) in ENV_DIGESTS.items():
        print(f'    "{map_name}": ("{kind}", {num_agents}, '
              f'"{env_digest(map_name, kind, num_agents)}"),')
    print("SNAPSHOT_DIGESTS")
    for name in sorted(os.listdir(SPECS_DIR)) + ["tiny"]:
        print(f'    "{name}": "{snapshot_digest(name)}",')
