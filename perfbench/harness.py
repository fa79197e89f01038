"""Desk-training benchmark machinery: workloads, the timed update loop, the
correctness gate, set-up probes, statistics and the environment fingerprint.

Everything drives the public training API (`resolve_spec` -> `Trainer` ->
`Trainer.one_update`) exactly as `marl-lab run` does, so the rows checked
here are the rows `metrics.csv` would hold.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
import time
from statistics import median

import numpy as np

from marl_lab import cli
from marl_lab.training import METRIC_COLUMNS, Trainer
from marl_lab.training.metrics import format_value

from .tracing import Tracer, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")

WORKLOADS = {
    "cleanup-emurel-ppo": "specs/mini_cleanup_emurel.spec",
    "cleanup-baseline-ppo": "specs/mini_cleanup_baseline.spec",
    "harvest-a2c": "specs/mini_harvest_a2c_baseline.spec",
}

SETUP_PROBES = 7
TAIL_PER_MILLE = (999, 990, 900)     # p99.9, p99, p90
TAIL_MIN_BEYOND = 10


def spec_path(workload):
    path = os.path.join(ROOT, WORKLOADS[workload])
    if not os.path.isfile(path):
        raise FileNotFoundError(f"workload {workload}: spec {path} not found")
    return path


def make_trainer(spec, seed):
    """The trainer `marl-lab run` builds for this spec and seed."""
    env = dataclasses.replace(spec.env, seed=seed)
    cfg = dataclasses.replace(spec.trainer, seed=seed)
    return Trainer(env, spec.method, cfg, sizes=spec.net)


# -- statistics ---------------------------------------------------------------

def tail_percentile(samples):
    """(p, value) for the highest percentile with at least ten samples beyond
    it, or None when there are too few samples for any."""
    n = len(samples)
    for pm in TAIL_PER_MILLE:
        if n - (n * pm + 999) // 1000 >= TAIL_MIN_BEYOND:
            return pm / 10, float(np.percentile(samples, pm / 10))
    return None


def within_budget(durations, seconds):
    """True while one more update, as long as the last, ends inside the
    budget; always true before the first timed update."""
    return not durations or sum(durations) + durations[-1] <= seconds


# -- correctness gate -----------------------------------------------------------

def csv_line(row):
    """A row exactly as `MetricsWriter` writes it to metrics.csv."""
    return ",".join(format_value(row[c]) for c in METRIC_COLUMNS)


def metrics_sha256(rows):
    """sha256 of the metrics.csv a run of these updates would write."""
    text = ",".join(METRIC_COLUMNS) + "\n" + "".join(csv_line(r) + "\n" for r in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_update(row, buffer, trainer):
    """Problems with one update's output; empty when it passes."""
    problems = []
    bad = [k for k in METRIC_COLUMNS if not math.isfinite(row[k])]
    if bad:
        problems.append(f"non-finite metrics {bad}")
    want = trainer.cfg.batch_steps * trainer.update_idx
    if row["env_steps"] != want or trainer.env_steps != want:
        problems.append(f"env_steps {row['env_steps']} != batch_steps x updates {want}")
    shaping = trainer.shaping_config
    try:
        buffer.consistency_check(shaping.combine_alpha, shaping.combine_beta)
    except AssertionError as exc:
        problems.append(f"buffer consistency check failed: {exc}")
    return problems


class Stepper:
    """Steps one trainer, timing each update and gating its output outside
    the timer. The first update is the warm-up; `timed` excludes it."""

    def __init__(self, trainer):
        self.trainer = trainer
        self.rows = []
        self.seconds = []
        self.problems = []
        self.attempted = 0
        self.failed = 0

    @property
    def ok(self):
        return not self.problems

    @property
    def timed(self):
        return self.seconds[1:]

    def step(self):
        self.attempted += 1
        start = time.perf_counter()
        try:
            row, buffer = self.trainer.one_update()
        except Exception as exc:  # a raising update is a failed update, not a crash
            self.failed += 1
            self.problems.append(f"update {self.attempted} raised {exc!r}")
            return
        self.seconds.append(time.perf_counter() - start)
        self.rows.append(row)
        problems = check_update(row, buffer, self.trainer)
        if problems:
            self.failed += 1
            self.problems += [f"update {self.attempted}: {p}" for p in problems]


# -- runs ---------------------------------------------------------------------------

def run_untraced(spec, seed, seconds):
    """Warm-up plus timed updates for about `seconds`; end-to-end metrics."""
    stepper = Stepper(make_trainer(spec, seed))
    stepper.step()
    while stepper.ok and within_budget(stepper.timed, seconds):
        stepper.step()
    metrics = {}
    if stepper.timed:
        metrics["env_steps_per_s"] = (spec.trainer.batch_steps * len(stepper.timed)
                                      / sum(stepper.timed))
        metrics["update_s"] = median(stepper.timed)
    return stepper, metrics


def run_traced(load_spec, seed, seconds):
    """Two trainers of the same seed stepped in alternation, the second with
    every wrapper installed. Returns (untraced stepper, traced stepper, tracer,
    per-layer metrics, problems)."""
    spec = load_spec()
    plain = Stepper(make_trainer(spec, seed))
    tracer = Tracer()
    with tracer.installed():
        traced = Stepper(make_trainer(load_spec(), seed))

    def pair(index):
        plain.step()
        tracer.update = index
        with tracer.installed():
            traced.step()
        tracer.update = None

    pair(0)
    pairs = []
    while plain.ok and traced.ok and within_budget(pairs, seconds):
        pair(len(pairs) + 1)
        if plain.ok and traced.ok:
            pairs.append(plain.seconds[-1] + traced.seconds[-1])

    problems = [f"untraced {p}" for p in plain.problems]
    problems += [f"traced {p}" for p in traced.problems]
    plain_lines = [csv_line(r) for r in plain.rows]
    traced_lines = [csv_line(r) for r in traced.rows]
    if plain_lines != traced_lines:
        problems.append("traced rows differ from untraced rows of the same seed")
    if not pairs:
        return plain, traced, tracer, {}, problems

    metrics = layer_metrics(tracer.spans, range(1, len(pairs) + 1), tracer.missing)
    # 1.0 when each observation is encoded once per agent-step.
    calls = metrics["agents.encode_calls"]
    agent_steps = spec.trainer.batch_steps * spec.env.num_agents
    metrics["agents.encode_per_agent_step"] = None if calls is None else calls / agent_steps
    untraced, traced_s = plain.timed[:len(pairs)], traced.timed[:len(pairs)]
    metrics["trace.untraced_update_s"] = median(untraced)
    metrics["trace.overhead_s"] = median(t - u for u, t in zip(untraced, traced_s))
    problems += structure_problems(metrics, spec, tracer.missing)
    return plain, traced, tracer, metrics, problems


def structure_problems(m, spec, missing):
    """What the spec fixes about each layer, checked on the traced run: eicm
    fires only in emurel mode, the optimizer steps once per agent per
    minibatch (PPO) or once per agent (A2C), the env steps batch_steps times."""
    problems = [f"wrapper target missing: {name}" for name in sorted(missing)]
    emurel = spec.method.mode == "emurel"
    for name in ("eicm.impact_row_calls", "eicm.aux_loss_tape_calls"):
        if m[name] is not None and (m[name] > 0) != emurel:
            problems.append(f"{name} is {m[name]} with method mode {spec.method.mode}")
    cfg, agents = spec.trainer, spec.env.num_agents
    want = {
        "nn.optimizer_step_calls": (cfg.ppo_epochs * (cfg.batch_steps // cfg.minibatch_steps)
                                    * agents if cfg.algo == "ppo" else agents),
        "envs.step_calls": cfg.batch_steps,
        "training.update_calls": 1,
    }
    for name, value in want.items():
        if m[name] is not None and m[name] != value:
            problems.append(f"{name} is {m[name]}, the spec fixes {value}")
    return problems


# -- set-up -------------------------------------------------------------------------

def build_for_probe(workload, seed):
    """Body of one set-up probe: resolve the spec and construct the trainer."""
    make_trainer(cli.resolve_spec(spec_path(workload)), seed)


def setup_seconds(workload, seed, probes=SETUP_PROBES):
    """Seconds from process start through `resolve_spec` and `Trainer(...)`,
    one fresh interpreter per probe. Each probe prints the wall clock at
    which its trainer was built."""
    samples = []
    for _ in range(probes):
        started = time.time()
        done = subprocess.run(
            [sys.executable, RUN_PY, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - started)
    return samples


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- fingerprint -----------------------------------------------------------------

def git_rev():
    """HEAD of the checkout's own .git, or 'none' outside a repository."""
    env = dict(os.environ, GIT_DIR=os.path.join(ROOT, ".git"))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def blas_name():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def fingerprint(workload, seed, blas_threads):
    return {
        "workload": workload, "seed": seed, "git_rev": git_rev(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name(), "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
    }
