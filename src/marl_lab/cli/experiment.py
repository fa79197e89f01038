"""Experiment resolution and execution: spec file -> run directories.

Run layout: <output_dir>/<name>/<method>/<seed>/ holding the resolved config
snapshot (itself a valid spec), metrics.csv, events.jsonl, checkpoints/, and
summary.json recomputed from the metrics stream.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import traceback
import typing
from dataclasses import dataclass, field

from ..agents import NetSizes
from ..envs import ConfigError, EnvConfig
from ..nn import save_checkpoint
from ..shaping import ShapingConfig
from ..training import (
    EventLog, MetricsWriter, Trainer, TrainerConfig, evaluate, read_metrics_csv,
)
from .specfile import SchemaField, SpecError, parse_spec_file, validate, write_spec_text
from .summarize import SummarizeError, window_mean


@dataclass
class EvalConfig:
    interval: int = 0       # evaluate after every interval-th update; 0 never
    episodes: int = 5
    greedy: bool = False

    def __post_init__(self):
        if self.interval < 0:
            raise ConfigError("interval must not be negative", "interval")
        if self.episodes < 1:
            raise ConfigError("episodes must be at least 1", "episodes")


@dataclass
class CheckpointConfig:
    interval: int = 0       # save after every interval-th update; 0 only at the end

    def __post_init__(self):
        if self.interval < 0:
            raise ConfigError("interval must not be negative", "interval")


@dataclass(kw_only=True)
class ExperimentSpec:
    """Everything a spec file can say, in snapshot order. Scalar fields are
    the top-level keys, required when they have no default; dataclass fields
    are the sections, and their `required` metadata names required keys."""
    name: str
    seeds: list
    output_dir: str = "runs"
    summary_window_steps: int = 2000
    audit_shaping: bool = False
    env: EnvConfig = field(metadata={"required": ("kind",)})
    method: ShapingConfig = field(metadata={"required": ("mode",)})
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    net: NetSizes = field(default_factory=NetSizes)

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds must be a nonempty list", "seeds")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must not be negative", "seeds")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must not repeat: each seed is one run directory",
                              "seeds")


_TYPE_TAGS = {int: ("int",), float: ("float",), str: ("str",), bool: ("bool",),
              float | None: ("float", "none"), list: ("int_list",)}

_SET_BY_RUN = ("seed", "map_rows")      # filled in by the run, never by the file

_SECTIONS = {name: cls for name, cls in typing.get_type_hints(ExperimentSpec).items()
             if dataclasses.is_dataclass(cls)}


def _schema(cls, required):
    """The keys a file may set in one section, with their type tags."""
    hints = typing.get_type_hints(cls)
    return {f.name: SchemaField(_TYPE_TAGS[hints[f.name]], required=f.name in required)
            for f in dataclasses.fields(cls)
            if f.name not in _SET_BY_RUN and f.name not in _SECTIONS}


SPEC_SCHEMA = {None: _schema(ExperimentSpec, required=[
    f.name for f in dataclasses.fields(ExperimentSpec)
    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING])}
SPEC_SCHEMA.update((f.name, _schema(_SECTIONS[f.name], f.metadata.get("required", ())))
                   for f in dataclasses.fields(ExperimentSpec) if f.name in _SECTIONS)


def _build(cls, section, doc, path, **extra):
    """Instantiate a config dataclass from a spec section. Its ConfigError
    becomes a SpecError at the line of the first blamed key in the file."""
    body = doc.get(section, {})
    try:
        return cls(**{key: value for key, (value, _) in body.items()}, **extra)
    except ConfigError as exc:
        line = next((body[key][1] for key in exc.keys if key in body), 1)
        where = f"[{section}] " if section else ""
        raise SpecError(path, line, f"{where}{exc}") from exc


def resolve_spec(path):
    doc = parse_spec_file(path)
    validate(doc, SPEC_SCHEMA, path=str(path))
    sections = {name: _build(cls, name, doc, path) for name, cls in _SECTIONS.items()}
    return _build(ExperimentSpec, None, doc, path, **sections)


def spec_sections(spec: ExperimentSpec, seed=None):
    """Fully resolved document for snapshotting; seed narrows the run."""
    doc = {section: {key: getattr(getattr(spec, section) if section else spec, key)
                     for key in keys}
           for section, keys in SPEC_SCHEMA.items()}
    if seed is not None:
        doc[None]["seeds"] = [seed]
    return doc


def run_dir_for(spec, seed):
    return os.path.join(spec.output_dir, spec.name, spec.method.mode, str(seed))


def write_summary(run_dir, spec, seed):
    """Summary derived from the metrics CSV alone; the means are null when no
    episode completed inside the window."""
    metrics = read_metrics_csv(os.path.join(run_dir, "metrics.csv"))
    steps = metrics["env_steps"]
    window = spec.summary_window_steps
    try:
        reward, equality = window_mean(metrics, window, run_dir)
    except SummarizeError:
        reward = equality = None
    summary = {
        "name": spec.name, "method": spec.method.mode, "seed": seed,
        "updates": len(steps), "env_steps": int(max(steps, default=0)),
        "window_steps": window,
        "mean_collective_reward": reward,
        "mean_equality": equality,
    }
    with open(os.path.join(run_dir, "summary.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, sort_keys=True, indent=1)
        f.write("\n")
    return summary


def save_agents(trainer, directory, env_steps):
    os.makedirs(directory, exist_ok=True)
    paths = []
    for k, nets in enumerate(trainer.agents):
        p = os.path.join(directory, f"agent{k}_step{env_steps:010d}.ckpt")
        save_checkpoint(p, nets.sections(), meta={
            "agent": k, "env_steps": env_steps,
            "view_size": nets.view_size, "num_actions": nets.num_actions,
            "num_agents": nets.num_agents})
        paths.append(p)
    return paths


def run_single_seed(spec: ExperimentSpec, seed, force=False):
    run_dir = run_dir_for(spec, seed)
    metrics_path = os.path.join(run_dir, "metrics.csv")
    if os.path.exists(metrics_path) and not force:
        raise FileExistsError(f"{run_dir} already holds a run; use --force to overwrite")
    # A forced rerun rewrites metrics.csv and events.jsonl; what it may not
    # rewrite, or rewrites only on success, goes first, so no earlier run's
    # file outlives it.
    if os.path.isdir(os.path.join(run_dir, "checkpoints")):
        shutil.rmtree(os.path.join(run_dir, "checkpoints"))
    for name in ("FAILED", "shaping_audit.csv", "summary.json"):
        if os.path.exists(os.path.join(run_dir, name)):
            os.remove(os.path.join(run_dir, name))
    os.makedirs(run_dir, exist_ok=True)
    failed_marker = os.path.join(run_dir, "FAILED")

    snapshot = write_spec_text(spec_sections(spec, seed=seed))
    with open(os.path.join(run_dir, "snapshot.spec"), "w", encoding="utf-8") as f:
        f.write(snapshot)

    env_cfg = dataclasses.replace(spec.env, seed=seed)
    trainer_cfg = dataclasses.replace(spec.trainer, seed=seed)

    metrics = MetricsWriter(metrics_path)
    events = EventLog(os.path.join(run_dir, "events.jsonl"))
    events.write("run_start", name=spec.name, method=spec.method.mode, seed=seed)
    audit = None
    if spec.audit_shaping:
        audit = open(os.path.join(run_dir, "shaping_audit.csv"), "w",
                     encoding="utf-8", newline="\n")
        audit.write("update,worker,step,agent,extrinsic,intrinsic,reshaped,impacts\n")
    try:
        trainer = Trainer(env_cfg, spec.method, trainer_cfg, sizes=spec.net)

        def on_update(row, buffer, tr):
            metrics.write_row(row)
            if audit is not None:
                u = row["update"]
                for w in range(buffer.workers):
                    for t in range(buffer.steps):
                        for k in range(buffer.num_agents):
                            d = ";".join(repr(float(x))
                                         for x in buffer.impact_rows[w, t, k])
                            audit.write(
                                f"{u},{w},{t},{k},"
                                f"{float(buffer.extrinsic[w, t, k])!r},"
                                f"{float(buffer.intrinsic[w, t, k])!r},"
                                f"{float(buffer.reshaped[w, t, k])!r},{d}\n")
            u = row["update"]
            if spec.eval.interval and u % spec.eval.interval == 0:
                reward, eq = evaluate(tr.agents, env_cfg, spec.eval.episodes,
                                      seed=seed * 100003 + u, greedy=spec.eval.greedy)
                events.write("eval", update=u, collective_reward=reward, equality=eq)
            if spec.checkpoint.interval and u % spec.checkpoint.interval == 0:
                paths = save_agents(tr, os.path.join(run_dir, "checkpoints"),
                                    tr.env_steps)
                events.write("checkpoint", update=u, files=[os.path.basename(p)
                                                            for p in paths])

        trainer.run(updates=trainer_cfg.updates, on_update=on_update)
        save_agents(trainer, os.path.join(run_dir, "checkpoints"), trainer.env_steps)
        summary = write_summary(run_dir, spec, seed)
        events.write("run_end", env_steps=trainer.env_steps,
                     mean_collective_reward=summary["mean_collective_reward"])
        return run_dir, summary
    except Exception:
        with open(failed_marker, "w", encoding="utf-8") as f:
            f.write(traceback.format_exc())
        events.write("run_failed")
        raise
    finally:
        if audit is not None:
            audit.close()
        metrics.close()
        events.close()


def run_experiment(spec_path, force=False, output_dir=None, workers=None):
    """Execute every seed of a spec; returns [(run_dir, summary), ...].
    `workers` overrides [trainer] workers, as `marl-lab run --workers` does;
    a value the trainer rejects raises ConfigError before any run starts."""
    spec = resolve_spec(spec_path)
    if output_dir is not None:
        spec.output_dir = output_dir
    if workers is not None:
        try:
            spec.trainer = dataclasses.replace(spec.trainer, workers=workers)
        except ConfigError as exc:
            raise ConfigError(f"--workers {workers}: {exc}", "workers") from None
    results = []
    for seed in spec.seeds:
        results.append(run_single_seed(spec, seed, force=force))
    return results
