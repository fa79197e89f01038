"""Experiment resolution and execution: spec file -> run directories.

Run layout: <output_dir>/<name>/<method>/<seed>/ holding the resolved config
snapshot (itself a valid spec), metrics.csv, events.jsonl, checkpoints/, and
summary.json recomputed from the metrics stream.
"""

from __future__ import annotations

import json
import os
import traceback
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from ..agents import NetSizes
from ..envs import ConfigError, EnvConfig, load_map
from ..nn import save_checkpoint
from ..shaping import ShapingConfig
from ..training import (
    EventLog, MetricsWriter, Trainer, TrainerConfig, evaluate, read_metrics_csv,
)
from .specfile import SchemaField as F
from .specfile import SpecError, parse_spec_file, validate, write_spec_text

SPEC_SCHEMA = {
    None: {
        "name": F(("str",), required=True),
        "seeds": F(("int_list",), required=True),
        "output_dir": F(("str",)),
        "summary_window_steps": F(("int",)),
        "audit_shaping": F(("bool",)),
    },
    "env": {
        "kind": F(("str",), required=True),
        "map": F(("str",)),
        "num_agents": F(("int",)),
        "episode_length": F(("int",)),
        "view_size": F(("int",)),
        "cleanup_depletion_threshold": F(("float",)),
        "cleanup_max_spawn_rate": F(("float",)),
        "waste_spawn_prob": F(("float",)),
        "initial_waste_fraction": F(("float",)),
        "harvest_low_rate": F(("float",)),
        "harvest_mid_rate": F(("float",)),
        "harvest_high_rate": F(("float",)),
        "beam_length": F(("int",)),
        "beam_width": F(("int",)),
    },
    "method": {
        "mode": F(("str",), required=True),
        "alpha": F(("float",)),
        "beta": F(("float",)),
        "smoothing_lambda": F(("float",)),
        "smoothing_gamma": F(("float",)),
        "combine_alpha": F(("float",)),
        "combine_beta": F(("float",)),
    },
    "trainer": {
        "algo": F(("str",)),
        "batch_steps": F(("int",)),
        "minibatch_steps": F(("int",)),
        "ppo_epochs": F(("int",)),
        "clip_ratio": F(("float",)),
        "gae_lambda": F(("float",)),
        "discount": F(("float",)),
        "value_coef": F(("float",)),
        "entropy_coef": F(("float",)),
        "moa_coef": F(("float",)),
        "forward_coef": F(("float",)),
        "inverse_coef": F(("float",)),
        "workers": F(("int",)),
        "updates": F(("int",)),
        "learning_rate": F(("float",)),
        "optimizer": F(("str",)),
        "grad_clip_norm": F(("float", "none")),
    },
    "eval": {
        "interval": F(("int",)),
        "episodes": F(("int",)),
        "greedy": F(("bool",)),
    },
    "checkpoint": {
        "interval": F(("int",)),
    },
    "net": {
        "conv_filters": F(("int",)),
        "fc_units": F(("int",)),
        "lstm_units": F(("int",)),
        "eicm_hidden": F(("int",)),
    },
}

_MODES = ("baseline", "ia", "emurel")


@dataclass
class ExperimentSpec:
    name: str
    seeds: list
    output_dir: str
    summary_window_steps: int
    audit_shaping: bool
    env: EnvConfig
    method: ShapingConfig
    trainer: TrainerConfig
    net: NetSizes
    eval_interval: int
    eval_episodes: int
    eval_greedy: bool
    checkpoint_interval: int


def _build(cls, section, path, **extra):
    """Instantiate a config dataclass from a spec section, mapping dataclass
    validation errors back to the file."""
    try:
        return cls(**section, **extra)
    except (TypeError, ValueError) as exc:
        raise SpecError(path, 1, f"invalid [{cls.__name__}] settings: {exc}") from exc


def _key_line(doc, section, *keys):
    """Line of the first of keys present in the section, else 1."""
    body = doc.get(section, {})
    return next((body[key][1] for key in keys if key in body), 1)


def resolve_spec(path):
    doc = parse_spec_file(path)
    plain = validate(doc, SPEC_SCHEMA, path=str(path))
    top = plain.get(None, {})
    method = plain.get("method", {})
    mode = method.get("mode")
    if mode not in _MODES:
        raise SpecError(path, _key_line(doc, "method", "mode"),
                        f"unknown method mode {mode!r}; expected one of {_MODES}")
    if not top.get("seeds"):
        raise SpecError(path, 1, "seeds must be a nonempty list")

    env = _build(EnvConfig, plain.get("env", {}), path)
    shaping = _build(ShapingConfig, method, path)
    trainer = _build(TrainerConfig, plain.get("trainer", {}), path)
    net = _build(NetSizes, plain.get("net", {}), path)
    try:
        parsed = load_map(env.map_rows if env.map_rows else env.map, env.kind)
    except ConfigError as exc:
        raise SpecError(path, _key_line(doc, "env", "map"),
                        f"invalid [env] settings: {exc}") from exc
    if len(parsed.spawns) < env.num_agents:
        raise SpecError(path, _key_line(doc, "env", "num_agents", "map"),
                        f"invalid [env] settings: map {env.map!r} has "
                        f"{len(parsed.spawns)} spawn points for {env.num_agents} agents")
    ev = plain.get("eval", {})
    ck = plain.get("checkpoint", {})
    if ev.get("episodes", 1) < 1:
        raise SpecError(path, _key_line(doc, "eval", "episodes"),
                        "[eval] episodes must be at least 1")
    for section, body in (("eval", ev), ("checkpoint", ck)):
        if body.get("interval", 0) < 0:
            raise SpecError(path, _key_line(doc, section, "interval"),
                            f"[{section}] interval must not be negative")
    return ExperimentSpec(
        name=top["name"], seeds=list(top["seeds"]),
        output_dir=top.get("output_dir", "runs"),
        summary_window_steps=top.get("summary_window_steps", 2000),
        audit_shaping=top.get("audit_shaping", False),
        env=env, method=shaping, trainer=trainer, net=net,
        eval_interval=ev.get("interval", 0), eval_episodes=ev.get("episodes", 5),
        eval_greedy=ev.get("greedy", False),
        checkpoint_interval=ck.get("interval", 0),
    )


def spec_sections(spec: ExperimentSpec, seed=None):
    """Fully resolved document for snapshotting; seed narrows the run."""
    def dc(obj, skip=()):
        return {f.name: getattr(obj, f.name) for f in dc_fields(obj)
                if f.name not in skip}

    return {
        None: {"name": spec.name,
               "seeds": [seed] if seed is not None else list(spec.seeds),
               "output_dir": spec.output_dir,
               "summary_window_steps": spec.summary_window_steps,
               "audit_shaping": spec.audit_shaping},
        "env": dc(spec.env, skip=("seed", "map_rows")),
        "method": dc(spec.method),
        "trainer": {**dc(spec.trainer, skip=("seed",))},
        "eval": {"interval": spec.eval_interval, "episodes": spec.eval_episodes,
                 "greedy": spec.eval_greedy},
        "checkpoint": {"interval": spec.checkpoint_interval},
        "net": dc(spec.net),
    }


def run_dir_for(spec, seed):
    return os.path.join(spec.output_dir, spec.name, spec.method.mode, str(seed))


def write_summary(run_dir, spec, seed, trainer):
    """Summary derived from the metrics CSV alone."""
    metrics = read_metrics_csv(os.path.join(run_dir, "metrics.csv"))
    steps = np.array(metrics["env_steps"])
    rewards = np.array(metrics["collective_reward"])
    equality = np.array(metrics["equality"])
    window = spec.summary_window_steps
    cutoff = steps.max() - window if len(steps) else 0
    mask = steps > cutoff
    usable = mask & ~np.isnan(rewards)
    summary = {
        "name": spec.name, "method": spec.method.mode, "seed": seed,
        "updates": int(steps.size), "env_steps": int(steps.max()) if steps.size else 0,
        "window_steps": window,
        "mean_collective_reward": (float(rewards[usable].mean())
                                   if usable.any() else None),
        "mean_equality": (float(equality[usable & ~np.isnan(equality)].mean())
                          if (usable & ~np.isnan(equality)).any() else None),
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
    os.makedirs(run_dir, exist_ok=True)
    failed_marker = os.path.join(run_dir, "FAILED")
    if os.path.exists(failed_marker):
        os.remove(failed_marker)

    snapshot = write_spec_text(spec_sections(spec, seed=seed))
    with open(os.path.join(run_dir, "snapshot.spec"), "w", encoding="utf-8") as f:
        f.write(snapshot)

    env_cfg = EnvConfig(**{f.name: getattr(spec.env, f.name)
                           for f in dc_fields(EnvConfig)
                           if f.name not in ("seed",)}, seed=seed)
    trainer_cfg = TrainerConfig(**{f.name: getattr(spec.trainer, f.name)
                                   for f in dc_fields(TrainerConfig)
                                   if f.name not in ("seed",)}, seed=seed)

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
            if spec.eval_interval and u % spec.eval_interval == 0:
                reward, eq = evaluate(tr.agents, env_cfg, spec.eval_episodes,
                                      seed=seed * 100003 + u,
                                      greedy=spec.eval_greedy)
                events.write("eval", update=u, collective_reward=reward, equality=eq)
            if spec.checkpoint_interval and u % spec.checkpoint_interval == 0:
                paths = save_agents(tr, os.path.join(run_dir, "checkpoints"),
                                    tr.env_steps)
                events.write("checkpoint", update=u, files=[os.path.basename(p)
                                                            for p in paths])

        trainer.run(updates=trainer_cfg.updates, on_update=on_update)
        save_agents(trainer, os.path.join(run_dir, "checkpoints"), trainer.env_steps)
        summary = write_summary(run_dir, spec, seed, trainer)
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
    """Execute every seed of a spec; returns [(run_dir, summary), ...]."""
    spec = resolve_spec(spec_path)
    if output_dir is not None:
        spec.output_dir = output_dir
    if workers is not None:
        spec.trainer.workers = workers
    results = []
    for seed in spec.seeds:
        results.append(run_single_seed(spec, seed, force=force))
    return results
