"""The run directory <output_dir>/<name>/<method>/<seed>/ and every file
one seed of an experiment writes there:
- snapshot.spec: the fully resolved config, itself a valid spec;
- metrics.csv: one row per update, columns METRIC_COLUMNS;
- events.jsonl: run lifecycle, eval results and checkpoint records;
- shaping_audit.csv: e, i, r and impacts per step and agent, if audit_shaping;
- checkpoints/agent<k>_step<n>.ckpt: one file per agent, n the env steps;
- summary.json: trailing-window means from metrics.csv, written on success;
- FAILED: the traceback of a run that raised or was interrupted.
"""

import json
import os
import re
import shutil
import traceback

import numpy as np

from ..nn import CheckpointError, save_checkpoint
from ..training import METRIC_COLUMNS, evaluate, read_metrics_csv
from ..training.metrics import format_value

SNAPSHOT, METRICS, EVENTS, AUDIT = ("snapshot.spec", "metrics.csv", "events.jsonl",
                                    "shaping_audit.csv")
CHECKPOINTS, SUMMARY, FAILED = "checkpoints", "summary.json", "FAILED"
OWNED = (SNAPSHOT, METRICS, EVENTS, AUDIT, CHECKPOINTS, SUMMARY, FAILED)

AUDIT_COLUMNS = ("update", "worker", "step", "agent", "extrinsic", "intrinsic",
                 "reshaped", "impacts")
_CKPT_NAME = re.compile(r"agent(\d+)_step(\d+)\.ckpt")


class LineStream:
    """A text file that grows by whole lines. Each write opens it, appends,
    flushes and closes it, so every line is on disk when the write returns
    and no handle outlives it. Given columns, it is a CSV headed by them."""

    def __init__(self, path, columns=None):
        self.path = path
        self.columns = columns
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            if columns is not None:
                f.write(",".join(columns) + "\n")

    def write(self, *lines):
        with open(self.path, "a", encoding="utf-8", newline="\n") as f:
            f.write("".join(line + "\n" for line in lines))
            f.flush()

    def write_rows(self, *rows):
        """One line per row dict, its values formatted in column order."""
        for row in rows:
            missing = set(self.columns) - set(row)
            if missing:
                raise KeyError(f"row missing columns: {sorted(missing)}")
        self.write(*(",".join(format_value(row[c]) for c in self.columns)
                     for row in rows))


def window_mean(metrics, last_steps):
    """Mean collective reward and equality over the trailing last_steps env
    steps of a metrics stream, as `read_metrics_csv` returns it; (None, None)
    when no episode completed inside the window."""
    steps = np.asarray(metrics["env_steps"])
    mask = steps > steps.max(initial=0) - last_steps
    rew = np.asarray(metrics["collective_reward"])[mask]
    eq = np.asarray(metrics["equality"])[mask]
    rew = rew[~np.isnan(rew)]
    eq = eq[~np.isnan(eq)]
    if rew.size == 0:
        return None, None
    return float(rew.mean()), (float(eq.mean()) if eq.size else float("nan"))


def find_agent_checkpoints(ckpt_dir):
    """The checkpoint files of the latest save under ckpt_dir, in agent
    order: the highest step that every agent index present holds a file for,
    so agents from different saves are never paired."""
    names = os.listdir(ckpt_dir) if os.path.isdir(ckpt_dir) else []
    found = {(int(m[1]), int(m[2])): m[0] for m in map(_CKPT_NAME.fullmatch, names) if m}
    if not found:
        raise CheckpointError(f"no agent checkpoints under {ckpt_dir}")
    agents = sorted({agent for agent, _ in found})
    whole = [step for _, step in found if all((agent, step) in found for agent in agents)]
    if not whole:
        raise CheckpointError(f"no save under {ckpt_dir} holds all of agents {agents}")
    return [os.path.join(ckpt_dir, found[agent, max(whole)]) for agent in agents]


class RunDirectory:
    """The one writer of one seed's run directory."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.seed = seed
        self.path = os.path.join(spec.output_dir, spec.name, spec.method.mode, str(seed))

    def _file(self, name):
        return os.path.join(self.path, name)

    def check(self, force):
        """Raise FileExistsError if the directory holds a run and not force."""
        if os.path.exists(self._file(METRICS)) and not force:
            raise FileExistsError(f"{self.path} already holds a run; "
                                  f"use --force to overwrite")

    def create(self, force):
        """Delete every name an earlier run left, so none outlives this run
        even if it fails; then write the snapshot and start the streams."""
        self.check(force)
        for path in map(self._file, OWNED):
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)
        os.makedirs(self.path, exist_ok=True)
        with open(self._file(SNAPSHOT), "w", encoding="utf-8") as f:
            f.write(self.spec.snapshot(self.seed))
        self._metrics = LineStream(self._file(METRICS), METRIC_COLUMNS)
        self._events = LineStream(self._file(EVENTS))
        self._audit = (LineStream(self._file(AUDIT), AUDIT_COLUMNS)
                       if self.spec.audit_shaping else None)
        self._event("run_start", name=self.spec.name, method=self.spec.method.mode,
                    seed=self.seed)

    def _event(self, kind, **fields):
        self._events.write(json.dumps({"event": kind, **fields}, sort_keys=True))

    def _save_agents(self, trainer):
        os.makedirs(self._file(CHECKPOINTS), exist_ok=True)
        names = []
        for k, nets in enumerate(trainer.agents):
            names.append(f"agent{k}_step{trainer.env_steps:010d}.ckpt")
            save_checkpoint(self._file(os.path.join(CHECKPOINTS, names[-1])),
                            nets.sections, seed=nets.seed, meta={
                                "agent": k, "env_steps": trainer.env_steps,
                                "view_size": nets.view_size,
                                "num_actions": nets.num_actions,
                                "num_agents": nets.num_agents})
        return names

    def record(self, row, buffer, trainer):
        """Write one update: its metrics row, its shaping-audit rows, and the
        eval and checkpoint its update index is due."""
        self._metrics.write_rows(row)
        u = row["update"]
        if self._audit is not None:
            e, i, r, d = (getattr(buffer, name).tolist() for name in
                          ("extrinsic", "intrinsic", "reshaped", "impact_rows"))
            self._audit.write_rows(*(
                dict(update=u, worker=w, step=t, agent=k, extrinsic=e[w][t][k],
                     intrinsic=i[w][t][k], reshaped=r[w][t][k],
                     impacts=";".join(map(repr, d[w][t][k])))
                for w, t, k in np.ndindex(buffer.extrinsic.shape)))
        ev = self.spec.eval
        if ev.interval and u % ev.interval == 0:
            reward, eq = evaluate(trainer.agents, trainer.env_config, ev.episodes,
                                  seed=self.seed * 100003 + u, greedy=ev.greedy)
            self._event("eval", update=u, collective_reward=reward, equality=eq)
        if self.spec.checkpoint.interval and u % self.spec.checkpoint.interval == 0:
            self._event("checkpoint", update=u, files=self._save_agents(trainer))

    def finish(self, trainer):
        """Final checkpoint, summary.json and run_end; returns the summary,
        whose means are null when no episode completed inside the window."""
        self._save_agents(trainer)
        metrics = read_metrics_csv(self._file(METRICS))
        window = self.spec.summary_window_steps
        reward, equality = window_mean(metrics, window)
        summary = {
            "name": self.spec.name, "method": self.spec.method.mode, "seed": self.seed,
            "updates": len(metrics["env_steps"]),
            "env_steps": int(max(metrics["env_steps"], default=0)),
            "window_steps": window,
            "mean_collective_reward": reward,
            "mean_equality": equality,
        }
        with open(self._file(SUMMARY), "w", encoding="utf-8") as f:
            f.write(json.dumps(summary, sort_keys=True, indent=1) + "\n")
        self._event("run_end", env_steps=trainer.env_steps,
                    mean_collective_reward=reward)
        return summary

    def fail(self):
        """Mark the run failed with the traceback being handled."""
        with open(self._file(FAILED), "w", encoding="utf-8") as f:
            f.write(traceback.format_exc())
        self._event("run_failed")
