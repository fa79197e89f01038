"""Cross-run aggregation: method comparison table with confidence bands.

Every number is recomputed from the runs' metrics.csv files; snapshots are
only consulted for grouping and consistency."""

from __future__ import annotations

import os

import numpy as np

from ..training.metrics import format_value, read_metrics_csv
from .rundir import METRICS, SNAPSHOT, SUMMARY, window_mean
from .specfile import parse_spec_text

TABLE_COLUMNS = ["method", "runs", "mean_collective_reward", "variance",
                 "ci_low", "ci_high", "mean_equality"]


class SummarizeError(ValueError):
    pass


def discover_runs(paths):
    """Collect run directories (holding metrics.csv) under the given paths.
    Every one must have finished, so hold summary.json: a failed or killed
    run never wrote one, and a forced rerun deletes the old one first."""
    runs = sorted(root for path in paths for root, _, files in os.walk(path)
                  if METRICS in files)
    if not runs:
        raise SummarizeError(f"no runs found under {list(paths)}")
    for run_dir in runs:
        if not os.path.isfile(os.path.join(run_dir, SUMMARY)):
            raise SummarizeError(f"{run_dir}: unfinished run, no {SUMMARY}")
    return runs


def _run_identity(run_dir):
    """(method, consistency key): the snapshot with seeds stripped must agree
    across everything being aggregated."""
    snap_path = os.path.join(run_dir, SNAPSHOT)
    if not os.path.exists(snap_path):
        raise SummarizeError(f"{run_dir}: missing {SNAPSHOT}")
    with open(snap_path, encoding="utf-8") as f:
        text = f.read()
    doc = parse_spec_text(text, path=snap_path)
    method = doc.get("method", {}).get("mode", (None, 0))[0]
    if method is None:
        raise SummarizeError(f"{run_dir}: snapshot lacks a method mode")
    stripped = "\n".join(line for line in text.splitlines()
                         if not line.startswith(("seeds = ", "output_dir = ")))
    return method, stripped


def summarize(run_dirs, last_steps, trim=False):
    """Per-method mean, unbiased variance, and a 95% normal confidence band
    over seeds; optional best/worst trimming per method."""
    if last_steps < 1:
        raise SummarizeError(f"--last-steps {last_steps}: the window must hold at "
                             f"least one env step")
    runs = discover_runs(run_dirs)
    identities = {}
    by_method = {}
    for rd in runs:
        method, ident = _run_identity(rd)
        identities.setdefault(method, ident)
        if identities[method] != ident:
            raise SummarizeError(f"{rd}: snapshot disagrees with other "
                                 f"{method!r} runs; refusing to aggregate")
        by_method.setdefault(method, []).append(rd)

    rows = []
    for method in sorted(by_method):
        values = []
        for rd in by_method[method]:
            path = os.path.join(rd, METRICS)
            try:
                rew, eq = window_mean(read_metrics_csv(path), last_steps)
            except KeyError as exc:
                raise SummarizeError(f"{path}: no {exc} column") from None
            except ValueError as exc:   # a bad row or value, or bytes that are not UTF-8
                raise SummarizeError(f"{path}: {exc}") from None
            if rew is None:
                raise SummarizeError(f"{rd}: no completed episodes inside the window")
            values.append((rew, eq))
        values.sort(key=lambda t: t[0])
        if trim:
            if len(values) < 3:
                raise SummarizeError(f"method {method!r}: trimming needs at least "
                                     f"3 runs, have {len(values)}")
            values = values[1:-1]
        rewards = np.array([v[0] for v in values])
        eqs = np.array([v[1] for v in values])
        n = rewards.size
        mean = float(rewards.mean())
        var = float(rewards.var(ddof=1)) if n > 1 else 0.0
        half = 1.96 * float(np.sqrt(var / n)) if n > 1 else 0.0
        rows.append({"method": method, "runs": n,
                     "mean_collective_reward": mean, "variance": var,
                     "ci_low": mean - half, "ci_high": mean + half,
                     "mean_equality": float(np.nanmean(eqs))})
    return rows


def format_table(rows):
    lines = [",".join(TABLE_COLUMNS)]
    lines += [",".join(format_value(row[c]) for c in TABLE_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"
