"""Metrics rows: their columns, how each value is written, and reading them back.

Writing is fully deterministic: fixed column order, floats rendered with
repr (shortest round-trip form), '.' decimal separator, no locale influence.
"""

from __future__ import annotations

METRIC_COLUMNS = [
    "update", "env_steps", "episodes_completed", "collective_reward", "equality",
    "policy_loss", "value_loss", "entropy", "moa_loss", "forward_loss",
    "inverse_loss", "intrinsic_mean", "impact_mean", "impact_min", "impact_max",
    "grad_norm",
]


def format_value(v):
    if isinstance(v, float):
        return repr(float(v))   # plain-float repr even for numpy scalars
    return str(v)


def read_metrics_csv(path):
    """Parse a metrics CSV back into {column: list of floats/ints}."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        rows = {c: [] for c in header}
        for line in f:
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise ValueError(f"malformed row {line!r}")
            for c, p in zip(header, parts):
                rows[c].append(float(p) if p != "nan" else float("nan"))
    return rows
