"""Spans recorded from outside the program.

Each public function of a layer is wrapped where its caller looks it up:
functions imported by name on the importing module, methods on their class.
A wrapper records one span per call (name, start, end, parent, update
index) into memory. Nothing in the program is edited; `installed()` puts the
originals back when it exits.
"""

from __future__ import annotations

import functools
import importlib
import itertools
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from statistics import median
from time import perf_counter

Span = namedtuple("Span", "sid parent name update start end rows")

# (span name, module, attribute path). Several targets may share a span name.
TARGETS = [
    ("training.update", "marl_lab.training.trainer", "Trainer.one_update"),
    ("training.collect", "marl_lab.training.trainer", "collect_rollouts"),
    ("training.advantages", "marl_lab.training.trainer", "compute_advantages"),
    ("training.learn", "marl_lab.training.trainer", "ppo_update"),
    ("training.learn", "marl_lab.training.trainer", "a2c_sync_update"),
    ("training.minibatch_views", "marl_lab.training.update", "minibatch_views"),
    ("training.composite_loss", "marl_lab.training.update", "composite_loss"),
    ("envs.reset", "marl_lab.envs.env", "SSDEnv.reset"),
    ("envs.step", "marl_lab.envs.env", "SSDEnv.step"),
    ("envs.observe", "marl_lab.envs.env", "SSDEnv.observe"),
    ("agents.act", "marl_lab.agents.nets", "AgentNets.act"),
    ("agents.encode", "marl_lab.agents.nets", "AgentNets.encode"),
    ("agents.moa_predict", "marl_lab.agents.nets", "AgentNets.moa_predict"),
    ("agents.value_only", "marl_lab.agents.nets", "AgentNets.value_only"),
    ("eicm.impact_row", "marl_lab.training.rollout", "impact_row"),
    ("eicm.aux_loss_tape", "marl_lab.training.update", "moa_loss_tape"),
    ("eicm.aux_loss_tape", "marl_lab.training.update", "forward_loss_tape"),
    ("eicm.aux_loss_tape", "marl_lab.training.update", "inverse_loss_tape"),
    ("shaping.step", "marl_lab.shaping.rewards", "RewardShaper.step"),
    ("nn.conv_apply", "marl_lab.nn.layers", "Conv2d.apply"),
    ("nn.dense_apply", "marl_lab.nn.layers", "Dense.apply"),
    ("nn.lstm_apply", "marl_lab.nn.layers", "LSTMCell.apply"),
    ("nn.backward", "marl_lab.nn.tensor", "Tensor.backward"),
    ("nn.optimizer_step", "marl_lab.nn.optim", "Optimizer.step"),
    ("cli.resolve_spec", "marl_lab.cli", "resolve_spec"),
]

# Batch rows of the first argument after self, for rows-per-call ratios.
ROW_COUNTED = {"nn.conv_apply"}

# Spans that run once per process, outside any update.
SETUP_SPANS = {"cli.resolve_spec"}

LAYERS = ("envs", "agents", "eicm", "shaping", "nn", "training")


def _resolve_owner(module, path):
    """(owner object, attribute name) for 'Class.attr' or 'attr' on module,
    or None when the module, class or attribute no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Keeps spans in memory. Set `update` before each traced update; spans
    recorded while it is None belong to set-up."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.update = None
        self.missing = set()
        self._stack = []
        self._ids = itertools.count()

    def _wrap(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        counted = name in ROW_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rows = args[1].shape[0] if counted else 0
                spans.append(Span(sid, parent, name, self.update, start, end, rows))
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block. A target whose
        module, class or attribute is gone is recorded in `missing`."""
        undo = []
        try:
            for name, module, path in self.targets:
                found = _resolve_owner(module, path)
                if found is None:
                    self.missing.add(name)
                    continue
                owner, attr = found
                own = attr in vars(owner)
                original = vars(owner)[attr] if own else getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
                undo.append((owner, attr, own, original))
            yield self
        finally:
            for owner, attr, own, original in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """{sid: span duration minus the part covered by its child spans}."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(children[s.sid], s.start, s.end)
            for s in spans}


SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in TARGETS))


def layer_metrics(spans, updates, missing=frozenset()):
    """Per-update medians over the given update indices.

    For each update span: `<name>_s` (inclusive seconds) and `<name>_calls`;
    for each layer: `<layer>.self_s`; for set-up spans: `<name>_s` in total;
    `training.collect_share` (collect over update) and
    `training.unaccounted_s` (update minus collect minus learn).
    Metrics of a missing span read None, never 0.
    """
    updates = list(updates)
    secs = defaultdict(lambda: dict.fromkeys(updates, 0.0))
    calls = defaultdict(lambda: dict.fromkeys(updates, 0))
    rows = defaultdict(lambda: dict.fromkeys(updates, 0))
    layer_self = defaultdict(lambda: dict.fromkeys(updates, 0.0))
    setup = defaultdict(float)
    wanted = set(updates)
    selfs = self_times(spans)
    for s in spans:
        if s.name in SETUP_SPANS:
            setup[s.name] += s.end - s.start
        if s.update not in wanted:
            continue
        secs[s.name][s.update] += s.end - s.start
        calls[s.name][s.update] += 1
        rows[s.name][s.update] += s.rows
        layer_self[s.name.split(".")[0]][s.update] += selfs[s.sid]

    out = {}
    for name in SPAN_NAMES:
        if name in SETUP_SPANS:
            out[f"{name}_s"] = None if name in missing else setup[name]
            continue
        out[f"{name}_s"] = None if name in missing else median(secs[name].values())
        out[f"{name}_calls"] = None if name in missing else median(calls[name].values())
        if name in ROW_COUNTED:
            out[f"{name}_rows_per_call"] = (
                None if name in missing
                else median(rows[name][u] / max(calls[name][u], 1) for u in updates))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = median(layer_self[layer].values())

    # Taken per update before the median, so that they describe one update.
    phases = ("training.update", "training.collect", "training.learn")
    known = not missing.intersection(phases)
    update, collect, learn = (secs[name] for name in phases)
    out["training.collect_share"] = (
        median(collect[u] / update[u] for u in updates) if known else None)
    out["training.unaccounted_s"] = (
        median(update[u] - collect[u] - learn[u] for u in updates) if known else None)
    return out
