"""Tests of the benchmark's own machinery: span arithmetic, statistics rules,
declared names, wrapper health, the correctness gate and a shrunk smoke run
of every workload."""

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from marl_lab import cli
from marl_lab.agents import NetSizes
from perfbench import harness
from perfbench.tracing import LAYERS, Span, Tracer, layer_metrics, self_times

ROOT = harness.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def shrunk(spec):
    """Same workload structure at toy size: short episodes, small batch, small nets."""
    return dataclasses.replace(
        spec,
        env=dataclasses.replace(spec.env, episode_length=20),
        trainer=dataclasses.replace(spec.trainer, batch_steps=80, minibatch_steps=40,
                                    workers=2),
        net=NetSizes(conv_filters=2, fc_units=8, lstm_units=8, eicm_hidden=8))


# -- span arithmetic ------------------------------------------------------------

def nested_spans():
    # update 1: root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]
    # update 2: root [20, 30] -> d [21, 25], e [23, 27] (overlapping children)
    return [
        Span(1, 0, "agents.act", 1, 1.0, 4.0, 0),
        Span(3, 2, "nn.conv_apply", 1, 6.0, 7.0, 1),
        Span(2, 0, "envs.step", 1, 5.0, 9.0, 0),
        Span(0, None, "training.update", 1, 0.0, 10.0, 0),
        Span(5, 4, "envs.step", 2, 21.0, 25.0, 0),
        Span(6, 4, "envs.step", 2, 23.0, 27.0, 0),
        Span(4, None, "training.update", 2, 20.0, 30.0, 0),
        Span(7, None, "cli.resolve_spec", None, 40.0, 40.5, 0),
    ]


def test_self_time_subtracts_children_once():
    selfs = self_times(nested_spans())
    assert selfs == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0, 4: 4.0, 5: 4.0, 6: 4.0, 7: 0.5}


def test_layer_self_times_of_nested_spans_sum_to_update_time():
    m = layer_metrics(nested_spans(), [1])
    assert m["training.update_s"] == 10.0
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(10.0)


def test_layer_metrics_are_per_update_medians():
    m = layer_metrics(nested_spans(), [1, 2])
    assert m["training.update_s"] == 10.0
    assert m["envs.step_calls"] == 1.5          # median of 1 and 2 calls
    assert m["nn.conv_apply_rows_per_call"] == 0.5
    assert m["cli.resolve_spec_s"] == 0.5
    assert m["eicm.impact_row_calls"] == 0
    assert m["training.collect_share"] == 0.0     # no collect span in either update
    assert m["training.unaccounted_s"] == 10.0


def test_missing_span_reads_none_not_zero():
    m = layer_metrics(nested_spans(), [1], missing={"eicm.impact_row"})
    assert m["eicm.impact_row_s"] is None and m["eicm.impact_row_calls"] is None
    assert m["envs.step_s"] == 4.0


# -- wrappers ----------------------------------------------------------------------

class Probe:
    def work(self, x):
        return x + 1


def test_tracer_wraps_restores_and_reports_missing():
    target = ("agents.act", __name__, "Probe.work")
    gone = ("agents.encode", __name__, "Probe.no_such_method")
    vanished_module = ("envs.step", "no_such_module_anywhere", "f")
    original = Probe.__dict__["work"]
    tracer = Tracer([target, gone, vanished_module])
    tracer.update = 1
    with tracer.installed():
        assert Probe().work(1) == 2
    assert Probe.__dict__["work"] is original
    assert [(s.name, s.update, s.parent) for s in tracer.spans] == [("agents.act", 1, None)]
    assert tracer.missing == {"agents.encode", "envs.step"}


# -- statistics -------------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [
    (9, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    got = harness.tail_percentile([float(i) for i in range(n)])
    assert (got and got[0]) == expected
    if got:
        assert sum(x > got[1] for x in range(n)) >= 10


def test_median_of_update_times():
    assert harness.median([3.0, 1.0, 2.0]) == 2.0
    assert harness.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_budget_allows_one_more_update_only_if_it_fits():
    assert harness.within_budget([], 0.0)
    assert harness.within_budget([2.0, 2.0], 6.0)
    assert not harness.within_budget([2.0, 2.5], 6.0)


# -- declared names ------------------------------------------------------------------

def test_declared_names_and_units_use_the_allowed_characters():
    doc = declared()
    entries = doc["workloads"] + doc["end_to_end"] + doc["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    units = [e["unit"] for e in doc["end_to_end"] + doc["per_layer"]]
    assert all(UNIT.match(u) for u in units)
    assert {w["name"] for w in doc["workloads"]} == set(harness.WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == {
        "env_steps_per_s", "update_s", "setup_s", "peak_rss_mb"}


# -- correctness gate -------------------------------------------------------------------

def test_gate_rejects_non_finite_rows_and_wrong_step_counts():
    spec = shrunk(cli.resolve_spec(harness.spec_path("harvest-a2c")))
    trainer = harness.make_trainer(spec, 2)
    row, buffer = trainer.one_update()
    assert harness.check_update(row, buffer, trainer) == []
    assert harness.check_update(dict(row, entropy=math.nan), buffer, trainer)
    assert harness.check_update(dict(row, env_steps=1), buffer, trainer)
    buffer.reshaped[0, 0, 0] += 1.0
    assert harness.check_update(row, buffer, trainer)


# -- smoke runs --------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_smoke_untraced(workload):
    spec = shrunk(cli.resolve_spec(harness.spec_path(workload)))
    stepper, metrics = harness.run_untraced(spec, 3, seconds=0.0)
    assert stepper.ok and stepper.attempted == 2 and stepper.failed == 0
    assert metrics["update_s"] > 0 and metrics["env_steps_per_s"] > 0


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_smoke_traced(workload):
    path = harness.spec_path(workload)
    plain, traced, tracer, metrics, problems = harness.run_traced(
        lambda: shrunk(cli.resolve_spec(path)), 3, seconds=0.0)
    assert problems == []
    assert not tracer.missing
    assert {m["name"] for m in declared()["per_layer"]} == set(metrics)
    emurel = workload == "cleanup-emurel-ppo"
    assert (metrics["eicm.impact_row_calls"] > 0) == emurel
    assert (metrics["agents.moa_predict_calls"] > 0) == emurel
    assert metrics["envs.step_calls"] == 80
    assert metrics["cli.resolve_spec_s"] > 0
    assert [harness.csv_line(r) for r in plain.rows] == \
        [harness.csv_line(r) for r in traced.rows]


def test_structure_gate_flags_layers_a_spec_does_not_fix():
    spec = cli.resolve_spec(harness.spec_path("cleanup-baseline-ppo"))
    good = {"eicm.impact_row_calls": 0, "eicm.aux_loss_tape_calls": 0,
            "nn.optimizer_step_calls": 32, "envs.step_calls": 2000,
            "training.update_calls": 1}
    assert harness.structure_problems(good, spec, set()) == []
    bad = dict(good, **{"eicm.impact_row_calls": 4000, "nn.optimizer_step_calls": 2})
    assert len(harness.structure_problems(bad, spec, set())) == 2
    missing = dict(good, **{"eicm.impact_row_calls": None})
    assert harness.structure_problems(missing, spec, {"eicm.impact_row"}) == [
        "wrapper target missing: eicm.impact_row"]


def test_setup_probe_builds_a_trainer_in_a_fresh_process():
    (seconds,) = harness.setup_seconds("harvest-a2c", 1, probes=1)
    assert 0 < seconds < 60


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "harvest-a2c", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
