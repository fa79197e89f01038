"""CLI harness: spec parsing diagnostics, run artifacts, aggregation table,
checkpoint replay, and exit codes."""

import dataclasses
import importlib.util
import json
import os
import shutil
import typing

import numpy as np
import pytest

import marl_lab
from marl_lab.cli import (
    ExperimentSpec, SpecError, SummarizeError, parse_spec_text, resolve_spec,
    run_experiment, summarize, write_spec_text,
)
from marl_lab.cli.main import main
from marl_lab.cli.replay import replay
from marl_lab.cli.rundir import find_agent_checkpoints
from marl_lab.nn import CheckpointError

from helpers import TINY_SPEC, malformed_manifests, write_checkpoint_header


def write_tiny_spec(tmp_path, mode="baseline", name="tiny.spec"):
    path = tmp_path / name
    path.write_text(TINY_SPEC.format(out=str(tmp_path / "runs"), mode=mode))
    return str(path)


def settable_keys():
    """(section, key, type hint) of every key a spec file may set, read from
    the config dataclasses; each section's `seed` is filled in by the run."""
    out = []
    for name, hint in typing.get_type_hints(ExperimentSpec).items():
        if dataclasses.is_dataclass(hint):
            out += [(name, key, h) for key, h in typing.get_type_hints(hint).items()
                    if key != "seed"]
        else:
            out.append((None, name, hint))
    return out


SETTABLE = settable_keys()
SETTABLE_IDS = [f"{section or 'top'}.{key}" for section, key, _ in SETTABLE]

# A value of another type for each type hint a key may carry.
WRONG_TYPE = {int: 2.5, float: True, str: 3, bool: 1, float | None: "x", list[int]: [1, True]}

# (section, key) of every key whose type hint admits a float.
FLOAT_KEYS = [(section, key) for section, key, hint in SETTABLE
              if float in typing.get_args(hint) or hint is float]


def spec_with(tmp_path, section, key, value):
    """TINY_SPEC with one key set, added when absent; returns (path, line of
    that key)."""
    doc = parse_spec_text(TINY_SPEC.format(out=str(tmp_path / "runs"), mode="baseline"))
    sections = {sec: {k: v for k, (v, _) in body.items()} for sec, body in doc.items()}
    sections[section][key] = value
    text = write_spec_text(sections)
    path = tmp_path / "typed.spec"
    path.write_text(text)
    lines = text.splitlines()
    start = lines.index(f"[{section}]") if section else 0
    line = next(i for i in range(start, len(lines)) if lines[i].startswith(f"{key} = "))
    return str(path), line + 1


class TestSpecfile:
    def test_parse_round_trip_is_byte_identical(self):
        sections = {None: {"name": "x", "seeds": [1, 2], "output_dir": "runs"},
                    "env": {"kind": "cleanup", "view_size": 9,
                            "initial_waste_fraction": 0.25},
                    "method": {"mode": "ia", "alpha": 5.0}}
        text = write_spec_text(sections)
        doc = parse_spec_text(text)
        rebuilt = write_spec_text(
            {sec: {k: v for k, (v, _) in body.items()} for sec, body in doc.items()})
        assert rebuilt == text

    def test_error_carries_line_number(self):
        with pytest.raises(SpecError) as exc:
            parse_spec_text("name = \"x\"\nbogus line\n", path="f.spec")
        assert "f.spec:2" in str(exc.value)

    def test_unknown_key_rejected_with_position(self, tmp_path):
        path = tmp_path / "f.spec"
        path.write_text("name = \"x\"\nseeds = [1]\n\n[env]\nkind = \"cleanup\"\n"
                        "warp_speed = 9\n")
        with pytest.raises(SpecError) as exc:
            resolve_spec(str(path))
        assert f"{path}:6" in str(exc.value) and "warp_speed" in str(exc.value)

    def test_unknown_method_rejected_before_env_construction(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text(TINY_SPEC.format(out=str(tmp_path), mode="galactic"))
        with pytest.raises(SpecError) as exc:
            resolve_spec(str(path))
        assert "galactic" in str(exc.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(SpecError):
            parse_spec_text("name = \"a\"\nname = \"b\"\n")

    def test_duplicate_section_rejected(self):
        with pytest.raises(SpecError) as exc:
            parse_spec_text("name = \"a\"\n[env]\n[env]\n", path="f.spec")
        assert "f.spec:3" in str(exc.value)
        assert "duplicate section [env]" in str(exc.value)

    def test_type_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text(TINY_SPEC.format(out=str(tmp_path), mode="baseline")
                        .replace("batch_steps = 40", 'batch_steps = "forty"'))
        with pytest.raises(SpecError):
            resolve_spec(str(path))

    @pytest.mark.parametrize("old,new,message", [
        ("num_agents = 2", "num_agents = 9", "2 spawn points for 9 agents"),
        ('map = "cleanup_mini"', 'map = "no_such_map"', "unknown map"),
        ("episodes = 1", "episodes = 0", "[eval] episodes must be at least 1"),
        ("[eval]\ninterval = 2", "[eval]\ninterval = -1", "[eval] interval"),
        ("[checkpoint]\ninterval = 2", "[checkpoint]\ninterval = -1",
         "[checkpoint] interval"),
        ("workers = 2", "workers = 0", "workers must be at least 1"),
        ("batch_steps = 40", "batch_steps = 41",
         "batch_steps must divide evenly across workers"),
        ("beta = 0.05", "beta = 0.05\nsmoothing_lambda = 2.0",
         "smoothing_lambda must lie in [0, 1]"),
        ("lstm_units = 8", "lstm_units = 0", "lstm_units must be at least 1"),
        ("learning_rate = 0.001", 'learning_rate = 0.001\noptimizer = "rmsprop"',
         "unknown optimizer kind 'rmsprop'"),
        ("learning_rate = 0.001", "learning_rate = 0.001\ngrad_clip_norm = 0.0",
         "grad_clip_norm must be positive"),
        ('mode = "baseline"', 'mode = "galactic"', "mode 'galactic'"),
        ("updates = 2", "updates = 0", "updates must be at least 1"),
        ("initial_waste_fraction = 0.2",
         "initial_waste_fraction = 0.2\ncleanup_depletion_threshold = 0.0",
         "cleanup_depletion_threshold must lie in (0, 1]"),
        ("initial_waste_fraction = 0.2", "initial_waste_fraction = 0.2\nwaste_spawn_prob = 1.5",
         "waste_spawn_prob must lie in [0, 1]"),
        ("initial_waste_fraction = 0.2",
         "initial_waste_fraction = 0.2\ncleanup_max_spawn_rate = -0.2",
         "cleanup_max_spawn_rate must lie in [0, 1]"),
        ("initial_waste_fraction = 0.2", "initial_waste_fraction = 0.2\nharvest_low_rate = 2.0",
         "harvest_low_rate must lie in [0, 1]"),
        ("initial_waste_fraction = 0.2", "initial_waste_fraction = 0.2\nharvest_mid_rate = -1.0",
         "harvest_mid_rate must lie in [0, 1]"),
        ("initial_waste_fraction = 0.2", "initial_waste_fraction = 0.2\nharvest_high_rate = 1.1",
         "harvest_high_rate must lie in [0, 1]"),
        ("seeds = [1]", "seeds = [1, -1]", "seeds must not be negative"),
        ("seeds = [1]", "seeds = [1, 2, 1]", "seeds must not repeat"),
        ("summary_window_steps = 40", "summary_window_steps = 0",
         "summary_window_steps must be at least 1"),
    ], ids=["spawns", "map", "eval-episodes", "eval-interval", "checkpoint-interval",
            "workers", "batch-steps", "smoothing-lambda", "lstm-units", "optimizer",
            "grad-clip-norm", "mode", "updates", "depletion-threshold",
            "waste-spawn-prob", "max-spawn-rate", "harvest-low-rate", "harvest-mid-rate",
            "harvest-high-rate", "seeds-negative", "seeds-duplicate", "summary-window"])
    def test_setting_error_points_at_its_key(self, tmp_path, capsys, old, new, message):
        text = TINY_SPEC.format(out=str(tmp_path / "runs"), mode="baseline")
        assert old in text
        text = text.replace(old, new)
        path = tmp_path / "bad.spec"
        path.write_text(text)
        with pytest.raises(SpecError) as exc:
            resolve_spec(str(path))
        line = text.splitlines().index(new.splitlines()[-1]) + 1
        assert str(exc.value).startswith(f"{path}:{line}: ")
        assert message in str(exc.value)
        # the CLI reports it as a usage error before creating any run directory
        capsys.readouterr()
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: ")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("mode", ["ia", "emurel"])
    def test_fellow_modes_need_two_agents(self, tmp_path, capsys, mode):
        text = (TINY_SPEC.format(out=str(tmp_path / "runs"), mode=mode)
                .replace("num_agents = 2", "num_agents = 1"))
        path = tmp_path / "lone.spec"
        path.write_text(text)
        line = text.splitlines().index(f'mode = "{mode}"') + 1
        with pytest.raises(SpecError) as exc:
            resolve_spec(str(path))
        assert str(exc.value).startswith(
            f"{path}:{line}: [method] mode {mode!r} needs at least two agents")
        # a usage error, caught before any run directory exists
        capsys.readouterr()
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: ")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("section,key,hint", SETTABLE, ids=SETTABLE_IDS)
    def test_value_of_wrong_type_points_at_its_key(self, tmp_path, section, key, hint):
        path, line = spec_with(tmp_path, section, key, WRONG_TYPE[hint])
        with pytest.raises(SpecError) as exc:
            resolve_spec(path)
        assert str(exc.value).startswith(f"{path}:{line}: key {key!r} expects ")

    @pytest.mark.parametrize("section,key,hint", SETTABLE, ids=SETTABLE_IDS)
    def test_none_is_accepted_only_for_grad_clip_norm(self, tmp_path, section, key, hint):
        path, line = spec_with(tmp_path, section, key, None)
        if key == "grad_clip_norm":
            assert resolve_spec(path).trainer.grad_clip_norm is None
            return
        with pytest.raises(SpecError) as exc:
            resolve_spec(path)
        assert str(exc.value).startswith(f"{path}:{line}: key {key!r} expects ")

    @pytest.mark.parametrize("section,key", FLOAT_KEYS)
    def test_int_is_accepted_for_a_float_key(self, tmp_path, section, key):
        path, _ = spec_with(tmp_path, section, key, 1)
        spec = resolve_spec(path)
        assert getattr(getattr(spec, section) if section else spec, key) == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key", FLOAT_KEYS)
    def test_non_finite_float_points_at_its_key(self, tmp_path, section, key, value):
        path, line = spec_with(tmp_path, section, key, value)
        with pytest.raises(SpecError) as exc:
            resolve_spec(path)
        assert str(exc.value).startswith(f"{path}:{line}: key {key!r} must be finite, got ")

    @pytest.mark.parametrize("body", ["", "warp_speed = 9\n"], ids=["empty", "with-keys"])
    def test_unknown_section_points_at_its_header(self, tmp_path, body):
        text = TINY_SPEC.format(out=str(tmp_path / "runs"), mode="baseline")
        text = text.replace("[env]", f"[bogus]\n{body}\n[env]")
        path = tmp_path / "bogus.spec"
        path.write_text(text)
        line = text.splitlines().index("[bogus]") + 1
        with pytest.raises(SpecError) as exc:
            resolve_spec(str(path))
        assert str(exc.value).startswith(f"{path}:{line}: unknown section [bogus]")

    def test_empty_required_section_points_at_its_header(self, tmp_path):
        path = tmp_path / "empty.spec"
        path.write_text('name = "x"\nseeds = [1]\n\n[env]\n\n[method]\nmode = "baseline"\n')
        with pytest.raises(SpecError) as exc:
            resolve_spec(str(path))
        assert str(exc.value) == f"{path}:4: missing required key 'kind' in section [env]"

    def test_relative_map_resolves_beside_the_spec(self, tmp_path, monkeypatch):
        # From a sibling directory, a spec naming "maps/m.txt" and its
        # snapshot both find the map beside the spec.
        home, elsewhere = tmp_path / "home", tmp_path / "elsewhere"
        (home / "maps").mkdir(parents=True)
        elsewhere.mkdir()
        shutil.copy(os.path.join(os.path.dirname(marl_lab.__file__), "envs", "maps",
                                 "cleanup_mini.txt"), home / "maps" / "m.txt")
        text = TINY_SPEC.format(out="runs", mode="baseline")
        (home / "x.spec").write_text(text.replace('"cleanup_mini"', '"maps/m.txt"'))
        monkeypatch.chdir(elsewhere)
        spec = resolve_spec(os.path.join("..", "home", "x.spec"))
        assert spec.env.map == str(home / "maps" / "m.txt")
        (elsewhere / "snapshot.spec").write_text(spec.snapshot(seed=1))
        assert resolve_spec("snapshot.spec").env == spec.env

    @pytest.mark.parametrize("name", ["", "."])
    def test_map_that_is_no_file_points_at_its_key(self, tmp_path, name):
        # both name the spec's own directory once read from there
        path, line = spec_with(tmp_path, "env", "map", name)
        with pytest.raises(SpecError) as exc:
            resolve_spec(path)
        assert str(exc.value).startswith(f"{path}:{line}: [env] unknown map ")

    def test_shipped_specs_resolve(self):
        specs_dir = os.path.join(os.path.dirname(__file__), "..", "specs")
        names = sorted(os.listdir(specs_dir))
        assert len(names) == 9
        for name in names:
            spec = resolve_spec(os.path.join(specs_dir, name))
            assert spec.seeds and spec.name


class TestRun:
    def test_run_writes_complete_artifact(self, tmp_path):
        results = run_experiment(write_tiny_spec(tmp_path))
        assert len(results) == 1
        run_dir, summary = results[0]
        assert run_dir == str(tmp_path / "runs" / "tiny" / "baseline" / "1")
        for fname in ("snapshot.spec", "metrics.csv", "events.jsonl", "summary.json"):
            assert os.path.exists(os.path.join(run_dir, fname)), fname
        ckpts = os.listdir(os.path.join(run_dir, "checkpoints"))
        assert any(c.startswith("agent0_") for c in ckpts)
        assert summary["mean_collective_reward"] is not None
        assert not os.path.exists(os.path.join(run_dir, "FAILED"))

    def test_rerun_same_seed_byte_identical_metrics(self, tmp_path):
        spec = write_tiny_spec(tmp_path)
        (run_dir, _), = run_experiment(spec)
        first = open(os.path.join(run_dir, "metrics.csv"), "rb").read()
        (run_dir2, _), = run_experiment(spec, force=True)
        second = open(os.path.join(run_dir2, "metrics.csv"), "rb").read()
        assert first == second

    def test_existing_run_requires_force(self, tmp_path):
        spec = write_tiny_spec(tmp_path)
        run_experiment(spec)
        with pytest.raises(FileExistsError):
            run_experiment(spec)

    def test_snapshot_round_trips_to_identical_snapshot(self, tmp_path):
        spec = write_tiny_spec(tmp_path)
        (run_dir, _), = run_experiment(spec)
        snap_path = os.path.join(run_dir, "snapshot.spec")
        snapshot = open(snap_path, encoding="utf-8").read()
        # re-running the snapshot itself must reproduce its own bytes
        resolved = resolve_spec(snap_path)
        resolved.output_dir = str(tmp_path / "runs2")
        from marl_lab.cli.experiment import run_single_seed
        run_dir2, _ = run_single_seed(resolved, resolved.seeds[0])
        snapshot2 = open(os.path.join(run_dir2, "snapshot.spec"),
                         encoding="utf-8").read()
        def strip_out(text):
            return [l for l in text.splitlines() if not l.startswith("output_dir")]
        assert strip_out(snapshot) == strip_out(snapshot2)

    def test_summary_recomputable_from_metrics(self, tmp_path):
        (run_dir, summary), = run_experiment(write_tiny_spec(tmp_path))
        from marl_lab.training import read_metrics_csv
        m = read_metrics_csv(os.path.join(run_dir, "metrics.csv"))
        steps = np.array(m["env_steps"])
        rew = np.array(m["collective_reward"])
        mask = (steps > steps.max() - 40) & ~np.isnan(rew)
        assert summary["mean_collective_reward"] == pytest.approx(
            float(rew[mask].mean()))

    def test_shaping_audit_stream(self, tmp_path):
        spec_path = tmp_path / "audit.spec"
        spec_path.write_text(
            TINY_SPEC.format(out=str(tmp_path / "runs"), mode="emurel")
            .replace('name = "tiny"', 'name = "tiny"\naudit_shaping = true'))
        (run_dir, _), = run_experiment(str(spec_path))
        audit = os.path.join(run_dir, "shaping_audit.csv")
        assert os.path.exists(audit)
        lines = open(audit).read().splitlines()
        # header + updates * workers * steps * agents rows
        assert lines[0].startswith("update,worker,step,agent,")
        assert len(lines) == 1 + 2 * 2 * 20 * 2
        parts = lines[1].split(",")
        e, i, r = float(parts[4]), float(parts[5]), float(parts[6])
        assert r == pytest.approx(e + i, abs=1e-12)

    def test_cli_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text("name = \n")
        assert main(["run", str(bad)]) == 2
        spec = write_tiny_spec(tmp_path)
        assert main(["run", spec]) == 0
        assert main(["run", spec]) == 2   # already exists, no --force
        assert main(["run", spec, "--force"]) == 0

    def test_force_leaves_only_the_new_runs_files(self, tmp_path, capsys):
        spec = tmp_path / "tiny.spec"
        text = TINY_SPEC.format(out=str(tmp_path / "runs"), mode="baseline")
        spec.write_text(text.replace('name = "tiny"', 'name = "tiny"\naudit_shaping = true'))
        assert main(["run", str(spec)]) == 0                  # updates = 2: step 80
        spec.write_text(text.replace("updates = 2", "updates = 1"))
        assert main(["run", str(spec), "--force"]) == 0       # step 40, no audit
        run_dir = tmp_path / "runs" / "tiny" / "baseline" / "1"
        assert sorted(os.listdir(run_dir / "checkpoints")) == [
            "agent0_step0000000040.ckpt", "agent1_step0000000040.ckpt"]
        assert not (run_dir / "shaping_audit.csv").exists()
        assert sorted(os.listdir(tmp_path / "runs" / "tiny" / "baseline")) == ["1"]
        assert json.loads((run_dir / "summary.json").read_text())["updates"] == 1

    def test_spawn_shortage_is_a_spec_error(self, tmp_path):
        path = tmp_path / "crowded.spec"
        path.write_text(TINY_SPEC.format(out=str(tmp_path), mode="baseline")
                        .replace("num_agents = 2", "num_agents = 5"))
        with pytest.raises(SpecError) as exc:
            resolve_spec(str(path))
        assert "spawn" in str(exc.value)

    def test_midrun_failure_leaves_marker(self, tmp_path, monkeypatch):
        from marl_lab.training import Trainer

        def boom(self):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(Trainer, "one_update", boom)
        spec = write_tiny_spec(tmp_path)
        with pytest.raises(RuntimeError):
            run_experiment(spec)
        run_dir = tmp_path / "runs" / "tiny" / "baseline" / "1"
        assert (run_dir / "FAILED").exists()
        assert "induced failure" in (run_dir / "FAILED").read_text()
        assert (run_dir / "metrics.csv").exists()   # partial artifact remains

    def test_failed_forced_rerun_leaves_no_earlier_summary(self, tmp_path, monkeypatch):
        from marl_lab.training import Trainer
        spec = write_tiny_spec(tmp_path)
        (run_dir, _), = run_experiment(spec)
        monkeypatch.setattr(Trainer, "one_update", lambda self: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run_experiment(spec, force=True)
        assert sorted(os.listdir(run_dir)) == [
            "FAILED", "events.jsonl", "metrics.csv", "snapshot.spec"]

    def test_interrupted_run_leaves_marker(self, tmp_path, monkeypatch):
        from marl_lab.training import Trainer

        def interrupt(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(Trainer, "one_update", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(write_tiny_spec(tmp_path))
        run_dir = tmp_path / "runs" / "tiny" / "baseline" / "1"
        assert "KeyboardInterrupt" in (run_dir / "FAILED").read_text()
        last = (run_dir / "events.jsonl").read_text().splitlines()[-1]
        assert json.loads(last) == {"event": "run_failed"}

    def test_every_seed_is_checked_before_any_trains(self, tmp_path, capsys):
        spec = tmp_path / "tiny.spec"
        text = TINY_SPEC.format(out=str(tmp_path / "runs"), mode="baseline")
        spec.write_text(text.replace("seeds = [1]", "seeds = [2]"))
        assert main(["run", str(spec)]) == 0
        spec.write_text(text.replace("seeds = [1]", "seeds = [1, 2]"))
        capsys.readouterr()
        assert main(["run", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "already holds a run" in err
        assert sorted(os.listdir(tmp_path / "runs" / "tiny" / "baseline")) == ["2"]

    def test_summarize_refuses_a_failed_seed(self, tmp_path, capsys, monkeypatch):
        from marl_lab.training import Trainer
        spec = tmp_path / "tiny.spec"
        spec.write_text(TINY_SPEC.format(out=str(tmp_path / "runs"), mode="baseline")
                        .replace("seeds = [1]", "seeds = [1, 2]"))
        one_update = Trainer.one_update

        def fail_seed_2_at_update_2(self):
            if self.cfg.seed == 2 and self.update_idx == 1:
                raise RuntimeError("induced failure")
            return one_update(self)

        monkeypatch.setattr(Trainer, "one_update", fail_seed_2_at_update_2)
        assert main(["run", str(spec)]) == 1
        runs = tmp_path / "runs" / "tiny"
        assert (runs / "baseline" / "2" / "FAILED").exists()
        capsys.readouterr()
        assert main(["summarize", str(runs), "--last-steps", "40"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {runs / 'baseline' / '2'}: unfinished run")
        assert captured.out == ""


def synth_run(tmp_path, method, seed, rewards, name="synth"):
    """Hand-built run dir with a fixed per-update reward stream."""
    run_dir = tmp_path / name / method / str(seed)
    os.makedirs(run_dir, exist_ok=True)
    snap = {None: {"name": name, "seeds": [seed], "output_dir": str(tmp_path)},
            "env": {"kind": "cleanup"}, "method": {"mode": method}}
    (run_dir / "snapshot.spec").write_text(write_spec_text(snap))
    lines = ["update,env_steps,episodes_completed,collective_reward,equality,"
             "policy_loss,value_loss,entropy,moa_loss,forward_loss,inverse_loss,"
             "intrinsic_mean,impact_mean,impact_min,impact_max,grad_norm"]
    for i, r in enumerate(rewards, start=1):
        lines.append(f"{i},{i * 100},2,{float(r)!r},1.0,0.0,0.0,0.0,0.0,0.0,0.0,"
                     f"0.0,0.0,0.0,0.0,0.0")
    (run_dir / "metrics.csv").write_text("\n".join(lines) + "\n")
    (run_dir / "summary.json").write_text(json.dumps({"seed": seed}) + "\n")
    return str(run_dir)


class TestSummarize:
    def test_single_seed_band_width_zero(self, tmp_path):
        rd = synth_run(tmp_path, "baseline", 1, [10.0, 10.0])
        rows = summarize([rd], last_steps=1000)
        assert rows[0]["variance"] == 0.0
        assert rows[0]["ci_low"] == rows[0]["ci_high"] == 10.0

    def test_hand_statistics_over_three_seeds(self, tmp_path):
        for seed, r in ((1, 10.0), (2, 20.0), (3, 30.0)):
            synth_run(tmp_path, "baseline", seed, [r, r])
        rows = summarize([str(tmp_path / "synth")], last_steps=1000)
        row = rows[0]
        assert row["runs"] == 3
        assert row["mean_collective_reward"] == pytest.approx(20.0)
        assert row["variance"] == pytest.approx(100.0)   # unbiased
        half = 1.96 * np.sqrt(100.0 / 3)
        assert row["ci_high"] - row["mean_collective_reward"] == pytest.approx(half)

    def test_trim_drops_best_and_worst(self, tmp_path):
        for seed, r in ((1, 0.0), (2, 10.0), (3, 20.0), (4, 100.0)):
            synth_run(tmp_path, "baseline", seed, [r])
        rows = summarize([str(tmp_path / "synth")], last_steps=1000, trim=True)
        assert rows[0]["runs"] == 2
        assert rows[0]["mean_collective_reward"] == pytest.approx(15.0)

    def test_window_selects_trailing_steps(self, tmp_path):
        rd = synth_run(tmp_path, "baseline", 1, [0.0, 0.0, 30.0])
        rows = summarize([rd], last_steps=100)   # only the last row qualifies
        assert rows[0]["mean_collective_reward"] == pytest.approx(30.0)

    def test_inconsistent_specs_rejected(self, tmp_path):
        synth_run(tmp_path, "baseline", 1, [1.0])
        rd2 = synth_run(tmp_path, "baseline", 2, [2.0])
        snap = os.path.join(rd2, "snapshot.spec")
        text = open(snap).read().replace('kind = "cleanup"', 'kind = "harvest"')
        open(snap, "w").write(text)
        with pytest.raises(SummarizeError):
            summarize([str(tmp_path / "synth")], last_steps=1000)

    def test_run_without_summary_is_refused(self, tmp_path):
        synth_run(tmp_path, "baseline", 1, [1.0])
        rd2 = synth_run(tmp_path, "baseline", 2, [2.0])
        os.remove(os.path.join(rd2, "summary.json"))   # killed before finishing
        with pytest.raises(SummarizeError, match="unfinished run") as exc:
            summarize([str(tmp_path / "synth")], last_steps=1000)
        assert str(exc.value).startswith(rd2)

    def test_summarize_errors_exit_2(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        capsys.readouterr()
        assert main(["summarize", str(tmp_path / "empty"), "--last-steps", "10"]) == 2
        assert capsys.readouterr().err.startswith("error: no runs found under")
        for seed in (1, 2):
            synth_run(tmp_path, "baseline", seed, [1.0])
        assert main(["summarize", str(tmp_path / "synth"), "--last-steps", "10",
                     "--trim"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: method 'baseline': trimming needs")
        assert captured.out == ""

    @pytest.mark.parametrize("case", ["bad_value", "short_row", "missing_column", "binary"])
    def test_malformed_metrics_exit_2_naming_the_file(self, tmp_path, capsys, case):
        rd = synth_run(tmp_path, "baseline", 1, [1.0, 2.0])
        path = os.path.join(rd, "metrics.csv")
        lines = open(path).read().splitlines()
        if case == "bad_value":
            lines[2] = lines[2].replace(",2.0,", ",abc,")
        elif case == "short_row":
            lines[2] = lines[2].rsplit(",", 1)[0]
        elif case == "missing_column":
            lines = [line.split(",", 2)[2] for line in lines]     # no update, env_steps
        with open(path, "wb") as f:
            f.write(b"\xff\xfe\x00" if case == "binary" else "\n".join(lines).encode() + b"\n")
        with pytest.raises(SummarizeError) as exc:
            summarize([rd], last_steps=1000)
        assert str(exc.value).startswith(f"{path}: ")
        capsys.readouterr()
        assert main(["summarize", rd, "--last-steps", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("last_steps", [0, -5])
    def test_window_below_one_step_names_the_flag(self, tmp_path, capsys, last_steps):
        rd = synth_run(tmp_path, "baseline", 1, [1.0, 2.0])
        with pytest.raises(SummarizeError, match=f"^--last-steps {last_steps}: "):
            summarize([rd], last_steps=last_steps)
        capsys.readouterr()
        assert main(["summarize", rd, "--last-steps", str(last_steps)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --last-steps {last_steps}: ")

    def test_methods_grouped_separately(self, tmp_path):
        synth_run(tmp_path, "baseline", 1, [5.0])
        synth_run(tmp_path, "ia", 1, [7.0])
        rows = summarize([str(tmp_path / "synth")], last_steps=1000)
        assert [r["method"] for r in rows] == ["baseline", "ia"]


def comparison_script():
    """scripts/run_method_comparison.py, loaded as a module."""
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_method_comparison.py")
    spec = importlib.util.spec_from_file_location("run_method_comparison", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMethodComparisonScript:
    @pytest.mark.parametrize("argv", [["--seeds", "1", "1"], ["--seeds", "-1"],
                                      ["--updates", "0"], ["--last-steps", "0"]])
    def test_bad_setting_fails_before_any_seed_trains(self, tmp_path, monkeypatch, capsys,
                                                      argv):
        script = comparison_script()
        calls = []
        monkeypatch.setattr(script, "run_single_seed", lambda *a, **kw: calls.append(a))
        with pytest.raises(SystemExit) as exc:
            script.main(argv + ["--output-dir", str(tmp_path / "runs")])
        assert exc.value.code == 2
        assert calls == []
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_every_seed_of_every_method_trains_with_the_settings_given(self, tmp_path,
                                                                       monkeypatch):
        script = comparison_script()
        calls = []
        monkeypatch.setattr(script, "run_single_seed",
                            lambda spec, seed, force: calls.append((spec, seed)) or (
                                "run", {"mean_collective_reward": 0.0}))
        monkeypatch.setattr(script, "summarize", lambda *a, **kw: [])
        script.main(["--seeds", "4", "2", "--updates", "3", "--output-dir", str(tmp_path)])
        assert [(s.method.mode, seed) for s, seed in calls] == [
            ("baseline", 4), ("baseline", 2), ("ia", 4), ("ia", 2), ("emurel", 4), ("emurel", 2)]
        assert {(s.trainer.updates, s.output_dir, tuple(s.seeds)) for s, _ in calls} == {
            (3, str(tmp_path), (4, 2))}


class TestReplay:
    def _trained_dir(self, tmp_path):
        (run_dir, _), = run_experiment(write_tiny_spec(tmp_path))
        return os.path.join(run_dir, "checkpoints"), write_tiny_spec(
            tmp_path, name="tiny2.spec")

    def test_frame_count_matches_episodes_times_length(self, tmp_path):
        ckpt_dir, env_spec = self._trained_dir(tmp_path)
        frames = []
        results = replay(ckpt_dir, env_spec, episodes=2, seed=3,
                         sink=frames.append)
        assert len(frames) == 2 * 10
        assert len(results) == 2

    def test_identical_seeds_identical_streams(self, tmp_path):
        ckpt_dir, env_spec = self._trained_dir(tmp_path)
        a, b = [], []
        replay(ckpt_dir, env_spec, episodes=1, seed=9, sink=a.append)
        replay(ckpt_dir, env_spec, episodes=1, seed=9, sink=b.append)
        assert a == b

    def test_truncated_checkpoint_exits_2(self, tmp_path, capsys):
        # a cut length field or a cut manifest is a checkpoint error, not a crash
        spec = write_tiny_spec(tmp_path)
        for name, blob in (("short", b"MARLCKP1\x07"),
                           ("cut", b"MARLCKP1" + (99).to_bytes(8, "little") + b'{"meta"')):
            ckpt_dir = tmp_path / name
            ckpt_dir.mkdir()
            for k in range(2):
                (ckpt_dir / f"agent{k}_step10.ckpt").write_bytes(blob)
            capsys.readouterr()
            assert main(["replay", str(ckpt_dir), spec, "--episodes", "1",
                         "--seed", "1"]) == 2
            assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("case", sorted(malformed_manifests()))
    def test_malformed_manifest_exits_2_naming_the_checkpoint(self, tmp_path, capsys, case):
        # geometry and sections that fit the spec, so only the layout is wrong
        spec = write_tiny_spec(tmp_path)
        env = resolve_spec(spec).env
        meta = {"view_size": env.view_size, "num_actions": env.num_actions,
                "num_agents": env.num_agents}
        sections = ["encoder", "actor_critic", "moa", "forward", "inverse"]
        manifest, length = malformed_manifests(meta, sections)[case]
        ckpt_dir = tmp_path / "checkpoints"
        ckpt_dir.mkdir()
        for k in range(2):
            write_checkpoint_header(ckpt_dir / f"agent{k}_step10.ckpt", manifest, length)
        capsys.readouterr()
        assert main(["replay", str(ckpt_dir), spec, "--episodes", "1", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {ckpt_dir / 'agent0_step10.ckpt'}: ")
        assert captured.out == ""

    def test_net_mismatch_exits_2_naming_the_checkpoint(self, tmp_path, capsys):
        # a spec whose [net] does not fit the saved layers is a checkpoint
        # error, not a failed run
        ckpt_dir, env_spec = self._trained_dir(tmp_path)
        wide = tmp_path / "wide_net.spec"
        wide.write_text(open(env_spec).read().replace("conv_filters = 2", "conv_filters = 3"))
        capsys.readouterr()
        assert main(["replay", ckpt_dir, str(wide), "--episodes", "1", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        first = find_agent_checkpoints(ckpt_dir)[0]
        assert captured.err.startswith(
            f"error: {first}: encoder: shape mismatch for conv.kernel: "
            f"(3, 3, 8, 2) != (3, 3, 8, 3)")
        assert captured.out == ""

    def test_zero_episodes_exits_2(self, tmp_path, capsys):
        ckpt_dir, env_spec = self._trained_dir(tmp_path)
        capsys.readouterr()
        assert main(["replay", ckpt_dir, env_spec, "--episodes", "0",
                     "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--episodes" in captured.err
        assert captured.out == ""

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        ckpt_dir, env_spec = self._trained_dir(tmp_path)
        capsys.readouterr()
        assert main(["replay", ckpt_dir, env_spec, "--episodes", "1",
                     "--seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--seed" in captured.err
        assert captured.out == ""

    def test_out_holds_the_frames_the_sink_receives(self, tmp_path, capsys):
        ckpt_dir, env_spec = self._trained_dir(tmp_path)
        frames = []
        results = replay(ckpt_dir, env_spec, episodes=2, seed=3, sink=frames.append)
        out = tmp_path / "frames" / "frames.txt"
        out.parent.mkdir()
        out.write_bytes(b"earlier frames\n")
        capsys.readouterr()
        assert main(["replay", ckpt_dir, env_spec, "--episodes", "2", "--seed", "3",
                     "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "".join(f + "\n" for f in frames)
        assert os.listdir(out.parent) == ["frames.txt"]
        printed = capsys.readouterr().out.splitlines()
        assert [json.loads(line) for line in printed] == results

    @pytest.mark.parametrize("case", ["missing_checkpoints", "zero_episodes"])
    def test_failed_replay_leaves_out_as_it_was(self, tmp_path, capsys, case):
        # the frames go to a temporary name that only a finished replay renames
        (tmp_path / "empty").mkdir()
        ckpt_dir, episodes, blamed = {
            "missing_checkpoints": (tmp_path / "nowhere", "1", "no agent checkpoints"),
            "zero_episodes": (tmp_path / "empty", "0", "--episodes"),
        }[case]
        out = tmp_path / "frames" / "frames.txt"
        out.parent.mkdir()
        out.write_bytes(b"earlier frames\n")
        capsys.readouterr()
        assert main(["replay", str(ckpt_dir), write_tiny_spec(tmp_path), "--episodes",
                     episodes, "--seed", "1", "--out", str(out)]) == 2
        assert blamed in capsys.readouterr().err
        assert out.read_bytes() == b"earlier frames\n"
        assert os.listdir(out.parent) == ["frames.txt"]

    def test_env_mismatch_rejected(self, tmp_path):
        ckpt_dir, env_spec = self._trained_dir(tmp_path)
        bad = open(env_spec).read().replace("view_size = 5", "view_size = 7")
        bad_path = tmp_path / "bad_env.spec"
        bad_path.write_text(bad)
        with pytest.raises(CheckpointError):
            replay(ckpt_dir, str(bad_path), episodes=1, seed=1, sink=lambda f: None)

    def test_agents_are_paired_from_one_save(self, tmp_path):
        # agent 0 saved at step 128 but agent 1 not: the latest whole save is 64
        names = ("agent0_step0000000128.ckpt", "agent0_step0000000064.ckpt",
                 "agent1_step0000000064.ckpt")
        for name in names:
            (tmp_path / name).write_bytes(b"")
        assert find_agent_checkpoints(str(tmp_path)) == [
            str(tmp_path / names[1]), str(tmp_path / names[2])]
        os.remove(tmp_path / names[2])
        (tmp_path / "agent1_step0000000032.ckpt").write_bytes(b"")
        with pytest.raises(CheckpointError, match="no save"):
            find_agent_checkpoints(str(tmp_path))
