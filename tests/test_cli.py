"""CLI harness: spec parsing diagnostics, run artifacts, aggregation table,
checkpoint replay, and exit codes."""

import os

import numpy as np
import pytest

from marl_lab.cli import (
    SpecError, SummarizeError, parse_spec_text, resolve_spec, run_experiment,
    summarize, write_spec_text,
)
from marl_lab.cli.main import main
from marl_lab.cli.replay import replay
from marl_lab.cli.specfile import validate
from marl_lab.nn import CheckpointError

TINY_SPEC = """
name = "tiny"
seeds = [1]
output_dir = "{out}"
summary_window_steps = 40

[env]
kind = "cleanup"
map = "cleanup_mini"
num_agents = 2
episode_length = 10
view_size = 5
initial_waste_fraction = 0.2

[method]
mode = "{mode}"
alpha = 0.0
beta = 0.05

[trainer]
algo = "ppo"
batch_steps = 40
minibatch_steps = 20
ppo_epochs = 2
workers = 2
updates = 2
learning_rate = 0.001

[eval]
interval = 2
episodes = 1

[checkpoint]
interval = 2

[net]
conv_filters = 2
fc_units = 8
lstm_units = 8
eicm_hidden = 8
"""


def write_tiny_spec(tmp_path, mode="baseline", name="tiny.spec"):
    path = tmp_path / name
    path.write_text(TINY_SPEC.format(out=str(tmp_path / "runs"), mode=mode))
    return str(path)


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

    def test_unknown_key_rejected_with_position(self):
        doc = parse_spec_text("name = \"x\"\nseeds = [1]\n\n[env]\nkind = \"cleanup\"\n"
                              "warp_speed = 9\n", path="f.spec")
        from marl_lab.cli.experiment import SPEC_SCHEMA
        with pytest.raises(SpecError) as exc:
            validate(doc, SPEC_SCHEMA, path="f.spec")
        assert "f.spec:6" in str(exc.value) and "warp_speed" in str(exc.value)

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

    def test_shipped_specs_resolve(self):
        specs_dir = os.path.join(os.path.dirname(__file__), "..", "specs")
        names = sorted(os.listdir(specs_dir))
        assert len(names) == 6
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

    def test_methods_grouped_separately(self, tmp_path):
        synth_run(tmp_path, "baseline", 1, [5.0])
        synth_run(tmp_path, "ia", 1, [7.0])
        rows = summarize([str(tmp_path / "synth")], last_steps=1000)
        assert [r["method"] for r in rows] == ["baseline", "ia"]


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

    def test_env_mismatch_rejected(self, tmp_path):
        ckpt_dir, env_spec = self._trained_dir(tmp_path)
        bad = open(env_spec).read().replace("view_size = 5", "view_size = 7")
        bad_path = tmp_path / "bad_env.spec"
        bad_path.write_text(bad)
        with pytest.raises(CheckpointError):
            replay(ckpt_dir, str(bad_path), episodes=1, seed=1, sink=lambda f: None)
