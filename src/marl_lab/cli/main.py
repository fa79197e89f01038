"""Command-line entry point: run / summarize / replay."""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from ..envs import ConfigError
from ..nn import CheckpointError
from .specfile import SpecError
from .summarize import SummarizeError


def build_parser():
    p = argparse.ArgumentParser(
        prog="marl-lab",
        description="Social-dilemma gridworld training harness: run experiment "
                    "specs, aggregate result tables, replay checkpoints.")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="execute every seed of an experiment spec")
    r.add_argument("spec", help="path to the experiment spec file")
    r.add_argument("--force", action="store_true",
                   help="overwrite existing run directories")
    r.add_argument("--output-dir", default=None,
                   help="override output_dir")

    s = sub.add_parser("summarize", help="method comparison table from run dirs")
    s.add_argument("dirs", nargs="+", help="run directories (or parents)")
    s.add_argument("--last-steps", type=int, required=True,
                   help="trailing env-step window to average over")
    s.add_argument("--trim", action="store_true",
                   help="drop the best and worst run per method")
    s.add_argument("--out", default=None, help="also write the table CSV here")

    q = sub.add_parser("replay", help="replay checkpointed agents as ASCII frames")
    q.add_argument("checkpoint_dir", help="directory holding agent*_step*.ckpt")
    q.add_argument("env_spec", help="spec file providing [env] and [net]")
    q.add_argument("--episodes", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--greedy", action="store_true", help="argmax actions")
    q.add_argument("--out", default=None, help="write frames here instead of stdout")
    return p


def cmd_run(args):
    from .experiment import run_experiment
    results = run_experiment(args.spec, force=args.force, output_dir=args.output_dir)
    for run_dir, summary in results:
        print(f"{run_dir}: mean_collective_reward="
              f"{summary['mean_collective_reward']}")
    return 0


def cmd_summarize(args):
    from .summarize import format_table, summarize
    rows = summarize(args.dirs, last_steps=args.last_steps, trim=args.trim)
    table = format_table(rows)
    sys.stdout.write(table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(table)
    return 0


def cmd_replay(args):
    """Frames go to stdout, or to a temporary name beside --out that is renamed
    over it only once the replay returns, so a failed replay leaves --out as
    it was."""
    from .replay import replay
    tmp = f"{args.out}.tmp" if args.out else None
    try:
        with open(tmp, "w", encoding="utf-8") if tmp else nullcontext(sys.stdout) as out:
            results = replay(args.checkpoint_dir, args.env_spec, args.episodes,
                             args.seed, greedy=args.greedy,
                             sink=lambda frame: out.write(frame + "\n"))
        if tmp:
            os.replace(tmp, args.out)
    finally:
        if tmp and os.path.exists(tmp):
            os.remove(tmp)
    for r in results:
        print(json.dumps(r, sort_keys=True))
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "summarize":
            return cmd_summarize(args)
        if args.command == "replay":
            return cmd_replay(args)
    except (SpecError, ConfigError, CheckpointError, FileExistsError,
            FileNotFoundError, SummarizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # mid-run failure: partial artifact + marker exist
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
