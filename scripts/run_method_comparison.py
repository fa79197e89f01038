#!/usr/bin/env python3
"""Run the desk-scale Cleanup method comparison and print the summary table.

Trains {baseline, ia, emurel} on three-agent mini-Cleanup, where EMuReL's
impact scaling is live (with two agents it equals IA), for the requested
seeds and update count, then aggregates with the same machinery as `marl-lab
summarize`. The method ordering at desk scale is reported, not gated;
desk-scale runs are far too short to rank the methods.
"""

import argparse
import dataclasses
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from marl_lab.cli import format_table, resolve_spec, run_single_seed, summarize
from marl_lab.envs import ConfigError

SPECS_DIR = os.path.join(os.path.dirname(__file__), "..", "specs")
METHOD_SPECS = ["mini_cleanup3_baseline.spec", "mini_cleanup3_ia.spec",
                "mini_cleanup3_emurel.spec"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--updates", type=int, default=200,
                    help="training updates per run (default: full desk scale)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--output-dir", default="runs/method_comparison")
    ap.add_argument("--last-steps", type=int, default=None,
                    help="aggregation window (default: summary window of the spec)")
    ap.add_argument("--trim", action="store_true",
                    help="drop best/worst seed per method (needs >= 3 seeds)")
    args = ap.parse_args(argv)
    if args.last_steps is not None and args.last_steps < 1:
        ap.error(f"--last-steps {args.last_steps}: the window must hold at least one env step")

    # Every spec is rebuilt through its config checks before any seed trains.
    specs = []
    try:
        for name in METHOD_SPECS:
            spec = resolve_spec(os.path.join(SPECS_DIR, name))
            specs.append(dataclasses.replace(
                spec, trainer=dataclasses.replace(spec.trainer, updates=args.updates),
                output_dir=args.output_dir, seeds=list(args.seeds)))
    except ConfigError as exc:
        ap.error(str(exc))

    window = args.last_steps if args.last_steps is not None else specs[0].summary_window_steps
    for spec in specs:
        for seed in spec.seeds:
            print(f"[{spec.method.mode} seed {seed}] training "
                  f"{args.updates} updates ...", flush=True)
            run_dir, summary = run_single_seed(spec, seed, force=True)
            print(f"  -> {run_dir}: mean_collective_reward="
                  f"{summary['mean_collective_reward']}", flush=True)

    rows = summarize([args.output_dir], last_steps=window, trim=args.trim)
    print("\nmethod comparison over the trailing", window, "env steps:")
    print(format_table(rows), end="")


if __name__ == "__main__":
    main()
