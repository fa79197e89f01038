#!/usr/bin/env python3
"""Desk-training benchmark for the shipped mini specs.

    python3 perfbench/run.py --workload cleanup-emurel-ppo --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics untraced: set-up probes in fresh
interpreters, one warm-up update, then timed updates for about --seconds.
--trace 1 steps an untraced and a traced trainer of the same seed in
alternation, reports per-layer metrics from the traced one and writes its
spans to .perfbench/spans/. Either mode prints every metric with its unit,
then one JSON line, and exits 1 if the correctness gate fails.
See perfbench/README.md.
"""

import argparse
import json
import os
import sys
import time

# Held fixed before numpy loads: OpenBLAS's default thread count makes
# update times swing by a third on a 2-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def fmt(value):
    return "missing" if value is None else f"{value:.6g}"


def report(declared, metrics, notes):
    """Print each declared metric by name with unit and direction; returns
    the JSON metrics object. A metric the run did not produce is an error."""
    out = {}
    for m in declared:
        if m["name"] not in metrics:
            raise KeyError(f"benchmark produced no value for {m['name']}")
        value = metrics[m["name"]]
        note = notes.get(m["name"], "")
        print(f"  {m['name']:32s} {fmt(value):>14s} {m['unit']:8s} "
              f"{m['better']} is better{'  ' + note if note else ''}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(extra)}")
    return out


def untraced(harness, args, declared):
    setups = harness.setup_seconds(args.workload, args.seed)
    spec = harness.cli.resolve_spec(harness.spec_path(args.workload))
    stepper, metrics = harness.run_untraced(spec, args.seed, args.seconds)
    if not metrics:
        return stepper.rows, stepper.attempted, stepper.failed, stepper.problems, {}
    metrics["setup_s"] = harness.median(setups)
    metrics["peak_rss_mb"] = harness.peak_rss_mb()
    n = len(stepper.timed)
    tail = harness.tail_percentile(stepper.timed)
    tail_note = (f"p{tail[0]:g} {tail[1]:.6g} s" if tail
                 else "no tail percentile: fewer than 10 samples beyond p90")
    notes = {
        "env_steps_per_s": f"{spec.trainer.batch_steps} steps x {n} timed updates",
        "update_s": f"median of {n} after 1 warm-up; {tail_note}",
        "setup_s": f"median of {len(setups)} fresh processes",
    }
    return stepper.rows, stepper.attempted, stepper.failed, stepper.problems, \
        report(declared["end_to_end"], metrics, notes)


def traced(harness, args, declared):
    from perfbench.tracing import Span

    path = harness.spec_path(args.workload)
    plain, tr, tracer, metrics, problems = harness.run_traced(
        lambda: harness.cli.resolve_spec(path), args.seed, args.seconds)
    n = len(tr.timed)
    notes = {"trace.overhead_s": f"traced minus untraced, median of {n} pairs"}
    reported = report(declared["per_layer"], metrics, notes) if metrics else {}
    spans_path = os.path.join(ROOT, ".perfbench", "spans",
                              f"{args.workload}-seed{args.seed}.jsonl")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"fields": list(Span._fields), "timed_updates": n}) + "\n")
        for span in tracer.spans:
            f.write(json.dumps(list(span)) + "\n")
    print(f"  spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    return plain.rows, plain.attempted + tr.attempted, plain.failed + tr.failed, \
        problems, reported


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "marl_lab", "__init__.py")):
        print(f"error: {ROOT} holds no marl_lab sources under src/", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        harness.build_for_probe(args.workload, args.seed)
        print(repr(time.time()))
        return 0

    declared = load_declared()
    print(f"workload {args.workload}  seed {args.seed}  "
          f"mode {'traced' if args.trace else 'untraced'}")
    print("fingerprint " + json.dumps(harness.fingerprint(args.workload, args.seed,
                                                          BLAS_THREADS)))
    run = traced if args.trace else untraced
    rows, attempted, failed, problems, metrics = run(harness, args, declared)
    print(f"  updates_failed {failed} of updates_attempted {attempted}")
    print(f"  metrics_sha256 {harness.metrics_sha256(rows)} "
          f"(information only: {len(rows)} rows)")
    for problem in problems:
        print(f"  FAILED {problem}")
    correct = not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
