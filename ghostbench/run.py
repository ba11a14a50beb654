#!/usr/bin/env python3
"""GhostDB end-to-end benchmark.

    python3 ghostbench/run.py --workload paper_q --seed 7 --seconds 15 --trace 0

Run from the repository root. Builds GhostDB and the ghostbench program
from source into .bench_build/ghostbench, runs the workload's measured
process, checks every distinct successful answer against the reference
oracle (in a separate process, outside the timed region), prints each
metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exit status 0 when the run completed and every answer matched; 1 when an
answer was wrong (the JSON line still says why) or the benchmark could not
build or run (no JSON line). See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402

WORKLOADS = ["paper_q", "serving_mix", "tight_padded"]
ROW_LIMIT = 64  # kResultRowLimit in src/workloads.h
BUILD_DIR = os.path.join(".bench_build", "ghostbench")
DEADLINE_S = 170  # a run (after the build) ends within the 180 s budget


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds ghostbench; returns its path or None."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                with open(log_path) as f:
                    log(f.read()[-3000:])
                log("ghostbench: build failed (%s)" % " ".join(step))
                if step[1] == "-S":
                    # A failed configure leaves a cache that would skip it
                    # next time.
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return None
    return os.path.join(BUILD_DIR, "ghostbench")


def run_child(argv, deadline):
    """Runs one ghostbench process to completion; False on failure or when
    it would overrun the run's deadline (the child is killed and reaped)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return False
    try:
        return subprocess.run(argv, timeout=remaining).returncode == 0
    except subprocess.TimeoutExpired:
        log("ghostbench: %s exceeded the time budget" % argv[1])
        return False


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def evaluate(run_dir, expected_path, workload, trace, out=sys.stdout):
    """Checks the answers and prints the report; returns the exit status.
    Split out of main() so the tests can feed it hand-made run files."""
    meta, records, spans = metrics.load_run(run_dir)
    answers = metrics.load_answers(os.path.join(run_dir, "answers.jsonl"))
    expected = metrics.load_answers(expected_path)
    problems = metrics.compare_answers(answers, expected, ROW_LIMIT)
    if meta["inconsistent_answers"]:
        problems.append((None, "%d repeated statements answered differently"
                         % meta["inconsistent_answers"]))
    e2e, facts = metrics.end_to_end(meta, records)

    p = lambda s="": print(s, file=out)  # noqa: E731
    p("ghostbench %s seed %d: %d statements, %d client(s), %d distinct "
      "(%d answered, all checked against the oracle), host threads %d"
      % (workload, meta["seed"], meta["statements"], meta["clients"],
         meta["distinct_statements"], len(answers), meta["host_threads"]))
    p("  attempted %d, failed %d %s; latency samples %d (each the least "
      "over %d timed round(s)); stmt_p99_ms is p%.2f with %d samples beyond"
      % (facts["attempted"], facts["failed"],
         {str(k): v for k, v in facts["failures_by_code"].items()},
         facts["samples"], facts["rounds"], 100 * facts["p99_fraction_used"],
         facts["p99_samples_beyond"]))
    for name, (value, unit) in e2e.items():
        p("  %-28s %14s %s" % (name, fmt(value), unit))
    spec = load_spec()
    if trace:
        layer, self_us = metrics.per_layer(meta, records, spans)
        p("  traced run (separate passes; p50 per statement):")
        for name, (value, unit) in layer.items():
            p("  %-36s %14s %s" % (name, fmt(value), unit))
        p("  self time per layer, p50 per statement (us): " +
          ", ".join("%s %.1f" % kv for kv in self_us.items()))
        fleet = metrics.by_pass(records, "fleet")
        if fleet:
            sample = metrics.measured(fleet)
            p("  same stream on the 4-shard fleet (traced): attempted %d, "
              "failed %d, stmt_p50_ms %.4g, sim_ms_per_stmt %.4g"
              % (len(fleet), len(fleet) - len(metrics.successful(fleet)),
                 metrics.percentile([r["wall"] / 1e6 for r in sample],
                                    0.5)[0],
                 metrics.mean(r["sim"] for r in sample) / 1e6))
        names = [m["name"] for m in spec["per_layer"]]
        chosen = {n: layer[n] for n in names}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        chosen = {n: e2e[n] for n in names}
    for key, why in problems[:20]:
        p("  ANSWER MISMATCH q=%s: %s" % (key, why))
    correct = not problems
    result = {
        "correct": correct,
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in chosen.items()},
    }
    print(json.dumps(result), file=out, flush=True)
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 1
    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(BUILD_DIR, "runs", "%s-seed%d-trace%d"
                           % (args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    if not run_child([binary, "measure", args.workload, str(args.seed),
                      repr(args.seconds), str(args.trace), run_dir],
                     deadline):
        log("ghostbench: the measured process failed")
        return 1
    expected = os.path.join(run_dir, "expected.jsonl")
    if not run_child([binary, "oracle", args.workload, str(args.seed),
                      os.path.join(run_dir, "statements.tsv"), expected],
                     deadline):
        log("ghostbench: the oracle process failed")
        return 1
    status = evaluate(run_dir, expected, args.workload, args.trace)
    if status == 0 and not args.trace:
        shutil.rmtree(run_dir, ignore_errors=True)  # traced runs keep spans
    return status


if __name__ == "__main__":
    sys.exit(main())
