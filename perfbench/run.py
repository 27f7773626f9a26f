#!/usr/bin/env python3
"""The simulator's benchmark.

    python3 perfbench/run.py --workload chip_sweep|design_sweep|cluster \
        --seed N --seconds N --trace 0|1

Builds the simulator and the benchmark binary from source into
`.bench_build/` at the root of the checkout, then runs passes of the
workload, each in a fresh process, until `--seconds` of measuring have
passed (at least one pass). Every pass is a closed batch job: a fixed
set of simulations run to completion. Prints a table of every metric
with its unit, the output checks and the simulated-statistics digest,
and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over the
passes. With --trace 1 each measuring round runs one untraced pass and
one traced pass (see src/traced.cc); the metrics are the per-layer ones
plus the tracing overhead.

Exits non-zero without a result when the build or a pass fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "simr_perfbench")
WORKLOADS = ("chip_sweep", "design_sweep", "cluster")
PASS_TIMEOUT_S = 150
SETUP_SAMPLES_PER_PASS = 4

# Metric names and units: BENCHMARK.json at the root of the checkout.
TRACING_OVERHEAD = "trace.overhead_frac"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("simulator sources not found next to " + HERE)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "simr_perfbench",
                  "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def child_env():
    # The simulator runs with its defaults: no SIMR_* setting inherited.
    return {k: v for k, v in os.environ.items() if not k.startswith("SIMR_")}


def run_pass(args, threads, trace=False, setup_only=False):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--threads", str(threads)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", "--span-file",
                os.path.join(BUILD, "spans_%s_%d.json"
                             % (args.workload, args.seed))]
    if args.small:
        cmd.append("--small")
    if args.inject_failure:
        cmd.append("--inject-failure")
    spawned = time.monotonic()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, env=child_env(), timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("pass timed out: " + " ".join(cmd))
    if r.returncode != 0 or not r.stdout.strip():
        sys.stderr.write(r.stderr[-4000:])
        fail("pass failed (exit %d): %s" % (r.returncode, " ".join(cmd)))
    p = json.loads(r.stdout.strip().splitlines()[-1])
    # Set-up: from process start to the first timed call (both clocks
    # are CLOCK_MONOTONIC).
    p["setup_s"] = p["first_call_mono_s"] - spawned
    return p


def median(xs):
    return statistics.median(xs)


def end_to_end(passes, setups):
    rows = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "sim_kreq_per_s": [p["sim_requests"] / p["wall_s"] / 1e3
                           for p in passes],
    }
    return {k: median(v) for k, v in rows.items()}


def load_metrics():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                [(m["name"], m["unit"]) for m in spec["per_layer"]])
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read the metric list from BENCHMARK.json: %s" % e)


def per_layer(workload, names, untraced, traced):
    layers = {}
    for name in names:
        if name != TRACING_OVERHEAD:
            layers[name] = median([t["layers"][name] for t in traced])
    # Tracing overhead: the traced pass's host time for this workload's
    # simulations against the untraced passes'. Until the trace cache is
    # gone it also holds the cache's cost, which composed cells skip.
    layers[TRACING_OVERHEAD] = (
        median([t["layers"]["wall." + workload] for t in traced])
        / median([u["wall_s"] for u in untraced]) - 1.0)
    return layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--small", action="store_true",
                    help="seconds-long scale for the self-test")
    ap.add_argument("--inject-failure", action="store_true",
                    help="self-test: corrupt one output before the checks")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    # Every worker and shard count the simulator sees.
    threads = min(4, os.cpu_count() or 1)

    end_to_end_units, per_layer_units = load_metrics()
    build()

    untraced, traced, setups = [], [], []
    start = time.monotonic()
    while not untraced or time.monotonic() - start < args.seconds:
        # Set-up takes milliseconds, so it gets extra samples from
        # processes that stop at the first timed call.
        for _ in range(SETUP_SAMPLES_PER_PASS):
            setups.append(run_pass(args, threads, setup_only=True)["setup_s"])
        untraced.append(run_pass(args, threads))
        setups.append(untraced[-1]["setup_s"])
        if args.trace:
            traced.append(run_pass(args, threads, trace=True))

    checked = untraced + traced
    attempted = sum(p["attempted"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    # Passes of one seed must simulate identically: one more operation.
    digests = sorted({p["sim_digest"] for p in untraced})
    attempted += 1
    failed += 0 if len(digests) == 1 else 1
    correct = failed == 0

    if args.trace:
        units = per_layer_units
        metrics = per_layer(args.workload, [n for n, _ in units], untraced,
                            traced)
    else:
        units = end_to_end_units
        metrics = end_to_end(untraced, setups)

    print("workload %s, seed %d, %d thread(s), %d untraced + %d traced "
          "pass(es)" % (args.workload, args.seed, threads, len(untraced),
                        len(traced)))
    for name, unit in units:
        print("  %-24s %14.6g %s" % (name, metrics[name], unit))
    first = untraced[0]
    if first["sim_insts"] > 0:
        print("  %-24s %14.6g %s" % (
            "sim_minst_per_s",
            median([p["sim_insts"] / p["wall_s"] / 1e6 for p in untraced]),
            "Minst/s"))
    print("  %-24s %14.6g %s" % ("failed_frac", failed / max(1, attempted),
                                  "frac"))
    print("  %-24s %s" % ("wall_s per pass", " ".join(
        "%.3f" % p["wall_s"] for p in untraced)))
    print("  %-24s %s" % ("sim_digest", ",".join(digests)))
    for name, value in sorted(first["headline"].items()):
        print("  %-24s %14.6g (simulated)" % (name, value))
    for p in checked:
        for f in p["failures"]:
            print("  check failed: " + f)
    if len(digests) > 1:
        print("  check failed: sim_digest differs between passes of one seed")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))


if __name__ == "__main__":
    main()
