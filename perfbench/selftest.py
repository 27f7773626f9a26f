#!/usr/bin/env python3
"""Small-scale self-test of the benchmark (about 20 s after the build).

    python3 perfbench/selftest.py

For every workload, at the seconds-long --small scale, it checks that
  - the last output line parses as the result object, with exactly the
    keys correct/attempted/failed/metrics;
  - --trace 0 prints every end-to-end metric and --trace 1 every
    per-layer metric named in BENCHMARK.json, each with its unit, and
    the table above the result names each of them too;
  - failed_frac is printed, and is 0 with correct true on a clean run;
  - the traced run found every composed cell bit-identical;
  - --inject-failure (one corrupted output) raises failed and
    failed_frac above 0 and turns correct false.
Exits non-zero on the first failed expectation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--small"] + list(extra)
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, cwd=ROOT)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        sys.exit("FAIL: %s exited %d" % (" ".join(cmd), r.returncode))
    lines = r.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def expect(ok, what):
    if not ok:
        sys.exit("FAIL: " + what)
    print("ok   " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            table, res = run(name, trace)
            expect(sorted(res) == ["attempted", "correct", "failed",
                                   "metrics"],
                   "%s trace %d: result has exactly the four keys"
                   % (name, trace))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, "%s trace %d: every %s metric, with its unit"
                   % (name, trace, key))
            expect(all(isinstance(v["value"], (int, float))
                       for v in res["metrics"].values()),
                   "%s trace %d: every value is a number" % (name, trace))
            text = "\n".join(table)
            expect(all(m in text for m in want) and "failed_frac" in text
                   and "sim_digest" in text,
                   "%s trace %d: the table names every metric, failed_frac "
                   "and sim_digest" % (name, trace))
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] > 0,
                   "%s trace %d: clean run has no failures" % (name, trace))
            if trace:
                expect(res["metrics"]["trace.identical"]["value"] > 0,
                       "%s: composed cells bit-identical" % name)
        table, res = run(name, 0, "--inject-failure")
        frac = [l.split()[1] for l in table
                if l.split()[:1] == ["failed_frac"]]
        expect(res["failed"] > 0 and not res["correct"] and frac
               and float(frac[0]) > 0,
               "%s: a forced output-check failure raises failed_frac" % name)
    print("selftest passed")


if __name__ == "__main__":
    main()
