#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, runs the benchmark with --tiny
and a one-second timed phase, untraced and traced, on two seeds. Checks
that each run exits 0 with a correct JSON result, that it prints every
end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json
with its unit, and that both seeds print the same set of metric names.
Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd[1:])}: exit {done.returncode}"
                             f"\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{workload}: unexpected keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: "
                             f"{result['failed']} of {result['attempted']} "
                             "checks failed")
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[group]}
        for workload in (w["name"] for w in bench["workloads"]):
            try:
                names = []
                for seed in (1, 2):
                    metrics = run(workload, seed, trace)
                    got = {k: v["unit"] for k, v in metrics.items()}
                    if got != expected:
                        missing = sorted(set(expected) - set(got))
                        extra = sorted(set(got) - set(expected))
                        wrong = sorted(k for k in got.keys() & expected.keys()
                                       if got[k] != expected[k])
                        raise AssertionError(
                            f"{workload} seed {seed} trace {trace}: missing "
                            f"{missing}, extra {extra}, wrong unit {wrong}")
                    if not all(isinstance(v["value"], (int, float))
                               for v in metrics.values()):
                        raise AssertionError(f"{workload}: non-numeric value")
                    names.append(sorted(metrics))
                if names[0] != names[1]:
                    raise AssertionError(f"{workload} trace {trace}: seeds 1 "
                                         "and 2 print different metric names")
                print(f"ok   {workload} trace={trace}")
            except (AssertionError, subprocess.TimeoutExpired,
                    json.JSONDecodeError) as err:
                failures += 1
                print(f"FAIL {workload} trace={trace}: {err}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
