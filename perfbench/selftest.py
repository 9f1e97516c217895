#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark (a few minutes).

    python3 perfbench/selftest.py

Builds perfbench like run.py does, then runs every workload at 1/20 of
its run size (lossy_failover at full size: its cluster needs tens of
thousands of completions to collapse, and both its SLO bracket and its
abandoned requests come from the collapse) and checks that:
  - every workload emits every BENCHMARK.json metric with its unit, in
    both the untraced and the traced run;
  - failed_frac (1 - answered_frac) is 0 on the fault-free workloads
    and above 0 on lossy_failover;
  - the traced run agrees exactly with core::runExperiment (perfbench
    trace checks this itself and reports it);
  - rerunning a seed reproduces every simulated metric exactly, and
    another seed changes sim_p99_us;
  - malformed or out-of-range arguments are rejected.
Exits 1 on the first failure.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SCALE = {"lossy_failover": 1}
DEFAULT_SCALE = 20
SIM_METRICS = ["sim_p50_us", "sim_p99_us", "sim_p999_us", "sim_slo_mrps",
               "answered_frac"]


def expect(cond, what):
    print("selftest: %-60s %s" % (what, "ok" if cond else "FAIL"))
    if not cond:
        sys.exit(1)


def measure(workload, seed, trace):
    spec = run.load_spec()
    scale = SCALE.get(workload, DEFAULT_SCALE)
    result, _ = run.measure(workload, seed, 1, trace, scale=scale)
    run.check_declared(spec, result, trace)
    return result


def rejects(cmd):
    """True when cmd exits non-zero without printing a result line."""
    p = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    return p.returncode != 0 and '"correct"' not in p.stdout


def main():
    spec = run.load_spec()
    run.build()
    for w in [w["name"] for w in spec["workloads"]]:
        plain = measure(w, 7, trace=0)
        expect(plain["correct"], w + ": untraced run passes its gate")
        traced = measure(w, 7, trace=1)
        expect(traced["correct"],
               w + ": traced run passes its gate (matches runExperiment)")
        failed_frac = 1.0 - plain["metrics"]["answered_frac"]["value"]
        if w == "lossy_failover":
            expect(failed_frac > 0, w + ": failed_frac > 0")
        else:
            expect(failed_frac == 0, w + ": failed_frac == 0")
        again = measure(w, 7, trace=0)
        expect(all(again["metrics"][m] == plain["metrics"][m]
                   for m in SIM_METRICS),
               w + ": same seed reproduces the simulated metrics")
        other = measure(w, 8, trace=0)
        p99 = "sim_p99_us"
        expect(other["metrics"][p99] != plain["metrics"][p99],
               w + ": another seed changes " + p99)

    py = [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py")]
    good = ["--workload", "herd_1x16", "--seconds", "1", "--trace", "0"]
    for seed in ["abc", "-1", "1e3", "", str(2**62 + 1)]:
        expect(rejects(py + good + ["--seed", seed]),
               "run.py rejects --seed=%r" % seed)
    expect(rejects(py + ["--workload", "herd_1x16", "--seed", "1",
                         "--seconds", "0", "--trace", "0"]),
           "run.py rejects --seconds=0")
    expect(rejects(py + ["--workload", "nope", "--seed", "1",
                         "--seconds", "1", "--trace", "0"]),
           "run.py rejects an unknown workload")
    for bad in [["--scale", "0"], ["--scale", "x"], ["--seed", "9x"],
                ["--seconds", "-3"], ["--bogus", "1"]]:
        expect(rejects([run.BINARY, "measure", "--workload", "herd_1x16",
                        "--seed", "1"] + bad),
               "perfbench rejects %s" % " ".join(bad))
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
