#!/usr/bin/env python3
"""The repository benchmark: one command per workload and mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. It builds perfbench/ (the simulator
library from src/ plus the harness) as a Release build under
.bench_build/, then runs one perfbench process:

  --trace 0  `perfbench measure`: set-up time, host throughput, peak RSS,
             the simulated tail at the workload's fixed load and
             throughput under the workload's p99 SLO; prints every
             end-to-end metric of BENCHMARK.json;
  --trace 1  `perfbench trace`: the traced rebuild of the same run,
             checked against core::runExperiment; prints every
             per-layer metric. Its spans go to
             .bench_build/spans/WORKLOAD-seedN.json (Chrome trace JSON).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. attempted counts simulator runs
(core::runExperiment or traced runs); failed counts correctness checks
that did not hold. Any failed check makes the exit code 1.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
# Every child process must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 160
# Workloads perfbench still runs that BENCHMARK.json leaves out.
DROPPED = {
    "masstree_16x1": "left out so that the other three fit the "
                     "benchmark's total time with their speed probes; "
                     "no layer is measured on it alone",
}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def bounded_int(lo, hi):
    def parse(text):
        if not text.isdigit():
            raise argparse.ArgumentTypeError(
                "expected a decimal integer, got %r" % text)
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                "%d is outside [%d, %d]" % (value, lo, hi))
        return value
    return parse


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=bounded_int(0, 2**62))
    p.add_argument("--seconds", required=True, type=bounded_int(1, 600))
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    return p.parse_args(argv)


def run_child(cmd, timeout):
    """Run cmd with stdout captured; kill and reap it on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s timed out after %d s" % (" ".join(cmd), timeout))
    return proc.returncode, out


def build():
    """Configure once, then an incremental Release build."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a source checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def perfbench(mode, workload, seed, scale, extra):
    """Run one perfbench mode; returns its parsed JSON report."""
    cmd = [BINARY, mode, "--workload", workload, "--seed", str(seed),
           "--scale", str(scale)] + extra
    code, out = run_child(cmd, CHILD_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail("perfbench %s exited %d without a report" % (mode, code))
    if code not in (0, 1):
        fail("perfbench %s exited %d" % (mode, code))
    return report


def measure(workload, seed, seconds, trace, scale=1):
    """Run one benchmark measurement; returns (result, provenance)."""
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, "%s-seed%d.json" % (workload, seed))
        report = perfbench("trace", workload, seed, scale, ["--spans", spans])
    else:
        report = perfbench("measure", workload, seed, scale,
                           ["--seconds", str(seconds)])
    failed = sum(1 for c in report["checks"] if not c["ok"])
    result = {
        "correct": failed == 0,
        "attempted": report["runs"],
        "failed": failed,
        "metrics": report["metrics"],
    }
    return result, report["provenance"]


def check_declared(spec, result, trace):
    """The metrics printed must be exactly those BENCHMARK.json names."""
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(k for k in set(got) & set(declared)
                       if got[k] != declared[k])
        print("  check declared_metrics FAIL missing=%s extra=%s unit=%s"
              % (missing, extra, wrong))
        result["failed"] += 1
        result["correct"] = False
    # Report in BENCHMARK.json order.
    result["metrics"] = {k: result["metrics"][k] for k in declared
                         if k in result["metrics"]}


def main(argv):
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    build()
    result, provenance = measure(args.workload, args.seed, args.seconds,
                                 args.trace)
    check_declared(spec, result, args.trace)
    for name, why in sorted(DROPPED.items()):
        print("# not measured: %s (%s)" % (name, why))
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
