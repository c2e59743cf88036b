#!/usr/bin/env python3
"""The repository benchmark: simulated requests per wall second through
the real serving stack, split by layer.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --seed N          # every workload, one by one
  python3 perfbench/run.py --self-test       # the benchmark's own test

The first call builds the simulator and the harness from source with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr. Each workload then runs in its own process,
one at a time. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics (for every workload: one object
keyed by workload name). The exit code is nonzero when the build fails,
a run aborts or a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["saturated-1gpu-1k", "fleet64-jsq", "autoscale-step-fabric"]
# A worker that outlives this is stopped and counted as failed.
WORKER_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(target):
    """Configure (once) and build `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "chameleon", "system.h")):
        sys.exit("perfbench: simulator sources not found under %s/src; "
                 "run from a full checkout" % ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            sys.exit("perfbench: %s not found" % tool)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(out, target)


def failed_result(lines):
    """Result of a worker that died: every request of the run it was in,
    and of every run that reported a failure, counts as failed."""
    attempted = failed = 0
    open_run = 0
    for line in lines:
        words = line.split()
        if words[:1] == ["attempt"]:
            attempted += int(words[2])
            open_run = int(words[2])
        elif words[:1] == ["result"] and words[1] != "setup":
            failed += int(words[2]) if words[3] == "failed" else 0
            open_run = 0
    return {"correct": False, "attempted": max(attempted, 1),
            "failed": failed + open_run if attempted else 1, "metrics": {}}


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload in its own process; returns (result, ok)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
        stdout, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as exc:
        # subprocess.run kills the worker and waits for it.
        stdout = exc.stdout.decode() if isinstance(exc.stdout, bytes) \
            else (exc.stdout or "")
        stdout += "check FAILED: worker timed out after %d s\n" % \
            WORKER_TIMEOUT_S
        code = -1
    lines = stdout.splitlines()
    # Everything but the worker's JSON line is the human-readable log.
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    for line in lines:
        print(line)
    if result is None:
        print("check FAILED: %s exited with code %d without a result"
              % (workload, code))
        result = failed_result(lines)
    ok = code == 0 and result["correct"] and result["failed"] == 0
    return result, ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own test")
    args = parser.parse_args()

    if args.self_test:
        return subprocess.run([build("perfbench_test")]).returncode

    binary = build("perfbench")
    if args.workload != "all":
        result, ok = run_workload(binary, args.workload, args.seed,
                                  args.seconds, args.trace)
        print(json.dumps(result))
        return 0 if ok else 1

    results = {}
    all_ok = True
    for workload in WORKLOADS:
        results[workload], ok = run_workload(binary, workload, args.seed,
                                             args.seconds, args.trace)
        all_ok = all_ok and ok
    print()
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            print("%-24s %-36s %14.6g %s" % (workload, name, metric["value"],
                                             metric["unit"]))
    print(json.dumps(results))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
