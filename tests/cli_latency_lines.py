#!/usr/bin/env python3
"""Pin what chameleon_sim's latency lines mean.

Runs chameleon_sim over a trace where every fourth request has no
adapter, with --records-csv, and checks that each printed latency
figure is the statistic of the records' field it names: TTFT, E2E and
queue delay percentiles over every record, the load stall's mean and
p99 over the records with an adapter. Percentiles interpolate linearly
between ranks, as sim::PercentileTracker does.

Usage: cli_latency_lines.py <path to chameleon_sim>
"""

import csv
import os
import re
import subprocess
import sys
import tempfile


def percentile(values, p):
    s = sorted(values)
    if not s:
        return 0.0
    rank = p / 100.0 * (len(s) - 1)
    lo = int(rank)
    if lo + 1 >= len(s):
        return s[-1]
    frac = rank - lo
    return s[lo] * (1.0 - frac) + s[lo + 1] * frac


def main():
    sim = os.path.abspath(sys.argv[1])
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        generated = os.path.join(tmp, "generated.csv")
        trace = os.path.join(tmp, "trace.csv")
        records = os.path.join(tmp, "records.csv")
        # S-LoRA over 500 adapters stalls on loads often enough for the
        # load-stall figures to be far from 0.
        system = ["--system", "slora", "--adapters", "500", "--seed", "7"]
        subprocess.run([sim, *system, "--rps", "9", "--duration", "120",
                        "--save-trace", generated],
                       check=True, stdout=subprocess.DEVNULL)
        with open(generated) as src, open(trace, "w") as dst:
            dst.write(src.readline())
            for i, line in enumerate(src):
                cols = line.rstrip("\n").split(",")
                if i % 4 == 0:
                    cols[4] = "-1"
                dst.write(",".join(cols) + "\n")
        out = subprocess.run([sim, *system, "--trace", trace,
                              "--records-csv", records],
                             check=True, stdout=subprocess.PIPE,
                             text=True).stdout
        with open(records) as f:
            rows = list(csv.DictReader(f))

    def column(name, adapters_only=False):
        return [float(r[name]) for r in rows
                if not adapters_only or int(r["adapter"]) >= 0]

    def printed(label, stat):
        line = next(l for l in out.splitlines()
                    if re.match(label + r"\s*:", l))
        text = re.search(stat + r" (-?[0-9.]+)", line).group(1)
        decimals = len(text.split(".")[1]) if "." in text else 0
        return float(text), 0.5 * 10 ** -decimals

    stall = column("adapter_stall_ms", adapters_only=True)
    every_stall = column("adapter_stall_ms")
    checks = [
        ("TTFT", "p50", percentile(column("ttft_s"), 50)),
        ("TTFT", "p90", percentile(column("ttft_s"), 90)),
        ("TTFT", "p99", percentile(column("ttft_s"), 99)),
        ("E2E", "p50", percentile(column("e2e_s"), 50)),
        ("E2E", "p99", percentile(column("e2e_s"), 99)),
        ("queue delay", "p50", percentile(column("queue_delay_s"), 50)),
        ("queue delay", "p99", percentile(column("queue_delay_s"), 99)),
        ("load stall", "mean", sum(stall) / len(stall)),
        ("load stall", "p99", percentile(stall, 99)),
    ]
    for label, stat, want in checks:
        got, half_unit = printed(label, stat)
        # The CSV keeps 6 significant digits; the line rounds to its own.
        if abs(got - want) > half_unit + 1e-5 * abs(want):
            failures.append(f"{label} {stat}: printed {got}, records {want}")

    # The load-stall figures are over adapter requests only: over every
    # record the mean would differ, so the check above tells them apart.
    mean_all = sum(every_stall) / len(every_stall)
    got, half_unit = printed("load stall", "mean")
    if len(stall) == len(every_stall) or abs(got - mean_all) <= half_unit:
        failures.append("the trace does not tell the load-stall means apart")
    finished = int(re.search(r"finished\s*: (\d+)", out).group(1))
    if finished != len(rows):
        failures.append(f"finished {finished}, records {len(rows)}")

    for failure in failures:
        print("FAIL:", failure)
    if failures:
        print(out)
        return 1
    print(f"OK: {len(checks)} latency figures match {len(rows)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
