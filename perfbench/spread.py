#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

usage: python3 perfbench/spread.py --workload NAME

Run it from the root of a source checkout. It runs the benchmark once for
each of the seeds 0 to 9 (untraced, for the `run_seconds` of BENCHMARK.json) and prints, for each
end-to-end metric, the median over the runs and the quartile spread
(q3 - q1) / median next to the metric's bound. A bound is met when the
spread stays below it; aim for a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(10):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed\n{proc.stderr}", file=sys.stderr)
            return 1
        row = []
        for name, series in values.items():
            series.append(result["metrics"][name]["value"])
            row.append(f"{name}={series[-1]:.4f}")
        print(f"seed {seed}: " + "  ".join(row), flush=True)
    for m in spec["end_to_end"]:
        series = values[m["name"]]
        q1, _, q3 = statistics.quantiles(series, n=4)
        med = statistics.median(series)
        spread = (q3 - q1) / med
        print(f"{m['name']:<12} median {med:.4f} {m['unit']}  spread {spread:.4f}  "
              f"bound {m['bound']}  {'ok' if spread < m['bound'] else 'TOO WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
