#!/usr/bin/env python3
"""The jetgauge benchmark: closed loop, one client, one child per request.

usage: python3 perfbench/run.py [--workload NAME...] [--seed N] [--seconds S]
                                [--trace 0|1]

Run it from the root of a source checkout. With no arguments it runs all
three workloads with seed 0 for the `run_seconds` of BENCHMARK.json. Each
request is a fresh child interpreter that imports `jetgauge.cli` from
`src/` and calls `main([...])` once, which is what a user pays per CLI call.
The next request starts only after the previous one has finished and its
output has been checked, and only one child runs at a time.

--trace 0 measures the end-to-end metrics with no instrumentation.
--trace 1 makes a counting pass (every request twice; counts must repeat
exactly), then alternates untraced and traced requests to give the
per-layer metrics and the trace overhead.

After each workload's summary, standard output gets one line holding a
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`;
metric names and units are those of BENCHMARK.json. Each workload also
writes a results file with the machine, the inputs and every request's
samples under `.perfbench_results/`. The exit code is 0 only if every
request passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import instrument
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REQUEST_TIMEOUT_S = 60  # a run must end within 180 s
WORK_DIR = ".perfbench_work"
RESULTS_DIR = ".perfbench_results"


class Runner:
    """Starts one child per request and checks what it produced."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, error: str) -> None:
        self.failed += 1
        self.errors.append(error)

    def warm_up(self) -> None:
        """Import once, untimed: compiles bytecode and fills the file cache,
        which a user pays once per install, not per call."""
        subprocess.run([sys.executable, "-c", "import jetgauge.cli"], env=self.env,
                       cwd=self.root, timeout=REQUEST_TIMEOUT_S, check=False)

    def run(self, req: workloads.Request, mode: str) -> dict | None:
        """One request; returns its sample, or None if it failed."""
        self.attempted += 1
        rid = f"{self.attempted}-{req.label}-{mode}"
        meta_path = os.path.join(self.work, f"meta-{rid}.json")
        stdout_path = os.path.join(self.work, "stdout.txt")
        stderr_path = os.path.join(self.work, "stderr.txt")
        if req.output and os.path.exists(req.output):
            os.remove(req.output)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, meta_path, rid, *req.argv]
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            try:
                proc.wait(timeout=REQUEST_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not os.path.exists(meta_path):
            with open(stderr_path, "r", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-400:]
            error = f"child exited with {proc.returncode}: {tail}"
        else:
            with open(meta_path, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
            try:
                error = req.check(stdout_path, req.output, meta["exit_code"])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                error = f"unreadable output: {exc!r}"
        if error is not None:
            self.fail(f"{rid}: {error}")
            return None
        sample = {
            "label": req.label,
            "mode": mode,
            "setup_s": meta["imported"] - spawned,
            "wall_s": meta["end"] - meta["start"],
            "peak_rss_mb": meta["peak_rss_kb"] / 1024.0,
            "output_bytes": os.path.getsize(req.output or stdout_path),
        }
        if "counts" in meta:
            sample["counts"] = meta["counts"]
        if "spans_path" in meta:
            with open(meta["spans_path"], "r", encoding="utf-8") as fh:
                sample["spans"] = span_totals(json.load(fh))
            os.remove(meta["spans_path"])
        os.remove(meta_path)
        return sample


def span_totals(dump: dict) -> dict[str, float]:
    """Per span name: `.calls`, inclusive `.s` and `.self_s` of one request.

    Inclusive time counts only the outermost span of a name, so a function
    that reaches itself again through other traced calls is not counted
    twice. Self time is a span's duration minus its direct children's.
    """
    names = dump["names"]
    spans = dump["spans"]  # [request id, name index, start, end, parent]
    child_time = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (_, n, start, end, parent) in enumerate(spans):
        name = names[n]
        dur = end - start
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child_time[i]
        p = parent
        while p >= 0 and spans[p][1] != n:
            p = spans[p][4]
        if p < 0:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
    return out


def median(values):
    return statistics.median(values) if values else 0.0


# Per-layer metrics whose name differs from the span totals they read.
SPAN_ALIASES = {"liealg.dense_realizations": "liealg.dense_realization.calls"}


def layer_metrics(names, traced, plain, counted) -> dict[str, float]:
    """Median per request of every per-layer metric listed in BENCHMARK.json."""
    totals = {}
    for name in {k for s in traced for k in s["spans"]}:
        totals[name] = median([s["spans"].get(name, 0) for s in traced])
    counts = {}
    for name in counted[0]["counts"]:
        counts[name] = median([s["counts"][name] for s in counted])
    counts["cli.output_bytes"] = median([s["output_bytes"] for s in counted])
    muls = counts["exactnum.qs_mul.calls"]
    counts["exactnum.qs_mul.irrational_frac"] = (
        counts["exactnum.qs_mul.irrational"] / muls if muls else 0.0
    )
    evals = totals.get("dynamics.field_eval.calls", 0)
    counts["dynamics.grid_nodes_per_eval"] = (
        counts["dynamics.grid_nodes.computed"] / evals if evals else 0.0
    )
    # Each traced request ran right after an untraced one with the same
    # input, so the pairwise ratio cancels most drift in machine speed.
    counts["trace.overhead"] = median([t["wall_s"] / p["wall_s"] for t, p in zip(traced, plain)])
    out = {}
    for name in names:
        if name in counts:
            out[name] = counts[name]
        else:
            out[name] = totals.get(SPAN_ALIASES.get(name, name), 0)
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256(root: str) -> str:
    """Digest of the package sources; identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "jetgauge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine_and_inputs(root, workload, seed, seconds, trace, requests, work) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
        "source_sha256": source_sha256(root),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load": "closed loop, 1 client, 1 child process per request",
        "requests": [r.argv for r in requests],
    }
    npz = os.path.join(work, "grid.npz")
    if os.path.exists(npz):
        with np.load(npz) as data:
            info["grid_nodes"] = int(np.prod(data["g"].shape[1:]))
            info["grid_bytes"] = int(data["g"].nbytes)
        info["grid_file_bytes"] = os.path.getsize(npz)
    return info


def round_mean(samples: list[dict], name: str) -> float:
    return statistics.fmean(s[name] for s in samples)


def print_end_to_end(workload, rounds, runner, metrics, units) -> None:
    samples = [s for r in rounds for s in r]
    n = len(samples)
    print(f"{workload}: {len(rounds)} rounds of {len(rounds[0])} timed requests, "
          "closed loop, 1 client")
    for name, unit in units.items():
        vals = [s[name] for s in samples]
        q = statistics.quantiles(vals, n=4) if n > 1 else [vals[0]] * 3
        print(f"  {name:<12} {metrics[name]:.4f} {unit}  (median over rounds of the "
              f"mean per request; request quartiles {q[0]:.4f} .. {q[2]:.4f})")
    steps = workloads.STEPS.get(workload)
    if steps:
        rate = median([steps / round_mean(r, "wall_s") for r in rounds])
        print(f"  {'steps_per_s':<12} {rate:.1f} 1/s  (RK4 steps per request second, "
              f"{steps} steps per request)")
    rate = runner.failed / runner.attempted
    print(f"  {'error_rate':<12} {rate:.4f}  ({runner.failed} failed of "
          f"{runner.attempted} attempted)")


def print_layers(workload, metrics, plain, traced) -> None:
    """The roadmap baseline rows: suite times, steps/s and output share."""
    print(f"{workload}: per-layer medians per request (traced run)")
    for name, value in metrics.items():
        if name.startswith("verify.") and value:
            print(f"  {name:<28} {value:.4f} s")
    steps = workloads.STEPS.get(workload)
    if steps:
        wall = median([s["wall_s"] for s in traced])
        rate = steps / median([s["wall_s"] for s in plain])
        output = metrics["cli.self_s"] + metrics["report.serialize.s"]
        print(f"  RK4 steps/s (untraced)       {rate:.1f}")
        print(f"  field evaluation share       {metrics['dynamics.field_eval.s'] / wall:.3f}")
        print(f"  output share                 {output / wall:.3f}  "
              "(cli self time and JSON serialization)")
    for module in instrument.WHOLE_MODULES:
        label = module.split(".")[1]
        calls = median([s["spans"].get(f"{label}.calls", 0) for s in traced])
        if calls:
            print(f"  {label + ' spans':<28} {calls:.0f} calls, {metrics[label + '.s']:.4f} s")
    print(f"  trace overhead               {metrics['trace.overhead']:.3f}x wall_s")


def measure_plain(runner: Runner, requests, seconds: float) -> list[list[dict]]:
    """Untraced requests in whole rounds, one of each request per round,
    while the next round fits in `seconds`. Returns the complete rounds."""
    rounds = []
    begin = time.monotonic()
    while True:
        started = time.monotonic()
        samples = [runner.run(req, "plain") for req in requests]
        if None in samples:
            return rounds
        rounds.append(samples)
        now = time.monotonic()
        if now - begin + (now - started) > seconds:
            return rounds


def measure_traced(runner: Runner, requests, seconds: float):
    """Counting pass, then untraced and traced requests in turn.

    Returns (counted, plain, traced) samples. Each request is counted twice
    and the two sets of counts must agree exactly.
    """
    begin = time.monotonic()
    counted, plain, traced = [], [], []
    for req in requests:
        pair = [runner.run(req, "count") for _ in range(2)]
        if None in pair:
            return counted, plain, traced
        a, b = ({**s["counts"], "output_bytes": s["output_bytes"]} for s in pair)
        if a != b:
            runner.fail(f"{req.label}: counts differ between two identical requests: "
                        f"{a} vs {b}")
        counted.append(pair[0])
    while True:
        started = time.monotonic()
        for req in requests:
            p, t = runner.run(req, "plain"), runner.run(req, "trace")
            if p is None or t is None:
                return counted, plain, traced
            plain.append(p)
            traced.append(t)
        now = time.monotonic()
        if now - begin + (now - started) > seconds:
            return counted, plain, traced


def run_workload(root: str, spec: dict, workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """Measure one workload, print its summary and return the result object."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = os.path.join(root, WORK_DIR, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        requests = workloads.WORKLOADS[workload](seed, work)
        runner = Runner(root, work)
        info = machine_and_inputs(root, workload, seed, seconds, trace, requests, work)
        runner.warm_up()
        if trace == 0:
            rounds = measure_plain(runner, requests, seconds)
            samples = [s for r in rounds for s in r]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = {name: median([round_mean(r, name) for r in rounds]) for name in units}
            if rounds:
                print_end_to_end(workload, rounds, runner, metrics, units)
        else:
            counted, plain, samples = measure_traced(runner, requests, seconds)
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            if samples and len(counted) == len(requests):
                metrics = layer_metrics(names, samples, plain, counted)
                print_layers(workload, metrics, plain, samples)
            else:
                metrics = {name: 0.0 for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for err in runner.errors:
        print(f"FAILED {err}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and bool(samples),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(os.path.join(root, RESULTS_DIR), exist_ok=True)
    record = {
        "machine_and_inputs": info,
        "result": result,
        "errors": runner.errors,
        "samples": [{k: v for k, v in s.items() if k != "spans"} for s in samples],
    }
    with open(os.path.join(root, RESULTS_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", choices=list(workloads.WORKLOADS),
                    default=list(workloads.WORKLOADS), help="default: all three")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jetgauge", "cli.py")):
        print("error: run from the root of a jetgauge checkout (src/jetgauge missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    correct = True
    for workload in args.workload:
        result = run_workload(root, spec, workload, args.seed, seconds, args.trace)
        correct = correct and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
