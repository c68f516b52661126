"""Run one jetgauge CLI request in this fresh interpreter.

usage: python3 child.py MODE META REQUEST_ID ARG...

MODE is `plain`, `trace` or `count`. The child imports `jetgauge.cli`, which
is the set-up a user pays on every CLI call, then calls `main(ARG...)` once
and writes its timings, exit code and peak RSS (plus spans or counts) to the
JSON file META. Timestamps use CLOCK_MONOTONIC, which the parent shares.
"""

import sys
import time

import jetgauge.cli

IMPORTED = time.monotonic()

import json  # noqa: E402

import instrument  # noqa: E402


def peak_rss_kb() -> int:
    """High-water RSS of this process since exec (Linux).

    Not ru_maxrss: a child spawned with vfork inherits the parent's
    high-water mark in it, so it would count the benchmark's own memory.
    """
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> None:
    mode, meta_path, request_id, *argv = sys.argv[1:]
    run = jetgauge.cli.main
    tracer = counter = None
    if mode == "trace":
        tracer = instrument.Tracer(request_id)
        tracer.install()
        run = tracer.wrap("cli", run)
    elif mode == "count":
        counter = instrument.Counter()
        counter.install()
    start = time.monotonic()
    code = run(argv)
    sys.stdout.flush()
    end = time.monotonic()
    meta = {
        "imported": IMPORTED,
        "start": start,
        "end": end,
        "exit_code": code,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        meta["spans_path"] = meta_path + ".spans"
        tracer.dump(meta["spans_path"])
    if counter is not None:
        meta["counts"] = counter.counts
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


if __name__ == "__main__":
    main()
