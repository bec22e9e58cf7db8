"""One benchmark run in a fresh interpreter; started by run.py.

Sets up a library session, then runs the workload's op stream in a closed
loop until the timed span reaches `--seconds` (or for exactly `--ops` ops),
judging every op with the correctness gate outside the timed region.  Between
ops, also outside the timed region, it samples the host's speed (see
hostspeed.py) and reports every time both raw and at reference speed.
Prints one JSON object on stdout.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["setup", "run"], required=True)
    p.add_argument("--seconds", type=float, help="stop once the timed span reaches this")
    p.add_argument("--ops", type=int, help="run exactly this many ops")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spawned-ns", type=int, required=True,
                   help="the parent's time.monotonic_ns() just before the spawn")
    p.add_argument("--wall-limit", type=float, default=150.0,
                   help="stop the loop after this many wall seconds regardless")
    return p.parse_args()


def main() -> int:
    args = _args()
    # the benchmark's own loading is excluded from set-up time
    t = perf_counter()
    import gate
    import hostspeed
    import ops
    from workloads import Stream
    refs = gate.References.load(args.workload)
    stream = Stream(args.workload, args.seed)
    excluded = perf_counter() - t

    sys.path.insert(0, str(SRC))
    session = ops.Session(args.workload)
    # CLOCK_MONOTONIC is shared by all processes, so the parent's reading
    # makes interpreter start-up part of set-up time
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9 - excluded
    lib_file = Path(session.lib.__file__).resolve()
    if SRC not in lib_file.parents:
        raise SystemExit(f"superlink was imported from {lib_file}, not from {SRC}")
    if args.mode == "setup":
        speed = hostspeed.SpeedLog()
        for _ in range(5):
            speed.take()
        now = perf_counter()
        print(json.dumps({"setup_s": setup_s * speed.scale(now, now), "raw_setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    latencies, starts, failures, cells = [], [], [], Counter()
    work = failed = stdout_bytes = 0
    span = since_sample = 0.0
    speed = hostspeed.SpeedLog()
    for _ in range(3):
        speed.take()
    loop_start = perf_counter()
    while True:
        op = stream.next_op()
        prep = ops.prepare(op, session)
        reference = refs.get(op["cell"], op["index"])
        if tracer:
            tracer.active = True
        start = perf_counter()
        try:
            value, exc = prep.call(), None
        except Exception as error:  # judged by the gate below
            value, exc = None, error
        elapsed = perf_counter() - start
        if tracer:
            tracer.active = False
        latencies.append(elapsed)
        starts.append(start)
        span += elapsed
        since_sample += elapsed
        if since_sample >= hostspeed.EVERY_S:
            speed.take()
            since_sample = 0.0
        cells[op["cell"]] += 1
        try:
            reason = prep.judge(value, exc, reference)
        except Exception as error:  # an outcome the gate cannot read is wrong
            reason = f"unreadable outcome: {type(error).__name__}: {error}"
        if reason is None:
            work += prep.work(value)
        else:
            failed += 1
            if len(failures) < 10:
                failures.append(f"{op['cell']}#{op['index']}: {reason}")
        if prep.canon is None and value is not None:
            stdout_bytes += len(value[1].encode())
        if args.ops is not None and len(latencies) >= args.ops:
            break
        if args.seconds is not None and span >= args.seconds:
            break
        if perf_counter() - loop_start > args.wall_limit:
            break

    speed.take()
    scaled = [e * speed.scale(s, s + e) for s, e in zip(starts, latencies)]
    result = {
        "setup_s": setup_s * speed.scale(loop_start, loop_start),
        "raw_setup_s": setup_s,
        "latencies": scaled,
        "span_s": sum(scaled),
        "raw_latencies": latencies,
        "raw_span_s": span,
        "unit_s_median": statistics.median(speed.unit_s),
        "work": work,
        "attempted": len(latencies),
        "failed": failed,
        "failures": failures,
        "cells": dict(cells),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.counters["cli.stdout_bytes"] = stdout_bytes
        result["trace"] = {k: [v, u] for k, (v, u) in tracer.metrics().items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
