"""The superlink benchmark: one command prints every metric and gates correctness.

    python3 bench/run.py --workload {sweep,validate,kl} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from `src/`.

Workloads (closed loop, one caller, single-threaded; see workloads.py):
  sweep     single-weight parameter queries over gl/osp/p/osp(3|2)/reductive data
  validate  box verdicts through the CLI `validate` subcommand, in-process
  kl        a KL session: single polynomials, Verma and Whittaker multiplicities,
            one R-polynomial cross-check and Shapovalov checks per run

Every time is reported at reference host speed: the measuring process
samples the host's speed between ops with a fixed piece of pure-Python work
and scales each raw time by it (see hostspeed.py), because the speed of a
shared host drifts by more than the regression bounds from one run to the
next.  The raw figures are in the metadata line.

With --trace 0 the run reports end-to-end metrics:
  setup_s         fresh interpreter to first timed op (import, root data,
                  groups), median over several set-ups; input generation excluded
  queries_per_s   ops completed per second of timed span
  points_per_s    weights handled per second: box points for validate, the
                  weights in the query for sweep and kl
  latency_p50_ms  median op latency
  latency_tail_ms p99 op latency, or p90 when p99 leaves fewer than ten ops
                  beyond it (the choice is printed in the metadata line)
  success_frac    share of attempted ops that pass the correctness gate
                  (1 - failed fraction; a failed fraction of 0 is not a ratio
                  a regression bound can be taken of)
  peak_rss_mb     peak resident set size of the measuring process

With --trace 1 it replays the first blocks of the stream twice, untraced and
traced, each in a fresh interpreter, and reports the per-layer metrics of the
traced replay plus trace.overhead_frac.

The line before the last one is a metadata object (git SHA when available,
Python version, nproc, seed, op counts, src/ line count); the last line is the
result object.  The exit code is 0 only when a result was printed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import HELD_OUT_SEED, WORKLOADS, Stream  # noqa: E402

SETUP_REPEATS = 10  # set-up only interpreters, on top of the measuring one
DEADLINE_S = 170.0  # the whole command must end within 180 s


class BenchError(Exception):
    pass


def _spawn(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--wall-limit", f"{max(1.0, remaining - 15):.1f}",
           "--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[str, float]:
    """The highest of p99/p90 leaving at least ten ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for name, p in (("p99", 0.99), ("p90", 0.90)):
        rank = math.ceil(p * n)
        if n - rank >= 10:
            return name, ordered[rank - 1]
    rank = max(1, math.ceil(0.9 * n))
    return "p90 (fewer than ten ops beyond)", ordered[rank - 1]


def _timings(lat: list[float], span_s: float, passed: int, work: int, setups: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "queries_per_s": passed / span_s,
        "points_per_s": work / span_s,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail(lat)[1] * 1e3,
    }


def end_to_end(main: dict, setups: list[dict]) -> tuple[dict, dict]:
    """The reported metrics, with every time at reference host speed; the
    raw times go into the metadata."""
    passed = main["attempted"] - main["failed"]
    units = {"setup_s": "s", "queries_per_s": "1/s", "points_per_s": "1/s",
             "latency_p50_ms": "ms", "latency_tail_ms": "ms"}
    scaled = _timings(main["latencies"], main["span_s"], passed, main["work"],
                      [s["setup_s"] for s in setups])
    raw = _timings(main["raw_latencies"], main["raw_span_s"], passed, main["work"],
                   [s["raw_setup_s"] for s in setups])
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["success_frac"] = (passed / main["attempted"], "ratio")
    metrics["peak_rss_mb"] = (main["peak_rss_kb"] / 1024, "MB")
    return metrics, {"tail_percentile": tail(main["latencies"])[0],
                     "raw": raw,
                     "unit_s_median": main["unit_s_median"],
                     "setup_samples_s": [s["setup_s"] for s in setups]}


def per_layer(untraced: dict, traced: dict) -> tuple[dict, dict]:
    metrics = {k: tuple(v) for k, v in traced["trace"].items()}
    overhead = (traced["span_s"] - untraced["span_s"]) / untraced["span_s"]
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, {"untraced_span_s": untraced["span_s"], "traced_span_s": traced["span_s"]}


def metadata(args, runs: list[dict]) -> dict:
    src = ROOT / "src"
    files = sorted(src.rglob("*.py"))
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    content = hashlib.sha256()
    for f in files:
        content.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    reported = runs[-1]  # a traced run's untraced replay ran the same ops
    kinds = Counter()
    for cell, count in reported["cells"].items():
        kinds[cell.split("/")[0]] += count
    wl = WORKLOADS[args.workload]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": content.hexdigest(),
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops": reported["attempted"],
        "ops_by_kind": dict(sorted(kinds.items())),
        # above 1, some cell went through its whole input pool and repeated inputs
        "pool_passes": max(count / wl.pool(cell) for cell, count in reported["cells"].items()),
        "failures": [f for run in runs for f in run["failures"]][:10],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "superlink" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src' / 'superlink'}", file=sys.stderr)
        return 2
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            n = Stream(args.workload, args.seed).trace_length()
            untraced = _spawn(base + ["--mode", "run", "--ops", str(n)], deadline)
            traced = _spawn(base + ["--mode", "run", "--ops", str(n), "--trace", "1"], deadline)
            runs = [untraced, traced]
            metrics, extra = per_layer(untraced, traced)
        else:
            setups = [_spawn(base + ["--mode", "setup"], deadline)
                      for _ in range(SETUP_REPEATS)]
            main_run = _spawn(base + ["--mode", "run", "--seconds", str(args.seconds)], deadline)
            runs = [main_run]
            metrics, extra = end_to_end(main_run, setups + [main_run])
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    meta = metadata(args, runs)
    meta.update(extra)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
