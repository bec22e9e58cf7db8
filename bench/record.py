"""Record the reference answers the correctness gate compares against.

    python3 bench/record.py [--workload NAME]

Runs every pool entry of every cell once, applies the independent checks,
and writes bench/reference/<workload>.json: per cell, the concatenated
digests of the canonical outcomes in pool order.  Cells whose name carries a
variant (`classify/gl32/nonint`) must be refused; every other op must answer.
Re-record only at a commit whose answers are trusted: the file defines what
the benchmark counts as correct.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import ops  # noqa: E402
from workloads import POOL_SEED, WORKLOADS, pool_entry  # noqa: E402


def record(workload: str) -> list[str]:
    wl = WORKLOADS[workload]
    session = ops.Session(workload)
    cells, problems = {}, []
    for cell in wl.cells():
        start = time.perf_counter()
        expect_refusal = cell.count("/") == 2
        digests = []
        for index in range(wl.pool(cell)):
            op = pool_entry(workload, cell, index)
            prep = ops.prepare(op, session)
            try:
                value, exc = prep.call(), None
            except Exception as error:
                value, exc = None, error
            text, reason = prep.outcome(value, exc)
            if reason is None:
                refused = text.startswith(("refused:", "exit=3"))
                if refused != expect_refusal:
                    reason = f"{'answered' if expect_refusal else 'refused'}: {text[:80]}"
                else:
                    reason = prep.judge(value, exc, gate.digest(text))
            if reason is not None:
                problems.append(f"{cell}#{index}: {reason}")
            digests.append(gate.digest(text or ""))
        cells[cell] = "".join(digests)
        print(f"{workload} {cell}: {len(digests)} entries in "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    if not problems:
        path = gate.REFERENCE_DIR / f"{workload}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pool_seed": POOL_SEED, "cells": cells}, handle, indent=0, sort_keys=True)
            handle.write("\n")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    problems = []
    for name in [args.workload] if args.workload else sorted(WORKLOADS):
        problems += record(name)
    for line in problems[:50]:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
