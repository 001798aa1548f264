#!/usr/bin/env python3
"""Run one workload once per seed and print each end-to-end metric's spread.

    python3 perfbench/spread.py --workload exact-deep --seeds 1-10 --seconds 20

The spread is (Q3 - Q1) / median over the runs, with quartiles from
``statistics.quantiles(values, n=4)``.  Runs are sequential, so they never
compete for the cores.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for k, v in row.items():
            values.setdefault(k, []).append(v)
        print(f"seed={seed} wall={time.monotonic() - start:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v:.5g}" for k, v in row.items()), flush=True)
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        print(f"{name:<12} median={median:.6g} spread={(q3 - q1) / median:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
