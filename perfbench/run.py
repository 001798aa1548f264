#!/usr/bin/env python3
"""coinwords benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload exact-deep --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each run starts the workload in its own
process (perfbench/worker.py), so set-up includes interpreter start and
``import coinwords``.  With --trace 0 the run measures the end-to-end
metrics; with --trace 1 it runs a fixed op list untraced and traced and
reports the per-layer metrics.  Every answer is checked outside the timed
region.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # extra set-up-only processes; setup_s is the median of these and the run's
WORKER_TIMEOUT_S = 150


def _spawn(mode: str, args) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--spawned-at", repr(time.monotonic())]
    # One malloc arena: with an arena per worker thread, how much freed numpy
    # memory glibc keeps depends on the order of the ops, and peak_rss_mb on
    # monte-carlo differed by 13% between seeds (173 vs 195 MB; 170-172 MB
    # with one arena).
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {mode} worker for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(name: str, value: float, unit: str, samples: int, lines: list) -> dict:
    lines.append(f"{name:<44} {value:>14.6g} {unit:<16} n={samples}")
    return {"value": value, "unit": unit}


def end_to_end(args, report: list) -> tuple[dict, dict]:
    probes = [_spawn("setup", args) for _ in range(SETUP_PROBES)]
    run = _spawn("run", args)
    probes.append(run)
    setups = [p["setup_s"] * p["setup_scale"] for p in probes]
    wall = sorted(run["latencies_ok"])
    ref = sorted(t * f for t, f in zip(run["latencies_ok"], run["scales_ok"]))
    ok = len(ref)
    if ok < 2:
        raise SystemExit(f"perfbench: only {ok} successful ops; no latency percentiles")
    metrics = {
        "setup_s": _metric("setup_s", statistics.median(setups), "s", len(setups), report),
        "ops_per_s": _metric("ops_per_s", ok / run["timed_ref_s"], "ops/s", ok, report),
        "op_p50_ms": _metric("op_p50_ms", statistics.median(ref) * 1000, "ms", ok, report),
        "op_p90_ms": _metric("op_p90_ms", statistics.quantiles(ref, n=10)[8] * 1000, "ms", ok,
                             report),
        "peak_rss_mb": _metric("peak_rss_mb", run["peak_rss_kb"] / 1024, "MB", 1, report),
    }
    # Reported beside the JSON metrics: error_ratio is 0 on most workloads and
    # trials_per_s exists only for monte-carlo; the wall-clock timings are
    # the ones above before rescaling to the reference kernel.
    _metric("error_ratio", run["failed"] / run["attempted"], "failed/attempted",
            run["attempted"], report)
    if args.workload == "monte-carlo":
        _metric("trials_per_s", run["trials_ok"] / run["timed_ref_s"], "trials/s", ok, report)
    _metric("wall.setup_s", statistics.median(p["setup_s"] for p in probes), "s", len(probes),
            report)
    _metric("wall.ops_per_s", ok / run["timed_s"], "ops/s", ok, report)
    _metric("wall.op_p50_ms", statistics.median(wall) * 1000, "ms", ok, report)
    _metric("wall.op_p90_ms", statistics.quantiles(wall, n=10)[8] * 1000, "ms", ok, report)
    kernel = run["reference_s"]
    _metric("reference_kernel_ms", statistics.median(kernel) * 1000, "ms", len(kernel), report)
    _metric("reference_kernel_range", max(kernel) / min(kernel), "max/min", len(kernel), report)
    return metrics, run


def traced(args, report: list) -> tuple[dict, dict]:
    run = _spawn("trace", args)
    for name, (calls, self_ms) in run["spans"].items():
        report.append(f"span {name:<40} calls={calls:<8} self_ms={self_ms:.3f}")
    metrics = {name: _metric(name, run["layers"][name], unit, run["attempted"], report)
               for name, unit in LAYER_METRICS.items()}
    return metrics, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "coinwords", "__init__.py")):
        print(f"perfbench: no coinwords sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2

    report: list[str] = []
    metrics, run = (traced if args.trace else end_to_end)(args, report)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={run['nproc']} python={run['python']} "
          f"numpy={run['numpy']} coinwords={run['coinwords']}")
    print(f"# attempted={run['attempted']} failed={run['failed']} "
          f"refused_len_ge_4={run['refused']} wrong={len(run['bad'])}")
    for line in run["bad"][:20]:
        print(f"# WRONG {line}")
    for line in report:
        print(line)
    print(json.dumps({"correct": not run["bad"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
