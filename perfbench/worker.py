"""One workload process: set up, run a closed loop of ops, check every answer.

Started by run.py, never by hand.  Modes:

  setup  set up (import coinwords, generate inputs, warm up) and stop
  run    set up, then run whole rounds of ops until --seconds have passed
         and at least the workload's min_ops are done; one client, one op
         at a time
  trace  set up, then run a fixed op list three times: untraced, with every
         public coinwords function wrapped in spans, and untraced again

The last line of stdout is a JSON object with the raw measurements.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array

MAX_LOOP_S = 120.0  # stop at the next round boundary past this, whatever min_ops says


class Pace:
    """How fast this machine runs right now, measured between ops.

    A fixed reference kernel that runs no coinwords code is timed between
    ops, at most once per INTERVAL_S.  The machine's speed drifts by up to
    ~1.8x over tens of seconds under load from outside the process, so
    run.py rescales each op's latency to a kernel time of NOMINAL_S, using
    the kernel times measured around the op.
    """

    INTERVAL_S = 0.25
    NOMINAL_S = 0.002
    REPEATS = 3

    def __init__(self) -> None:
        self.points: list[tuple[int, float]] = []  # (ops done before it, kernel seconds)
        self.ops = 0
        self.last = -1e9

    @staticmethod
    def kernel() -> None:
        """Big-integer adds, dict updates and numpy mixing."""
        import numpy as np

        a, b = 1, 1
        for _ in range(4000):
            a, b = b, a + b
        d: dict[int, int] = {}
        for i in range(4000):
            d[i % 97] = d.get(i % 97, 0) + i
        x = np.arange(1 << 15, dtype=np.uint64)
        for _ in range(20):
            x = (x ^ (x >> np.uint64(7))) * np.uint64(0x9E3779B97F4A7C15)

    def measure(self, repeats: int = REPEATS) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        self.points.append((self.ops, statistics.median(times)))
        self.last = time.perf_counter()
        return self.points[-1][1]

    def before_op(self) -> None:
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self.measure()
        self.ops += 1

    def scales(self) -> list[float]:
        """Per op: NOMINAL_S over the median of the five kernel times nearest
        to it."""
        self.measure()
        out, k = [], 0
        for j in range(self.ops):
            while k + 1 < len(self.points) and self.points[k + 1][0] <= j:
                k += 1
            around = [t for _, t in self.points[max(0, k - 2):k + 3]]
            out.append(self.NOMINAL_S / statistics.median(around))
        return out


def _run_ops(workload, ops, inprocess, pace=None):
    """Run ops back to back: (results, latencies in s).  Exceptions are results."""
    results, latencies = [], []
    clock = time.perf_counter
    for op in ops:
        if pace is not None:
            pace.before_op()
        start = clock()
        try:
            res = workload.execute(op, inprocess)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            res = exc
        latencies.append(clock() - start)
        results.append(res)
    return results, latencies


def _judge(workload, ops, results) -> dict:
    """Failure accounting: every op is checked, outside any timed region."""
    verdicts = iter(workload.check(ops, results))
    ok, refused, bad = [], 0, []
    for op, res in zip(ops, results):
        if isinstance(res, Exception):
            expected = isinstance(res, ValueError) and op.refusable and len(op.word) >= 4
            refused += expected
            if not expected:
                bad.append(f"{op.kind} {op.word} {op.args[1:]}: {type(res).__name__}: {res}")
            ok.append(False)
        else:
            good = next(verdicts)
            if not good:
                bad.append(f"{op.kind} {op.word} {op.args[1:]}: wrong answer")
            ok.append(good)
    return {"ok": ok, "refused": refused, "bad": bad}


def _peak_rss_kb(children: bool) -> int:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def _cli_probes(root: str, repeats: int = 5) -> tuple[float, float]:
    """Medians in ms: wall time of a bare ``python -c pass``, and the time a
    fresh interpreter spends in ``import coinwords.cli``."""
    import subprocess

    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = "import time; t = time.perf_counter(); import coinwords.cli; print(time.perf_counter() - t)"
    bare, imports = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True, timeout=60)
        bare.append(time.perf_counter() - start)
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        imports.append(float(proc.stdout))
    return statistics.median(bare) * 1000, statistics.median(imports) * 1000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy

    import coinwords
    import coinwords.cli  # noqa: F401  (the tracer wraps every module)
    import coinwords.verify  # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    cli = args.workload == "cli-cold"
    _run_ops(workload, workload.warmup(), inprocess=args.mode == "trace")
    first = workload.round()
    ready = time.monotonic()
    pace = Pace()
    out = {
        "setup_s": ready - args.spawned_at,
        "setup_scale": Pace.NOMINAL_S / pace.measure(repeats=7),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "coinwords": coinwords.__version__,
        "nproc": os.cpu_count(),
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "run":
        # Per-op records go to flat arrays and checked answers are dropped, so
        # memory does not grow with the op count: peak_rss_mb must not depend
        # on how fast the machine is.
        latencies, ok_flags = array("d"), bytearray()
        tally = {"refused": 0, "trials": 0}
        bad: list[str] = []
        pending_ops: list = []
        pending_res: list = []

        def judge_pending() -> None:
            verdict = _judge(workload, pending_ops, pending_res)
            ok_flags.extend(verdict["ok"])
            tally["refused"] += verdict["refused"]
            tally["trials"] += sum(op.args[0] for op, ok in zip(pending_ops, verdict["ok"])
                                   if ok and op.kind == "run_trials")
            bad.extend(verdict["bad"])
            pending_ops.clear()
            pending_res.clear()

        batch = first
        while True:
            res, lat = _run_ops(workload, batch, inprocess=not cli, pace=pace)
            pending_ops += batch
            pending_res += res
            latencies.extend(lat)
            wall = time.monotonic() - ready
            if (wall >= args.seconds and len(latencies) >= workload.min_ops) or wall >= MAX_LOOP_S:
                break
            if workload.check_each_round:
                judge_pending()
            batch = workload.round()
        out["peak_rss_kb"] = _peak_rss_kb(children=cli)
        scales = pace.scales()
        judge_pending()
        out["timed_s"] = sum(latencies)
        out["timed_ref_s"] = sum(t * f for t, f in zip(latencies, scales))
        out["latencies_ok"] = [t for t, ok in zip(latencies, ok_flags) if ok]
        out["scales_ok"] = [f for f, ok in zip(scales, ok_flags) if ok]
        out["reference_s"] = [k for _, k in pace.points]
        out["trials_ok"] = tally["trials"]
        out["attempted"] = len(latencies)
        out["failed"] = ok_flags.count(0)
        out["refused"] = tally["refused"]
        out["bad"] = bad
    else:
        from spans import Tracer

        ops = first + [op for _ in range(workload.rounds_traced - 1) for op in workload.round()]
        # Untraced, traced, untraced again: the ratio compares the traced pass
        # with the mean of the passes around it, so warming up favours neither.
        plain, plain_lat = _run_ops(workload, ops, inprocess=True)
        tracer = Tracer()
        tracer.install()
        try:
            results, latencies = _run_ops(workload, ops, inprocess=True)
        finally:
            tracer.restore()
        plain_lat += _run_ops(workload, ops, inprocess=True)[1]
        plain_judged = _judge(workload, ops, plain)
        judged = _judge(workload, ops, results)
        judged["bad"] += plain_judged["bad"]
        layers = tracer.layer_metrics(len(ops))
        layers["trace.overhead_ratio"] = sum(plain_lat) / 2 / sum(latencies)
        if cli:
            layers["cli.interpreter_ms"], layers["cli.import_ms"] = _cli_probes(root)
        else:
            layers["cli.interpreter_ms"] = layers["cli.import_ms"] = 0.0
        out["layers"] = layers
        out["spans"] = {name: [calls, secs * 1000] for name, (calls, secs) in
                        sorted(tracer.self_times().items())}
        out["attempted"] = len(ops)
        out["failed"] = judged["ok"].count(False)
        out["refused"] = judged["refused"]
        out["bad"] = judged["bad"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
