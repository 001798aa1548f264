#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery; exits 0 when all checks hold.

    python3 perfbench/selftest.py

It shows that a corrupted answer is caught and raises error_ratio on every
workload, that the oracle reproduces the values the README gives, that the
tracer sees calls made inside the package and restores every binding, that
work counts repeat exactly, and that BENCHMARK.json names the metrics the
benchmark prints.
"""

import dataclasses
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import coinwords  # noqa: E402
import coinwords.cli  # noqa: E402,F401
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import _judge, _run_ops  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        FAILURES.append(what)


def _corrupt(workload: str, res):
    """A wrong answer of the same shape as ``res``."""
    if workload == "exact-deep":
        return type(res)(res.numerator + 1, res.exponent)
    if workload == "cross-check":
        return (*res[:-1], res[-1] + 1)
    if workload == "monte-carlo":
        return dataclasses.replace(res, truncated=res.truncated + 1)
    code, out = res  # cli tail: "num/den (float)"
    exact, _, rest = out.partition(" (")
    return code, f"{Fraction(exact) + Fraction(1, 1 << 300)} ({rest}"


def corrupted_answer_raises_error_ratio() -> None:
    targets = {"exact-deep": "pmf", "cross-check": "counts_automaton",
               "monte-carlo": "run_trials", "cli-cold": "tail"}
    for name, kind in targets.items():
        workload = workloads.WORKLOADS[name](seed=0)
        ops = [op for op in workload.round() if op.kind == kind][:2]
        results, _ = _run_ops(workload, ops, inprocess=True)
        clean = _judge(workload, ops, results)
        expect(not clean["bad"] and all(clean["ok"]), f"{name}: clean answers rejected {clean}")
        results[0] = _corrupt(name, results[0])
        dirty = _judge(workload, ops, results)
        expect(dirty["ok"] == [False, True] and len(dirty["bad"]) == 1,
               f"{name}: corrupted {kind} answer not caught: {dirty}")


def refusals_are_counted_not_hidden() -> None:
    workload = workloads.WORKLOADS["cross-check"](seed=0)
    op = workloads.Op("moments", "HTHT", (coinwords.Word("HTHT"),), refusable=True)
    results, _ = _run_ops(workload, [op], inprocess=True)
    judged = _judge(workload, [op], results)
    if isinstance(results[0], ValueError):
        expect(judged["ok"] == [False] and judged["refused"] == 1 and not judged["bad"],
               f"refusal accounting: {judged}")
    else:  # the program answers now: the answer must be right
        expect(judged["ok"] == [True], f"moments(HTHT) answered wrongly: {results[0]}")


def oracle_matches_readme() -> None:
    expect(oracle.counts("HTH", 10) == (0, 0, 1, 2, 3, 5, 9, 16, 28, 49), "counts HTH")
    expect(oracle.tail("HT", 7) == Fraction(7, 64), "tail HT 7")
    expect(oracle.tail("HTH", 22) == Fraction(170625, 2097152), "tail HTH 22")
    sums = oracle.sweep("HHT", [13, 14])
    expect(oracle.tail_bracket_holds(sums, 15, Fraction(1, 10))
           and oracle.tail("HHT", 15) == Fraction(399, 4096), "threshold HHT 0.1 = 15")
    expect(oracle.tail_bracket_holds(oracle.sweep("HTH", [19, 20]), 21, Fraction(1, 10)),
           "threshold HTH 0.1 = 21")
    means = {"HT": 4, "HH": 6, "HHT": 8, "HTT": 8, "HTH": 10, "HHH": 14}
    expect(all(oracle.mean(w) == m for w, m in means.items()), "README means")
    expect(oracle.variance("HHT") == 24 and oracle.variance("HTH") == 58, "README variances")


def tracer_sees_inner_calls_and_restores() -> None:
    before = {
        "package": coinwords.tail, "stats.counts": coinwords.stats.counts,
        "montecarlo.transition_table": coinwords.montecarlo.transition_table,
        "cli.stats.tail": coinwords.cli.stats.tail,
        "DyadicRational.__init__": coinwords.stats.DyadicRational.__dict__["__init__"],
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        value = coinwords.tail(coinwords.Word("HTH"), 22)
    finally:
        tracer.restore()
    after = {
        "package": coinwords.tail, "stats.counts": coinwords.stats.counts,
        "montecarlo.transition_table": coinwords.montecarlo.transition_table,
        "cli.stats.tail": coinwords.cli.stats.tail,
        "DyadicRational.__init__": coinwords.stats.DyadicRational.__dict__["__init__"],
    }
    expect(before == after, "tracer left a wrapped binding behind")
    expect(value.as_fraction() == Fraction(170625, 2097152), "traced tail value")
    names = [s[0] for s in tracer.spans]
    expect(names[:5] == ["stats.tail", "stats.cdf", "counting.counts", "counting.builtin_spec",
                         "counting.extend_counts"], f"nested spans: {names}")
    expect([s[3] for s in tracer.spans[:5]] == [-1, 0, 1, 2, 2], "span parents")
    times = tracer.self_times()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    expect(0 <= times["stats.tail"][1] <= total, "self time within span")
    expect(tracer.work["counting.extend_counts.terms"] == 21, "terms counted")


def work_counts_repeat() -> None:
    def counts_once():
        workload = workloads.WORKLOADS["exact-deep"](seed=3)
        ops = [op for op in workload.round() if op.args[1] != 0][:8]
        tracer = spans.Tracer()
        tracer.install()
        try:
            _run_ops(workload, ops, inprocess=True)
        finally:
            tracer.restore()
        return dict(tracer.work), {k: v[0] for k, v in tracer.self_times().items()}

    expect(counts_once() == counts_once(), "work counts differ between identical runs")


def benchmark_json_matches() -> None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    expect([m["name"] for m in spec["per_layer"]] == list(spans.LAYER_METRICS),
           "BENCHMARK.json per_layer differs from spans.LAYER_METRICS")
    expect(all(m["unit"] == spans.LAYER_METRICS[m["name"]] for m in spec["per_layer"]),
           "per_layer units")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")


def main() -> int:
    for test in (corrupted_answer_raises_error_ratio, refusals_are_counted_not_hidden,
                 oracle_matches_readme, tracer_sees_inner_calls_and_restores,
                 work_counts_repeat, benchmark_json_matches):
        before = len(FAILURES)
        test()
        print(f"{'ok  ' if len(FAILURES) == before else 'FAIL'} {test.__name__}")
    for failure in FAILURES:
        print(f"  {failure}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
