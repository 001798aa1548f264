#!/usr/bin/env python3
"""Layer timings of the exact and Monte Carlo hot paths, and cold command
timings, written as JSON.

    python scripts/bench_layers.py --baseline 279fca7 --repeats 21   # writes BENCH_24.json
    python scripts/bench_layers.py --repeats 1 --out /tmp/bench.json

Each round times up to CALLS calls of a case, stopping early once
BUDGET_S seconds have gone into them, and keeps their median.  Each row is
the median of those per-call times, in milliseconds, over --repeats rounds,
with the interquartile range beside it: a speedup whose two ranges
overlap is within the machine's run-to-run spread.  Rows named "... x1000"
time a thousand sub-microsecond operations in one call, so their
milliseconds read as microseconds per operation.  Rows named "... memo
cleared" empty counting's per-word memo before each call, beside the same
case timed with the memo warm.  The ``run_trials`` rows come first in each
timing interpreter, before any other case has allocated and freed large
numpy arrays, which move glibc's mmap threshold and with it their speed.
Two kinds of rows:

- warm rows time calls of a case, after one warm-up call, in a timing
  interpreter started for the round, whose PYTHONPATH is one source tree's
  src/;
- cold rows ("cold ...") time a fresh ``python -c "import coinwords"`` or
  ``python -m coinwords.cli ...`` from spawn to exit, interpreter start and
  imports included.

The trees are the working tree and, with --baseline, the given git
revision, exported with ``git archive`` into a temporary directory.  They
take turns case by case (see ``_time_trees``), so with --baseline each row
also pairs the two trees round by round: the quartiles of the per-round
ratio baseline/current, and the rounds in which the current tree was
faster (see ``_paired``).  The file records the core count and the Python
and numpy versions next to the rows.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LONG_WORD = "HTHTTHHTHT"
# One timing of a ~1 ms call varies by 10-20%, so a round keeps the median
# of several calls; a case slower than BUDGET_S is timed once.
CALLS = 5
BUDGET_S = 0.3


def _refused(f, *args) -> None:
    """Call f, which must refuse with ValueError."""
    try:
        f(*args)
    except ValueError:
        return
    raise AssertionError(f"{f.__name__}{args} was not refused")


def _cases() -> dict:
    from fractions import Fraction

    from coinwords import Word, closedform, counting, verify
    from coinwords.counting import (
        ESSENTIAL_WORDS, CountSequence, automaton_counts, builtin_spec, counts, extend_counts,
        nth_terms, transition_table,
    )
    from coinwords.genfun import closed_gf, finite_gf
    from coinwords.montecarlo import TrialConfig, run_trials
    from coinwords.stats import DyadicRational, cdf, closed_tail, pmf, tail, threshold
    from coinwords.words import all_words, brute_force_count

    hth, long_word = Word("HTH"), Word(LONG_WORD)
    # a tree from before the memo has nothing to empty
    forget = counting._derive.cache_clear if hasattr(counting, "_derive") else lambda: None
    deep, micro = Fraction("1e-100"), Fraction("1e-6")
    cases = {
        "extend_counts HTH n=20000": lambda: extend_counts(builtin_spec(hth), 20000),
        "brute_force_count HTH n=22": lambda: brute_force_count(hth, 22),
        # 2**22 strings: the oracle's largest enumeration
        "brute_force_count HT n=24": lambda: brute_force_count(Word("HT"), 24),
        "brute_force_count HT n=15": lambda: brute_force_count(Word("HT"), 15),
        "brute_force_count HHTHTTHHTH n=20": lambda: brute_force_count(Word("HHTHTTHHTH"), 20),
        "counts HTH n=14 engine=brute": lambda: counts(hth, 14, "brute"),
    }
    cases[f"transition_table {long_word}"] = lambda: transition_table(long_word)
    for w in (hth, long_word):
        cases[f"automaton_counts {w} n=64"] = lambda w=w: automaton_counts(w, 64)
        cases[f"automaton_counts {w} n=20000"] = lambda w=w: automaton_counts(w, 20000)
        for f in (pmf, tail, cdf):
            cases[f"{f.__name__} {w} n=20000"] = lambda f=f, w=w: f(w, 20000)
        cases[f"tail {w} n=64"] = lambda w=w: tail(w, 64)  # verify's range
        cases[f"tail {w} n=64 memo cleared"] = lambda w=w: (forget(), tail(w, 64))
    cases["nth_terms HTH n=63,64"] = lambda: nth_terms(builtin_spec(hth), (63, 64))
    cases[f"nth_terms {long_word} n=19999,20000"] = lambda: nth_terms(
        builtin_spec(long_word), (19999, 20000)
    )
    cases["cdf HTH m=2"] = lambda: cdf(hth, 2)  # a term below the word's length
    cases["closed_tail HTH n=20000"] = lambda: closed_tail(hth, 20000)
    for letters in ("HHH", "HTH"):
        cases[f"threshold {letters} q=1e-100"] = lambda w=Word(letters): threshold(w, deep)
    for letters in ("HHHHHHHHHH", "HTHTHTHTHT"):
        cases[f"threshold {letters} q=1e-6"] = lambda w=Word(letters): threshold(w, micro)
    cases["threshold HTH q=1/10"] = lambda: threshold(hth, Fraction(1, 10))
    cases["threshold HHHHHHHHHHHHHHHHHHHH q=1/2 refusal"] = lambda: _refused(
        threshold, Word("H" * 20), Fraction(1, 2)
    )
    cases["threshold H T^63 q=1/2 refusal"] = lambda: _refused(
        threshold, Word("H" + "T" * 63), Fraction(1, 2)
    )
    # 7084 trials of HTH are 8190.9 expected toss blocks, just within
    # montecarlo's bound of 8192 for the Python-int scan; 7085 are 8192.03
    for trials in (7084, 7085):
        cfg = TrialConfig(word=hth, trials=trials, seed=1)
        cases[f"run_trials HTH {trials} trials"] = lambda cfg=cfg: run_trials(cfg)
    for cap in (512, 8192):
        cfg = TrialConfig(word=Word("HTHH"), trials=65536, seed=1, max_tosses_per_trial=cap)
        cases[f"run_trials HTHH 65536 trials cap={cap}"] = lambda cfg=cfg: run_trials(cfg)
    # a mean wait of 66 tosses, so many blocks of the scan keep trials running
    long_wait = TrialConfig(word=Word("HTTHTH"), trials=65536, seed=1)
    cases["run_trials HTTHTH 65536 trials"] = lambda: run_trials(long_wait)
    # two threads on unequal chunks of 65536 and 32768 trials
    unequal = TrialConfig(word=hth, trials=98304, seed=1)
    cases["run_trials HTH 98304 trials workers=2"] = lambda: run_trials(unequal, workers=2)
    million = TrialConfig(word=Word("HHH"), trials=1_000_000, seed=1)
    for workers in (1, 2):
        cases[f"run_trials HHH 1000000 trials workers={workers}"] = (
            lambda workers=workers: run_trials(million, workers=workers)
        )
    half = Fraction(1, 2)
    cases["finite_gf at 1/2 essential words m=1..64"] = lambda: [
        finite_gf(w, m)(half) for w in ESSENTIAL_WORDS for m in range(1, 65)
    ]
    short = [w for k in range(1, 9) for w in all_words(k)]
    cases["closed_gf series(40) words k<=8"] = lambda: [closed_gf(w).series(40) for w in short]
    cases["verify tail-identities n<=64"] = lambda: verify._check_tail_routes(64)
    cases["verify cdf-vs-partial-sum m<=64"] = lambda: verify._check_cdf_vs_partial_gf(64)
    cases["verify engine-agreement n<=20"] = lambda: verify._check_engine_agreement(20)
    slack = Fraction(1, 10**6)
    cases["verify normalization m<=200"] = lambda: verify._check_normalization(200, slack)
    for name, letters in ((LONG_WORD, LONG_WORD), ("H T^63", "H" + "T" * 63)):  # k = 10, 64
        cases[f"solve_denominator {name}"] = lambda w=Word(letters): closedform.solve_denominator(w)
    cases["verify quick"] = lambda: verify.run_checks("quick")
    cases["verify full"] = lambda: verify.run_checks("full")
    twin, thousand = Word(LONG_WORD), range(1000)
    cases[f'Word("{LONG_WORD}") x1000'] = lambda: [Word(LONG_WORD) for _ in thousand]
    cases["Word == Word x1000"] = lambda: [long_word == twin for _ in thousand]
    cases["hash(Word) x1000"] = lambda: [hash(long_word) for _ in thousand]
    cases["DyadicRational(12345 << 3, 40) x1000"] = lambda: [
        DyadicRational(12345 << 3, 40) for _ in thousand
    ]
    cases["CountSequence((0, 1, 1, 2)) x1000"] = lambda: [
        CountSequence((0, 1, 1, 2)) for _ in thousand
    ]
    cases['CheckResult("reference-counts", True, "rows", 0.25) x1000'] = lambda: [
        verify.CheckResult("reference-counts", True, "rows", 0.25) for _ in thousand
    ]
    # the run_trials rows first (see the module docstring)
    return dict(sorted(cases.items(), key=lambda item: not item[0].startswith("run_trials")))


# Cold rows: one fresh interpreter per call, wall time from spawn to exit.
COLD = {
    "cold import coinwords": ("-c", "import coinwords"),
    "cold counts HTHT 20": ("-m", "coinwords.cli", "counts", "HTHT", "20"),
    "cold counts HTH 40 csv": ("-m", "coinwords.cli", "counts", "HTH", "40", "--format", "csv"),
    "cold tail HTH 22": ("-m", "coinwords.cli", "tail", "HTH", "22"),
    "cold threshold HHH 1e-100": ("-m", "coinwords.cli", "threshold", "HHH", "1e-100"),
    "cold stats HTHT": ("-m", "coinwords.cli", "stats", "HTHT"),
    "cold gf HTH --m 8": ("-m", "coinwords.cli", "gf", "HTH", "--m", "8"),
    "cold simulate HTHH 65536 trials": (
        "-m", "coinwords.cli", "simulate", "HTHH", "--trials", "65536", "--seed", "1",
    ),
    "cold verify --full": ("-m", "coinwords.cli", "verify", "--full"),
    "cold verify": ("-m", "coinwords.cli", "verify"),
    "cold counts HTH 14 engine=brute": (
        "-m", "coinwords.cli", "counts", "HTH", "14", "--engine", "brute",
    ),
    "cold simulate HTH 4000 trials": (
        "-m", "coinwords.cli", "simulate", "HTH", "--trials", "4000", "--seed", "1",
    ),
}


def _per_call_ms(call) -> float:
    """Median milliseconds of up to CALLS calls, stopping once BUDGET_S
    seconds have gone into them; at least one call."""
    seconds: list = []
    while len(seconds) < CALLS and sum(seconds) < BUDGET_S:
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds) * 1000


def serve() -> None:
    """Answer each case name read from stdin with its per-call milliseconds,
    after a warm-up call, for the coinwords on sys.path.  The first line
    written lists the cases and the numpy version."""
    import numpy

    cases = _cases()
    print(json.dumps({"numpy": numpy.__version__, "cases": list(cases)}), flush=True)
    for line in sys.stdin:
        call = cases[line.rstrip("\n")]
        call()
        print(_per_call_ms(call), flush=True)


def _env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=src)


def _start_server(src: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", "import bench_layers; bench_layers.serve()"],
        cwd=os.path.dirname(os.path.abspath(__file__)), env=_env(src),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def _reply(server: subprocess.Popen) -> str:
    line = server.stdout.readline()
    if not line:
        raise SystemExit(f"bench_layers: timing interpreter exited with {server.wait()}")
    return line


def _time_warm(server: subprocess.Popen, name: str) -> float:
    server.stdin.write(name + "\n")
    server.stdin.flush()
    return float(_reply(server))


def _time_cold(src: str, argv: tuple) -> float:
    return _per_call_ms(lambda: subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=_env(src), stdout=subprocess.DEVNULL, check=True,
    ))


def _quartiles(values: list) -> tuple:
    """(Q1, median, Q3) of the per-round timings, to 3 significant figures."""
    qs = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return tuple(float(f"{q:.3g}") for q in qs)


def _paired(baseline: list, current: list) -> dict:
    """The two trees' timings of one case, round by round: quartiles of the
    ratio baseline/current (above 1 where the current tree is faster) and the
    number of rounds in which the current tree was faster."""
    q1, median, q3 = _quartiles([b / c for b, c in zip(baseline, current)])
    return {
        "paired_speedup": median,
        "paired_speedup_iqr": [q1, q3],
        "current_wins": sum(c < b for b, c in zip(baseline, current)),
    }


def _time_trees(trees: dict, repeats: int) -> tuple[dict, str]:
    """({tree label: {case: [ms of each round]}}, numpy version).

    Each round starts one timing interpreter per tree and asks both for
    every warm case, then runs every cold case in both trees.  The trees
    take turns case by case, and which goes first alternates from case to
    case and from round to round, so a drift in machine speed falls on both.
    """
    times: dict = {label: {} for label in trees}
    labels = list(trees)
    for r in range(repeats):
        servers = {label: _start_server(src) for label, src in trees.items()}
        try:
            hello = {label: json.loads(_reply(server)) for label, server in servers.items()}
            warm = hello[labels[0]]["cases"]
            for i, name in enumerate(warm):
                for label in labels if (r + i) % 2 == 0 else labels[::-1]:
                    ms = _time_warm(servers[label], name)
                    times[label].setdefault(name, []).append(ms)
        finally:
            for server in servers.values():
                server.stdin.close()
                server.wait()
        for i, (name, argv) in enumerate(COLD.items(), start=len(warm)):
            for label in labels if (r + i) % 2 == 0 else labels[::-1]:
                times[label].setdefault(name, []).append(_time_cold(trees[label], argv))
    return times, hello[labels[0]]["numpy"]


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_24.json"))
    parser.add_argument("--baseline", help="git revision to time beside the working tree")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"current": os.path.join(ROOT, "src")}
        if args.baseline:
            archive = subprocess.run(
                ["git", "-C", ROOT, "archive", "--format=tar", args.baseline, "src"],
                capture_output=True, check=True,
            ).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
            trees["baseline"] = os.path.join(tmp, "src")
        times, numpy_version = _time_trees(trees, args.repeats)
    report = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "repeats": args.repeats,
        "unit": f"ms, median and interquartile range over rounds of the per-call median "
                f"of up to {CALLS} calls ({BUDGET_S} s budget) each",
        "current": "working tree",
        "rows": {},
    }
    for name in times["current"]:
        row = report["rows"][name] = {}
        for label, cases in times.items():
            q1, median, q3 = _quartiles(cases[name])
            row[f"{label}_ms"] = median
            row[f"{label}_iqr_ms"] = [q1, q3]
    if args.baseline:
        report["baseline"] = _git("rev-parse", "--short", args.baseline)
        for name, row in report["rows"].items():
            row["speedup"] = round(row["baseline_ms"] / row["current_ms"], 2)
            row.update(_paired(times["baseline"][name], times["current"][name]))
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for name, row in report["rows"].items():
        cells = " ".join(f"{k}={v}" for k, v in row.items())
        print(f"{name:<40} {cells}")


if __name__ == "__main__":
    main()
