"""Seeded simulation of first-occurrence waiting times.

Randomness is counter-based: toss block j of trial i is the SplitMix64 output
(Steele, Lea and Flood, OOPSLA 2014) at stream index i * 2**16 + j for the
configured seed, a pure function of (seed, trial, block), and toss t of a
trial is bit (t - 1) mod 64 of block (t - 1) // 64, H = 1.  Each block is
scanned for a word of k letters with Shift-And, about k word-wide operations
per block, with the last k - 1 tosses carried over from the block before, so
a completion that straddles two blocks is found (see ``_run_chunk``).

The scan has two routes that give the same summary bit for bit.  A run whose
expected work is at most ``_SCALAR_BLOCKS`` toss blocks scans one trial at a
time in Python ints (``_run_scalar``); a larger one scans numpy arrays of
trials in fixed-size chunks (``_run_chunk``), merged with order-insensitive
integer accumulation, so results are bit-identical no matter how many
workers run or how the chunks are scheduled.  Only the numpy route imports
numpy and ``concurrent.futures``: a small run, such as a ``simulate`` of a
few thousand trials, skips numpy's 120 ms import.  The exact pmf of the CSV
comes from ``counting``'s stepper; this module steps no count recurrence.
"""

import os
from dataclasses import dataclass, field
from fractions import Fraction

# transition_table is unused here, but perfbench's self-test reads this binding.
from .counting import _overlaps, _terms_at, builtin_spec, transition_table  # noqa: F401
from .words import Word

__all__ = [
    "EmpiricalSummary",
    "TrialConfig",
    "histogram_csv",
    "run_trials",
    "summary_csv",
]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's stream increment and its two mixing multipliers
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TRIAL_STRIDE = 1 << 16  # 64-bit blocks reserved per trial
_CHUNK = 1 << 16  # trials per work unit, fixed so chunking never shifts substreams

_SCALAR_BLOCKS = 1 << 13
"""The most expected toss blocks (``_expected_blocks``) a run may take for
``run_trials`` to scan it in Python ints rather than numpy arrays.

Measured on 2 cores with Python 3.11.7 and numpy 2.4.6: the Python-int scan
takes 1.0-1.9 us a block (HH, HTH, HTHH, HHHH, H^7 and a word of 10
letters), the numpy scan 0.03-0.1 us a block once numpy is loaded, and
loading numpy with ``concurrent.futures`` adds 124 ms to a fresh
interpreter.  At this bound the Python-int scan takes 10-17 ms (7084 trials
of HTH, ``BENCH_22.json``), about a tenth of the import it skips: a fresh
process below it finishes about 100 ms sooner, and one that has numpy
loaded already loses at most that 10-17 ms.
"""


@dataclass(frozen=True)
class TrialConfig:
    """One simulation request; identical configs give identical summaries."""

    word: Word
    trials: int
    seed: int
    max_tosses_per_trial: int = 512

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.max_tosses_per_trial < len(self.word):
            raise ValueError("toss cap is shorter than the word itself")
        if self.max_tosses_per_trial > _TRIAL_STRIDE * 64:
            raise ValueError(f"toss cap above {_TRIAL_STRIDE * 64} is not supported")


@dataclass(frozen=True)
class EmpiricalSummary:
    """What the trials produced: the completed trials' waiting-time histogram
    and how many trials truncated.  Count, mean and variance are read from
    them, over the completed trials; mean and variance are NaN when every
    trial truncates.
    """

    word: Word
    trials: int
    seed: int
    truncated: int
    histogram: dict[int, int] = field(repr=False)

    @property
    def count(self) -> int:
        return self.trials - self.truncated

    @property
    def mean(self) -> float:
        if not self.count:
            return float("nan")
        return sum(t * c for t, c in self.histogram.items()) / self.count

    @property
    def variance(self) -> float:
        if not self.count:
            return float("nan")
        return sum(t * t * c for t, c in self.histogram.items()) / self.count - self.mean**2

    def tail_fraction(self, n: int) -> float:
        """Empirical P(waiting time >= n); truncated trials count as large."""
        high = sum(c for t, c in self.histogram.items() if t >= n) + self.truncated
        return high / self.trials


def _valid_bits(k: int, cap: int, j: int) -> int:
    """The bits r of block j at which a word of k letters can complete: toss
    64j + r + 1 is at least k and at most the cap."""
    low = min(max(k - 1 - 64 * j, 0), 64)
    high = min(cap - 64 * j, 64)
    return ((1 << high) - 1) & ~((1 << low) - 1)


def _expected_blocks(cfg: TrialConfig) -> float:
    """trials x min(ceil(cap / 64), 1 + mean / 64), a bound on the toss
    blocks the run scans on average, where the mean waiting time is
    sum(2**(k - i)) over the overlaps i of the word."""
    k, most = len(cfg.word), -(-cfg.max_tosses_per_trial // 64)
    if k >= (64 * most).bit_length():  # the mean is at least 2**k: the cap binds
        return cfg.trials * most
    mean = sum(1 << (k - i) for i in _overlaps(cfg.word))
    return cfg.trials * min(most, 1 + mean / 64)


def _run_scalar(cfg: TrialConfig, lo: int, hi: int) -> tuple[dict[int, int], int]:
    """The waiting-time histogram and the truncated count of trials lo..hi - 1,
    one trial after another in Python ints.

    Block j is the same SplitMix64 output as in ``_toss_block``, and the scan
    the same Shift-And as in ``_run_chunk``.  The last k - 1 tosses ride
    below the block as one int, ``stream``, so bit r + k - 1 of ``stream`` is
    toss 64j + r + 1, and a word of any length takes k shifts of one int.
    """
    letters = cfg.word.letters
    k, cap = len(letters), cfg.max_tosses_per_trial
    # the copy of the stream whose bit r is the toss d places before toss 64j + r + 1,
    # complemented where the letter d places before the word's end is T
    copies = [(k - 1 - d, _MASK * (letters[k - 1 - d] == "T")) for d in range(k)]
    blocks = -(-cap // 64)
    # the blocks that hold a toss before toss k, and the last one, which may pass the cap
    edges = {j: _valid_bits(k, cap, j) for j in (*range(-(-(k - 1) // 64)), blocks - 1)}
    histogram: dict[int, int] = {}
    truncated = 0
    for trial in range(lo, hi):
        start = cfg.seed + (trial * _TRIAL_STRIDE + 1) * _GAMMA
        stream = 0
        for j in range(blocks):
            z = (start + j * _GAMMA) & _MASK
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK
            stream = (stream >> 64) | ((z ^ (z >> 31)) << (k - 1))
            match = edges.get(j, _MASK)
            for shift, flip in copies:
                match &= (stream >> shift) ^ flip
                if not match:
                    break
            if match:
                wait = 64 * j + (match & -match).bit_length()
                histogram[wait] = histogram.get(wait, 0) + 1
                break
        else:
            truncated += 1
    return histogram, truncated


def _toss_block(seed: int, trial, j: int):
    """Toss block ``j`` (a SplitMix64 output) of each trial index in the
    numpy array ``trial``."""
    import numpy as np

    with np.errstate(over="ignore"):
        z = np.uint64(seed) + (
            trial * np.uint64(_TRIAL_STRIDE) + np.uint64(j) + np.uint64(1)
        ) * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def _run_chunk(cfg: TrialConfig, lo: int, hi: int) -> tuple:
    """Waiting-time histogram for one trial range: (values, counts, truncated),
    the first two as numpy arrays.

    A Shift-And scan (Baeza-Yates and Gonnet, CACM 1992) reads each 64-toss
    block in about k word-wide operations for a word of k letters.  Bit r of
    block j is toss 64j + r + 1.  The copy of the block shifted left by d
    holds, at bit r, the toss d places earlier; its low d bits are carried
    from the top bits of the previous block (of the blocks before it, for
    words longer than 65 letters).  ANDing the k copies, each complemented
    where the letter d places before the word's end is T, leaves bit r set
    exactly when tosses 64j + r + 2 - k .. 64j + r + 1 spell the word.  Bits
    before toss k and past the cap are cleared, and the lowest set bit is the
    first completion: waiting time 64j + 1 + r.  A trial that completes
    leaves the active arrays, so block j is generated only for trials still
    running at toss 64j + 1 and memory stays O(hi - lo) whatever the cap.
    """
    import numpy as np

    letters = cfg.word.letters
    k = len(letters)
    cap = cfg.max_tosses_per_trial
    trial = np.arange(lo, hi, dtype=np.uint64)
    # blocks j-1, j-2, ... of the active trials, as far back as a window reaches
    history = [np.zeros(hi - lo, dtype=np.uint64)] * -(-(k - 1) // 64)
    found = []
    for j in range(-(-cap // 64)):
        window = [_toss_block(cfg.seed, trial, j), *history]
        match = None
        for d in range(k):
            q, s = divmod(d, 64)
            copy = window[q] << np.uint64(s)
            if s:
                copy |= window[q + 1] >> np.uint64(64 - s)
            if letters[k - 1 - d] == "T":
                np.invert(copy, out=copy)
            match = copy if match is None else np.bitwise_and(match, copy, out=match)
        valid = _valid_bits(k, cap, j)
        if valid != _MASK:
            match &= np.uint64(valid)
        history = window[: len(history)]
        hit = match != 0
        if hit.any():
            first = match[hit]
            lowest = np.bitwise_count(~first & (first - np.uint64(1)))
            found.append(lowest.astype(np.int64) + (64 * j + 1))
            live = ~hit
            trial = trial[live]
            history = [block[live] for block in history]
            if not trial.size:
                break
    waiting = np.concatenate(found) if found else np.zeros(0, dtype=np.int64)
    values, cnts = np.unique(waiting, return_counts=True)
    return values, cnts, int(trial.size)


def _run_chunks(cfg: TrialConfig, workers: int) -> tuple[dict[int, int], int]:
    """The histogram and the truncated count of the whole run, from
    ``_run_chunk`` over fixed chunks of trials on a pool of threads."""
    from concurrent.futures import ThreadPoolExecutor

    spans = [
        (lo, min(lo + _CHUNK, cfg.trials)) for lo in range(0, cfg.trials, _CHUNK)
    ]
    # Executor.map submits every chunk at once, and the pool starts a thread per
    # submitted chunk up to max_workers; the chunks are CPU-bound, so threads
    # beyond the cores would only contend.
    threads = min(workers, len(spans), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(lambda span: _run_chunk(cfg, *span), spans))
    histogram: dict[int, int] = {}
    truncated = 0
    for values, cnts, trunc in parts:
        truncated += trunc
        for v, c in zip(values.tolist(), cnts.tolist()):
            histogram[v] = histogram.get(v, 0) + c
    return histogram, truncated


def run_trials(cfg: TrialConfig, workers: int = 1) -> EmpiricalSummary:
    """Run all trials and aggregate.

    A run of at most ``_SCALAR_BLOCKS`` expected toss blocks is scanned in
    Python ints, a larger one in numpy arrays; both give the same summary.
    ``workers`` only controls scheduling; the per-trial substreams and the
    integer merge make the summary independent of it.  The numpy route's
    pool has at most one thread per chunk and per core.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if _expected_blocks(cfg) <= _SCALAR_BLOCKS:
        histogram, truncated = _run_scalar(cfg, 0, cfg.trials)
    else:
        histogram, truncated = _run_chunks(cfg, workers)
    return EmpiricalSummary(
        cfg.word, cfg.trials, cfg.seed, truncated, dict(sorted(histogram.items()))
    )


def histogram_csv(summary: EmpiricalSummary) -> str:
    """CSV of the waiting-time histogram against the exact pmf.

    ``counting._terms_at`` reads a(n) at the histogram's waiting times only,
    keeping the word's last k terms, not every term up to the longest wait."""
    lines = ["n,empirical_count,empirical_p,exact_p"]
    waits = sorted(summary.histogram)
    exact = dict(zip(waits, _terms_at(builtin_spec(summary.word), waits)))
    for n, c in summary.histogram.items():
        emp = Fraction(c, summary.trials)
        lines.append(f"{n},{c},{emp},{Fraction(exact[n], 1 << n)}")
    return "\n".join(lines) + "\n"


def summary_csv(summary: EmpiricalSummary) -> str:
    """One-row CSV of the run totals."""
    return (
        "word,trials,seed,mean,variance,truncated\n"
        f"{summary.word},{summary.trials},{summary.seed},"
        f"{summary.mean},{summary.variance},{summary.truncated}\n"
    )
