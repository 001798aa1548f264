"""Seeded simulation of first-occurrence waiting times.

Randomness is counter-based: toss block j of trial i is the SplitMix64 output
at stream index i * 2**16 + j for the configured seed, a pure function of
(seed, trial, block), and toss t of a trial is bit (t - 1) mod 64 of block
(t - 1) // 64, H = 1.  Each block is scanned for a word of k letters with
Shift-And, about k word-wide operations per block, with the last k - 1
tosses carried over from the block before, so a completion that straddles
two blocks is found (see ``_run_chunk``).  Trials are processed in
fixed-size chunks and merged with order-insensitive integer accumulation, so
results are bit-identical no matter how many workers run or how the chunks
are scheduled.

``sample_waiting_time`` steps the prefix automaton one toss at a time
instead, an independent route to the same waiting times.
"""

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from .counting import counts, transition_table
from .words import Word

__all__ = [
    "EmpiricalSummary",
    "TrialConfig",
    "histogram_csv",
    "run_trials",
    "sample_waiting_time",
    "summary_csv",
]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_TRIAL_STRIDE = 1 << 16  # 64-bit blocks reserved per trial
_CHUNK = 1 << 16  # trials per work unit, fixed so chunking never shifts substreams


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


def _toss_bit(toss) -> int:
    if isinstance(toss, str):
        if toss in ("H", "h"):
            return 1
        if toss in ("T", "t"):
            return 0
        raise ValueError(f"invalid toss {toss!r}: expected H or T")
    return 1 if toss else 0


def sample_waiting_time(w: Word, tosses: Iterable, cap: int | None = None) -> int | None:
    """Toss index at which ``w`` first completes, or None if it never does.

    ``tosses`` may yield letters or bits (H = 1).  None signals truncation:
    the stream ran out, or ``cap`` tosses passed without a completion.  At
    most ``cap`` tosses are read.
    """
    if cap is not None:
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        tosses = itertools.islice(tosses, cap)
    table = transition_table(w)
    full = len(w)
    state = 0
    for t, toss in enumerate(tosses, start=1):
        state = table[state][_toss_bit(toss)]
        if state == full:
            return t
    return None


def _toss_block(seed: int, trial: np.ndarray, j: int) -> np.ndarray:
    """Toss block ``j`` (a SplitMix64 output) of each trial index in ``trial``."""
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + (
            trial * np.uint64(_TRIAL_STRIDE) + np.uint64(j) + np.uint64(1)
        ) * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _run_chunk(cfg: TrialConfig, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Waiting-time histogram for one trial range: (values, counts, truncated).

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
        low = min(max(k - 1 - 64 * j, 0), 64)
        high = min(cap - 64 * j, 64)
        valid = ((1 << high) - 1) & ~((1 << low) - 1)
        if valid != (1 << 64) - 1:
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


def run_trials(cfg: TrialConfig, workers: int = 1) -> EmpiricalSummary:
    """Run all trials and aggregate.

    ``workers`` only controls scheduling; the per-trial substreams and the
    integer merge make the summary independent of it.  The pool has at most
    one thread per chunk and per core.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
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
    return EmpiricalSummary(
        cfg.word, cfg.trials, cfg.seed, truncated, dict(sorted(histogram.items()))
    )


def histogram_csv(summary: EmpiricalSummary) -> str:
    """CSV of the waiting-time histogram against the exact pmf."""
    lines = ["n,empirical_count,empirical_p,exact_p"]
    if summary.histogram:
        seq = counts(summary.word, max(summary.histogram))
        for n, c in summary.histogram.items():
            emp = Fraction(c, summary.trials)
            lines.append(f"{n},{c},{emp},{Fraction(seq.at(n), 1 << n)}")
    return "\n".join(lines) + "\n"


def summary_csv(summary: EmpiricalSummary) -> str:
    """One-row CSV of the run totals."""
    return (
        "word,trials,seed,mean,variance,truncated\n"
        f"{summary.word},{summary.trials},{summary.seed},"
        f"{summary.mean},{summary.variance},{summary.truncated}\n"
    )
