"""Seeded simulation of first-occurrence waiting times.

Randomness is counter-based: toss block j of trial i is the SplitMix64 output
at stream index i * 2**16 + j for the configured seed, a pure function of
(seed, trial, block).  Trials are processed in fixed-size chunks and merged
with order-insensitive integer accumulation, so results are bit-identical no
matter how many workers run or how the chunks are scheduled.
"""

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
    """Aggregated waiting times; mean and variance are over completed trials."""

    word: Word
    trials: int
    seed: int
    count: int
    truncated: int
    mean: float
    variance: float
    histogram: dict[int, int] = field(repr=False)

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
    the stream ran out, or ``cap`` tosses passed without a completion.
    """
    table = transition_table(w)
    full = len(w)
    state = 0
    for t, toss in enumerate(tosses, start=1):
        state = table[state][_toss_bit(toss)]
        if state == full:
            return t
        if cap is not None and t >= cap:
            return None
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


def _run_chunk(
    trans: np.ndarray, cfg: TrialConfig, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Waiting-time histogram for one trial range: (values, counts, truncated).

    Block j of every trial is generated when toss 64j + 1 is reached, so
    memory stays O(hi - lo) whatever the toss cap.
    """
    cap = cfg.max_tosses_per_trial
    trial = np.arange(lo, hi, dtype=np.uint64)
    n = hi - lo
    full = trans.shape[0] - 1
    state = np.zeros(n, dtype=np.int64)
    waiting = np.zeros(n, dtype=np.int64)
    done = 0
    for t in range(1, cap + 1):
        j, r = divmod(t - 1, 64)
        if r == 0:
            block = _toss_block(cfg.seed, trial, j)
        bit = ((block >> np.uint64(r)) & np.uint64(1)).astype(np.int64)
        state = trans[state, bit]
        newly = (state == full) & (waiting == 0)
        if newly.any():
            waiting[newly] = t
            done += int(newly.sum())
            if done == n:
                break
    values, cnts = np.unique(waiting[waiting > 0], return_counts=True)
    return values, cnts, n - done


def run_trials(cfg: TrialConfig, workers: int = 1) -> EmpiricalSummary:
    """Run all trials and aggregate.

    ``workers`` only controls scheduling; the per-trial substreams and the
    integer merge make the summary independent of it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    trans = np.asarray(transition_table(cfg.word), dtype=np.int64)
    spans = [
        (lo, min(lo + _CHUNK, cfg.trials)) for lo in range(0, cfg.trials, _CHUNK)
    ]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(lambda span: _run_chunk(trans, cfg, *span), spans))
    histogram: dict[int, int] = {}
    truncated = 0
    for values, cnts, trunc in parts:
        truncated += trunc
        for v, c in zip(values.tolist(), cnts.tolist()):
            histogram[v] = histogram.get(v, 0) + c
    histogram = dict(sorted(histogram.items()))
    completed = cfg.trials - truncated
    if completed:
        s1 = sum(t * c for t, c in histogram.items())
        s2 = sum(t * t * c for t, c in histogram.items())
        mean = s1 / completed
        variance = s2 / completed - (s1 / completed) ** 2
    else:
        mean = float("nan")
        variance = float("nan")
    return EmpiricalSummary(
        word=cfg.word,
        trials=cfg.trials,
        seed=cfg.seed,
        count=completed,
        truncated=truncated,
        mean=mean,
        variance=variance,
        histogram=histogram,
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
