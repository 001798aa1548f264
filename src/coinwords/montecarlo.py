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
workers run or how the chunks are scheduled.  The numpy scan works in place:
each thread allocates its arrays once and every operation writes into them,
and a block's waiting times are counted with one ``bincount``.  Only the
numpy route imports numpy, and only a run on more than one thread
``concurrent.futures``: a small run, such as a ``simulate`` of a few
thousand trials, skips numpy's 120 ms import.  The exact pmf of the CSV
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
# Trials per work unit.  Substreams are keyed by trial index, so chunking never
# shifts them; the constant bounds a thread's memory at 6 + ceil((k - 1) / 64)
# arrays of _CHUNK uint64 (3.5 MiB for k <= 65).  Of 2**13 .. 2**17, 2**16
# scanned fastest over short and long waits at one and two threads.
_CHUNK = 1 << 16

_SCALAR_BLOCKS = 1 << 13
"""The most expected toss blocks (``_expected_blocks``) a run may take for
``run_trials`` to scan it in Python ints rather than numpy arrays.

Measured on 2 cores with Python 3.11.7 and numpy 2.4.6: the Python-int scan
takes 1.0-1.9 us a block (HH, HTH, HTHH, HHHH, H^7 and a word of 10
letters), the numpy scan 0.02-0.04 us a block once numpy is loaded (the
same words, 65536 trials with a cap of 2048), and loading numpy with
``concurrent.futures`` adds 124 ms to a fresh interpreter.  At this bound
the Python-int scan takes 10-17 ms (7084 trials of HTH, ``BENCH_22.json``),
about a tenth of the import it skips: a fresh process below it finishes
about 100 ms sooner, and one that has numpy loaded already loses at most
that 10-17 ms.
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

    Block j is the same SplitMix64 output, and the scan the same Shift-And,
    as in ``_run_chunk``.  The last k - 1 tosses ride below the block as one
    int, ``stream``, so bit r + k - 1 of ``stream`` is toss 64j + r + 1, and
    a word of any length takes k shifts of one int.
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


def _arrays(k: int, size: int) -> list:
    """The uint64 arrays of ``size`` trials that ``_run_chunk`` scans in, for a
    word of k letters: base states, a spare for compaction, two working
    arrays, the match, and the window of the current block and the
    ceil((k - 1) / 64) blocks before it.  A thread allocates them once and
    reuses them over its spans."""
    import numpy as np

    return [np.empty(size, dtype=np.uint64) for _ in range(6 + -(-(k - 1) // 64))]


def _run_chunk(cfg: TrialConfig, lo: int, hi: int, arrays=None) -> tuple[dict[int, int], int]:
    """The waiting-time histogram and the truncated count of trials lo..hi - 1,
    scanned as numpy arrays in ``arrays`` (from ``_arrays``, at least hi - lo
    long; fresh ones by default).

    A Shift-And scan (Baeza-Yates and Gonnet, CACM 1992) reads each 64-toss
    block in about k word-wide operations for a word of k letters.  Bit r of
    block j is toss 64j + r + 1.  The copy of the block shifted left by d
    holds, at bit r, the toss d places earlier; its low d bits are carried
    from the top bits of the previous block (of the blocks before it, for
    words longer than 65 letters).  ANDing the k copies, each complemented
    where the letter d places before the word's end is T, leaves bit r set
    exactly when tosses 64j + r + 2 - k .. 64j + r + 1 spell the word.  Bits
    before toss k and past the cap are cleared, so a carry that only reaches
    cleared bits is skipped, and the lowest set bit is the first completion:
    waiting time 64j + 1 + r.

    Every operation writes into ``arrays``, sliced to the trials still
    running.  Each trial keeps its SplitMix64 state before block 0,
    ``base``; block j mixes base + j * gamma.  For a match m the popcount of
    m ^ (m - 1) is r + 1, and 64 where m = 0, so one ``bincount`` of the
    popcounts, less the misses in bin 64, is the block's histogram.  Trials
    that complete are dropped from ``base`` and the window, so block j is
    generated only for trials still running at toss 64j + 1 and memory stays
    O(hi - lo) whatever the cap.
    """
    import numpy as np

    letters = cfg.word.letters
    k, cap, n = len(letters), cfg.max_tosses_per_trial, hi - lo
    if arrays is None:
        arrays = _arrays(k, n)
    base, spare, tmp, copy, match, *window = arrays
    # seed + (i * 2**16 + 1) * gamma for trial i, the state block 0 mixes
    stride = np.uint64(_TRIAL_STRIDE * _GAMMA & _MASK)
    np.multiply(np.arange(lo, hi, dtype=np.uint64), stride, out=base[:n])
    base[:n] += np.uint64((cfg.seed + _GAMMA) & _MASK)
    histogram: dict[int, int] = {}
    for j in range(-(-cap // 64)):
        window.insert(0, window.pop())  # the oldest block's array takes block j
        z, t = window[0][:n], tmp[:n]
        np.add(base[:n], np.uint64(j * _GAMMA & _MASK), out=z)
        for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            if mix:
                z *= np.uint64(mix)
        valid = _valid_bits(k, cap, j)
        if not valid:
            continue
        m, c = match[:n], copy[:n]
        # copy d, built in m for the first d and in t, or c with a carry, for the rest
        for d in range(k - 1, -1, -1):
            q, s = divmod(d, 64)
            flip = letters[k - 1 - d] == "T"
            carry = s and valid & ((1 << s) - 1)  # the carry reaches a bit that is not cleared
            out = m if d == k - 1 else c if carry else t
            if s:
                np.left_shift(window[q][:n], np.uint64(s), out=out)
                if carry:
                    np.right_shift(window[q + 1][:n], np.uint64(64 - s), out=t)
                    out |= t
                if flip:
                    np.invert(out, out=out)
            elif flip:
                np.invert(window[q][:n], out=out)
            elif out is m:
                np.copyto(m, window[q][:n])
            else:
                out = window[q][:n]  # an H with no shift is the block itself
            if out is not m:
                m &= out
        if valid != _MASK:
            m &= np.uint64(valid)
        hits = np.count_nonzero(m)
        if not hits:
            continue
        np.subtract(m, np.uint64(1), out=t)
        t ^= m
        np.bitwise_count(t, out=t)
        bins = np.bincount(t.view(np.int64), minlength=65)
        bins[64] -= n - hits
        for r1, count in enumerate(bins.tolist()):
            if count:
                histogram[64 * j + r1] = count
        if hits == n:
            return histogram, 0
        keep = np.flatnonzero(m == 0)
        live = keep.size
        # base and the blocks the next window keeps, each taken into the spare
        rows = [base, *window[:-1]]
        for i, row in enumerate(rows):
            np.take(row[:n], keep, out=spare[:live], mode="clip")
            rows[i], spare = spare, row
        base, window[:-1] = rows[0], rows[1:]
        n = live
    return histogram, n


def _run_chunks(cfg: TrialConfig, workers: int) -> tuple[dict[int, int], int]:
    """The histogram and the truncated count of the whole run, from
    ``_run_chunk`` over fixed chunks of trials: in this thread, or on a pool
    of threads where thread t takes every threads-th chunk, each thread
    scanning in one set of ``_arrays``."""
    spans = [
        (lo, min(lo + _CHUNK, cfg.trials)) for lo in range(0, cfg.trials, _CHUNK)
    ]
    # the chunks are CPU-bound, so threads beyond the cores would only contend
    threads = min(workers, len(spans), os.cpu_count() or 1)

    def run(share) -> tuple[dict[int, int], int]:
        arrays = _arrays(len(cfg.word), min(_CHUNK, cfg.trials))
        return _merge(_run_chunk(cfg, lo, hi, arrays) for lo, hi in share)

    if threads == 1:
        return run(spans)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return _merge(pool.map(run, (spans[t::threads] for t in range(threads))))


def _merge(parts) -> tuple[dict[int, int], int]:
    """The sum of (histogram, truncated) parts."""
    histogram: dict[int, int] = {}
    truncated = 0
    for part, trunc in parts:
        truncated += trunc
        for wait, count in part.items():
            histogram[wait] = histogram.get(wait, 0) + count
    return histogram, truncated


def run_trials(cfg: TrialConfig, workers: int = 1) -> EmpiricalSummary:
    """Run all trials and aggregate.

    A run of at most ``_SCALAR_BLOCKS`` expected toss blocks is scanned in
    Python ints, a larger one in numpy arrays; both give the same summary.
    ``workers`` only controls scheduling; the per-trial substreams and the
    integer merge make the summary independent of it.  The numpy route runs
    on at most one thread per chunk and per core, in the caller's thread
    when that is one.
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
