import concurrent.futures
import itertools
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwords import montecarlo
from coinwords.counting import (
    _avoidance_spec,
    _terms_at,
    automaton_counts,
    builtin_spec,
    transition_table,
)
from coinwords.montecarlo import (
    EmpiricalSummary,
    TrialConfig,
    _GAMMA,
    _MASK,
    _MIX1,
    _MIX2,
    _TRIAL_STRIDE,
    _run_chunk,
    _run_chunks,
    _run_scalar,
    histogram_csv,
    run_trials,
    summary_csv,
)
from coinwords.stats import moments, pmf, tail
from coinwords.words import Word

ESSENTIAL = ("HT", "HH", "HHH", "HHT", "HTT", "HTH")


def toss_block(seed, trial, j):
    """Toss block ``j`` of each trial index in the numpy array ``trial``: the
    SplitMix64 output at stream index trial * 2**16 + j, written out from
    the stream's definition as the reference RNG of the scans."""
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + (
            trial * np.uint64(_TRIAL_STRIDE) + np.uint64(j) + np.uint64(1)
        ) * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def stream(seed, trial, blocks):
    """Tosses 1 .. 64 * blocks of one trial as a string of H and T."""
    index = np.array([trial], dtype=np.uint64)
    words = [int(toss_block(seed, index, j)[0]) for j in range(blocks)]
    return "".join("TH"[(b >> r) & 1] for b in words for r in range(64))


def step_loop_chunk(cfg, lo, hi):
    """Reference for ``_run_chunk``: the prefix automaton stepped one toss
    at a time over the blocks of ``toss_block``, toss t reading bit
    (t - 1) mod 64 of block (t - 1) // 64."""
    trans = np.asarray(transition_table(cfg.word), dtype=np.int64)
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
            block = toss_block(cfg.seed, trial, j)
        bit = ((block >> np.uint64(r)) & np.uint64(1)).astype(np.int64)
        state = trans[state, bit]
        newly = (state == full) & (waiting == 0)
        if newly.any():
            waiting[newly] = t
            done += int(newly.sum())
            if done == n:
                break
    values, cnts = np.unique(waiting[waiting > 0], return_counts=True)
    return dict(zip(values.tolist(), cnts.tolist())), n - done


def as_lists(chunk):
    """A (histogram, truncated) pair as (waits ascending, their counts, truncated)."""
    histogram, truncated = chunk
    values = sorted(histogram)
    return values, [histogram[v] for v in values], truncated


class TestTrialConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(word=Word("HH"), trials=0, seed=1)
        with pytest.raises(ValueError):
            TrialConfig(word=Word("HH"), trials=1, seed=-1)
        with pytest.raises(ValueError):
            TrialConfig(word=Word("HHH"), trials=1, seed=1, max_tosses_per_trial=2)


class TestRunTrials:
    def test_deterministic_across_worker_counts(self):
        cfg = TrialConfig(word=Word("HTH"), trials=200_000, seed=99)
        one = run_trials(cfg, workers=1)
        four = run_trials(cfg, workers=4)
        assert one == four

    @pytest.mark.parametrize(
        "trials, workers, cores, threads",
        [
            (1, 100_000, 64, 1),
            (3 << 16, 1, 64, 1),
            (3 << 16, 100_000, 1, 1),
            (3 << 16, 100_000, 64, 3),
            (3 << 16, 2, 64, 2),
            (3 << 16, 100_000, 2, 2),
        ],
    )
    def test_pool_is_sized_by_chunks_and_cores(
        self, monkeypatch, trials, workers, cores, threads
    ):
        # one thread scans in the caller with no pool; each thread allocates its arrays once
        sizes, allocations = [], []

        class InlinePool:  # records the pool size and runs each share in this thread
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        real_arrays = montecarlo._arrays
        cfg = TrialConfig(word=Word("HH"), trials=trials, seed=7)
        monkeypatch.setattr(montecarlo, "_SCALAR_BLOCKS", 0)  # every run takes the numpy route
        # no spares, and none kept: the inline shares run one after another,
        # where pool threads would each take a set at once
        monkeypatch.setattr(montecarlo, "_SPARES", [])
        monkeypatch.setattr(montecarlo, "_keep_arrays", lambda arrays: None)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cores)
        monkeypatch.setattr(
            montecarlo, "_arrays", lambda k, size: allocations.append(size) or real_arrays(k, size)
        )
        inline = run_trials(cfg, workers=workers)
        assert sizes == ([] if threads == 1 else [threads])
        assert allocations == [min(trials, 1 << 16)] * threads
        monkeypatch.undo()
        assert inline == run_trials(cfg, workers=1)

    def test_histogram_accounts_for_every_trial(self):
        cfg = TrialConfig(word=Word("HHH"), trials=50_000, seed=11)
        s = run_trials(cfg)
        assert sum(s.histogram.values()) + s.truncated == s.trials
        assert s.count == s.trials - s.truncated

    def test_mean_recomputable_from_histogram(self):
        cfg = TrialConfig(word=Word("HH"), trials=50_000, seed=12)
        s = run_trials(cfg)
        recomputed = sum(n * c for n, c in s.histogram.items()) / s.count
        assert abs(s.mean - recomputed) <= 1e-12

    def test_different_seeds_differ(self):
        cfg_a = TrialConfig(word=Word("HH"), trials=10_000, seed=1)
        cfg_b = TrialConfig(word=Word("HH"), trials=10_000, seed=2)
        assert run_trials(cfg_a).histogram != run_trials(cfg_b).histogram

    def test_no_waiting_time_below_word_length(self):
        cfg = TrialConfig(word=Word("HTH"), trials=20_000, seed=4)
        s = run_trials(cfg)
        assert min(s.histogram) >= 3

    def test_tight_cap_truncates_and_excludes_from_mean(self):
        cfg = TrialConfig(word=Word("HHH"), trials=5_000, seed=8, max_tosses_per_trial=6)
        s = run_trials(cfg)
        assert s.truncated > 0
        assert s.count == s.trials - s.truncated
        assert max(s.histogram) <= 6

    @pytest.mark.parametrize("letters", ["HT", "HH", "HHH"])
    def test_means_within_three_sigma(self, letters):
        w = Word(letters)
        st = moments(w)
        cfg = TrialConfig(word=w, trials=100_000, seed=20250810)
        s = run_trials(cfg)
        band = 3 * st.stddev / math.sqrt(cfg.trials)
        assert abs(s.mean - float(st.mean)) <= band

    def test_empirical_pmf_tracks_exact_pmf_at_a_million_trials(self):
        w = Word("HH")
        trials = 1_000_000
        s = run_trials(TrialConfig(word=w, trials=trials, seed=7))
        for n in range(1, 21):
            p = float(pmf(w, n))
            emp = s.histogram.get(n, 0) / trials
            bound = 5 * math.sqrt(p * (1 - p) / trials)
            assert abs(emp - p) <= bound, f"n={n}"

    @pytest.mark.parametrize("letters", ESSENTIAL)
    def test_default_cap_never_truncates(self, letters):
        cfg = TrialConfig(word=Word(letters), trials=1_000_000, seed=3)
        assert run_trials(cfg).truncated == 0

    def test_huge_cap_allocates_per_chunk_not_per_cap(self, monkeypatch):
        # every trial finishes long before the cap, so the blocks a trial
        # never reaches must never be generated (the whole array would be
        # 256 x 65536 uint64 = 128 MiB); the run is small, so the numpy
        # route is forced
        monkeypatch.setattr(montecarlo, "_SCALAR_BLOCKS", 0)
        cfg = TrialConfig(
            word=Word("HTHH"), trials=256, seed=1, max_tosses_per_trial=1 << 22
        )
        tracemalloc.start()
        try:
            s = run_trials(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.truncated == 0
        assert peak < 4 << 20

    def test_stream_crossing_blocks_is_frozen(self):
        # waiting times run past toss 64 into later blocks; values recorded
        # when the whole block array was generated up front
        cfg = TrialConfig(
            word=Word("HHHHHHH"), trials=3000, seed=9, max_tosses_per_trial=1000
        )
        s = run_trials(cfg)
        s1 = sum(t * c for t, c in s.histogram.items())
        s2 = sum(t * t * c for t, c in s.histogram.items())
        assert (s.count, s.truncated, s1, s2) == (2939, 61, 698715, 289246591)

    def test_all_truncated_summaries_compare_equal(self):
        # mean and variance are NaN here, and NaN != NaN
        cfg = TrialConfig(word=Word("HHHHHHHHHH"), trials=3, seed=3, max_tosses_per_trial=10)
        one = run_trials(cfg, workers=1)
        assert one.truncated == one.trials and math.isnan(one.mean)
        assert one == one
        assert one == run_trials(cfg, workers=1) == run_trials(cfg, workers=2)

    def test_empirical_tail_matches_exact(self):
        w = Word("HHH")
        s = run_trials(TrialConfig(word=w, trials=100_000, seed=42))
        assert abs(s.tail_fraction(30) - float(tail(w, 30))) <= 0.01


class TestShiftAndScan:
    """``_run_chunk`` (numpy arrays) and ``_run_scalar`` (Python ints) against
    the step loop the scan replaced, kept above as the reference."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_step_loop_at_block_edges(self, k):
        for letters in itertools.product("HT", repeat=k):
            w = Word("".join(letters))
            for cap in sorted({k, 63, 64, 65, 127, 128, 129, 512}):
                cfg = TrialConfig(word=w, trials=1000, seed=17, max_tosses_per_trial=cap)
                expected = as_lists(step_loop_chunk(cfg, 100, 700))
                assert as_lists(_run_chunk(cfg, 100, 700)) == expected, (w, cap)
                assert as_lists(_run_scalar(cfg, 100, 700)) == expected, (w, cap)

    @pytest.mark.parametrize("k", [64, 65, 66, 130])
    def test_words_longer_than_a_block(self, k):
        # a window of k tosses reaches back into one or two earlier blocks;
        # the words are read off trial 0's stream so that they do occur
        tosses = stream(5, 0, 4)
        for start in (0, 3, 61):
            w = Word(tosses[start:start + k])
            cfg = TrialConfig(word=w, trials=40, seed=5, max_tosses_per_trial=256)
            scanned = as_lists(_run_chunk(cfg, 0, 40))
            assert scanned == as_lists(step_loop_chunk(cfg, 0, 40))
            assert as_lists(_run_scalar(cfg, 0, 40)) == scanned
            assert scanned[0][0] <= start + k

    @given(
        st.text("HT", min_size=1, max_size=12),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_matches_step_loop(self, letters, seed, cap, lo, n):
        cap = max(cap, len(letters))
        cfg = TrialConfig(word=Word(letters), trials=lo + n, seed=seed, max_tosses_per_trial=cap)
        expected = as_lists(step_loop_chunk(cfg, lo, lo + n))
        assert as_lists(_run_chunk(cfg, lo, lo + n)) == expected
        assert as_lists(_run_scalar(cfg, lo, lo + n)) == expected

    @pytest.mark.parametrize("letters, cap", [("HHH", 100), ("HTTH", 64), ("HHHHHHH", 300)])
    def test_single_trials_match_step_loop(self, letters, cap):
        cfg = TrialConfig(word=Word(letters), trials=64, seed=23, max_tosses_per_trial=cap)
        for i in range(64):
            expected = as_lists(step_loop_chunk(cfg, i, i + 1))
            assert as_lists(_run_chunk(cfg, i, i + 1)) == expected, i
            assert as_lists(_run_scalar(cfg, i, i + 1)) == expected, i

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize(
        "letters, trials, cap",
        [
            ("HTH", 150, 512),
            ("HHHHHHH", 130, 70),  # a cap that truncates, inside the second block
            # 68 letters, read off trial 5's tosses 40..107: the window reaches two blocks back
            (stream(31, 5, 2)[39:107], 20, 200),
        ],
    )
    def test_threads_share_small_chunks(self, monkeypatch, chunk, letters, trials, cap):
        # thread t takes every threads-th chunk and reuses one set of arrays,
        # sliced to the live trials, across chunks of any size
        cfg = TrialConfig(word=Word(letters), trials=trials, seed=31, max_tosses_per_trial=cap)
        expected = _run_scalar(cfg, 0, trials)
        # some trials complete; some truncate, except at the cap of 512
        assert expected[0] and bool(expected[1]) == (cap < 512)
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        for workers in (1, 2, 3):
            assert _run_chunks(cfg, workers) == expected, workers

    # 7084 trials of HTH are 7084 * (1 + 10/64) = 8190.9 expected blocks, 7085 are 8192.03
    @pytest.mark.parametrize("trials, route", [(7084, "_run_scalar"), (7085, "_run_chunks")])
    def test_run_trials_gives_one_summary_on_both_sides_of_the_bound(
        self, monkeypatch, trials, route
    ):
        assert montecarlo._SCALAR_BLOCKS == 8192
        cfg = TrialConfig(word=Word("HTH"), trials=trials, seed=29)
        taken = []
        for name in ("_run_scalar", "_run_chunks"):
            real = getattr(montecarlo, name)
            monkeypatch.setattr(
                montecarlo, name, lambda *a, real=real, name=name: taken.append(name) or real(*a)
            )
        summary = run_trials(cfg, workers=2)
        assert taken == [route]
        scalar = montecarlo._run_scalar(cfg, 0, trials)
        chunks = montecarlo._run_chunks(cfg, 1)
        assert scalar == chunks
        histogram, truncated = scalar
        histogram = dict(sorted(histogram.items()))
        assert summary == EmpiricalSummary(cfg.word, trials, 29, truncated, histogram)


class TestSpareArrays:
    """The store of array sets that ``run_trials`` calls leave for later ones."""

    # 70 letters, read off trial 5's tosses 40..109, so trial 5 completes at toss
    # 109; its window holds three blocks, where HTH's holds two
    LONG = stream(31, 5, 2)[39:109]

    def test_reused_arrays_give_the_summary_of_fresh_ones(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_SCALAR_BLOCKS", 0)  # small runs take the numpy route
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(montecarlo, "_SPARES", [])
        runs = [  # k = 70 -> 3 -> 70, at one chunk and a half, then smaller
            (self.LONG, 70_000, 512), ("HTH", 70_000, 512), (self.LONG, 70_000, 512),
            (self.LONG, 3000, 200), ("HTH", 3000, 200), (self.LONG, 3000, 200),
            ("HHHHHHH", 100, 70), (self.LONG, 100, 512),
        ]
        used = []  # the sets the scans ran in
        real_chunk = montecarlo._run_chunk
        monkeypatch.setattr(
            montecarlo, "_run_chunk",
            lambda cfg, lo, hi, arrays: used.append(id(arrays)) or real_chunk(cfg, lo, hi, arrays),
        )
        rng = np.random.default_rng(5)
        for workers in (1, 2, 3):
            reused = []
            for letters, trials, cap in runs:
                cfg = TrialConfig(Word(letters), trials, 31, cap)
                with monkeypatch.context() as empty:
                    empty.setattr(montecarlo, "_SPARES", [])
                    fresh = run_trials(cfg, workers=workers)
                # whatever earlier scans left in the arrays, made as stale as can be
                for arrays in montecarlo._SPARES:
                    for array in arrays:
                        array[:] = rng.integers(0, 1 << 64, array.size, dtype=np.uint64)
                kept = {id(arrays) for arrays in montecarlo._SPARES}
                used.clear()
                assert run_trials(cfg, workers=workers) == fresh, (letters, trials, workers)
                reused.append(bool(kept & set(used)))
            # the second k = 70 run scans in a set that the first one left
            assert reused[2], workers
        assert fresh.count == 1 and fresh.histogram == {109: 1}  # trial 5 of the long word

    def test_threads_calling_at_once_get_the_serial_summary(self):
        configs = [
            TrialConfig(Word(letters), trials, 17)
            for letters, trials in (("HTH", 70_000), ("HTTHTH", 65_536), ("HH", 98_304),
                                    (self.LONG, 66_000))
        ]
        serial = [run_trials(cfg) for cfg in configs]
        barrier = threading.Barrier(len(configs))

        def call(cfg, workers):
            barrier.wait(timeout=60)  # all four calls start together
            return run_trials(cfg, workers=workers)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads switch often, inside the store's steps too
        try:
            with concurrent.futures.ThreadPoolExecutor(len(configs)) as pool:
                for workers in (1, 2, 1, 2):
                    calls = pool.map(call, configs, [workers] * len(configs), timeout=120)
                    assert list(calls) == serial, workers
        finally:
            sys.setswitchinterval(interval)

    def test_store_keeps_at_most_one_set_per_core(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_SCALAR_BLOCKS", 0)
        monkeypatch.setattr(montecarlo, "_CHUNK", 300)  # runs of 3 chunks take 3 threads
        monkeypatch.setattr(montecarlo, "_SPARES", [])
        for cores in (3, 2, 1):
            monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cores)
            for k, trials, workers in itertools.product((1, 3, 65, 66, 130), (50, 900), (1, 3)):
                run_trials(TrialConfig(Word(("HT" * k)[:k]), trials, 3), workers=workers)
                kept = montecarlo._SPARES
                assert 1 <= len(kept) <= cores
                # the oldest sets go first: the last one is the run's own
                assert [len(kept[-1]), kept[-1][0].size] == [6 + -(-(k - 1) // 64), min(trials, 300)]
                # no array is kept twice, and each set matches one word length and size
                arrays = [id(array) for spare in kept for array in spare]
                assert len(set(arrays)) == len(arrays)
                assert all(len({a.size for a in spare}) == 1 for spare in kept)

    def test_a_repeated_run_allocates_no_arrays(self, monkeypatch):
        real_arrays, allocations = montecarlo._arrays, []
        monkeypatch.setattr(montecarlo, "_SPARES", [])
        monkeypatch.setattr(
            montecarlo, "_arrays", lambda k, size: allocations.append(size) or real_arrays(k, size)
        )
        cfg = TrialConfig(Word("HTH"), 70_000, 3)
        first = run_trials(cfg)
        assert allocations == [1 << 16]
        assert run_trials(cfg) == first and allocations == [1 << 16]
        # another size takes a new set; a longer word's window takes another
        run_trials(TrialConfig(Word("HTH"), 8000, 3))
        run_trials(TrialConfig(Word("H" * 66), 8000, 3))
        assert allocations == [1 << 16, 8000, 8000]


class TestCsv:
    def test_histogram_round_trip(self):
        cfg = TrialConfig(word=Word("HH"), trials=30_000, seed=5)
        s = run_trials(cfg)
        lines = histogram_csv(s).strip().splitlines()
        assert lines[0] == "n,empirical_count,empirical_p,exact_p"
        total = 0
        for line in lines[1:]:
            n, count, emp, exact = line.split(",")
            total += int(count)
            assert Fraction(emp) == Fraction(int(count), s.trials)
            assert Fraction(exact) == pmf(s.word, int(n)).as_fraction()
        assert total == s.count

    def test_histogram_matches_per_bin_pmf_route(self):
        s = run_trials(TrialConfig(word=Word("HTH"), trials=20_000, seed=21))
        per_bin = ["n,empirical_count,empirical_p,exact_p"]
        for n, c in s.histogram.items():
            exact = pmf(s.word, n).as_fraction()
            per_bin.append(f"{n},{c},{Fraction(c, s.trials)},{exact}")
        assert histogram_csv(s) == "\n".join(per_bin) + "\n"

    @pytest.mark.parametrize("letters", ["H", "HT", "HTH", "HHHH", "HTHTTHHTHT"])
    def test_counts_read_at_the_waits_match_the_counts(self, letters):
        """The stepper that ``histogram_csv`` reads, on the count spec and the
        avoidance spec, against the automaton's a(n) and b(m) = 2 b(m-1) - a(m)."""
        w = Word(letters)
        a = automaton_counts(w, 300).values
        b = list(itertools.accumulate(a, lambda prev, an: 2 * prev - an, initial=1))
        waits = sorted({1, 2, len(letters), len(letters) + 1, 11, 64, 65, 299, 300})
        assert _terms_at(builtin_spec(w), waits) == [a[n - 1] for n in waits]
        assert _terms_at(_avoidance_spec(w), waits) == [b[n - 1] for n in waits]

    def test_histogram_of_all_truncated_run_is_header_only(self):
        cfg = TrialConfig(
            word=Word("HHHHHHHHHH"), trials=10, seed=5, max_tosses_per_trial=10
        )
        s = run_trials(cfg)
        assert s.truncated == s.trials and not s.histogram
        assert histogram_csv(s) == "n,empirical_count,empirical_p,exact_p\n"

    def test_summary_line(self):
        cfg = TrialConfig(word=Word("HT"), trials=1_000, seed=6)
        s = run_trials(cfg)
        lines = summary_csv(s).strip().splitlines()
        assert lines[0] == "word,trials,seed,mean,variance,truncated"
        word, trials, seed, mean, variance, truncated = lines[1].split(",")
        assert (word, trials, seed, truncated) == ("HT", "1000", "6", "0")
        assert float(mean) == s.mean
        assert float(variance) == s.variance

    def test_summary_is_reproducible_bytes(self):
        cfg = TrialConfig(word=Word("HTT"), trials=50_000, seed=13)
        a = summary_csv(run_trials(cfg, workers=1))
        b = summary_csv(run_trials(cfg, workers=3))
        assert a == b


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: run_trials(TrialConfig(word=Word("HT"), trials=1, seed=1), workers=0),
            "workers must be >= 1, got 0",
        ),
        (
            lambda: TrialConfig(Word("HT"), trials=1, seed=1, max_tosses_per_trial=2**22 + 1),
            "toss cap above 4194304 is not supported",
        ),
    ],
    ids=["workers=0", "cap=2**22+1"],
)
def test_refusal_pins_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
