import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwords import montecarlo
from coinwords.counting import transition_table
from coinwords.montecarlo import (
    EmpiricalSummary,
    TrialConfig,
    _run_chunk,
    _toss_block,
    histogram_csv,
    run_trials,
    sample_waiting_time,
    summary_csv,
)
from coinwords.stats import moments, pmf, tail
from coinwords.words import Word

ESSENTIAL = ("HT", "HH", "HHH", "HHT", "HTT", "HTH")


def step_loop_chunk(cfg, lo, hi):
    """Reference for ``_run_chunk``: the prefix automaton stepped one toss
    at a time over the same blocks, toss t reading bit (t - 1) mod 64 of
    block (t - 1) // 64."""
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


def as_lists(chunk):
    values, cnts, truncated = chunk
    return values.tolist(), cnts.tolist(), truncated


class TestSampleWaitingTime:
    def test_trace_hh(self):
        assert sample_waiting_time(Word("HH"), "THH") == 3

    def test_trace_ht(self):
        assert sample_waiting_time(Word("HT"), "HT") == 2

    def test_all_tails_truncates(self):
        assert sample_waiting_time(Word("HH"), "T" * 100, cap=100) is None

    def test_exhausted_stream_truncates(self):
        assert sample_waiting_time(Word("HHH"), "HH") is None

    def test_accepts_bits(self):
        assert sample_waiting_time(Word("HH"), [0, 1, 1]) == 3

    def test_overlap_handled_by_automaton(self):
        # HTH completing at toss 5 after a near miss
        assert sample_waiting_time(Word("HTH"), "HTTHH") is None
        assert sample_waiting_time(Word("HTH"), "THTH") == 4

    def test_rejects_garbage_tosses(self):
        with pytest.raises(ValueError):
            sample_waiting_time(Word("HH"), "HX")

    def test_zero_cap_reads_nothing(self):
        tosses = iter("HHH")
        assert sample_waiting_time(Word("H"), tosses, cap=0) is None
        assert list(tosses) == ["H", "H", "H"]

    def test_completion_at_the_cap_counts(self):
        assert sample_waiting_time(Word("HH"), "THH", cap=3) == 3
        assert sample_waiting_time(Word("HH"), "THH", cap=2) is None

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            sample_waiting_time(Word("H"), "H", cap=-1)


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
        "trials, workers, cores, pool_size",
        [
            (1, 100_000, 64, 1),
            (3 << 16, 100_000, 64, 3),
            (3 << 16, 2, 64, 2),
            (3 << 16, 100_000, 2, 2),
        ],
    )
    def test_pool_is_sized_by_chunks_and_cores(
        self, monkeypatch, trials, workers, cores, pool_size
    ):
        sizes = []

        class InlinePool:  # records the pool size and runs each chunk in this thread
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        cfg = TrialConfig(word=Word("HH"), trials=trials, seed=7)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cores)
        inline = run_trials(cfg, workers=workers)
        assert sizes == [pool_size]
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

    def test_huge_cap_allocates_per_chunk_not_per_cap(self):
        # every trial finishes long before the cap, so the blocks a trial
        # never reaches must never be generated (the whole array would be
        # 256 x 65536 uint64 = 128 MiB)
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
    """``_run_chunk`` against the step loop it replaced, kept above as the
    reference, and against ``sample_waiting_time`` on the decoded stream."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_step_loop_at_block_edges(self, k):
        for letters in itertools.product("HT", repeat=k):
            w = Word("".join(letters))
            for cap in sorted({k, 63, 64, 65, 127, 128, 129, 512}):
                cfg = TrialConfig(word=w, trials=1000, seed=17, max_tosses_per_trial=cap)
                expected = as_lists(step_loop_chunk(cfg, 100, 700))
                assert as_lists(_run_chunk(cfg, 100, 700)) == expected, (w, cap)

    @pytest.mark.parametrize("k", [64, 65, 66, 130])
    def test_words_longer_than_a_block(self, k):
        # a window of k tosses reaches back into one or two earlier blocks;
        # the words are read off trial 0's stream so that they do occur
        blocks = [int(_toss_block(5, np.zeros(1, dtype=np.uint64), j)[0]) for j in range(4)]
        stream = "".join("TH"[(b >> r) & 1] for b in blocks for r in range(64))
        for start in (0, 3, 61):
            w = Word(stream[start:start + k])
            cfg = TrialConfig(word=w, trials=40, seed=5, max_tosses_per_trial=256)
            scanned = as_lists(_run_chunk(cfg, 0, 40))
            assert scanned == as_lists(step_loop_chunk(cfg, 0, 40))
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
        assert as_lists(_run_chunk(cfg, lo, lo + n)) == as_lists(step_loop_chunk(cfg, lo, lo + n))

    @pytest.mark.parametrize("letters, cap", [("HHH", 100), ("HTTH", 64), ("HHHHHHH", 300)])
    def test_agrees_with_sample_waiting_time(self, letters, cap):
        w = Word(letters)
        cfg = TrialConfig(word=w, trials=64, seed=23, max_tosses_per_trial=cap)
        for i in range(64):
            trial = np.array([i], dtype=np.uint64)
            blocks = [int(_toss_block(cfg.seed, trial, j)[0]) for j in range(-(-cap // 64))]
            bits = ((b >> r) & 1 for b in blocks for r in range(64))
            expected = sample_waiting_time(w, bits, cap=cap)
            values, cnts, truncated = as_lists(_run_chunk(cfg, i, i + 1))
            if expected is None:
                assert (values, truncated) == ([], 1)
            else:
                assert (values, cnts, truncated) == ([expected], [1], 0)


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
