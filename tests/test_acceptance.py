"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Timing assertions use the best of several repeats so a scheduler
hiccup cannot fail an otherwise sound build.
"""

import math
import time
from fractions import Fraction

from coinwords.closedform import secondary_term, solve_denominator
from coinwords.counting import (
    ESSENTIAL_WORDS,
    automaton_counts,
    builtin_spec,
    extend_counts,
)
from coinwords.genfun import Polynomial, closed_gf, finite_gf, truncation_remainder
from coinwords.montecarlo import TrialConfig, run_trials
from coinwords.stats import cdf, closed_tail, moments, partial_moment_sums, tail
from coinwords.words import Word, brute_force_count

GOLDEN_ROWS = {
    "HHH": (0, 0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504, 927),
    "HTT": (0, 0, 1, 2, 4, 7, 12, 20, 33, 54, 88, 143, 232, 376, 609),
    "HHT": (0, 0, 1, 2, 4, 7, 12, 20, 33, 54, 88, 143, 232, 376, 609),
    "HTH": (0, 0, 1, 2, 3, 5, 9, 16, 28, 49, 86, 151, 265, 465, 816),
}
EXACT_MOMENTS = {
    "HT": (4, 4),
    "HH": (6, 22),
    "HHH": (14, 142),
    "HHT": (8, 24),
    "HTT": (8, 24),
    "HTH": (10, 58),
}
ALL_TWELVE = [w for e in ESSENTIAL_WORDS for w in (e, e.complement())]


def _report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def _best_time(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_golden_table_exact_and_fast():
    def compute():
        return {
            letters: extend_counts(builtin_spec(Word(letters)), 15).values
            for letters in (*GOLDEN_ROWS, "HT", "HH")
        }

    rows = compute()
    for letters, expected in GOLDEN_ROWS.items():
        assert rows[letters] == expected, letters
    assert rows["HT"][:6] == (0, 1, 2, 3, 4, 5)
    assert rows["HH"][:6] == (0, 1, 1, 2, 3, 5)
    elapsed = _best_time(compute)
    assert elapsed < 1e-3, f"golden table took {elapsed * 1e3:.3f} ms"
    _report(1, f"golden table rows exact, computed in {elapsed * 1e6:.0f} us")


def test_criterion_2_oracle_triangle_to_20():
    start = time.perf_counter()
    for w in ALL_TWELVE:
        rec = extend_counts(builtin_spec(w), 20)
        auto = automaton_counts(w, 20)
        for n in range(1, 21):
            b = brute_force_count(w, n)
            assert rec.at(n) == auto.at(n) == b, f"{w} at n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"oracle triangle took {elapsed:.1f} s"
    _report(2, f"recurrence = automaton = enumeration, 12 words, n <= 20, {elapsed:.1f} s")


def test_criterion_3_exact_moments():
    for letters, (mean, variance) in EXACT_MOMENTS.items():
        for w in (Word(letters), Word(letters).complement()):
            st = moments(w)
            assert st.mean == Fraction(mean), w
            assert st.variance == Fraction(variance), w
    _report(3, "means and variances exactly (4,4) (6,22) (14,142) (8,24) (10,58)")


def test_criterion_4_tail_landmarks_and_identity_routes():
    assert tail(Word("HT"), 7).as_fraction() == Fraction(7, 64)
    for letters, n in (("HH", 12), ("HHT", 15), ("HTT", 15), ("HTH", 22), ("HHH", 30)):
        value = float(tail(Word(letters), n))
        assert abs(value - 0.1) <= 0.02, f"{letters} at N={n}: {value}"
    for w in ALL_TWELVE:
        for n in range(1, 65):
            assert tail(w, n) == closed_tail(w, n), f"{w} at N={n}"
    _report(4, "tail(HT,7) = 7/64; landmark tails within 0.02 of 0.1; routes equal to N = 64")


def test_criterion_5_truncation_identity():
    one = Polynomial((1,))
    for letters in ("HHH", "HHT", "HTT", "HTH"):
        w = Word(letters)
        f = closed_gf(w)
        for m in range(4, 13):
            lhs = finite_gf(w, m) * f.den
            rhs = f.num * (one - truncation_remainder(w, m))
            assert lhs == rhs, f"{letters} at m={m}"
    _report(5, "partial sum x denominator identity exact for m = 4..12, all four classes")


def test_criterion_6_certified_horizons():
    details = []
    for w in ESSENTIAL_WORDS:
        model = solve_denominator(w)
        assert model.reliability_horizon >= 50, f"{w}: {model.reliability_horizon}"
        for n in range(len(w), model.reliability_horizon + 1):
            assert secondary_term(model, n) < 0.5, f"{w} at n={n}"
        details.append(f"{w}={model.reliability_horizon}")
    _report(6, "horizons " + " ".join(details) + ", rounding slack < 1/2 throughout")


def test_criterion_7_truncated_moment_sums():
    tol = Fraction(1, 10**6)
    for w in ESSENTIAL_WORDS:
        st = moments(w)
        s1, s2 = partial_moment_sums(w, 400)
        assert abs(s1 - st.mean) <= tol, w
        assert abs(s2 - (st.variance + st.mean**2)) <= tol, w
    _report(7, "sums to n = 400 match exact mean and second moment within 1e-6")


def test_criterion_8_monte_carlo_bands_and_determinism():
    seed = 20250810
    worst = 0.0
    for w in ESSENTIAL_WORDS:
        st = moments(w)
        cfg = TrialConfig(word=w, trials=100_000, seed=seed)
        start = time.perf_counter()
        summary = run_trials(cfg)
        elapsed = time.perf_counter() - start
        assert elapsed < 5, f"{w} took {elapsed:.2f} s"
        band = 3 * st.stddev / math.sqrt(cfg.trials)
        offset = abs(summary.mean - float(st.mean))
        assert offset <= band, f"{w}: |{summary.mean} - {st.mean}| > {band}"
        worst = max(worst, offset / band)
    cfg = TrialConfig(word=Word("HH"), trials=100_000, seed=seed)
    assert run_trials(cfg, workers=1) == run_trials(cfg, workers=4)
    _report(8, f"1e5-trial means inside 3-sigma bands (worst {worst:.2f} of band); "
               "workers do not change results")


def test_criterion_9_normalization():
    slack = Fraction(1, 10**6)
    for w in ESSENTIAL_WORDS:
        prev = Fraction(0)
        for m in range(1, 201):
            cur = cdf(w, m).as_fraction()
            assert prev <= cur <= 1, f"{w} at m={m}"
            prev = cur
        assert prev >= 1 - slack, f"{w}: cdf(200) = {float(prev)}"
    _report(9, "cdf nondecreasing, <= 1, and >= 1 - 1e-6 at m = 200 for all six words")
