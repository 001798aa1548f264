"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria 2 and 4-7 are cross-checks that ``verify`` runs: they
read its full run, made once for the module, and print the check's detail.
Timing assertions use the best of several repeats so a scheduler hiccup
cannot fail an otherwise sound build.
"""

import math
import re
import time
from fractions import Fraction

import pytest

from coinwords import verify
from coinwords.counting import ESSENTIAL_WORDS, builtin_spec, extend_counts
from coinwords.montecarlo import TrialConfig, run_trials
from coinwords.stats import cdf, moments, tail
from coinwords.words import Word

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


@pytest.fixture(scope="module")
def checks():
    """``verify.run_checks("full")``, run once, by check name."""
    return {r.name: r for r in verify.run_checks("full")}


def _read(checks, name, coverage):
    result = checks[name]
    assert result.passed and coverage in result.detail, f"{name}: {result.detail}"
    return result


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


def test_criterion_2_oracle_triangle_to_20(checks):
    assert verify.WORDS_WITH_COMPLEMENTS == tuple(ALL_TWELVE)
    result = _read(checks, "engine-agreement", "for 12 words, n <= 20")
    assert result.seconds < 30, f"oracle triangle took {result.seconds:.1f} s"
    _report(2, f"{result.detail}, {result.seconds:.1f} s")


def test_criterion_3_exact_moments():
    for letters, (mean, variance) in EXACT_MOMENTS.items():
        for w in (Word(letters), Word(letters).complement()):
            st = moments(w)
            assert st.mean == Fraction(mean), w
            assert st.variance == Fraction(variance), w
    _report(3, "means and variances exactly (4,4) (6,22) (14,142) (8,24) (10,58)")


def test_criterion_4_tail_landmarks_and_identity_routes(checks):
    assert tail(Word("HT"), 7).as_fraction() == Fraction(7, 64)
    for letters, n in (("HH", 12), ("HHT", 15), ("HTT", 15), ("HTH", 22), ("HHH", 30)):
        value = float(tail(Word(letters), n))
        assert abs(value - 0.1) <= 0.02, f"{letters} at N={n}: {value}"
    assert verify.WORDS_WITH_COMPLEMENTS == tuple(ALL_TWELVE)
    routes = _read(checks, "tail-identities", "for 12 words, n <= 64")
    _report(4, f"tail(HT,7) = 7/64; landmark tails within 0.02 of 0.1; {routes.detail}")


def test_criterion_5_truncation_identity(checks):
    # The four classes of length 3 start at m = 2, so m = 4..12 is covered.
    assert set(GOLDEN_ROWS) <= {w.letters for w in verify.ROOT_FORMULA_WORDS}
    result = _read(checks, "truncation-identity", "m = max(2, k-1)..12")
    _report(5, result.detail)


def test_criterion_6_certified_horizons(checks):
    horizons = _read(checks, "closed-form-horizons", "certified horizons: ")
    found = dict(re.findall(r"(\w+)=(\d+)", horizons.detail))
    assert list(found) == [str(w) for w in ESSENTIAL_WORDS], horizons.detail
    assert min(map(int, found.values())) >= 50, horizons.detail
    slack = _read(checks, "rounding-slack", "from n = len(w) across every certified range")
    _report(6, f"{horizons.detail}; {slack.detail}")


def test_criterion_7_truncated_moment_sums(checks):
    result = _read(checks, "moment-sums", "(n <= 400) match the exact moments to 1e-06")
    _report(7, result.detail)


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
