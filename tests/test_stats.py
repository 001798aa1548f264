import decimal
import itertools
import math
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwords import stats
from coinwords.counting import _denominator, _overlaps, builtin_spec, counts, extend_counts
from coinwords.genfun import closed_gf
from coinwords.stats import (
    DyadicRational,
    cdf,
    closed_tail,
    moments,
    partial_moment_sums,
    pmf,
    tail,
    threshold,
)
from coinwords.words import Word, all_words, brute_force_count

ESSENTIAL = ("HT", "HH", "HHH", "HHT", "HTT", "HTH")
ALL_BUILTINS = ESSENTIAL + ("TH", "TT", "TTT", "TTH", "THH", "THT")
SHORT_WORDS = [w for k in range(1, 9) for w in all_words(k)]

dyadics_st = st.tuples(
    st.integers(min_value=0, max_value=1 << 20), st.integers(min_value=0, max_value=24)
).map(lambda t: DyadicRational(*t))


class TestDyadicRational:
    def test_canonical_odd_numerator(self):
        d = DyadicRational(4, 4)
        assert (d.numerator, d.exponent) == (1, 2)

    def test_zero_is_canonical(self):
        assert DyadicRational(0, 9) == DyadicRational(0, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="^dyadic numerator must be >= 0, got -1$"):
            DyadicRational(-1, 2)
        with pytest.raises(ValueError, match="^dyadic exponent must be >= 0, got -2$"):
            DyadicRational(1, -2)

    def test_str(self):
        assert str(DyadicRational(7, 6)) == "7/64"
        assert str(DyadicRational(1, 0)) == "1"

    @given(dyadics_st, dyadics_st)
    @settings(max_examples=60, deadline=None)
    def test_comparisons_match_fractions(self, a, b):
        assert (a < b) == (a.as_fraction() < b.as_fraction())
        assert (a <= b) == (a.as_fraction() <= b.as_fraction())

    def test_equality_matches_ordering_across_types(self):
        assert DyadicRational(1, 1) == Fraction(1, 2)
        assert DyadicRational(3, 0) == 3
        assert DyadicRational(1, 2) == 0.25
        assert DyadicRational(1, 1) != Fraction(1, 3)
        assert DyadicRational(1, 1) != "1/2"
        with pytest.raises(TypeError, match="'<' not supported .* 'DyadicRational' and 'str'"):
            DyadicRational(1, 1) < "1/2"
        assert DyadicRational(1, 1) <= Fraction(1, 2) <= DyadicRational(1, 1)
        assert {DyadicRational(2, 2), Fraction(1, 2), 0.5} == {Fraction(1, 2)}

    @given(dyadics_st, dyadics_st)
    @settings(max_examples=60, deadline=None)
    def test_equality_and_hash_match_fractions(self, a, b):
        fa, fb = a.as_fraction(), b.as_fraction()
        assert (a == b) == (fa == fb) == (a == fb) == (fa == b)
        assert (a != fb) == (fa != fb)
        assert hash(a) == hash(fa)
        assert (a <= fb) == (fa <= fb) and (a >= fb) == (fa >= fb)
        assert (a > fb) == (fa > fb) and (fa < b) == (fa < fb)

    @given(dyadics_st)
    @settings(max_examples=60, deadline=None)
    def test_canonical_form(self, a):
        assert a.numerator % 2 == 1 or a.exponent == 0
        assert a.numerator == 0 or a.as_fraction().denominator == 1 << a.exponent

    @given(dyadics_st)
    @settings(max_examples=60, deadline=None)
    def test_float_round_trip(self, a):
        assert float(a) == pytest.approx(float(a.as_fraction()))


class TestPmf:
    @pytest.mark.parametrize(
        "letters,n,expected",
        [
            ("HH", 2, Fraction(1, 4)),
            ("HT", 3, Fraction(1, 4)),
            ("HHH", 6, Fraction(1, 16)),
        ],
    )
    def test_known_values(self, letters, n, expected):
        assert pmf(Word(letters), n).as_fraction() == expected

    def test_matches_enumeration_for_longer_word(self):
        w = Word("HTHT")
        for n in range(1, 11):
            assert pmf(w, n).as_fraction() == Fraction(brute_force_count(w, n), 2**n)


class TestCdf:
    def test_ht_two_tosses(self):
        assert cdf(Word("HT"), 2).as_fraction() == Fraction(1, 4)

    def test_hh_three_tosses(self):
        assert cdf(Word("HH"), 3).as_fraction() == Fraction(3, 8)

    def test_zero_before_word_fits(self):
        assert cdf(Word("HTH"), 2).as_fraction() == 0
        assert cdf(Word("HH"), 0).as_fraction() == 0

class TestTail:
    def test_ht_seven(self):
        value = tail(Word("HT"), 7)
        assert value.as_fraction() == Fraction(7, 64)
        assert str(value) == "7/64"

    def test_hh_twelve(self):
        value = tail(Word("HH"), 12)
        assert value.as_fraction() == Fraction(233, 2048)
        assert float(value) == pytest.approx(0.114, abs=5e-4)

    def test_first_toss_is_certain(self):
        for letters in ("HT", "HHH", "HTHT"):
            assert tail(Word(letters), 1).as_fraction() == 1

    def test_hth_identity_against_enumeration(self):
        # the HTH identity is the delicate one; pin it to raw enumeration too
        w = Word("HTH")
        for n in range(2, 13):
            expected = 1 - sum(
                (Fraction(brute_force_count(w, k), 2**k) for k in range(1, n)),
                Fraction(0),
            )
            assert closed_tail(w, n).as_fraction() == expected

    @pytest.mark.parametrize("letters", ESSENTIAL)
    def test_strictly_decreasing_past_word_length(self, letters):
        w = Word(letters)
        for n in range(len(w), 40):
            assert tail(w, n + 1) < tail(w, n)

    @pytest.mark.parametrize("length", range(1, 9))
    def test_identity_route_agrees_for_every_word(self, length):
        for w in all_words(length):
            for n in range(1, 65):
                assert tail(w, n) == closed_tail(w, n), f"{w} at n={n}"

    def test_identity_route_keeps_k_terms_not_n(self):
        # every avoidance count up to b(19999) held at once peaked at 21.7 MiB
        w = Word("HTH")
        tracemalloc.start()
        try:
            value = closed_tail(w, 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == tail(w, 20000)
        assert peak < 1 << 20


class TestJumpAheadValues:
    """pmf/cdf/tail jump to one term; the linear recurrence is the oracle."""

    def test_hth_at_20000_matches_linear_route(self):
        w, n = Word("HTH"), 20000
        seq = extend_counts(builtin_spec(w), n)
        total = 0
        for v in seq.values:
            total = (total << 1) + v
        assert pmf(w, n) == DyadicRational(seq.at(n), n)
        assert cdf(w, n) == DyadicRational(total, n)
        total -= seq.at(n)
        assert tail(w, n) == DyadicRational((1 << (n - 1)) - (total >> 1), n - 1)
        assert tail(w, n) == closed_tail(w, n)

    @pytest.mark.parametrize("length", range(1, 9))
    def test_tail_is_one_minus_cdf(self, length):
        for w in all_words(length):
            for n in (*range(1, length + 3), 69, 500):
                assert tail(w, n) == 1 - cdf(w, n - 1).as_fraction(), f"{w} at n={n}"

    @pytest.mark.parametrize("length", range(1, 9))
    def test_values_up_to_word_length(self, length):
        for w in all_words(length):
            assert cdf(w, 0) == DyadicRational(0, 0)
            for n in range(1, length):
                assert pmf(w, n) == DyadicRational(0, 0)
                assert cdf(w, n) == DyadicRational(0, 0)
                assert tail(w, n) == DyadicRational(1, 0)
            assert pmf(w, length) == DyadicRational(1, length)
            assert cdf(w, length) == DyadicRational(1, length)
            assert tail(w, length) == DyadicRational(1, 0)


class TestMoments:
    @pytest.mark.parametrize(
        "letters,mean,variance",
        [
            ("HT", 4, 4),
            ("HH", 6, 22),
            ("HHH", 14, 142),
            ("HHT", 8, 24),
            ("HTT", 8, 24),
            ("HTH", 10, 58),
        ],
    )
    def test_exact_values(self, letters, mean, variance):
        st_ = moments(Word(letters))
        assert st_.mean == Fraction(mean)
        assert st_.variance == Fraction(variance)

    @pytest.mark.parametrize(
        "letters,approx", [("HH", 4.7), ("HHT", 4.9), ("HTH", 7.6), ("HHH", 11.9)]
    )
    def test_stddev_decimals(self, letters, approx):
        assert moments(Word(letters)).stddev == pytest.approx(approx, abs=0.05)

    @pytest.mark.parametrize("letters", ESSENTIAL)
    def test_stddev_squares_back(self, letters):
        st_ = moments(Word(letters))
        assert st_.stddev**2 == pytest.approx(float(st_.variance), rel=1e-9)

    @pytest.mark.parametrize("k", [510, 511, 512, 1022, 1023, 1024, 2000])
    @pytest.mark.parametrize("tail_letter", ["H", "T"])
    def test_stddev_past_float_range(self, k, tail_letter):
        # The variance of H^k passes 2**1024 at k = 511 and its root at k = 1023;
        # those of H T^(k-1) one letter later.
        st_ = moments(Word("H" + tail_letter * (k - 1)))
        with decimal.localcontext(prec=50):
            assert st_.stddev == float(decimal.Decimal(int(st_.variance)).sqrt())
        if st_.variance < 2**1023:
            assert st_.stddev == math.sqrt(st_.variance)
        assert math.isinf(st_.stddev) == (k >= (1023 if tail_letter == "H" else 1024))

    @pytest.mark.parametrize(
        "letters,mean,variance",
        [("H", 2, 2), ("HTHT", 20, 276), ("HHHH", 30, 734), ("HHTT", 16, 144)],
    )
    def test_long_and_short_words(self, letters, mean, variance):
        st_ = moments(Word(letters))
        assert (st_.mean, st_.variance) == (mean, variance)

    @pytest.mark.parametrize("letters", ["H", "HT", "HTH", "HHHH", "HTHTTHHTHT"])
    def test_partial_sums_are_the_truncated_sums(self, letters):
        w = Word(letters)
        a = counts(w, 300).values
        for n_max in sorted({1, 2, len(letters), len(letters) + 1, 64, 300}):
            pmf_ = [Fraction(a[n - 1], 1 << n) for n in range(1, n_max + 1)]
            s1 = sum(n * p for n, p in enumerate(pmf_, start=1))
            s2 = sum(n * n * p for n, p in enumerate(pmf_, start=1))
            assert partial_moment_sums(w, n_max) == (s1, s2), n_max

    def test_partial_sums_keep_k_terms_not_n(self):
        # every count up to a(20000) held at once peaked at 21.7 MiB
        w, n_max = Word("HTH"), 20000
        a = extend_counts(builtin_spec(w), n_max).values
        num1 = sum((n * an) << (n_max - n) for n, an in enumerate(a, start=1))
        num2 = sum((n * n * an) << (n_max - n) for n, an in enumerate(a, start=1))
        del a
        tracemalloc.start()
        try:
            sums = partial_moment_sums(w, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sums == (Fraction(num1, 1 << n_max), Fraction(num2, 1 << n_max))
        assert peak < 1 << 20

    def test_partial_sums_refuse_n_max_below_one(self):
        with pytest.raises(ValueError, match="^n_max must be >= 1, got 0$"):
            partial_moment_sums(Word("HT"), 0)

    @pytest.mark.parametrize("length", range(1, 9))
    def test_overlap_sums_match_closed_form_derivatives(self, length):
        half = Fraction(1, 2)
        for w in all_words(length):
            d1 = closed_gf(w).derivative()
            mean = d1(half) / 2
            variance = d1.derivative()(half) / 4 + mean - mean * mean
            st_ = moments(w)
            assert (st_.mean, st_.variance) == (mean, variance), w


class TestThreshold:
    def test_hht_ten_percent(self):
        n = threshold(Word("HHT"), Fraction(1, 10))
        assert n == 15
        assert tail(Word("HHT"), 15).as_fraction() == Fraction(1596, 16384)

    def test_ht_eleven_percent(self):
        assert threshold(Word("HT"), Fraction(11, 100)) == 7

    def test_q_of_one_is_first_toss(self):
        assert threshold(Word("HTH"), 1) == 1

    def test_accepts_decimal_strings_exactly(self):
        assert threshold(Word("HHT"), "0.1") == 15

    def test_result_is_the_smallest_such_n(self):
        w = Word("HTH")
        q = Fraction(1, 10)
        n = threshold(w, q)
        assert tail(w, n) <= q
        assert tail(w, n - 1) > q

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            threshold(Word("HH"), 0)
        with pytest.raises(ValueError):
            threshold(Word("HH"), Fraction(3, 2))

    @pytest.mark.parametrize(
        "letters,q,message",
        [
            ("HTH", Fraction(1, 10**300000),
             "threshold of HTH at q = about 1e-300000 lies past the limit n = 100000 "),
            ("HHH", Fraction(1, 10**4500),
             "threshold of HHH at q = about 1e-4500 lies past the limit n = 100000 "),
            ("HH", Fraction(10**4500), "quantile must satisfy 0 < q <= 1, got about 1e4500"),
            ("HH", Fraction(-2, 3 * 10**4400),
             "quantile must satisfy 0 < q <= 1, got about -6.67e-4401"),
        ],
        ids=["HTH-1e-300000", "HHH-1e-4500", "HH-1e4500", "HH--6.67e-4401"],
    )
    def test_refusal_of_a_q_past_4300_digits_names_its_bound(self, letters, q, message):
        # str(q) would raise Python's own digit-limit error from inside the message
        with pytest.raises(ValueError) as info:
            threshold(Word(letters), q)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize(
        "text",
        ["1e-30105", "2.5E-40000", "-3e-5000", "1e5000", "0.00012e4400", "1_0e-40000",
         "9.999e-30200", " 7e-100000 ", "0e-5000", "1e4299", "1e4300", "-1e-4300", "-1e-4301"],
    )
    def test_refusal_from_the_text_is_the_refusal_of_the_value(self, text):
        # these texts are refused before Fraction reads them, with the message
        # that the value itself gets
        with pytest.raises(ValueError) as from_text:
            threshold(Word("HTH"), text)
        with pytest.raises(ValueError) as from_value:
            threshold(Word("HTH"), Fraction(text))
        assert str(from_text.value) == str(from_value.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1e-10000000", "threshold of HTH at q = about 1e-10000000 lies past the limit "
                            "n = 100000 (the decay model puts it near n = 1.76e+08)"),
            ("1e10000000", "quantile must satisfy 0 < q <= 1, got about 1e10000000"),
            ("-2e-10000000", "quantile must satisfy 0 < q <= 1, got about -2e-10000000"),
        ],
    )
    def test_huge_exponent_is_refused_from_its_text(self, text, message):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            threshold(Word("HTH"), text)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == message

    def test_exponent_inside_the_bounds_is_read_exactly(self):
        # 10**-30103 lies above 2**-100001, so Fraction reads it and the
        # exact path refuses it; HT's tail falls below 10**-30050 before
        # n = 100001, so that q is answered
        with pytest.raises(ValueError, match="at q = about 1e-30103 lies past the limit"):
            threshold(Word("HTH"), "1e-30103")
        assert threshold(Word("HT"), "1e-30050") == threshold(Word("HT"), Fraction(1, 10**30050))
        assert threshold(Word("HH"), "1e-4300") == threshold(Word("HH"), Fraction(1, 10**4300))

    def test_refusal_prints_a_q_of_4300_digits_exactly(self):
        q = Fraction(1, 10**4300 - 1)  # 14285 bits, as many as 10**4300 has
        with pytest.raises(ValueError, match=f"at q = {q} lies past the limit n = 100000"):
            threshold(Word("HHH"), q)


def test_quantile_text_carries_a_mantissa_that_rounds_to_10():
    # 9.999e-4999 rounds to "10" at 3 significant digits
    assert stats._quantile_text(Fraction(9999, 10**5002)) == "about 1e-4998"
    assert stats._quantile_text(-Fraction(9999, 10**5002)) == "about -1e-4998"


def fraction_scan_threshold(w, q):
    """The partial-sum scan over Fraction pmf values that threshold replaced."""
    target = 1 - Fraction(q)
    seq = counts(w, 64)
    partial = Fraction(0)
    for n in itertools.count(1):
        if partial >= target:
            return n
        if n > len(seq):
            seq = counts(w, 2 * len(seq))
        partial += Fraction(seq.at(n), 1 << n)


DEEP_QS = ("1", "0.5", "0.1", "1e-3", "1e-10", "1e-30", "1e-100")
LONG_WORDS = ("HTHT", "HHTT", "HTHHT", "HHHTHH", "HTTHTTH", "HHTHTTHH")


class TestThresholdScan:
    """The integer scan against the Fraction scan it replaced, and the bracket."""

    @pytest.mark.parametrize("letters", ALL_BUILTINS)
    def test_short_words_down_to_1e_100(self, letters):
        w = Word(letters)
        for text in DEEP_QS:
            q = Fraction(text)
            n = threshold(w, q)
            assert n == fraction_scan_threshold(w, q), f"{letters} at q={text}"
            assert tail(w, n) <= q
            assert n == 1 or q < tail(w, n - 1)

    @pytest.mark.parametrize("letters", LONG_WORDS)
    def test_long_words_down_to_1e_6(self, letters):
        w = Word(letters)
        for text in ("1", "0.5", "0.1", "1e-3", "1e-6"):
            q = Fraction(text)
            n = threshold(w, q)
            assert n == fraction_scan_threshold(w, q), f"{letters} at q={text}"
            assert tail(w, n) <= q
            assert n == 1 or q < tail(w, n - 1)

    def test_float_quantile(self):
        w = Word("HHH")
        q = Fraction(1e-100)
        assert threshold(w, 1e-100) == fraction_scan_threshold(w, q)


def integer_scan_threshold(w, q, limit=100_000):
    """The integer scan that threshold ran before it jumped: one recurrence
    step per n on b * q.denominator against q.numerator * 2**(n-1), keeping a
    window of the last k values; None past the limit."""
    q = Fraction(q)
    spec = stats._avoidance_spec(w)
    terms = [(-j, -d) for j, d in enumerate(spec.den) if j and d]
    window = [0] * (len(spec.den) - 1)  # the zero terms below x**0
    bound = q.numerator
    for n in itertools.count(1):
        scaled = sum(c * window[i] for i, c in terms)
        if n <= len(spec.num):
            scaled += spec.num[n - 1] * q.denominator
        window.append(scaled)
        del window[0]
        if scaled <= bound:
            return n
        if n > limit:
            return None
        bound <<= 1


JUMP_QS = ("1", "0.5", "1/3", "0.1", "999/1000", "1e-3", "1e-6")
words_to_12_st = st.lists(st.sampled_from("HT"), min_size=1, max_size=12).map(
    lambda ls: Word("".join(ls))
)


class TestThresholdJumps:
    """The jumps from the decay model's guess against the integer scan they replaced."""

    @pytest.mark.parametrize("length", range(1, 8))
    def test_matches_integer_scan(self, length):
        for w in all_words(length):
            for text in JUMP_QS:
                assert threshold(w, text) == integer_scan_threshold(w, text), f"{w} at q={text}"

    @given(words_to_12_st, st.integers(min_value=0, max_value=30000), st.fractions(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_property_any_q_in_the_bracket(self, w, offset, t):
        n = len(w) + 1 + offset % (30000 - len(w))
        low, high = tail(w, n).as_fraction(), tail(w, n - 1).as_fraction()
        q = low + t * (high - low)
        if q == high:  # t = 1 lands on the bracket's open end
            q = low
        assert threshold(w, q) == n

    @pytest.mark.parametrize("shift", [-40, 40])
    def test_guess_off_by_40_gives_the_same_answers(self, monkeypatch, shift):
        decay = stats._decay
        moved = []

        def off(w):
            ln_a, ln_rate = decay(w)
            moved.append(w)
            return ln_a + shift * ln_rate, ln_rate

        monkeypatch.setattr(stats, "_decay", off)
        for letters in ALL_BUILTINS + LONG_WORDS:
            w = Word(letters)
            for text in ("0.5", "0.1", "1e-3", "1e-6"):
                assert threshold(w, text) == integer_scan_threshold(w, text), f"{w} at q={text}"
        assert len(moved) == 4 * len(ALL_BUILTINS + LONG_WORDS)

    def test_q_below_float_range(self):
        q = Fraction(1, 10**400)
        assert float(q) == 0.0
        assert threshold(Word("HHH"), q) == integer_scan_threshold(Word("HHH"), q) == 10998

    def test_refusal_past_the_limit_takes_one_jump(self, monkeypatch):
        jumps = []
        exact = stats.nth_terms

        def counted(spec, indices):
            jumps.append(indices)
            return exact(spec, indices)

        monkeypatch.setattr(stats, "nth_terms", counted)
        w = Word("H" * 20)
        with pytest.raises(ValueError) as info:
            threshold(w, Fraction(1, 2))
        assert len(jumps) <= 2
        assert str(w) in str(info.value) and "1/2" in str(info.value)
        assert "n = 100000" in str(info.value)

    @pytest.mark.parametrize("letters", ["H" + "T" * 63, "H" * 20])
    def test_long_word_is_refused_without_a_jump(self, monkeypatch, letters):
        jumps = []
        monkeypatch.setattr(stats, "nth_terms", lambda spec, indices: jumps.append(indices))
        message = f"threshold of {letters} at q = 1/2 lies past the limit n = 100000 "
        with pytest.raises(ValueError, match=re.escape(message)):
            threshold(Word(letters), Fraction(1, 2))
        assert jumps == []

    def test_seventeen_letters_still_take_the_jump(self, monkeypatch):
        jumps = []
        exact = stats.nth_terms

        def counted(spec, indices):
            jumps.append(indices)
            return exact(spec, indices)

        monkeypatch.setattr(stats, "nth_terms", counted)
        with pytest.raises(ValueError, match="lies past the limit n = 100000"):
            threshold(Word("H" * 17), Fraction(1, 2))
        assert jumps == [(100000, 100001)]

    @pytest.mark.parametrize("k", range(17, 25))
    def test_every_refusal_without_a_jump_is_confirmed_by_one(self, monkeypatch, k):
        """The union bound refuses only where tail(L) > q, L = 100001."""

        class Jumped(Exception):
            pass

        def no_jump(spec, indices):
            raise Jumped

        exact = stats.nth_terms
        monkeypatch.setattr(stats, "nth_terms", no_jump)
        limit = stats._THRESHOLD_LIMIT + 1
        for letters in ("H" * k, "H" + "T" * (k - 1)):
            w, b = Word(letters), None
            for q in (Fraction(1, 2), Fraction(1, 10)):
                try:
                    threshold(w, q)
                except Jumped:
                    assert k < 18 and q == Fraction(1, 2), f"{w} at q={q}"
                    continue
                except ValueError:
                    pass
                if b is None:
                    (b,) = exact(stats._avoidance_spec(w), (limit,))
                assert b * q.denominator > q.numerator << (limit - 1), f"{w} at q={q}"

    @pytest.mark.parametrize("letters,text,n", [("HTH", "0.1", 21), ("HHH", "1e-100", 2752)])
    def test_answer_is_given_up_to_one_past_the_limit(self, monkeypatch, letters, text, n):
        w = Word(letters)
        monkeypatch.setattr(stats, "_THRESHOLD_LIMIT", n - 1)
        assert threshold(w, text) == n
        monkeypatch.setattr(stats, "_THRESHOLD_LIMIT", n - 2)
        with pytest.raises(ValueError, match=f"n = {n - 2}"):
            threshold(w, text)

    @pytest.mark.parametrize("length", range(1, 9))
    def test_decay_model_matches_the_tail(self, length):
        """r is a root of D, and A (2r)**-(n-1) is the exact tail far out."""
        n = 60 << length
        for w in all_words(length):
            ln_a, ln_rate = stats._decay(w)
            x = math.exp(ln_rate) / 2
            den = _denominator(w, _overlaps(w))
            if sum(den) == 0 and sum(i * d for i, d in enumerate(den)) == 0:
                assert (str(w), ln_a) in (("HT", 0.0), ("TH", 0.0))  # double root at x = 1
                assert x == pytest.approx(1.0, abs=1e-6)
                continue
            value = sum(d * x**i for i, d in enumerate(den))
            slope = sum(i * d * x ** (i - 1) for i, d in enumerate(den))
            assert abs(value) <= 1e-12 * abs(slope), w
            b = tail(w, n)
            ln_tail = math.log(b.numerator) - b.exponent * math.log(2)
            assert ln_tail == pytest.approx(ln_a - (n - 1) * ln_rate, abs=1e-6), w


class TestLandmarks:
    @pytest.mark.parametrize(
        "letters,n", [("HH", 12), ("HHT", 15), ("HTT", 15), ("HTH", 22), ("HHH", 30)]
    )
    def test_tails_near_ten_percent(self, letters, n):
        assert abs(float(tail(Word(letters), n)) - 0.1) <= 0.02


@pytest.mark.parametrize(
    "f, n, message",
    [
        (pmf, 0, "toss index must be >= 1, got 0"),
        (tail, 0, "toss index must be >= 1, got 0"),
        (closed_tail, 0, "toss index must be >= 1, got 0"),
        (cdf, -1, "toss count must be >= 0, got -1"),
    ],
    ids=["pmf", "tail", "closed_tail", "cdf"],
)
def test_refusal_pins_its_message(f, n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        f(Word("HTH"), n)
