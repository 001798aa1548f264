import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwords import counting
from coinwords.cli import main
from coinwords.counting import (
    ESSENTIAL_WORDS,
    CountSequence,
    RecurrenceSpec,
    _avoidance_spec,
    _terms_at,
    automaton_counts,
    builtin_spec,
    counts,
    extend_counts,
    nth_term,
    nth_terms,
    transition_table,
)
from coinwords.words import Word, all_words, brute_force_count

# First 15 terms for the length-3 patterns, frozen from the reference tables.
GOLDEN_ROWS = {
    "HHH": (0, 0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504, 927),
    "HTT": (0, 0, 1, 2, 4, 7, 12, 20, 33, 54, 88, 143, 232, 376, 609),
    "HHT": (0, 0, 1, 2, 4, 7, 12, 20, 33, 54, 88, 143, 232, 376, 609),
    "HTH": (0, 0, 1, 2, 3, 5, 9, 16, 28, 49, 86, 151, 265, 465, 816),
}

words_st = st.lists(st.sampled_from("HT"), min_size=1, max_size=5).map(
    lambda ls: Word("".join(ls))
)
long_words_st = st.lists(st.sampled_from("HT"), min_size=1, max_size=12).map(
    lambda ls: Word("".join(ls))
)


class TestBuiltinSpec:
    @pytest.mark.parametrize(
        "letters,coeffs,init",
        [
            ("HT", (2, -1), (0, 1)),
            ("TH", (2, -1), (0, 1)),
            ("HH", (1, 1), (0, 1)),
            ("TT", (1, 1), (0, 1)),
            ("HHH", (1, 1, 1), (0, 0, 1)),
            ("TTT", (1, 1, 1), (0, 0, 1)),
            ("HHT", (2, 0, -1), (0, 0, 1)),
            ("HTT", (2, 0, -1), (0, 0, 1)),
            ("TTH", (2, 0, -1), (0, 0, 1)),
            ("THH", (2, 0, -1), (0, 0, 1)),
            ("HTH", (2, -1, 1), (0, 0, 1)),
            ("THT", (2, -1, 1), (0, 0, 1)),
            ("H", (1,), (1,)),
            ("HTHT", (2, -1, 2, -1), (0, 0, 0, 1)),
        ],
    )
    def test_table(self, letters, coeffs, init):
        # a(n) = sum(coeffs[i] * a(n-1-i)) from a(1..k) = init = (0, ..., 0, 1):
        # the fraction x**(k-1) / (1 - sum(coeffs[i] * x**(i+1))).
        spec = builtin_spec(Word(letters))
        assert spec.den == (1, *(-c for c in coeffs))
        assert spec.num == init
        assert extend_counts(spec, len(init)).values == init

    @pytest.mark.parametrize("length", range(1, 9))
    def test_every_word_matches_automaton_to_60(self, length):
        for w in all_words(length):
            spec = builtin_spec(w)
            assert len(spec.den) - 1 == length
            assert extend_counts(spec, 60).values == automaton_counts(w, 60).values, w

    def test_single_letter_first_occurs_once_per_length(self):
        assert extend_counts(builtin_spec(Word("H")), 6).values == (1,) * 6

    def test_spec_shape_validation(self):
        for den in ((), (2, -1), (0, 1), (1,), (1, 0, 0)):
            with pytest.raises(ValueError, match="denominator"):
                RecurrenceSpec((0, 1), den)
        zero = RecurrenceSpec((), (1, 0, -1))  # the zero numerator is a valid fraction
        assert extend_counts(zero, 3).values == (0, 0, 0)
        assert nth_term(zero, 1) == nth_term(zero, 5) == 0 and nth_terms(zero, (1, 2)) == (0, 0)


class TestAvoidanceSpec:
    @pytest.mark.parametrize("length", range(1, 9))
    def test_every_word_matches_automaton_to_60(self, length):
        # A length-m record avoids w unless w first ends at toss m:
        # b(m) = 2 b(m-1) - a(m) from b(0) = 1, with a from the automaton.
        for w in all_words(length):
            expected = [1]
            for a in automaton_counts(w, 59).values:
                expected.append(2 * expected[-1] - a)
            spec = _avoidance_spec(w)
            assert extend_counts(spec, 60).values == tuple(expected), w
            assert spec.den == builtin_spec(w).den


def direct_overlaps(letters):
    """Shifts i at which the suffix from letter i is also a prefix."""
    return tuple(i for i in range(len(letters)) if letters.startswith(letters[i:]))


def direct_denominator(k, shifts):
    """D(x) = x**k + c(x) - 2x c(x), one power at a time."""
    c = [int(i in shifts) for i in range(k + 1)]
    return tuple(int(j == k) + c[j] - 2 * (c[j - 1] if j else 0) for j in range(k + 1))


class TestWordMemo:
    """The memo behind _overlaps, builtin_spec and _avoidance_spec."""

    @given(st.lists(st.sampled_from("HT"), min_size=1, max_size=64).map("".join))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_direct_construction(self, letters):
        w, k = Word(letters), len(letters)
        shifts = direct_overlaps(letters)
        den = direct_denominator(k, shifts)
        for _ in range(2):  # a miss, then a hit unless the word was seen before
            assert counting._overlaps(w) == shifts
            assert builtin_spec(w) == RecurrenceSpec((0,) * (k - 1) + (1,), den)
            assert _avoidance_spec(w) == RecurrenceSpec(
                tuple(int(i in shifts) for i in range(k)), den
            )

    def test_stays_within_its_bounds(self):
        counting._derive.cache_clear()
        for w in all_words(11):  # 2048 distinct words
            counting._overlaps(w)
        info = counting._derive.cache_info()
        assert info.currsize == info.maxsize == 1024
        long_word = Word("HT" * 32 + "H")  # 65 letters: past the 64 that are kept
        den = direct_denominator(65, direct_overlaps(long_word.letters))
        assert builtin_spec(long_word).den == den
        assert counting._derive.cache_info() == info  # neither looked up nor kept


class TestExtendCounts:
    def test_hh_first_six(self):
        seq = extend_counts(builtin_spec(Word("HH")), 6)
        assert seq.values == (0, 1, 1, 2, 3, 5)

    def test_ht_first_five(self):
        seq = extend_counts(builtin_spec(Word("HT")), 5)
        assert seq.values == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("letters,row", sorted(GOLDEN_ROWS.items()))
    def test_golden_rows(self, letters, row):
        seq = extend_counts(builtin_spec(Word(letters)), 15)
        assert seq.values == row

    def test_truncation_below_order(self):
        seq = extend_counts(builtin_spec(Word("HHH")), 2)
        assert seq.values == (0, 0)

    def test_at_is_one_indexed(self):
        seq = extend_counts(builtin_spec(Word("HH")), 6)
        assert seq.at(1) == 0 and seq.at(6) == 5
        with pytest.raises(IndexError):
            seq.at(0)


def automaton_terms(w, spec_name, n_max):
    """Terms 1..n_max of ``w``'s count or avoidance spec, from the automaton:
    each of the 2 b(m-1) one-toss extensions of an avoiding record avoids w
    unless w first ends at its last toss, so b(m) = 2 b(m-1) - a(m) from
    b(0) = 1."""
    a = automaton_counts(w, n_max).values
    if spec_name == "count":
        return a
    b = [1]
    for term in a[: n_max - 1]:
        b.append(2 * b[-1] - term)
    return tuple(b)


# Dense D (short periods), sparse D (H T^j), one tap (single letters), up to 64 letters.
STEPPER_WORDS = [
    *("H" * k for k in (1, 2, 5, 20, 64)),
    "T",
    *("HT" * j for j in (1, 5, 32)),
    *("HTT" * j + "H" for j in (1, 7, 21)),
    *("H" + "T" * j for j in (1, 10, 63)),
    "HTHTTHHTHT",
]
SPECS = {"count": builtin_spec, "avoidance": _avoidance_spec}


class TestOneStepper:
    """``_stepped``, the one recurrence loop, against the automaton and the jump."""

    def check(self, letters, spec_name):
        w = Word(letters)
        spec, k = SPECS[spec_name](w), len(letters)
        expected = automaton_terms(w, spec_name, 300)
        assert extend_counts(spec, 300).values == expected, w
        for n in (1, k, 2 * k, 2 * k + 1, 3 * k):  # the window is trimmed past 2k
            assert extend_counts(spec, n).values == expected[:n], f"{w} to n={n}"
        far = (k, 2 * k + 1, 1000, 3000)
        assert _terms_at(spec, far) == [nth_term(spec, n) for n in far], w

    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    @pytest.mark.parametrize("letters", STEPPER_WORDS)
    def test_word_families(self, letters, spec_name):
        self.check(letters, spec_name)

    @given(st.text("HT", min_size=1, max_size=64), st.sampled_from(sorted(SPECS)))
    @settings(max_examples=30, deadline=None)
    def test_random_words(self, letters, spec_name):
        self.check(letters, spec_name)


class TestNthTerm:
    """The jump-ahead term against the linear recurrence, which stays the oracle."""

    @pytest.mark.parametrize("length", range(1, 9))
    def test_matches_linear_recurrence(self, length):
        for w in all_words(length):
            for spec in (builtin_spec(w), _avoidance_spec(w)):
                seq = extend_counts(spec, 1000)
                for n in [*range(1, 3 * length + 3), 64, 257, 1000]:
                    assert nth_term(spec, n) == seq.at(n), f"{w} at n={n}"

    @given(long_words_st, st.integers(min_value=1, max_value=3000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_property_matches_linear_recurrence(self, w, n, avoiding):
        spec = _avoidance_spec(w) if avoiding else builtin_spec(w)
        assert nth_term(spec, n) == extend_counts(spec, n).at(n)

    def test_general_spec(self):
        spec = RecurrenceSpec((2, -1), (1, -1, -1))  # the Lucas numbers, (2 - x)/(1 - x - x**2)
        lucas = (2, 1, 3, 4, 7, 11, 18, 29, 47, 76)
        assert tuple(nth_term(spec, n) for n in range(1, 11)) == lucas
        assert extend_counts(spec, 10).values == lucas

    @pytest.mark.parametrize(
        "num, den, series",
        [
            # partial sums 1, 1+2, 1+2+3, 1+2+3+4, then constant
            ((1, 2, 3, 4), (1, -1), (1, 3, 6, 10, 10, 10, 10, 10)),
            # c(i) = num[i] + c(i-1) + c(i-2)
            ((1, 2, 3, 4, 5), (1, -1, -1), (1, 3, 7, 14, 26, 40, 66, 106)),
        ],
    )
    def test_numerator_longer_than_denominator_degree(self, num, den, series):
        spec = RecurrenceSpec(num, den)
        assert extend_counts(spec, len(series)).values == series
        assert extend_counts(spec, 2).values == series[:2]
        assert tuple(nth_term(spec, n) for n in range(1, len(series) + 1)) == series
        assert nth_terms(spec, tuple(range(1, len(series) + 1))) == series

    def test_rejects_index_below_one(self):
        with pytest.raises(ValueError):
            nth_term(builtin_spec(Word("HH")), 0)


class TestNthTerms:
    """Several jumps on one denominator chain against one jump each."""

    @pytest.mark.parametrize(
        "indices", [(1,), (2, 3), (63, 64), (64, 65), (1000, 1), (5, 4097, 4096, 2)]
    )
    def test_matches_nth_term(self, indices):
        for letters in ("H", "HT", "HHH", "HTHT", "HHTHTTHHTH"):
            for spec in (builtin_spec(Word(letters)), _avoidance_spec(Word(letters))):
                assert nth_terms(spec, indices) == tuple(nth_term(spec, n) for n in indices)

    @given(long_words_st, st.lists(st.integers(1, 3000), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_nth_term(self, w, indices):
        spec = _avoidance_spec(w)
        assert nth_terms(spec, tuple(indices)) == tuple(nth_term(spec, n) for n in indices)

    def test_rejects_index_below_one(self):
        with pytest.raises(ValueError):
            nth_terms(builtin_spec(Word("HH")), (3, 0))

    @pytest.mark.parametrize(
        "den", [(1, -1), (1, -1, -1)] + [counting._denominator(w, counting._overlaps(w))
                                         for w in (Word("HT"), Word("HTH"))],
    )
    def test_zero_numerator_gives_zero_by_every_route(self, den):
        spec = RecurrenceSpec((), den)
        assert extend_counts(spec, 20).values == (0,) * 20
        for n in range(1, 21):
            assert nth_term(spec, n) == 0
            assert nth_terms(spec, (n,)) == (0,)
            if n > 1:
                assert nth_terms(spec, (n - 1, n)) == (0, 0)


def failure_function_table(w: Word) -> list[list[int]]:
    """The automaton built from the longest-suffix-that-is-a-prefix function."""
    letters = w.letters
    size = len(letters)
    fail = [0] * size
    k = 0
    for i in range(1, size):
        while k and letters[i] != letters[k]:
            k = fail[k - 1]
        if letters[i] == letters[k]:
            k += 1
        fail[i] = k
    table = [[0, 0] for _ in range(size + 1)]
    table[0][letters[0] == "H"] = 1
    for s in range(1, size):
        table[s] = list(table[fail[s - 1]])
        table[s][letters[s] == "H"] = s + 1
    table[size] = [size, size]
    return table


class TestAutomaton:
    @pytest.mark.parametrize("length", range(1, 13))
    def test_transition_table_matches_failure_function(self, length):
        for w in all_words(length):
            assert transition_table(w) == failure_function_table(w), w

    def test_transition_table_shape(self):
        table = transition_table(Word("HTH"))
        assert len(table) == 4
        assert table[3] == [3, 3]  # completion state is absorbing

    def test_hhh_matches_golden_row(self):
        assert automaton_counts(Word("HHH"), 15).values == GOLDEN_ROWS["HHH"]

    def test_hh_is_fibonacci_prefix(self):
        seq = automaton_counts(Word("HH"), 10)
        assert seq.values == (0, 1, 1, 2, 3, 5, 8, 13, 21, 34)

    def test_htht_matches_enumeration(self):
        w = Word("HTHT")
        seq = automaton_counts(w, 12)
        for n in range(1, 13):
            assert seq.at(n) == brute_force_count(w, n)

    @given(words_st, st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_enumeration(self, w, n):
        assert automaton_counts(w, n).at(n) == brute_force_count(w, n)

    @given(words_st)
    @settings(max_examples=40, deadline=None)
    def test_complement_invariance(self, w):
        assert (
            automaton_counts(w, 20).values
            == automaton_counts(w.complement(), 20).values
        )

    @given(words_st)
    @settings(max_examples=30, deadline=None)
    def test_counts_bounded_by_two_to_n(self, w):
        seq = automaton_counts(w, 16)
        for n in range(1, 17):
            assert 0 <= seq.at(n) <= 2**n


class TestSequenceIdentities:
    def test_ht_counts_are_n_minus_one(self):
        seq = extend_counts(builtin_spec(Word("HT")), 1000)
        assert all(seq.at(n) == n - 1 for n in range(1, 1001))

    def test_hht_and_htt_sequences_identical(self):
        a = extend_counts(builtin_spec(Word("HHT")), 200)
        b = extend_counts(builtin_spec(Word("HTT")), 200)
        assert a.values == b.values

    def test_hhh_summing_property(self):
        seq = extend_counts(builtin_spec(Word("HHH")), 203)
        for n in range(1, 201):
            assert seq.at(n + 3) == seq.at(n + 2) + seq.at(n + 1) + seq.at(n)

    def test_partial_probability_sums_approach_one(self):
        for w in ESSENTIAL_WORDS:
            seq = extend_counts(builtin_spec(w), 200)
            total = 0
            for v in seq.values:
                total = (total << 1) + v
            # total / 2**200 >= 1 - 1e-6
            assert total * 10**6 >= (10**6 - 1) * (1 << 200)


class TestCountsDispatch:
    def test_engines_by_name(self):
        w = Word("HH")
        assert counts(w, 8, "recurrence").values == counts(w, 8, "automaton").values
        assert counts(w, 8, "brute").values == counts(w, 8).values

    def test_auto_takes_recurrence_for_long_words(self):
        w = Word("HTHT")
        seq = counts(w, 40)
        assert seq.values == extend_counts(builtin_spec(w), 40).values
        assert seq.values == automaton_counts(w, 40).values

    def test_brute_checks_n_max_before_enumerating(self, monkeypatch):
        calls = []

        def recorded(w, n):
            calls.append(n)
            return brute_force_count(w, n)

        monkeypatch.setattr(counting, "brute_force_count", recorded)
        with pytest.raises(ValueError, match=r"toss count 70 would enumerate the 2\*\*67 strings"):
            counts(Word("HTH"), 70, "brute")
        assert calls == [70]
        with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
            counts(Word("HTH"), 0, "brute")
        assert calls == [70]

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            counts(Word("HH"), 5, engine="psychic")


class TestCsv:
    def test_round_trip(self, capsys):
        seq = counts(Word("HTH"), 15)
        assert main(["counts", "HTH", "15", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,a_W(n)"
        parsed = [tuple(map(int, line.split(","))) for line in lines[1:]]
        assert parsed == [(n, seq.at(n)) for n in range(1, 16)]
        rebuilt = CountSequence(tuple(v for _, v in parsed))
        assert rebuilt.values == seq.values
