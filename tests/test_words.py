import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwords.counting import automaton_counts
from coinwords.words import Word, all_words, brute_force_count, parse_word

words_st = st.lists(st.sampled_from("HT"), min_size=1, max_size=6).map(
    lambda ls: Word("".join(ls))
)


def first_occurrence_ends_at(outcome: str, w: Word) -> bool:
    """True iff ``w`` first occurs in ``outcome`` ending exactly at the last toss."""
    p = w.letters
    return outcome.endswith(p) and outcome.find(p) == len(outcome) - len(p)


def enumerate_count(w: Word, n: int) -> int:
    """Definitional oracle: walk every length-n outcome string."""
    return sum(
        first_occurrence_ends_at("".join(s), w)
        for s in itertools.product("HT", repeat=n)
    )


class TestParse:
    def test_basic(self):
        assert parse_word("HT") == Word("HT")

    def test_case_normalization(self):
        assert parse_word("hth") == Word("HTH")

    def test_rejects_bad_character_with_position(self):
        with pytest.raises(ValueError, match="'X' at position 2"):
            parse_word("HXT")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_word("")

    def test_constructor_is_strict(self):
        with pytest.raises(ValueError):
            Word("hth")
        with pytest.raises(ValueError):
            Word("")


class TestComplement:
    @pytest.mark.parametrize(
        "word,expected", [("HH", "TT"), ("HT", "TH"), ("HTH", "THT")]
    )
    def test_examples(self, word, expected):
        assert Word(word).complement() == Word(expected)

    @given(words_st)
    def test_involution(self, w):
        assert w.complement().complement() == w


class TestBruteForce:
    @pytest.mark.parametrize(
        "word,n,expected", [("HT", 3, 2), ("HH", 1, 0), ("HTH", 7, 9)]
    )
    def test_known_counts(self, word, n, expected):
        assert brute_force_count(Word(word), n) == expected

    @pytest.mark.parametrize("letters", ["H", "HT", "HH", "HTH", "HHT", "HTHT"])
    def test_matches_string_enumeration(self, letters):
        w = Word(letters)
        for n in range(1, 11):
            assert brute_force_count(w, n) == enumerate_count(w, n)

    @pytest.mark.parametrize("length", range(1, 7))
    def test_matches_automaton_for_every_short_word(self, length):
        # n runs from below the word's length (no candidates) through n = k
        # (the word alone) to 2**(20 - k) candidates.
        for w in all_words(length):
            auto = automaton_counts(w, 20)
            assert [brute_force_count(w, n) for n in range(1, 21)] == list(auto.values), w

    @pytest.mark.parametrize("letters,n", [("HT", 24), ("HHTHTTHHTH", 32)])
    def test_largest_enumeration_matches_automaton(self, letters, n):
        # 2**22 strings, the most the oracle enumerates
        w = Word(letters)
        assert brute_force_count(w, n) == automaton_counts(w, n).at(n)

    def test_rejects_above_cap(self):
        with pytest.raises(ValueError, match="enumeration limit"):
            brute_force_count(Word("HH"), 25)

    @pytest.mark.parametrize(
        "letters,n,limit",
        [("H", 24, r"limit of 2\*\*22$"), ("T", 24, r"limit of 2\*\*22$")],
        ids=["H-24", "T-24"],
    )
    def test_refusal_names_the_limit(self, letters, n, limit):
        with pytest.raises(ValueError, match=limit):
            brute_force_count(Word(letters), n)

    def test_records_past_62_tosses_answer(self):
        # a record of 63 tosses does not fit an int64; the oracle has no such limit
        w = Word("H" * 50)
        assert brute_force_count(w, 63) == automaton_counts(w, 63).at(63)

    def test_below_the_word_length_answers_zero_past_any_limit(self):
        assert brute_force_count(Word("H" * 30), 25) == 0

    def test_cap_refusal_names_the_strings_it_would_enumerate(self):
        assert brute_force_count(Word("HTH"), 10) == 49
        assert brute_force_count(Word("HTHTHT"), 4) == 0
        with pytest.raises(ValueError, match=r"the 2\*\*23 strings that end in HTH, "):
            brute_force_count(Word("HTH"), 26)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            brute_force_count(Word("HH"), 0)


class TestCountInvariants:
    @given(words_st, st.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_complement_has_equal_counts(self, w, n):
        assert brute_force_count(w, n) == brute_force_count(w.complement(), n)

    @given(st.lists(st.sampled_from("HT"), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_zero_below_length_one_at_length(self, letters):
        w = Word("".join(letters))
        for k in range(1, len(w)):
            assert brute_force_count(w, k) == 0
        assert brute_force_count(w, len(w)) == 1

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_each_outcome_is_first_occurrence_of_exactly_one_word(self, length):
        total = sum(brute_force_count(w, length) for w in all_words(length))
        assert total == 2**length


@pytest.mark.parametrize("length", [0, -1])
def test_refusal_pins_its_message(length):
    with pytest.raises(ValueError, match=f"^word length must be >= 1, got {length}$"):
        next(all_words(length))
