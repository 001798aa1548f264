from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwords.counting import builtin_spec, counts
from coinwords.genfun import (
    Polynomial,
    RationalFunction,
    closed_gf,
    finite_gf,
    truncation_remainder,
)
from coinwords.stats import cdf
from coinwords.words import Word, all_words

HALF = Fraction(1, 2)
SHORT_WORDS = [w for k in range(1, 9) for w in all_words(k)]

fractions_st = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
polys_st = st.lists(fractions_st, min_size=0, max_size=5).map(
    lambda cs: Polynomial(tuple(cs))
)


def same_fraction(f, g):
    """f and g are the same rational function: num_f den_g == num_g den_f."""
    return f.num * g.den == g.num * f.den


def fraction_horner(coeffs, x):
    """Reference evaluation with a Fraction at every Horner step."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert Polynomial((0, 0)).coeffs == ()

    def test_str(self):
        assert str(Polynomial((0, 0, 1, 2))) == "x^2 + 2*x^3"
        assert str(Polynomial((-1, 1, 1))) == "-1 + x + x^2"
        assert str(Polynomial((Fraction(1, 2),))) == "1/2"
        assert str(Polynomial(())) == "0"

    def test_eval_horner(self):
        p = Polynomial((1, -2, 1))  # (1-x)^2
        assert p(HALF) == Fraction(1, 4)
        assert p(1) == 0

    @given(
        st.lists(st.integers(-(10**6), 10**6), max_size=12),
        st.one_of(
            st.integers(-50, 50),
            st.fractions(min_value=-50, max_value=50, max_denominator=1000),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_call_matches_fraction_horner(self, coeffs, x):
        value = Polynomial(tuple(coeffs))(x)
        assert isinstance(value, Fraction)
        assert value == fraction_horner(coeffs, x)

    def test_call_edge_points(self):
        for coeffs in ((), (0,), (7,), (1, -2, 1), (0, 0, 3, -5)):
            for x in (0, -1, Fraction(0), Fraction(-3, 4), Fraction(5, 3)):
                value = Polynomial(coeffs)(x)
                assert isinstance(value, Fraction)
                assert value == fraction_horner(coeffs, x)

    def test_derivative(self):
        assert Polynomial((3, 2, 1)).derivative() == Polynomial((2, 2))
        assert Polynomial((5,)).derivative() == Polynomial(())

    @given(polys_st, polys_st)
    @settings(max_examples=60, deadline=None)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(polys_st, polys_st, polys_st)
    @settings(max_examples=60, deadline=None)
    def test_multiplication_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys_st, polys_st)
    @settings(max_examples=60, deadline=None)
    def test_derivative_product_rule(self, p, q):
        lhs = (p * q).derivative()
        assert lhs == p.derivative() * q + p * q.derivative()


class TestFiniteGf:
    def test_ht_m3(self):
        assert finite_gf(Word("HT"), 3) == Polynomial((0, 0, 1, 2))

    def test_hh_m2(self):
        assert finite_gf(Word("HH"), 2) == Polynomial((0, 0, 1))

    def test_hhh_m6(self):
        assert finite_gf(Word("HHH"), 6) == Polynomial((0, 0, 0, 1, 1, 2, 4))

    @pytest.mark.parametrize("m", [0, -3])
    def test_rejects_degree_below_one_by_name(self, m):
        with pytest.raises(ValueError, match=f"degree m must be >= 1, got {m}"):
            finite_gf(Word("HTH"), m)

    def test_constant_coefficient_is_zero(self):
        assert finite_gf(Word("HTH"), 9).coefficient(0) == 0

    def test_coefficients_are_int(self):
        for w in SHORT_WORDS:
            f = closed_gf(w)
            for p in (finite_gf(w, 20), f.num, f.den):
                assert all(type(c) is int for c in p.coeffs), w

    @pytest.mark.parametrize("length", range(1, 9))
    def test_partial_sum_at_half_is_cdf(self, length):
        for w in all_words(length):
            for m in range(1, 65):
                assert finite_gf(w, m)(HALF) == cdf(w, m).as_fraction(), f"{w} at m={m}"

    def test_partial_probability_nondecreasing_and_bounded(self):
        prev = Fraction(0)
        for m in range(1, 40):
            cur = finite_gf(Word("HTH"), m)(HALF)
            assert prev <= cur <= 1
            prev = cur


class TestClosedGf:
    def test_ht_form(self):
        f = closed_gf(Word("HT"))
        assert f.num == Polynomial((0, 0, -1))
        assert f.den == Polynomial((-1, 2, -1))

    def test_hh_form(self):
        f = closed_gf(Word("HH"))
        assert f.num == Polynomial((0, 0, -1))
        assert f.den == Polynomial((-1, 1, 1))

    def test_hth_form(self):
        f = closed_gf(Word("HTH"))
        assert f.num == Polynomial((0, 0, 0, -1))
        assert f.den == Polynomial((-1, 2, -1, 1))

    def test_hht_form(self):
        f = closed_gf(Word("HHT"))
        assert f.num == Polynomial((0, 0, 0, -1))
        assert f.den == Polynomial((-1, 2, 0, -1))

    def test_complement_shares_the_form(self):
        assert closed_gf(Word("TH")) == closed_gf(Word("HT"))
        assert closed_gf(Word("THT")) == closed_gf(Word("HTH"))

    def test_long_word_form(self):
        f = closed_gf(Word("HTHT"))
        assert f.num == Polynomial((0, 0, 0, 0, -1))
        assert f.den == Polynomial((-1, 2, -1, 2, -1))

    def test_every_form_in_lowest_terms(self):
        # the numerator is -x**k and den(0) = -1, so no common factor exists
        for w in SHORT_WORDS:
            f = closed_gf(w)
            assert f.num == Polynomial((0,) * len(w) + (-1,)), w
            assert f.den(0) == -1, w
            assert len(f.den.coeffs) == len(w) + 1, w


class TestDerivative:
    def test_ht_derivative_reduces_to_known_form(self):
        d = closed_gf(Word("HT")).derivative()
        expected = RationalFunction(
            Polynomial((0, 2)), Polynomial((1, -3, 3, -1))
        )  # 2x / (1-x)^3
        assert same_fraction(d, expected)

    def test_derivative_of_constant_is_zero(self):
        one = RationalFunction(Polynomial((1,)), Polynomial((1,)))
        assert one.derivative().num == Polynomial(())

    def test_hh_derivative_matches_quotient_form(self):
        d = closed_gf(Word("HH")).derivative()
        # -x(x-2) / (x^2+x-1)^2
        num = Polynomial((0, 2, -1))
        den = Polynomial((-1, 1, 1)) * Polynomial((-1, 1, 1))
        assert same_fraction(d, RationalFunction(num, den))

    @pytest.mark.parametrize("length", range(1, 9))
    def test_derivative_series_shifts_counts(self, length):
        # the Taylor coefficient of x**n in f' is (n + 1) a(n + 1)
        for w in all_words(length):
            a = (0, *counts(w, 41).values)
            series = closed_gf(w).derivative().series(40)
            assert series == tuple((n + 1) * a[n + 1] for n in range(41)), w


class TestEval:
    def test_ht_total_probability(self):
        assert closed_gf(Word("HT"))(HALF) == 1

    def test_hh_total_probability(self):
        assert closed_gf(Word("HH"))(HALF) == 1

    def test_monomial_at_zero(self):
        f = RationalFunction(Polynomial((0, 0, 1)), Polynomial((1,)))
        assert f(0) == 0

    def test_pole_raises(self):
        f = closed_gf(Word("HT"))
        with pytest.raises(ZeroDivisionError, match="vanishes at x = 1"):
            f(1)


class TestSeries:
    def test_hh_series(self):
        assert closed_gf(Word("HH")).series(6) == (0, 0, 1, 1, 2, 3, 5)

    def test_hth_series(self):
        assert closed_gf(Word("HTH")).series(7) == (0, 0, 0, 1, 2, 3, 5, 9)

    def test_geometric_series(self):
        f = RationalFunction(Polynomial((1,)), Polynomial((1, -1)))
        assert f.series(3) == (1, 1, 1, 1)

    def test_zero_constant_term_rejected(self):
        f = RationalFunction(Polynomial((1,)), Polynomial((0, 1)))
        with pytest.raises(ValueError, match="constant term"):
            f.series(3)

    @pytest.mark.parametrize("length", range(1, 9))
    def test_every_word_series_matches_counts_to_60(self, length):
        for w in all_words(length):
            assert closed_gf(w).series(60) == (0, *counts(w, 60).values), w


class TestTruncationIdentity:
    @pytest.mark.parametrize("letters", ["HHH", "HHT", "HTT", "HTH"])
    def test_length_three_explicit_form(self, letters):
        # R_m = a(m+1) x^(m-2) + (B a(m) + C a(m-1)) x^(m-1) + C a(m) x^m
        w = Word(letters)
        _, b, c = (-d for d in builtin_spec(w).den[1:])
        a = (0, *counts(w, 13).values)
        for m in range(2, 13):
            expected = Polynomial(
                (0,) * (m - 2) + (a[m + 1], b * a[m] + c * a[m - 1], c * a[m])
            )
            assert truncation_remainder(w, m) == expected, f"{letters} at m={m}"

    def test_remainder_answers_every_length_and_refuses_small_m(self):
        for letters in ("H", "HH", "HTHT"):
            w = Word(letters)
            f = closed_gf(w)
            lowest = max(1, len(w) - 1)
            rhs = f.num * (Polynomial((1,)) - truncation_remainder(w, lowest))
            assert finite_gf(w, lowest) * f.den == rhs
            with pytest.raises(ValueError, match=f"m >= {lowest}"):
                truncation_remainder(w, lowest - 1)

    @pytest.mark.parametrize("length", range(1, 9))
    def test_every_word_identity(self, length):
        one = Polynomial((1,))
        for w in all_words(length):
            f = closed_gf(w)
            for m in range(max(1, length - 1), 14):
                lhs = finite_gf(w, m) * f.den
                rhs = f.num * (one - truncation_remainder(w, m))
                assert lhs == rhs, f"{w} at m={m}"
