import math

import numpy
import pytest

from coinwords import closedform
from coinwords.closedform import (
    RESIDUAL_TOL,
    certify_horizon,
    closed_form_count,
    root_formula_count,
    secondary_term,
    solve_denominator,
)
from coinwords.counting import builtin_spec, extend_counts
from coinwords.genfun import Polynomial, closed_gf
from coinwords.words import Word, all_words

ESSENTIAL = ("HT", "HH", "HHH", "HHT", "HTT", "HTH")

GOLDEN_RATIO_CONJUGATES = ((-1 + math.sqrt(5)) / 2, (-1 - math.sqrt(5)) / 2)

SHORT_WORDS = [w for k in range(1, 9) for w in all_words(k)]
PRIME = 2**31 - 1


def _divide_by_x_minus_one(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient of p(x) / (x - 1) for p(1) = 0, coefficients ascending.

    Synthetic division from the leading coefficient down: each quotient
    coefficient is the running sum of p's coefficients from the top.
    """
    quot = [0] * (len(coeffs) - 1)
    carry = 0
    for i in range(len(coeffs) - 1, 0, -1):
        carry += coeffs[i]
        quot[i - 1] = carry
    assert carry + coeffs[0] == 0, "x - 1 does not divide the polynomial"
    return tuple(quot)


def _gcd_degree_mod_prime(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) over GF(PRIME); coefficients ascending."""

    def trim(p):
        p = [c % PRIME for c in p]
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, PRIME)
        while len(a) >= len(b):
            f = a[-1] * inv
            off = len(a) - len(b)
            for i, c in enumerate(b):
                a[off + i] -= f * c
            a = trim(a)
        a, b = b, a
    return len(a) - 1


def _den_residual(w: Word, z: complex) -> float:
    acc = 0j
    for c in reversed(closed_gf(w).den.coeffs):
        acc = acc * z + float(c)
    return abs(acc)


class TestRoots:
    def test_hhh_smallest_root(self):
        model = solve_denominator(Word("HHH"))
        assert model.roots[0].imag == 0
        assert model.roots[0].real == pytest.approx(0.5436890126920763, abs=1e-10)

    def test_hth_smallest_root(self):
        model = solve_denominator(Word("HTH"))
        assert model.roots[0].real == pytest.approx(0.5698402909980532, abs=1e-10)

    def test_hht_roots_are_one_and_golden_pair(self):
        model = solve_denominator(Word("HHT"))
        got = sorted(z.real for z in model.roots)
        expected = sorted([1.0, *GOLDEN_RATIO_CONJUGATES])
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, abs=1e-10)
        assert all(z.imag == 0 for z in model.roots)

    def test_hh_roots_ordered_smallest_magnitude_first(self):
        model = solve_denominator(Word("HH"))
        x1, x2 = GOLDEN_RATIO_CONJUGATES
        assert model.roots[0].real == pytest.approx(x1, abs=1e-12)
        assert model.roots[1].real == pytest.approx(x2, abs=1e-12)

    @pytest.mark.parametrize("letters", ESSENTIAL)
    def test_residuals_below_tolerance(self, letters):
        w = Word(letters)
        model = solve_denominator(w)
        for z in model.roots:
            assert _den_residual(w, z) <= RESIDUAL_TOL

    def test_roots_match_numpy(self):
        # numpy's companion-matrix solver, an independent reference, on D
        # with its factors of x - 1 divided out
        def key(z):
            return round(z.real, 9), round(z.imag, 9)

        for w in SHORT_WORDS:
            quot = closed_gf(w).den
            while quot(1) == 0:
                quot = Polynomial(_divide_by_x_minus_one(quot.coeffs))
            expected = sorted(map(complex, numpy.roots(quot.coeffs[::-1])), key=key)
            got = sorted((z for z in solve_denominator(w).roots if z != 1), key=key)
            assert len(got) == len(expected), w
            assert max((abs(a - b) for a, b in zip(got, expected)), default=0) <= 1e-14, w

    @pytest.mark.parametrize("letters", ["HHH", "HTH"])
    def test_complex_roots_are_conjugate(self, letters):
        model = solve_denominator(Word(letters))
        b, c = model.roots[1], model.roots[2]
        assert b.imag > 0
        assert abs(b - c.conjugate()) <= 1e-12


class TestClosedFormCount:
    @pytest.mark.parametrize(
        "letters,n,expected", [("HH", 6, 5), ("HHT", 10, 54), ("HHH", 15, 927)]
    )
    def test_known_values(self, letters, n, expected):
        model = solve_denominator(Word(letters))
        assert closed_form_count(model, n) == expected

    def test_hth_small_n_comes_from_initial_values(self):
        model = solve_denominator(Word("HTH"))
        assert closed_form_count(model, 1) == 0
        assert closed_form_count(model, 2) == 0
        assert closed_form_count(model, 3) == 1

    def test_ht_is_n_minus_one(self):
        model = certify_horizon(solve_denominator(Word("HT")), 1000)
        assert closed_form_count(model, 1000) == 999

    def test_rejects_beyond_horizon(self):
        model = solve_denominator(Word("HH"))
        with pytest.raises(ValueError, match="horizon"):
            closed_form_count(model, model.reliability_horizon + 1)

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            closed_form_count(solve_denominator(Word("HH")), 0)

    @pytest.mark.parametrize("letters", ESSENTIAL)
    def test_exact_on_certified_range(self, letters):
        w = Word(letters)
        model = solve_denominator(w)
        exact = extend_counts(builtin_spec(w), model.reliability_horizon)
        for n in range(1, model.reliability_horizon + 1):
            assert closed_form_count(model, n) == exact.at(n)

    def test_complements_share_formulas(self):
        a = solve_denominator(Word("HHT"))
        b = solve_denominator(Word("TTH"))
        assert closed_form_count(a, 12) == closed_form_count(b, 12)


class TestCertifyHorizon:
    def test_hh_probe_70(self):
        model = solve_denominator(Word("HH"))
        assert certify_horizon(model, 70).reliability_horizon >= 60

    def test_hhh_probe_70(self):
        model = solve_denominator(Word("HHH"))
        assert certify_horizon(model, 70).reliability_horizon >= 50

    def test_ht_probe_1000(self):
        model = solve_denominator(Word("HT"))
        assert certify_horizon(model, 1000).reliability_horizon == 1000

    def test_horizon_is_stored_on_the_model(self):
        # on a new model: the one certified to the default probe keeps its horizon
        model = solve_denominator(Word("HH"))
        certified = certify_horizon(model, 40)
        assert (certified.reliability_horizon, model.reliability_horizon) == (40, 69)
        assert (certified.word, certified.roots, certified.weights) == (
            model.word, model.roots, model.weights
        )

    @pytest.mark.parametrize("length", range(1, 9))
    def test_every_word_certifies_fifty_at_probe_70(self, length):
        for w in all_words(length):
            model = solve_denominator(w)
            assert model.reliability_horizon >= 50, w

    def test_double_precision_eventually_fails(self):
        # pushing the probe far enough must stop the horizon short
        model = solve_denominator(Word("HHH"))
        h = certify_horizon(model, 120).reliability_horizon
        assert 50 <= h < 120


class TestSecondaryTerm:
    def test_hh_bound_holds_for_all_small_n(self):
        model = solve_denominator(Word("HH"))
        for n in range(1, model.reliability_horizon + 1):
            assert secondary_term(model, n) < 0.5

    @pytest.mark.parametrize("letters", ESSENTIAL)
    def test_bound_holds_on_certified_range(self, letters):
        model = solve_denominator(Word(letters))
        start = 3 if letters == "HTH" else 1
        for n in range(start, model.reliability_horizon + 1):
            assert secondary_term(model, n) < 0.5, f"{letters} n={n}"

    def test_hth_bound_fails_below_three(self):
        # the restriction to n >= 3 is real: at n = 2 the discarded part
        # is larger than 1/2, which is why small n use the stored values
        model = solve_denominator(Word("HTH"))
        assert secondary_term(model, 2) >= 0.5


class TestRootFormula:
    @pytest.mark.parametrize("letters", ["HHH", "HHT", "HTT", "HTH"])
    def test_rounds_to_exact_counts(self, letters):
        w = Word(letters)
        model = solve_denominator(w)
        exact = extend_counts(builtin_spec(w), 30)
        for n in range(1, 31):
            value = root_formula_count(model, n)
            assert abs(value.imag) < 1e-6
            assert round(value.real) == exact.at(n)

    @pytest.mark.parametrize("letters", ["H", "HT", "TT", "HTHT", "HHTHTTHH"])
    def test_covers_every_length(self, letters):
        w = Word(letters)
        model = solve_denominator(w)
        exact = extend_counts(builtin_spec(w), 30)
        for n in range(1, 31):
            value = root_formula_count(model, n)
            assert abs(value.imag) < 1e-6
            assert round(value.real) == exact.at(n)


class TestUnitRoot:
    def test_present_exactly_without_proper_self_overlap(self):
        for w in SHORT_WORDS:
            model = solve_denominator(w)
            unit = sum(z == 1 for z in model.roots)
            s = w.letters
            overlapping = any(s[i:] == s[: len(s) - i] for i in range(1, len(s)))
            assert unit == (0 if overlapping else 2 if len(w) == 2 else 1), w

    def test_ht_part_is_n_minus_one(self):
        model = solve_denominator(Word("HT"))
        assert (model.unit_slope, model.unit_intercept) == (1, -1)

    def test_hht_part_is_minus_one(self):
        model = solve_denominator(Word("HHT"))
        assert (model.unit_slope, model.unit_intercept) == (0, -1)

    def test_quotient_has_simple_roots_up_to_length_12(self):
        # checked exactly: gcd(Q, Q') is constant over GF(p), and Q's leading
        # coefficient is +-1, so Q is squarefree over the rationals too
        for k in range(1, 13):
            for w in all_words(k):
                if w.letters[0] != "H":
                    continue
                quot = closed_gf(w).den
                while quot(1) == 0:
                    quot = Polynomial(_divide_by_x_minus_one(quot.coeffs))
                q, dq = list(quot.coeffs), list(quot.derivative().coeffs)
                assert len(quot.coeffs) == 1 or _gcd_degree_mod_prime(q, dq) == 0, w

    def test_repeated_root_raises(self, monkeypatch):
        root = GOLDEN_RATIO_CONJUGATES[0]
        monkeypatch.setattr(closedform, "_aberth", lambda coeffs: [root, root])
        with pytest.raises(ArithmeticError, match="repeated root"):
            solve_denominator(Word("HH"))


# The three autocorrelation classes of length <= 16 whose roots stay above
# RESIDUAL_TOL; numpy's companion-matrix roots, Newton-polished, stall at the
# same residuals.
@pytest.mark.parametrize(
    "letters, residual",
    [("HTHTHTHTHTHTHTHT", "1.668e-12"), ("HTHTHHTHTHTHHTHT", "1.340e-12"),
     ("HHHTHHHHHHHHHTHH", "1.296e-12")],
)
def test_refusal_pins_its_message(letters, residual):
    message = f"root finding for {letters} stalled at residual {residual}"
    with pytest.raises(ArithmeticError, match=f"^{message}$"):
        solve_denominator(Word(letters))
