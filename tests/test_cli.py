import contextlib
import json
import re
import sys
import time
from fractions import Fraction

import pytest

from coinwords import closedform, stats, verify
from coinwords.cli import main
from coinwords.closedform import certify_horizon
from coinwords.counting import CountSequence, RecurrenceSpec
from coinwords.genfun import Polynomial
from coinwords.verify import run_checks
from coinwords.words import Word


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def int_digits_unlimited():
    """Lift Python's limit on int <-> str conversion (3.11+) for the block."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestCounts:
    def test_text_row(self, capsys):
        code, out, _ = run_cli(capsys, "counts", "HTH", "15")
        assert code == 0
        assert out.strip() == "0, 0, 1, 2, 3, 5, 9, 16, 28, 49, 86, 151, 265, 465, 816"

    def test_word_and_n_as_flags(self, capsys):
        code, out, _ = run_cli(capsys, "counts", "--word", "HH", "--n-max", "6")
        assert code == 0
        assert out.strip() == "0, 1, 1, 2, 3, 5"

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "counts", "HH", "6", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,a_W(n)"
        values = tuple(int(line.split(",")[1]) for line in lines[1:])
        assert values == (0, 1, 1, 2, 3, 5)

    def test_csv_is_byte_stable(self, capsys):
        code, out, _ = run_cli(capsys, "counts", "HH", "6", "--format", "csv")
        assert code == 0
        assert out == "n,a_W(n)\n1,0\n2,1\n3,1\n4,2\n5,3\n6,5\n"

    def test_engines_agree_for_long_word(self, capsys):
        _, auto_out, _ = run_cli(capsys, "counts", "HTHT", "10", "--engine", "automaton")
        _, brute_out, _ = run_cli(capsys, "counts", "HTHT", "10", "--engine", "brute")
        assert auto_out == brute_out

    def test_recurrence_engine_answers_long_word(self, capsys):
        argv = ("counts", "HTHT", "10", "--engine")
        code, rec_out, _ = run_cli(capsys, *argv, "recurrence")
        _, auto_out, _ = run_cli(capsys, *argv, "automaton")
        assert code == 0
        assert rec_out == auto_out
        assert rec_out.strip() == "0, 0, 0, 1, 2, 3, 6, 12, 22, 41"

    def test_invalid_word_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "counts", "HXT", "15")
        assert code == 2
        assert "'X' at position 2" in err

    def test_brute_refuses_n_max_past_cap_before_enumerating(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "counts", "HTH", "70", "--engine", "brute")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert "toss count 70 would enumerate the 2**67 strings that end in HTH" in err

    def test_brute_refuses_zero_n_max_like_other_engines(self, capsys):
        for engine in ("recurrence", "automaton", "brute"):
            code, out, err = run_cli(capsys, "counts", "HTH", "0", "--engine", engine)
            assert code == 2 and out == "", engine
            assert "n_max must be >= 1, got 0" in err, engine

    def test_lowercase_word_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "counts", "hh", "6")
        assert code == 0
        assert out.strip() == "0, 1, 1, 2, 3, 5"


class TestTable:
    def test_text_contains_all_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        assert "HHH" in out and "927" in out and "816" in out

    def test_csv_round_trip_and_identical_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["word", "A", "B", "C"]
        assert len(header) == 19
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["HHH"][1:4] == ["1", "1", "1"]
        assert rows["HHH"][-1] == "927"
        assert rows["HTT"][1:] == rows["HHT"][1:]
        assert rows["HTH"][1:4] == ["2", "-1", "1"]

    def test_csv_is_byte_stable(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--format", "csv")
        _, second, _ = run_cli(capsys, "table", "--format", "csv")
        assert first == second


class TestGf:
    def test_prints_both_forms(self, capsys):
        code, out, _ = run_cli(capsys, "gf", "HH", "--m", "6")
        assert code == 0
        assert "partial m=6: x^2 + x^3 + 2*x^4 + 3*x^5 + 5*x^6" in out
        assert "closed: (-x^2)/(-1 + x + x^2)" in out

    def test_long_word_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "gf", "HTHT", "--m", "6")
        assert code == 0
        assert "partial m=6: x^4 + 2*x^5 + 3*x^6" in out
        assert "closed: (-x^4)/(-1 + 2*x - x^2 + 2*x^3 - x^4)" in out

    def test_zero_degree_names_m(self, capsys):
        code, out, err = run_cli(capsys, "gf", "HTH", "--m", "0")
        assert code == 2 and out == ""
        assert err == "coinwords: error: partial-sum degree m must be >= 1, got 0\n"


class TestStats:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "HHT")
        assert code == 0
        assert "mean=8 variance=24" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "HTH", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "word,mean,variance,stddev"
        word, mean, variance, stddev = lines[1].split(",")
        assert (word, mean, variance) == ("HTH", "10", "58")
        assert float(stddev) == pytest.approx(58**0.5)

    def test_long_word(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "HTHT")
        assert code == 0
        assert "mean=20 variance=276" in out

    @pytest.mark.parametrize("k", [510, 511, 1023, 1024, 2000])
    @pytest.mark.parametrize("tail_letter", ["H", "T"])
    def test_variance_past_float_range(self, capsys, k, tail_letter):
        w = Word("H" + tail_letter * (k - 1))
        code, out, _ = run_cli(capsys, "stats", w.letters)
        st = stats.moments(w)
        assert code == 0
        assert out == f"word={w} mean={st.mean} variance={st.variance} stddev={st.stddev}\n"


class TestTail:
    def test_text_exact_and_float(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "HT", "7")
        assert code == 0
        assert out.strip() == "7/64 (0.109375)"

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "HH", "12", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "word,N,tail_exact_num,tail_exact_den,tail_float"
        word, n, num, den, fl = lines[1].split(",")
        assert (word, n, num, den) == ("HH", "12", "233", "2048")
        assert float(fl) == pytest.approx(233 / 2048)


class TestThreshold:
    def test_decimal_q(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "HHT", "0.1")
        assert code == 0
        assert out.startswith("N=15 ")

    def test_fraction_q(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "HT", "11/100")
        assert code == 0
        assert out.startswith("N=7 ")

    @pytest.mark.parametrize("q", ["1/0", "abc", "1/2/3"])
    def test_malformed_q_is_usage_error(self, capsys, q):
        code, out, err = run_cli(capsys, "threshold", "HTH", q)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"coinwords: error: Q must be a fraction or decimal, got {q!r}"]

    @pytest.mark.parametrize("q", ["0", "3/2", "-0.1"])
    def test_q_outside_unit_interval_is_domain_error(self, capsys, q):
        code, out, err = run_cli(capsys, "threshold", "HTH", q)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "0 < q <= 1" in err

    def test_answer_past_4300_digits_prints_in_text(self, capsys):
        # the README's example: the tail at N = 28158 has 8477-digit terms
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(capsys, "threshold", "HHHHHHHHHH", "1e-6")
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        n, value, approx = re.fullmatch(r"N=(\d+) tail=(\d+/\d+) \((.+)\)\n", out).groups()
        w = Word("HHHHHHHHHH")
        assert int(n) == 28158 == stats.threshold(w, Fraction("1e-6"))
        with int_digits_unlimited():
            assert Fraction(value) == stats.tail(w, 28158).as_fraction()
        assert float(approx) == float(stats.tail(w, 28158))

    def test_answer_past_4300_digits_prints_in_csv(self, capsys):
        code, out, err = run_cli(capsys, "threshold", "HH", "1e-5000", "--format", "csv")
        assert (code, err) == (0, "")
        header, row = out.splitlines()
        assert header == "word,q,N,tail_exact_num,tail_exact_den,tail_float"
        word, q, n, num, den, approx = row.split(",")
        assert (word, int(n)) == ("HH", stats.threshold(Word("HH"), Fraction("1e-5000")))
        with int_digits_unlimited():
            assert Fraction(q) == Fraction("1e-5000")
            assert Fraction(int(num), int(den)) == stats.tail(Word("HH"), int(n)).as_fraction()
        assert float(approx) == float(stats.tail(Word("HH"), int(n)))

    def test_q_of_more_than_4300_digits_parses(self, capsys):
        text = "0." + "0" * 4400 + "1"
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(capsys, "threshold", "HTH", text)
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        n, value = re.fullmatch(r"N=(\d+) tail=(\d+/\d+) \(.+\)\n", out).groups()
        w = Word("HTH")
        with int_digits_unlimited():
            q = Fraction(text)
            assert int(n) == 77509 == stats.threshold(w, q)
            assert Fraction(value) == stats.tail(w, 77509).as_fraction()

    def test_refusal_of_a_q_past_4300_digits_names_the_limit(self, capsys):
        code, out, err = run_cli(capsys, "threshold", "HTH", "1e-300000")
        assert (code, out) == (2, "")
        assert err.startswith(
            "coinwords: error: threshold of HTH at q = about 1e-300000 lies past the limit n = 100000 "
        )
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "q, message",
        [
            ("1e-10000000", "threshold of HTH at q = about 1e-10000000 lies past the limit "
                            "n = 100000 (the decay model puts it near n = 1.76e+08)"),
            ("1e10000000", "quantile must satisfy 0 < q <= 1, got about 1e10000000"),
        ],
        ids=["past-the-limit", "above-1"],
    )
    def test_q_is_refused_from_its_exponent(self, capsys, q, message):
        # Fraction(q) alone would build 10**10000000, which takes seconds
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "threshold", "HTH", q)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", f"coinwords: error: {message}\n")

    def test_past_the_scan_limit_is_domain_error(self, capsys, monkeypatch):
        monkeypatch.setattr(stats, "_THRESHOLD_LIMIT", 50)
        code, out, err = run_cli(capsys, "threshold", "HHHHHHHHHH", "0.5")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "HHHHHHHHHH" in err and "1/2" in err and "n = 50" in err


class TestSimulate:
    def test_seeded_output_is_reproducible(self, capsys):
        argv = ("simulate", "HH", "--trials", "20000", "--seed", "9")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_worker_count_does_not_change_output(self, capsys):
        base = ("simulate", "HTH", "--trials", "150000", "--seed", "3")
        _, one, _ = run_cli(capsys, *base, "--workers", "1")
        _, four, _ = run_cli(capsys, *base, "--workers", "4")
        assert one == four

    def test_long_word_prints_exact_moments(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "HTHT", "--trials", "5000", "--seed", "2")
        assert code == 0
        assert "exact_mean=20 " in out
        assert "exact_variance=276 " in out

    def test_text_past_float_range(self, capsys):
        # H^511's variance is above 2**1024: its float shows as inf
        code, out, _ = run_cli(capsys, "simulate", "H" * 511, "--trials", "200")
        assert code == 0
        assert out.splitlines()[1:] == [
            "completed=0 truncated=200",
            f"empirical_mean=nan exact_mean={2**512 - 2} ({float(2**512 - 2)})",
            f"empirical_variance=nan exact_variance={stats.moments(Word('H' * 511)).variance} (inf)",
        ]

    def test_csv_blocks_parse(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "HT", "--trials", "10000", "--seed", "1",
            "--format", "csv",
        )
        assert code == 0
        summary_block, hist_block = out.split("\n\n", 1)
        s_lines = summary_block.splitlines()
        assert s_lines[0] == "word,trials,seed,mean,variance,truncated"
        fields = s_lines[1].split(",")
        assert fields[0] == "HT" and fields[1] == "10000"
        h_lines = hist_block.strip().splitlines()
        assert h_lines[0] == "n,empirical_count,empirical_p,exact_p"
        counts = [int(row.split(",")[1]) for row in h_lines[1:]]
        assert sum(counts) + int(fields[5]) == 10000
        # exact column carries exact rationals
        assert Fraction(h_lines[1].split(",")[3]) == Fraction(1, 4)


class TestVerifyCommand:
    def test_unknown_depth_is_refused(self):
        with pytest.raises(ValueError, match="^depth must be 'quick' or 'full', got 'deep'$"):
            run_checks("deep")

    @pytest.mark.parametrize(
        "flag, depth, brute_n, max_len", [("--quick", "quick", 14, 4), ("--full", "full", 20, 5)]
    )
    def test_report_is_pinned_line_by_line(self, capsys, flag, depth, brute_n, max_len):
        code, out, _ = run_cli(capsys, "verify", flag)
        assert code == 0 and out.endswith("\n")
        lines = out.splitlines()
        # The horizons come from float roots, so only their form is pinned.
        assert re.fullmatch(
            r"PASS closed-form-horizons: certified horizons: "
            r"HT=\d+ HH=\d+ HHH=\d+ HHT=\d+ HTT=\d+ HTH=\d+",
            lines.pop(6),
        )
        assert lines == [
            "PASS reference-counts: all frozen rows reproduced",
            "PASS engine-agreement: recurrence = automaton = enumeration for 12 words, "
            f"n <= {brute_n}",
            "PASS complement-symmetry: counts invariant under H<->T for lengths "
            f"<= {max_len}, n <= 20",
            "PASS tail-identities: tail by jump-ahead to b(n-1) equals the avoidance "
            "recurrence run term by term for 12 words, n <= 64",
            "PASS cdf-vs-partial-sum: cdf equals the partial sum evaluated at 1/2 for m <= 64",
            "PASS truncation-identity: partial sum times denominator matches for 9 words "
            "of lengths 1-8, m = max(2, k-1)..12",
            "PASS rounding-slack: discarded term stays below 1/2 from n = len(w) across "
            "every certified range",
            "PASS root-residuals: the roots, x = 1 included, rebuild the coefficients of D "
            "to 1e-12 for 6 words",
            "PASS root-formula: partial-fraction sum over the roots of D rounds to the "
            "exact counts for 9 words of lengths 1-8, n <= 30",
            "PASS moment-sums: truncated moment sums (n <= 400) match the exact moments "
            "to 1e-06",
            "PASS normalization: cdf nondecreasing, <= 1, and >= 1 - 1e-06 by m = 200",
            f"12/12 checks passed ({depth})",
        ]

    def test_json_records_match_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        records = json.loads(out)
        _, text, _ = run_cli(capsys, "verify")
        text_names = [line.split(":")[0].split(" ", 1)[1] for line in text.splitlines()[:-1]]
        assert len(records) == 12
        assert [r["name"] for r in records] == text_names
        for r in records:
            assert set(r) == {"name", "passed", "detail", "seconds"}
            assert r["passed"] is True and r["seconds"] > 0


    @pytest.mark.parametrize("depth", ["quick", "full"])
    def test_run_solves_each_word_once(self, monkeypatch, depth):
        solved = []

        def counted(w):
            solved.append(w)
            return closedform.solve_denominator(w)

        monkeypatch.setattr(verify, "solve_denominator", counted)
        assert all(r.passed for r in run_checks(depth))
        assert sorted(solved, key=str) == sorted(verify.ROOT_FORMULA_WORDS, key=str)
        assert len(solved) == 9


def reference_normalization(m_max, slack):
    """The normalization check built on one Fraction per term, as a test-local
    oracle for verify's integer version: same verdicts, same details."""
    for w in verify.ESSENTIAL_WORDS:
        avoid = verify.extend_counts(stats._avoidance_spec(w), m_max + 1)
        stepped = [Fraction((1 << m) - b, 1 << m) for m, b in enumerate(avoid.values)]
        jumped = verify.cdf(w, m_max)
        if jumped != stepped[m_max]:
            return False, (
                f"{w} at m={m_max}: jump-ahead gives {jumped}, "
                f"term-by-term gives {stepped[m_max]}"
            )
        for m in range(1, m_max + 1):
            if stepped[m] < stepped[m - 1] or stepped[m] > 1:
                return False, f"{w} at m={m}"
        if stepped[m_max] < 1 - slack:
            return False, f"{w}: cdf({m_max}) = {float(stepped[m_max])}"
    return True, f"cdf nondecreasing, <= 1, and >= 1 - {float(slack):g} by m = {m_max}"


# check name -> (the input in verify's namespace, its corruption, the failing detail)
CORRUPTED_INPUTS = {
    # a remainder one term short
    "truncation-identity": (
        "truncation_remainder",
        lambda exact: lambda w, m: Polynomial(exact(w, m).coeffs[:-1]),
        "HT at m=2",
    ),
    # a solver that certifies only to n = 49
    "closed-form-horizons": (
        "solve_denominator",
        lambda exact: lambda w: certify_horizon(exact(w), 49),
        "HT certified only to 49 < 50",
    ),
    # a discarded term of exactly 1/2, where rounding can go either way
    "rounding-slack": (
        "secondary_term",
        lambda exact: lambda model, n: 0.5 if n == 20 else exact(model, n),
        "HT at n=20",
    ),
    # sums cut at n = 100: HH's second moment is still 8e-6 short
    "moment-sums": ("partial_moment_sums", lambda exact: lambda w, n: exact(w, n // 4), "HH"),
    # an automaton that runs one term too far for 5-letter words that start with T,
    # which only the length-5 sweep reaches
    "complement-symmetry": (
        "automaton_counts",
        lambda exact: lambda w, n: exact(w, n + (len(w) == 5 and w.letters[0] == "T")),
        "HHHHH vs TTTTT",
    ),
    # a partial-fraction sum that is off the real axis
    "root-formula": (
        "root_formula_count",
        lambda exact: lambda model, n: exact(model, n) + 1e-3j,
        "HT at n=1: imag 1.00e-03",
    ),
}


class TestNegativeControl:
    SLACK = Fraction(1, 10**6)

    def test_normalization_matches_fraction_reference(self):
        tight = Fraction(1, 10**80)  # HT's b(200)/2**200 is ~1e-58
        check = verify._check_normalization
        assert check(200, self.SLACK) == reference_normalization(200, self.SLACK)
        assert check(200, tight) == reference_normalization(200, tight)
        assert check(200, tight) == (False, "HT: cdf(200) = 1.0")

    def test_broken_cdf_fails_normalization_with_the_same_detail(self, monkeypatch):
        monkeypatch.setattr(verify, "cdf", lambda w, m: stats.DyadicRational(0, 0))
        passed, detail = verify._check_normalization(200, self.SLACK)
        assert (passed, detail) == reference_normalization(200, self.SLACK)
        b = verify.extend_counts(stats._avoidance_spec(Word("HT")), 201).at(201)
        assert detail == (
            f"HT at m=200: jump-ahead gives 0, term-by-term gives "
            f"{Fraction(2**200 - b, 2**200)}"
        )

    @pytest.mark.parametrize(
        "index, value, detail",
        [
            (50, lambda b: 2 * b[49] + 1, "HT at m=50"),  # cdf falls at m = 50
            (100, lambda b: -1, "HT at m=100"),  # cdf above 1
            (200, lambda b: 2**200 + 1, None),  # cdf(200) negative: the jump disagrees
        ],
    )
    def test_broken_avoidance_counts_fail_normalization_as_before(
        self, monkeypatch, index, value, detail
    ):
        exact = verify.extend_counts

        def corrupted(spec, n_max):
            seq = exact(spec, n_max)
            values = list(seq.values)
            values[index] = value(values)
            return CountSequence(tuple(values))

        monkeypatch.setattr(verify, "extend_counts", corrupted)
        result = verify._check_normalization(200, self.SLACK)
        assert result == reference_normalization(200, self.SLACK)
        assert not result[0]
        if detail is not None:
            assert result[1] == detail

    def test_corrupted_recurrence_fails_named_checks(self, monkeypatch):
        broken = RecurrenceSpec((0, 1), (1, -1, -2))  # a(n) = a(n-1) + 2 a(n-2)
        exact = verify.builtin_spec
        monkeypatch.setattr(
            verify, "builtin_spec", lambda w: broken if w.letters == "HH" else exact(w)
        )
        results = run_checks(depth="quick")
        failures = {r.name for r in results if not r.passed}
        assert "reference-counts" in failures
        assert "engine-agreement" in failures
        # untouched checks keep passing
        assert all(r.passed for r in results if r.name == "moment-sums")

    def test_corrupted_jump_fails_checks_that_read_it(self, monkeypatch):
        exact = stats.nth_term
        monkeypatch.setattr(
            stats, "nth_term", lambda spec, n: exact(spec, n) + (n > 40)
        )
        results = {r.name: r for r in run_checks(depth="quick")}
        for name in ("tail-identities", "cdf-vs-partial-sum", "normalization"):
            assert not results[name].passed, name
        assert results["moment-sums"].passed

    def test_corrupted_stepped_sequence_fails_tail_identities(self, monkeypatch):
        exact = verify.extend_counts

        def corrupted(spec, n_max):
            seq = exact(spec, n_max)
            if n_max <= 30:
                return seq
            values = list(seq.values)
            values[30] += 1  # the term at n = 31
            return CountSequence(tuple(values))

        monkeypatch.setattr(verify, "extend_counts", corrupted)
        results = {r.name: r for r in run_checks(depth="quick")}
        assert not results["tail-identities"].passed
        assert "at n=31" in results["tail-identities"].detail

    def test_wrong_avoidance_spec_fails_tail_identities(self, monkeypatch):
        # HH given HT's avoidance counts b(m) = m + 1: the jump and the steps
        # agree with each other, so only the automaton can catch it.
        wrong, exact = stats._avoidance_spec(Word("HT")), stats._avoidance_spec

        def patched(w):
            return wrong if w.letters == "HH" else exact(w)

        monkeypatch.setattr(stats, "_avoidance_spec", patched)
        monkeypatch.setattr(verify, "_avoidance_spec", patched)
        passed, detail = verify._check_tail_routes(64)
        assert not passed
        assert detail == "HH at n=4: the automaton gives b(3) = 5, term-by-term gives 4"

    @pytest.mark.parametrize(
        "mangle, detail",
        [
            # the smallest real root: x = 1 of HT's double root
            (lambda pairs: pairs[1:], "HT: D has degree 2, the model 1 roots"),
            # one member of a conjugate pair; HHH is the first word that has one
            (
                lambda pairs: pairs[:-1] if pairs[-1][0].imag else pairs,
                "HHH: D has degree 3, the model 2 roots",
            ),
            # a root in place of another: every residual stays tiny
            (
                lambda pairs: pairs[:1] * 2 if len(pairs) == 2 else pairs,
                "HH: the roots rebuild D only to within 2.24e+00",
            ),
        ],
        ids=["real-root-dropped", "conjugate-dropped", "root-repeated"],
    )
    def test_lost_or_repeated_root_fails_root_residuals(self, monkeypatch, mangle, detail):
        # _ordered returns the model's (root, weight) pairs
        exact = closedform._ordered
        monkeypatch.setattr(closedform, "_ordered", lambda poles: mangle(exact(poles)))
        assert verify._check_roots(closedform.solve_denominator) == (False, detail)

    @pytest.mark.parametrize("name", CORRUPTED_INPUTS)
    def test_corrupted_input_fails_the_check_that_reads_it(self, monkeypatch, name):
        attribute, corrupt, detail = CORRUPTED_INPUTS[name]
        monkeypatch.setattr(verify, attribute, corrupt(getattr(verify, attribute)))
        failed = {r.name: r.detail for r in run_checks("full") if not r.passed}
        assert failed == {name: detail}


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["counts", "HH", "6", "--frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_word_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "counts")
        assert code == 1
        assert "word is required" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("counts", "HH", "5", "--word", "HT"), "a word given twice"),
            (("counts", "HH", "5", "--n-max", "6"), "a toss count given twice"),
            (("tail", "HTH", "5", "--n-max", "7"), "a toss index given twice"),
            (("threshold", "HTH", "1/2", "--q", "1/4"), "a quantile given twice"),
            (("counts", "HH"), "a toss count is required"),
            (("tail", "HTH"), "a toss index is required"),
            (("threshold", "HTH"), "a quantile is required"),
            (("counts", "--word", "HH", "6", "--n-max", "7"), "a toss count given twice"),
            (("tail", "--word", "HTH", "5", "--n-max", "6"), "a toss index given twice"),
            (("threshold", "--word", "HH", "0.1", "--q", "0.2"), "a quantile given twice"),
            (("counts", "HH", "--word", "HT", "--n-max", "5"), "a word given twice"),
        ],
    )
    def test_value_given_twice_or_not_at_all_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and message in err

    @pytest.mark.parametrize(
        "argv, same_as",
        [
            (("counts", "--word", "HH", "6"), ("counts", "HH", "6")),
            (("tail", "--word", "HTH", "5"), ("tail", "HTH", "5")),
            (("threshold", "--word", "HTH", "0.1"), ("threshold", "HTH", "0.1")),
        ],
    )
    def test_value_positional_after_word_flag(self, capsys, argv, same_as):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *same_as)[1]

    @pytest.mark.parametrize("command", ["counts", "tail"])
    def test_malformed_n_after_word_flag_is_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--word", "HH", "abc")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and "'abc'" in err
