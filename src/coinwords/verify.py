"""Cross-validation suite: every engine and identity checked against the others.

Each check returns a named pass/fail result so the CLI can print a report and
tests can corrupt inputs deliberately.  Checks that consume recurrences accept
an override mapping (word letters -> RecurrenceSpec); everything else is
self-contained.  The checks that hold a jump-ahead route (``tail``, ``cdf``)
against a term-by-term one build each word's term-by-term sequence once and
compare the jump at every n with its prefix.
"""

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping

from .closedform import (
    DEFAULT_CERTIFY_PROBE,
    RESIDUAL_TOL,
    root_formula_count,
    secondary_term,
    solve_denominator,
)
from .counting import (
    ESSENTIAL_WORDS,
    RecurrenceSpec,
    automaton_counts,
    builtin_spec,
    extend_counts,
)
from .genfun import Polynomial, closed_gf, finite_gf, truncation_remainder
from .stats import (
    DyadicRational,
    _avoidance_spec,
    cdf,
    closed_tail,
    moments,
    partial_moment_sums,
    tail,
)
from .words import Word, all_words, brute_force_count

__all__ = ["CheckResult", "run_checks", "REFERENCE_COUNTS"]

SpecOverrides = Mapping[str, RecurrenceSpec] | None

# Frozen reference rows (first 15 terms for length 3, first 6 for length 2).
REFERENCE_COUNTS = {
    "HT": (0, 1, 2, 3, 4, 5),
    "HH": (0, 1, 1, 2, 3, 5),
    "HHH": (0, 0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504, 927),
    "HTT": (0, 0, 1, 2, 4, 7, 12, 20, 33, 54, 88, 143, 232, 376, 609),
    "HHT": (0, 0, 1, 2, 4, 7, 12, 20, 33, 54, 88, 143, 232, 376, 609),
    "HTH": (0, 0, 1, 2, 3, 5, 9, 16, 28, 49, 86, 151, 265, 465, 816),
}

ROOT_FORMULA_WORDS = ESSENTIAL_WORDS + tuple(Word(s) for s in ("H", "HTHT", "HHTHTTHH"))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0  # wall time of the check, set by run_checks


def _spec_for(w: Word, specs: SpecOverrides) -> RecurrenceSpec:
    if specs and w.letters in specs:
        return specs[w.letters]
    return builtin_spec(w)


def _lengths(words: tuple[Word, ...]) -> str:
    return f"{min(map(len, words))}-{max(map(len, words))}"


def _words_with_complements() -> list[Word]:
    out = []
    for w in ESSENTIAL_WORDS:
        out.append(w)
        out.append(w.complement())
    return out


def _check_reference_counts(specs: SpecOverrides) -> CheckResult:
    for letters, expected in REFERENCE_COUNTS.items():
        seq = extend_counts(_spec_for(Word(letters), specs), len(expected))
        if seq.values != expected:
            return CheckResult(
                "reference-counts",
                False,
                f"{letters}: got {seq.values}, expected {expected}",
            )
    return CheckResult("reference-counts", True, "all frozen rows reproduced")


def _check_engine_agreement(specs: SpecOverrides, n_max: int) -> CheckResult:
    words = _words_with_complements()
    for w in words:
        rec = extend_counts(_spec_for(w, specs), n_max)
        auto = automaton_counts(w, n_max)
        for n in range(1, n_max + 1):
            brute = brute_force_count(w, n)
            if not rec.at(n) == auto.at(n) == brute:
                return CheckResult(
                    "engine-agreement",
                    False,
                    f"{w} at n={n}: recurrence {rec.at(n)}, "
                    f"automaton {auto.at(n)}, enumeration {brute}",
                )
    return CheckResult(
        "engine-agreement",
        True,
        f"recurrence = automaton = enumeration for {len(words)} words, n <= {n_max}",
    )


def _check_complement_symmetry(max_len: int, n_max: int) -> CheckResult:
    for length in range(1, max_len + 1):
        for w in all_words(length):
            a = automaton_counts(w, n_max).values
            b = automaton_counts(w.complement(), n_max).values
            if a != b:
                return CheckResult(
                    "complement-symmetry", False, f"{w} vs {w.complement()}"
                )
    return CheckResult(
        "complement-symmetry",
        True,
        f"counts invariant under H<->T for lengths <= {max_len}, n <= {n_max}",
    )


def _check_tail_routes(n_max: int) -> CheckResult:
    words = _words_with_complements()
    for w in words:
        avoid = extend_counts(_avoidance_spec(w), n_max)
        for n in range(1, n_max + 1):
            jumped = tail(w, n)
            stepped = DyadicRational(avoid.at(n), n - 1)
            if jumped != stepped:
                return CheckResult(
                    "tail-identities",
                    False,
                    f"{w} at n={n}: jump-ahead gives {jumped}, "
                    f"term-by-term gives {stepped}",
                )
        anchor = closed_tail(w, n_max)
        if anchor != stepped:
            return CheckResult(
                "tail-identities",
                False,
                f"{w} at n={n_max}: closed_tail gives {anchor}, "
                f"term-by-term gives {stepped}",
            )
    return CheckResult(
        "tail-identities",
        True,
        f"tail by jump-ahead to b(n-1) equals the avoidance recurrence run term "
        f"by term for {len(words)} words, n <= {n_max}",
    )


def _check_cdf_vs_partial_gf(m_max: int) -> CheckResult:
    half = Fraction(1, 2)
    for w in ESSENTIAL_WORDS:
        coeffs = finite_gf(w, m_max).coeffs
        for m in range(1, m_max + 1):
            if cdf(w, m).as_fraction() != Polynomial(coeffs[: m + 1])(half):
                return CheckResult(
                    "cdf-vs-partial-sum", False, f"{w} at m={m}"
                )
    return CheckResult(
        "cdf-vs-partial-sum",
        True,
        f"cdf equals the partial sum evaluated at 1/2 for m <= {m_max}",
    )


def _check_truncation_identity(m_lo: int, m_hi: int) -> CheckResult:
    one = Polynomial((1,))
    for w in ROOT_FORMULA_WORDS:
        f = closed_gf(w)
        for m in range(max(m_lo, len(w) - 1), m_hi + 1):
            lhs = finite_gf(w, m) * f.den
            rhs = f.num * (one - truncation_remainder(w, m))
            if lhs != rhs:
                return CheckResult(
                    "truncation-identity", False, f"{w} at m={m}"
                )
    return CheckResult(
        "truncation-identity",
        True,
        f"partial sum times denominator matches for {len(ROOT_FORMULA_WORDS)} words "
        f"of lengths {_lengths(ROOT_FORMULA_WORDS)}, m = max({m_lo}, k-1)..{m_hi}",
    )


def _check_closed_form_horizons(min_horizon: int) -> CheckResult:
    details = []
    for w in ESSENTIAL_WORDS:
        model = solve_denominator(w, probe=DEFAULT_CERTIFY_PROBE)
        details.append(f"{w}={model.reliability_horizon}")
        if model.reliability_horizon < min_horizon:
            return CheckResult(
                "closed-form-horizons",
                False,
                f"{w} certified only to {model.reliability_horizon} < {min_horizon}",
            )
    return CheckResult(
        "closed-form-horizons", True, "certified horizons: " + " ".join(details)
    )


def _check_secondary_terms() -> CheckResult:
    for w in ESSENTIAL_WORDS:
        model = solve_denominator(w)
        for n in range(len(w), model.reliability_horizon + 1):
            if not secondary_term(model, n) < 0.5:
                return CheckResult(
                    "rounding-slack", False, f"{w} at n={n}"
                )
    return CheckResult(
        "rounding-slack",
        True,
        "discarded term stays below 1/2 from n = len(w) across every certified range",
    )


def _check_roots() -> CheckResult:
    for w in ESSENTIAL_WORDS:
        model = solve_denominator(w)
        den = closed_gf(w).den
        coeffs = tuple(float(c) for c in den.coeffs)
        for z in model.roots:
            acc = 0j
            for c in reversed(coeffs):
                acc = acc * z + c
            if abs(acc) > RESIDUAL_TOL:
                return CheckResult("root-residuals", False, f"{w}: |den({z})| = {abs(acc):.2e}")
        complexes = [z for z in model.roots if z.imag]
        if complexes and abs(complexes[0] - complexes[1].conjugate()) > RESIDUAL_TOL:
            return CheckResult("root-residuals", False, f"{w}: conjugacy broken")
    return CheckResult(
        "root-residuals", True, f"all residuals <= {RESIDUAL_TOL}, conjugate pairs intact"
    )


def _check_root_formula(n_max: int) -> CheckResult:
    for w in ROOT_FORMULA_WORDS:
        model = solve_denominator(w)
        exact = extend_counts(builtin_spec(w), n_max)
        for n in range(1, n_max + 1):
            value = root_formula_count(model, n)
            if abs(value.imag) >= 1e-6:
                return CheckResult(
                    "root-formula", False, f"{w} at n={n}: imag {value.imag:.2e}"
                )
            if round(value.real) != exact.at(n):
                return CheckResult(
                    "root-formula",
                    False,
                    f"{w} at n={n}: {value.real} vs {exact.at(n)}",
                )
    return CheckResult(
        "root-formula",
        True,
        f"partial-fraction sum over the roots of D rounds to the exact counts "
        f"for {len(ROOT_FORMULA_WORDS)} words of lengths {_lengths(ROOT_FORMULA_WORDS)}, "
        f"n <= {n_max}",
    )


def _check_moment_sums(n_max: int, tol: Fraction) -> CheckResult:
    for w in ESSENTIAL_WORDS:
        st = moments(w)
        s1, s2 = partial_moment_sums(w, n_max)
        if abs(s1 - st.mean) > tol or abs(s2 - (st.variance + st.mean**2)) > tol:
            return CheckResult("moment-sums", False, f"{w}")
    return CheckResult(
        "moment-sums",
        True,
        f"truncated moment sums (n <= {n_max}) match the exact moments to {float(tol):g}",
    )


def _check_normalization(m_max: int, slack: Fraction) -> CheckResult:
    for w in ESSENTIAL_WORDS:
        avoid = extend_counts(_avoidance_spec(w), m_max + 1)  # b(0..m_max)
        stepped = [Fraction((1 << m) - b, 1 << m) for m, b in enumerate(avoid.values)]
        jumped = cdf(w, m_max)
        if jumped != stepped[m_max]:
            return CheckResult(
                "normalization",
                False,
                f"{w} at m={m_max}: jump-ahead gives {jumped}, "
                f"term-by-term gives {stepped[m_max]}",
            )
        for m in range(1, m_max + 1):
            if stepped[m] < stepped[m - 1] or stepped[m] > 1:
                return CheckResult("normalization", False, f"{w} at m={m}")
        if stepped[m_max] < 1 - slack:
            return CheckResult(
                "normalization", False, f"{w}: cdf({m_max}) = {float(stepped[m_max])}"
            )
    return CheckResult(
        "normalization",
        True,
        f"cdf nondecreasing, <= 1, and >= 1 - {float(slack):g} by m = {m_max}",
    )


def run_checks(depth: str = "quick", specs: SpecOverrides = None) -> list[CheckResult]:
    """Run the whole suite; ``depth`` is 'quick' or 'full'.

    Full mode pushes the enumeration oracle to n = 20 and widens the
    complement sweep.  On a 2-core Intel Xeon, quick mode takes 63 ms and
    full mode 0.95 s (medians of 21 rounds, ``BENCH_8.json``).  Each result
    carries the wall time of its check in ``seconds``.
    """
    if depth not in ("quick", "full"):
        raise ValueError(f"depth must be 'quick' or 'full', got {depth!r}")
    full = depth == "full"
    brute_n = 20 if full else 14
    checks: list[Callable[[], CheckResult]] = [
        lambda: _check_reference_counts(specs),
        lambda: _check_engine_agreement(specs, brute_n),
        lambda: _check_complement_symmetry(5 if full else 4, 20),
        lambda: _check_tail_routes(64),
        lambda: _check_cdf_vs_partial_gf(64),
        lambda: _check_truncation_identity(2, 12),
        lambda: _check_closed_form_horizons(50),
        lambda: _check_secondary_terms(),
        lambda: _check_roots(),
        lambda: _check_root_formula(30),
        lambda: _check_moment_sums(400, Fraction(1, 10**6)),
        lambda: _check_normalization(200, Fraction(1, 10**6)),
    ]
    results = []
    for check in checks:
        start = time.perf_counter()
        res = check()
        results.append(replace(res, seconds=time.perf_counter() - start))
    return results
