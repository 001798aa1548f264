"""Cross-validation suite: every engine and identity checked against the others.

Each check returns ``(passed, detail)``; ``run_checks`` runs them from one
table that names each check and times it into a ``CheckResult``, so the CLI
can print a report.  The checks that hold a jump-ahead route (``tail``, ``cdf``)
against a term-by-term one build each word's term-by-term sequence once and
compare the jump at every n with its prefix.  The four checks that read a
``ClosedFormModel`` take the solver as ``solve``: ``run_checks`` hands them
one that solves each word once per run.
"""

import time
from fractions import Fraction
from functools import cache

from .closedform import (
    RESIDUAL_TOL,
    root_formula_count,
    secondary_term,
    solve_denominator,
)
from .counting import (
    ESSENTIAL_WORDS,
    _avoidance_spec,
    automaton_counts,
    builtin_spec,
    extend_counts,
)
from .genfun import Polynomial, closed_gf, finite_gf, truncation_remainder
from .stats import DyadicRational, cdf, moments, partial_moment_sums, tail
from .words import Word, _Record, all_words, brute_force_count

__all__ = ["CheckResult", "run_checks", "REFERENCE_COUNTS"]

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
WORDS_WITH_COMPLEMENTS = tuple(v for w in ESSENTIAL_WORDS for v in (w, w.complement()))


class CheckResult(_Record):
    """One check's verdict, its detail line and its wall time in seconds."""

    __slots__ = ("name", "passed", "detail", "seconds")


def _lengths(words: tuple[Word, ...]) -> str:
    return f"{min(map(len, words))}-{max(map(len, words))}"


def _check_reference_counts() -> tuple[bool, str]:
    for letters, expected in REFERENCE_COUNTS.items():
        seq = extend_counts(builtin_spec(Word(letters)), len(expected))
        if seq.values != expected:
            return False, f"{letters}: got {seq.values}, expected {expected}"
    return True, "all frozen rows reproduced"


def _check_engine_agreement(n_max: int) -> tuple[bool, str]:
    for w in WORDS_WITH_COMPLEMENTS:
        rec = extend_counts(builtin_spec(w), n_max)
        auto = automaton_counts(w, n_max)
        for n in range(1, n_max + 1):
            brute = brute_force_count(w, n)
            if not rec.at(n) == auto.at(n) == brute:
                return False, (
                    f"{w} at n={n}: recurrence {rec.at(n)}, "
                    f"automaton {auto.at(n)}, enumeration {brute}"
                )
    return True, (
        f"recurrence = automaton = enumeration for {len(WORDS_WITH_COMPLEMENTS)} words, "
        f"n <= {n_max}"
    )


def _check_complement_symmetry(max_len: int, n_max: int) -> tuple[bool, str]:
    for length in range(1, max_len + 1):
        for w in all_words(length):
            a = automaton_counts(w, n_max).values
            b = automaton_counts(w.complement(), n_max).values
            if a != b:
                return False, f"{w} vs {w.complement()}"
    return True, f"counts invariant under H<->T for lengths <= {max_len}, n <= {n_max}"


def _check_tail_routes(n_max: int) -> tuple[bool, str]:
    # The anchor comes from another engine: a length-m record avoids w unless
    # w first ends at toss m, so b(m) = 2 b(m-1) - a(m), with a from the automaton.
    for w in WORDS_WITH_COMPLEMENTS:
        avoid = extend_counts(_avoidance_spec(w), n_max)
        a = automaton_counts(w, n_max).values
        anchor = 1  # b(0): the empty record
        for n in range(1, n_max + 1):
            if n > 1:
                anchor = 2 * anchor - a[n - 2]  # b(n-1)
            jumped = tail(w, n)
            stepped = DyadicRational(avoid.at(n), n - 1)
            if jumped != stepped:
                return False, (
                    f"{w} at n={n}: jump-ahead gives {jumped}, "
                    f"term-by-term gives {stepped}"
                )
            if avoid.at(n) != anchor:
                return False, (
                    f"{w} at n={n}: the automaton gives b({n - 1}) = {anchor}, "
                    f"term-by-term gives {avoid.at(n)}"
                )
    return True, (
        f"tail by jump-ahead to b(n-1) equals the avoidance recurrence run term "
        f"by term for {len(WORDS_WITH_COMPLEMENTS)} words, n <= {n_max}"
    )


def _check_cdf_vs_partial_gf(m_max: int) -> tuple[bool, str]:
    # The partial sum at 1/2 is S(m) / 2**m with S(m) = 2 S(m-1) + a(m), in integers.
    for w in ESSENTIAL_WORDS:
        gf = finite_gf(w, m_max)
        partial = 0
        for m in range(1, m_max + 1):
            partial = 2 * partial + gf.coefficient(m)
            if partial < 0 or cdf(w, m) != DyadicRational(partial, m):
                return False, f"{w} at m={m}"
    return True, f"cdf equals the partial sum evaluated at 1/2 for m <= {m_max}"


def _check_truncation_identity(m_lo: int, m_hi: int) -> tuple[bool, str]:
    one = Polynomial((1,))
    for w in ROOT_FORMULA_WORDS:
        f = closed_gf(w)
        for m in range(max(m_lo, len(w) - 1), m_hi + 1):
            lhs = finite_gf(w, m) * f.den
            rhs = f.num * (one - truncation_remainder(w, m))
            if lhs != rhs:
                return False, f"{w} at m={m}"
    return True, (
        f"partial sum times denominator matches for {len(ROOT_FORMULA_WORDS)} words "
        f"of lengths {_lengths(ROOT_FORMULA_WORDS)}, m = max({m_lo}, k-1)..{m_hi}"
    )


def _check_closed_form_horizons(min_horizon: int, solve) -> tuple[bool, str]:
    details = []
    for w in ESSENTIAL_WORDS:
        model = solve(w)
        details.append(f"{w}={model.reliability_horizon}")
        if model.reliability_horizon < min_horizon:
            return False, f"{w} certified only to {model.reliability_horizon} < {min_horizon}"
    return True, "certified horizons: " + " ".join(details)


def _check_secondary_terms(solve) -> tuple[bool, str]:
    for w in ESSENTIAL_WORDS:
        model = solve(w)
        for n in range(len(w), model.reliability_horizon + 1):
            if not secondary_term(model, n) < 0.5:
                return False, f"{w} at n={n}"
    return True, "discarded term stays below 1/2 from n = len(w) across every certified range"


def _check_roots(solve) -> tuple[bool, str]:
    # solve_denominator already bounds each root's residual; what it does not
    # see is a root lost, repeated or added, which changes D's coefficients.
    for w in ESSENTIAL_WORDS:
        roots = solve(w).roots
        den = builtin_spec(w).den
        if len(roots) != len(den) - 1:
            return False, f"{w}: D has degree {len(den) - 1}, the model {len(roots)} roots"
        rebuilt = [1]  # the product of (x - r) over the roots, lowest power first
        for r in roots:
            rebuilt = [a - r * b for a, b in zip([0, *rebuilt], [*rebuilt, 0])]
        error = max(abs(den[-1] * c - d) for c, d in zip(rebuilt, den))
        if not error <= RESIDUAL_TOL:
            return False, f"{w}: the roots rebuild D only to within {error:.2e}"
    return True, (
        f"the roots, x = 1 included, rebuild the coefficients of D to {RESIDUAL_TOL} "
        f"for {len(ESSENTIAL_WORDS)} words"
    )


def _check_root_formula(n_max: int, solve) -> tuple[bool, str]:
    for w in ROOT_FORMULA_WORDS:
        model = solve(w)
        exact = extend_counts(builtin_spec(w), n_max)
        for n in range(1, n_max + 1):
            value = root_formula_count(model, n)
            if abs(value.imag) >= 1e-6:
                return False, f"{w} at n={n}: imag {value.imag:.2e}"
            if round(value.real) != exact.at(n):
                return False, f"{w} at n={n}: {value.real} vs {exact.at(n)}"
    return True, (
        f"partial-fraction sum over the roots of D rounds to the exact counts "
        f"for {len(ROOT_FORMULA_WORDS)} words of lengths {_lengths(ROOT_FORMULA_WORDS)}, "
        f"n <= {n_max}"
    )


def _check_moment_sums(n_max: int, tol: Fraction) -> tuple[bool, str]:
    for w in ESSENTIAL_WORDS:
        st = moments(w)
        s1, s2 = partial_moment_sums(w, n_max)
        if abs(s1 - st.mean) > tol or abs(s2 - (st.variance + st.mean**2)) > tol:
            return False, f"{w}"
    return True, (
        f"truncated moment sums (n <= {n_max}) match the exact moments to {float(tol):g}"
    )


def _check_normalization(m_max: int, slack: Fraction) -> tuple[bool, str]:
    # With cdf(m) = 1 - b(m)/2**m, each condition is tested on b in integers:
    # nondecreasing is b(m) <= 2 b(m-1), <= 1 is b(m) >= 0, and >= 1 - slack
    # is b(m_max) <= slack * 2**m_max.
    top = 1 << m_max
    for w in ESSENTIAL_WORDS:
        b = extend_counts(_avoidance_spec(w), m_max + 1).values  # b(0..m_max)
        jumped = cdf(w, m_max)
        stepped = top - b[m_max]  # cdf(m_max) * 2**m_max, term by term
        if stepped < 0 or jumped != DyadicRational(stepped, m_max):
            return False, (
                f"{w} at m={m_max}: jump-ahead gives {jumped}, "
                f"term-by-term gives {Fraction(stepped, top)}"
            )
        for m in range(1, m_max + 1):
            if b[m] > 2 * b[m - 1] or b[m] < 0:
                return False, f"{w} at m={m}"
        if b[m_max] * slack.denominator > slack.numerator * top:
            return False, f"{w}: cdf({m_max}) = {float(Fraction(stepped, top))}"
    return True, f"cdf nondecreasing, <= 1, and >= 1 - {float(slack):g} by m = {m_max}"


def run_checks(depth: str = "quick") -> list[CheckResult]:
    """Run the whole suite; ``depth`` is 'quick' or 'full'.

    Full mode pushes the enumeration oracle to n = 20 and widens the
    complement sweep.  On a 2-core Intel Xeon, quick mode takes 30.5 ms and
    full mode 39.6 ms (medians of 7 rounds, ``BENCH_23.json``).  Each result
    carries the wall time of its check in ``seconds``.
    """
    if depth not in ("quick", "full"):
        raise ValueError(f"depth must be 'quick' or 'full', got {depth!r}")
    full = depth == "full"
    solve = cache(solve_denominator)  # one model per word for this run, read by four checks
    checks = (  # (name, check, arguments), in report order
        ("reference-counts", _check_reference_counts, ()),
        ("engine-agreement", _check_engine_agreement, (20 if full else 14,)),
        ("complement-symmetry", _check_complement_symmetry, (5 if full else 4, 20)),
        ("tail-identities", _check_tail_routes, (64,)),
        ("cdf-vs-partial-sum", _check_cdf_vs_partial_gf, (64,)),
        ("truncation-identity", _check_truncation_identity, (2, 12)),
        ("closed-form-horizons", _check_closed_form_horizons, (50, solve)),
        ("rounding-slack", _check_secondary_terms, (solve,)),
        ("root-residuals", _check_roots, (solve,)),
        ("root-formula", _check_root_formula, (30, solve)),
        ("moment-sums", _check_moment_sums, (400, Fraction(1, 10**6))),
        ("normalization", _check_normalization, (200, Fraction(1, 10**6))),
    )
    results = []
    for name, check, args in checks:
        start = time.perf_counter()
        passed, detail = check(*args)
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
