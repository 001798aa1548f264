#!/usr/bin/env python3
"""Print every headline number in one pass: count tables, moments, landmark
tails, quantile thresholds, closed-form roots and certified horizons."""

from fractions import Fraction

from coinwords.closedform import solve_denominator
from coinwords.counting import ESSENTIAL_WORDS, builtin_spec, extend_counts
from coinwords.genfun import closed_gf
from coinwords.stats import moments, tail, threshold
from coinwords.words import Word

# Per word, a toss count N whose tail P(>=N) is near 10%.
LANDMARKS = {"HT": 7, "HH": 12, "HHT": 15, "HTT": 15, "HTH": 22, "HHH": 30}


def main() -> None:
    print("== first-occurrence counts, n = 1..15 ==")
    for w in ESSENTIAL_WORDS:
        spec = builtin_spec(w)
        seq = extend_counts(spec, 15)
        coeffs = ",".join(f"{-d:>2d}" for d in spec.den[1:])
        print(f"{w!s:<4} [{coeffs}]  {', '.join(map(str, seq.values))}")

    print("\n== waiting-time moments ==")
    for w in ESSENTIAL_WORDS:
        st = moments(w)
        print(
            f"{w!s:<4} mean={st.mean}  variance={st.variance}  "
            f"stddev={st.stddev:.4f}"
        )

    print("\n== landmark tails (exact, near 10%) ==")
    for letters, n in LANDMARKS.items():
        value = tail(Word(letters), n)
        print(f"{letters:<4} {f'P(>={n})':<7} = {value} ({float(value):.6f})")

    print("\n== smallest N with tail(N) <= 10% ==")
    for w in ESSENTIAL_WORDS:
        n = threshold(w, Fraction(1, 10))
        print(f"{w!s:<4} N={n}  tail={tail(w, n)} ({float(tail(w, n)):.6f})")

    print("\n== closed forms ==")
    for w in ESSENTIAL_WORDS:
        model = solve_denominator(w)
        roots = "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in model.roots)
        print(f"{w!s:<4} f(x) = {closed_gf(w)}")
        print(f"     roots: {roots}   certified horizon: {model.reliability_horizon}")


if __name__ == "__main__":
    main()
