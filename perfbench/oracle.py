"""Exact reference values for any H/T word, computed from its autocorrelation.

Nothing here calls coinwords, so these values check the program's engines
from outside.  For a word of length k let c(x) = sum x**i over the shifts i
at which the word overlaps itself (i = 0 always counts).  The counts a(n) of
first occurrences ending at toss n are the Taylor coefficients of

    x**k / D(x),    D(x) = x**k + (1 - 2x) c(x)        (Guibas & Odlyzko)

and D(0) = 1, so a(n) follows an integer recurrence of order k.  The mean
and variance of the waiting time follow from the same generating function:

    mean     = sum over overlaps i of 2**(k-i)
    variance = mean**2 + mean - 2 * sum over overlaps i of (k-i) * 2**(k-i)
"""

from fractions import Fraction


def overlaps(letters: str) -> list[int]:
    """Shifts i in 0..k-1 at which the word matches itself."""
    k = len(letters)
    return [i for i in range(k) if letters[i:] == letters[: k - i]]


def _recurrence(letters: str) -> list[tuple[int, int]]:
    """Nonzero coefficients (j, D_j) of D(x) for j >= 1."""
    k = len(letters)
    den = [0] * (k + 1)
    den[k] += 1
    for i in overlaps(letters):
        den[i] += 1
        den[i + 1] -= 2
    assert den[0] == 1
    return [(j, d) for j, d in enumerate(den) if j and d]


def sweep(letters: str, points) -> dict[int, tuple[int, int]]:
    """Map each n in ``points`` (n >= 0) to (a(n), C(n)).

    C(n) = sum over m <= n of a(m) * 2**(n-m) is the numerator of the cdf
    over 2**n, so P(wait >= n) = 1 - C(n-1) / 2**(n-1).
    """
    wanted = set(points)
    if not wanted:
        return {}
    k = len(letters)
    rec = _recurrence(letters)
    top = max(wanted)
    history = [0] * (k + 1)  # a(n-1), a(n-2), ... newest first
    cumulative = 0
    out = {0: (0, 0)} if 0 in wanted else {}
    for n in range(1, top + 1):
        a = (n == k) - sum(d * history[j - 1] for j, d in rec)
        history.pop()
        history.insert(0, a)
        cumulative = 2 * cumulative + a
        if n in wanted:
            out[n] = (a, cumulative)
    return out


def counts(letters: str, n_max: int) -> tuple[int, ...]:
    """(a(1), ..., a(n_max))."""
    values = sweep(letters, range(1, n_max + 1))
    return tuple(values[n][0] for n in range(1, n_max + 1))


def mean(letters: str) -> int:
    k = len(letters)
    return sum(1 << (k - i) for i in overlaps(letters))


def variance(letters: str) -> int:
    k = len(letters)
    m = mean(letters)
    return m * m + m - 2 * sum((k - i) << (k - i) for i in overlaps(letters))


def tail(letters: str, n: int) -> Fraction:
    """P(wait >= n), exact."""
    if n == 1:
        return Fraction(1)
    cum = sweep(letters, [n - 1])[n - 1][1]
    return 1 - Fraction(cum, 1 << (n - 1))


def dyadic_equals(value, numerator: int, exponent: int) -> bool:
    """True iff ``value`` (numerator / 2**exponent attributes) equals numerator / 2**exponent."""
    return value.numerator << exponent == numerator << value.exponent


def tail_bracket_holds(sums: dict[int, tuple[int, int]], big_n: int, q: Fraction) -> bool:
    """True iff tail(big_n) <= q < tail(big_n - 1), given sweep values at big_n - 1 and big_n - 2."""

    def tail_at(n: int) -> Fraction:
        if n <= 1:
            return Fraction(1)
        return 1 - Fraction(sums[n - 1][1], 1 << (n - 1))

    if big_n < 1:
        return False
    if tail_at(big_n) > q:
        return False
    return big_n == 1 or q < tail_at(big_n - 1)
