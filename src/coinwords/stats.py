"""Exact probabilities, tails, and moments of first-occurrence waiting times.

Every fair-coin probability here is a dyadic rational a(n)/2**n, so the
module keeps an exact dyadic type for distribution values and plain
``fractions.Fraction`` for moments.  Single values jump straight to the
term they need with ``counting.nth_term``: ``pmf`` reads a(n), and ``cdf``
and ``tail`` read b(m), the number of length-m records that avoid the
pattern, whose sequence c(x)/D(x) runs on the same recurrence as the
first-occurrence counts.  ``threshold`` walks that avoidance recurrence in
plain integers.  ``closed_tail`` runs the avoidance recurrence term by term,
a second route to the tail, and the moments are closed sums over the
pattern's self-overlaps; all of it comes from the autocorrelation polynomial
(see ``counting``).  Floating point only ever appears in the displayed
standard deviation.
"""

import itertools
import math
from dataclasses import dataclass
from functools import total_ordering
from fractions import Fraction

from .counting import (
    RecurrenceSpec,
    _overlaps,
    builtin_spec,
    counts,
    extend_counts,
    nth_term,
)
from .words import Word

__all__ = [
    "DyadicRational",
    "WordStats",
    "cdf",
    "closed_tail",
    "moments",
    "partial_moment_sums",
    "pmf",
    "tail",
    "threshold",
]

_THRESHOLD_LIMIT = 100_000  # scan guard; tails decay geometrically long before this


@total_ordering
@dataclass(frozen=True)
class DyadicRational:
    """numerator / 2**exponent, canonical with an odd (or zero) numerator.

    Compares and hashes as the number it is, also against ``int``, ``float``
    and ``Fraction``.
    """

    numerator: int
    exponent: int

    def __post_init__(self) -> None:
        num, k = self.numerator, self.exponent
        if num < 0:
            raise ValueError(f"dyadic numerator must be >= 0, got {num}")
        if k < 0:
            raise ValueError(f"dyadic exponent must be >= 0, got {k}")
        if num == 0:
            k = 0
        else:
            shift = min((num & -num).bit_length() - 1, k)
            num >>= shift
            k -= shift
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "exponent", k)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    def __float__(self) -> float:
        return self.numerator / (1 << self.exponent)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DyadicRational):
            return self.numerator == other.numerator and self.exponent == other.exponent
        if isinstance(other, (int, float, Fraction)):
            return self.as_fraction() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    def __lt__(self, other: "DyadicRational | Fraction | float | int") -> bool:
        if isinstance(other, DyadicRational):
            other = other.as_fraction()
        elif not isinstance(other, (int, float, Fraction)):
            return NotImplemented
        return self.as_fraction() < other

    def __str__(self) -> str:
        if self.exponent == 0:
            return str(self.numerator)
        return f"{self.numerator}/{1 << self.exponent}"


@dataclass(frozen=True)
class WordStats:
    """Exact mean and variance of the waiting time, stddev as a float."""

    word: Word
    mean: Fraction
    variance: Fraction
    stddev: float


def _avoidance_spec(w: Word) -> RecurrenceSpec:
    """b(m), the length-m records that avoid ``w``, as terms m + 1 of a spec.

    b is the coefficient sequence of c(x)/D(x), so it runs on the same
    recurrence as the first-occurrence counts, seeded with b(m) = 2**m for
    m < k.
    """
    spec = builtin_spec(w)
    return RecurrenceSpec(
        order=spec.order,
        coefficients=spec.coefficients,
        initial_values=tuple(1 << m for m in range(spec.order)),
    )


def pmf(w: Word, n: int) -> DyadicRational:
    """P(first occurrence ends exactly at toss n) = a(n)/2**n."""
    if n < 1:
        raise ValueError(f"toss index must be >= 1, got {n}")
    return DyadicRational(nth_term(builtin_spec(w), n), n)


def cdf(w: Word, m: int) -> DyadicRational:
    """P(first occurrence within the first m tosses) = 1 - b(m)/2**m; m = 0 gives 0."""
    if m < 0:
        raise ValueError(f"toss count must be >= 0, got {m}")
    return DyadicRational((1 << m) - nth_term(_avoidance_spec(w), m + 1), m)


def tail(w: Word, n: int) -> DyadicRational:
    """P(first occurrence needs at least n tosses) = b(n-1) / 2**(n-1)."""
    if n < 1:
        raise ValueError(f"toss index must be >= 1, got {n}")
    return DyadicRational(nth_term(_avoidance_spec(w), n), n - 1)


def closed_tail(w: Word, n: int) -> DyadicRational:
    """Tail probability via the avoidance counts: b(n-1) / 2**(n-1).

    Runs the avoidance recurrence term by term with ``extend_counts``, an
    independent route to the same value as :func:`tail`, which jumps to
    b(n-1) with ``nth_term``.
    """
    if n < 1:
        raise ValueError(f"toss index must be >= 1, got {n}")
    return DyadicRational(extend_counts(_avoidance_spec(w), n).at(n), n - 1)


def moments(w: Word) -> WordStats:
    """Exact mean and variance as sums over the self-overlap shifts i.

    mean = sum 2**(k-i) and variance = mean**2 + mean - 2 sum (k-i) 2**(k-i),
    which is f'(1/2)/2 and f''(1/2)/4 + mean - mean**2 for the closed form f.
    """
    k = len(w)
    shifts = _overlaps(w)
    mean = sum(1 << (k - i) for i in shifts)
    variance = mean * mean + mean - 2 * sum((k - i) << (k - i) for i in shifts)
    return WordStats(
        word=w,
        mean=Fraction(mean),
        variance=Fraction(variance),
        stddev=math.sqrt(variance),
    )


def threshold(w: Word, q: Fraction | float | str) -> int:
    """Smallest n with tail(w, n) <= q, for 0 < q <= 1.

    tail(w, n) = b(n-1)/2**(n-1), so the scan tests
    b(n-1) * q.denominator <= q.numerator * 2**(n-1) in integers.  The
    recurrence is linear, so it runs on b * q.denominator directly, keeping
    a window of the last k values.  The tail is strictly decreasing once n
    reaches the pattern length, so the scan terminates; a threshold past
    the scan limit is refused with ``ValueError``.
    """
    q = Fraction(q)
    if not 0 < q <= 1:
        raise ValueError(f"quantile must satisfy 0 < q <= 1, got {q}")
    spec = _avoidance_spec(w)
    terms = [(-1 - i, c) for i, c in enumerate(spec.coefficients) if c]
    window = [v * q.denominator for v in spec.initial_values]
    bound = q.numerator  # q.numerator * 2**(n-1)
    for n in itertools.count(1):
        if n <= spec.order:
            scaled = window[n - 1]
        else:
            scaled = 0
            for i, c in terms:
                scaled += c * window[i]
            window.append(scaled)
            del window[0]
        if scaled <= bound:
            return n
        if n > _THRESHOLD_LIMIT:
            raise ValueError(
                f"threshold of {w} at q = {q} lies past the scan limit n = {_THRESHOLD_LIMIT}"
            )
        bound <<= 1
    raise AssertionError("unreachable")


def partial_moment_sums(w: Word, n_max: int) -> tuple[Fraction, Fraction]:
    """Exact truncated sums (sum n p(n), sum n**2 p(n)) for n <= n_max."""
    seq = counts(w, n_max)
    num1 = 0
    num2 = 0
    for n, a in enumerate(seq.values, start=1):
        shift = n_max - n
        num1 += (n * a) << shift
        num2 += (n * n * a) << shift
    den = 1 << n_max
    return Fraction(num1, den), Fraction(num2, den)
