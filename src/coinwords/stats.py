"""Exact probabilities, tails, and moments of first-occurrence waiting times.

Every fair-coin probability here is a dyadic rational a(n)/2**n, so the
module keeps an exact dyadic type for distribution values and plain
``fractions.Fraction`` for moments.  Tails have a second route through the
avoidance counts, and the moments are closed sums over the pattern's
self-overlaps; both come from the autocorrelation polynomial that also
drives the counts (see ``counting``).  Floating point only ever appears in
the displayed standard deviation.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .counting import RecurrenceSpec, _overlaps, builtin_spec, counts, extend_counts
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


@dataclass(frozen=True)
class DyadicRational:
    """numerator / 2**exponent, canonical with an odd (or zero) numerator."""

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

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        k = max(self.exponent, other.exponent)
        num = (self.numerator << (k - self.exponent)) + (
            other.numerator << (k - other.exponent)
        )
        return DyadicRational(num, k)

    def __sub__(self, other: "DyadicRational") -> "DyadicRational":
        k = max(self.exponent, other.exponent)
        num = (self.numerator << (k - self.exponent)) - (
            other.numerator << (k - other.exponent)
        )
        if num < 0:
            raise ValueError("dyadic subtraction went negative")
        return DyadicRational(num, k)

    def _cmp_key(self, other: "DyadicRational | Fraction | int") -> Fraction:
        if isinstance(other, DyadicRational):
            return other.as_fraction()
        return Fraction(other)

    def __lt__(self, other) -> bool:
        return self.as_fraction() < self._cmp_key(other)

    def __le__(self, other) -> bool:
        return self.as_fraction() <= self._cmp_key(other)

    def __gt__(self, other) -> bool:
        return self.as_fraction() > self._cmp_key(other)

    def __ge__(self, other) -> bool:
        return self.as_fraction() >= self._cmp_key(other)

    def __str__(self) -> str:
        if self.exponent == 0:
            return str(self.numerator)
        return f"{self.numerator}/{1 << self.exponent}"


DYADIC_ZERO = DyadicRational(0, 0)
DYADIC_ONE = DyadicRational(1, 0)


@dataclass(frozen=True)
class WordStats:
    """Exact mean and variance of the waiting time, stddev as a float."""

    word: Word
    mean: Fraction
    variance: Fraction
    stddev: float


def pmf(w: Word, n: int) -> DyadicRational:
    """P(first occurrence ends exactly at toss n) = a(n)/2**n."""
    if n < 1:
        raise ValueError(f"toss index must be >= 1, got {n}")
    return DyadicRational(counts(w, n).at(n), n)


def cdf(w: Word, m: int) -> DyadicRational:
    """P(first occurrence within the first m tosses); m = 0 gives 0."""
    if m < 0:
        raise ValueError(f"toss count must be >= 0, got {m}")
    if m == 0:
        return DYADIC_ZERO
    seq = counts(w, m)
    total = 0
    for v in seq.values:
        total = (total << 1) + v
    return DyadicRational(total, m)


def tail(w: Word, n: int) -> DyadicRational:
    """P(first occurrence needs at least n tosses) = 1 - cdf(n - 1)."""
    if n < 1:
        raise ValueError(f"toss index must be >= 1, got {n}")
    return DYADIC_ONE - cdf(w, n - 1)


def closed_tail(w: Word, n: int) -> DyadicRational:
    """Tail probability via the avoidance counts: b(n-1) / 2**(n-1).

    b(m) counts the length-m toss records that avoid the pattern; it is the
    coefficient sequence of c(x)/D(x), so it runs on the same recurrence as
    the first-occurrence counts, seeded with b(m) = 2**m for m < k.  An
    independent route to the same value as :func:`tail`.
    """
    if n < 1:
        raise ValueError(f"toss index must be >= 1, got {n}")
    spec = builtin_spec(w)
    avoiding = RecurrenceSpec(
        order=spec.order,
        coefficients=spec.coefficients,
        initial_values=tuple(1 << m for m in range(spec.order)),
    )
    return DyadicRational(extend_counts(avoiding, n).at(n), n - 1)


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

    Scans the single-pass partial sums of the pmf; the tail is strictly
    decreasing once n reaches the pattern length, so the scan terminates.
    """
    q = Fraction(q)
    if not 0 < q <= 1:
        raise ValueError(f"quantile must satisfy 0 < q <= 1, got {q}")
    target = 1 - q  # tail(n) <= q  <=>  cdf(n-1) >= 1 - q
    seq = counts(w, 64)
    partial = Fraction(0)
    for n in itertools.count(1):
        if partial >= target:
            return n
        if n > len(seq):
            seq = counts(w, 2 * len(seq))
        partial += Fraction(seq.at(n), 1 << n)
        if n > _THRESHOLD_LIMIT:
            raise RuntimeError(f"threshold scan for {w} passed n = {n}")
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
