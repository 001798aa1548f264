"""Exact probabilities, tails, and moments of first-occurrence waiting times.

Every fair-coin probability here is a dyadic rational a(n)/2**n, so the
module keeps an exact dyadic type for distribution values and plain
``fractions.Fraction`` for moments.  Single values jump straight to the
term they need with ``counting.nth_term``: ``pmf`` reads a(n), and ``cdf``
and ``tail`` read b(m), the number of length-m records that avoid the
pattern, whose sequence c(x)/D(x) runs on the same recurrence as the
first-occurrence counts.  ``threshold`` guesses where the tail crosses q
from the tail's geometric decay and decides with exact jumps around the
guess.  ``closed_tail`` runs the avoidance recurrence term by term,
a second route to the tail, and the moments are closed sums over the
pattern's self-overlaps; all of it comes from the autocorrelation polynomial
(see ``counting``).  Floating point appears only in the displayed
standard deviation and in the guess of ``threshold``, which picks where to
look but never decides the answer.
"""

import math
import re
from functools import total_ordering
from fractions import Fraction

# counts is unused here, but perfbench's self-test reads this binding.
from .counting import (  # noqa: F401
    _avoidance_spec,
    _overlaps,
    _stepped,
    _terms_at,
    builtin_spec,
    counts,
    nth_term,
    nth_terms,
)
from .words import Word, _Record, _set_field

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

_THRESHOLD_LIMIT = 100_000  # answers past this + 1 are refused


@total_ordering
class DyadicRational(_Record):
    """numerator / 2**exponent, canonical with an odd (or zero) numerator.

    Compares and hashes as the number it is, also against ``int``, ``float``
    and ``Fraction``.
    """

    __slots__ = ("numerator", "exponent")

    def __init__(self, numerator: int, exponent: int) -> None:
        num, k = numerator, exponent
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
        _set_field(self, "numerator", num)
        _set_field(self, "exponent", k)

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


class WordStats(_Record):
    """Exact mean and variance of the waiting time, stddev as a float."""

    __slots__ = ("mean", "variance", "stddev")


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

    Steps the avoidance recurrence term by term to b(n-1), keeping only the
    last k terms: an independent route to the same value as :func:`tail`,
    which jumps to b(n-1) with ``nth_term``.
    """
    if n < 1:
        raise ValueError(f"toss index must be >= 1, got {n}")
    return DyadicRational(_terms_at(_avoidance_spec(w), (n,))[0], n - 1)


def moments(w: Word) -> WordStats:
    """Exact mean and variance as sums over the self-overlap shifts i.

    mean = sum 2**(k-i) and variance = mean**2 + mean - 2 sum (k-i) 2**(k-i),
    which is f'(1/2)/2 and f''(1/2)/4 + mean - mean**2 for the closed form f.
    Once the variance passes float range (about 2**1024, from H**511 on), the
    stddev is the integer square root rounded once to a float, and it is inf
    once the root passes float range too, from about 1024 letters on.
    """
    k = len(w)
    shifts = _overlaps(w)
    mean = sum(1 << (k - i) for i in shifts)
    variance = mean * mean + mean - 2 * sum((k - i) << (k - i) for i in shifts)
    try:
        stddev = math.sqrt(variance)
    except OverflowError:
        root = math.isqrt(variance)
        try:
            # a set low bit stands for a nonzero remainder, so a root just
            # above a tie between two floats rounds up, as it should
            stddev = float(root | (root * root != variance))
        except OverflowError:
            stddev = math.inf
    return WordStats(Fraction(mean), Fraction(variance), stddev)


def _decay(w: Word) -> tuple[float, float]:
    """(ln A, ln 2r) with tail(w, n) ~ A (2r)**-(n-1), in floats.

    r is the smallest root of D(x) = x**k + (1 - 2x) c(x) in (1/2, 1], and A
    the residue -c(r) / (r D'(r)).  Near 1/2 the terms of D cancel, so Newton
    runs on u = 2x - 1, where 2**k D(x) = (1+u)**k - u sum 2**(k-i) (1+u)**i
    over the overlap shifts i, scaled by the mean M = sum 2**(k-i); it starts
    from u = 1 / (M - k), bisecting whenever a step leaves the bracket.  At
    HT's double root x = 1 the slope vanishes and A is taken as 1.
    """
    k, shifts = len(w), _overlaps(w)
    mean = sum(1 << (k - i) for i in shifts)
    weights = [((1 << (k - i)) / mean, i) for i in shifts]
    scale = 1 / mean

    def scaled(u: float) -> tuple[float, float, float]:
        """(value, slope, the sum over the shifts) of 2**k D / M at u."""
        g = sum(a * (1 + u) ** i for a, i in weights)
        dg = sum(a * i * (1 + u) ** (i - 1) for a, i in weights)
        value = scale * (1 + u) ** k - u * g
        return value, scale * k * (1 + u) ** (k - 1) - g - u * dg, g

    lo, hi = 0.0, 1.0  # value(0) = 1 / M > 0 >= value(1) = 2**k D(1) / M
    u = 1 / (mean - k)
    if scaled(2 * u)[0] <= 0:
        hi = min(hi, 2 * u)
    for _ in range(100):
        value, slope, g = scaled(u)
        if value > 0:
            lo = u
        else:
            hi = u
        step = u - value / slope if slope else hi
        if not lo < step < hi:
            step = (lo + hi) / 2
        if value == 0 or abs(step - u) <= 1e-15 * u:
            break
        u = step
    value, slope, g = scaled(u)
    ln_a = 0.0 if abs(slope) < 1e-6 else math.log(-g / ((1 + u) * slope))
    return ln_a, math.log1p(u) or math.ulp(0.0)  # u underflows past ~1070 letters


def _ln_ratio(x: int, y: int) -> float:
    """ln(x / y) for positive integers, to float precision also near x = y."""
    if y < 2 * x and x < 2 * y:
        return math.log1p((x - y) / y)
    return math.log(x) - math.log(y)


def _quantile_text(q: Fraction) -> str:
    """q for a message: exact while its numerator and denominator have at
    most 4300 digits (all that Python >= 3.11 prints by default), else
    "about" q to 3 significant digits, so that a refusal always prints."""
    num, den = abs(q.numerator), q.denominator
    # fewer than 14285 bits means below 10**4300, so the power is built only for longer q
    if num.bit_length() < 14285 > den.bit_length() or num < 10**4300 > den:
        return str(q)
    log10 = math.log10(num) - math.log10(den)
    power = math.floor(log10)
    return _about(q < 0, power, 10 ** (log10 - power))


def _about(negative: bool, power: int, mantissa: float) -> str:
    """"about" -mantissa * 10**power (or +), 1 <= mantissa < 10, to 3 significant digits."""
    digits = f"{mantissa:.3g}"
    if digits == "10":
        digits, power = "1", power + 1
    return f"about {'-' * negative}{digits}e{power}"


def _past_limit(w: Word, q_text: str, near: float) -> ValueError:
    """The refusal of a threshold past the limit, for q printed as ``q_text``
    and the decay model's answer ``near``."""
    return ValueError(
        f"threshold of {w} at q = {q_text} lies past the limit n = {_THRESHOLD_LIMIT}"
        f" (the decay model puts it near n = {near:.3g})"
    )


# Fraction's decimal syntax with an exponent: sign, whole digits, fraction digits, exponent
_SCIENTIFIC = re.compile(
    r"\s*([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?e([-+]?\d+(?:_\d+)*)\s*",
    re.IGNORECASE,
)


def _refuse_by_exponent(w: Word, text: str) -> None:
    """Refuse a decimal quantile that its exponent alone puts above 1 or past
    the limit, before ``Fraction(text)`` builds 10**exponent:
    ``Fraction("1e-10000000")`` takes seconds.

    Every word has b(m) >= 1, so tail(L) >= 2**-(L-1) at L =
    _THRESHOLD_LIMIT + 1, and every q below 2**-L lies past the limit.  Only
    a q that ``threshold`` would print as "about" q is refused here, with
    ``threshold``'s own message; other texts are left to ``Fraction``, which
    reads them quickly.
    """
    match = _SCIENTIFIC.fullmatch(text)
    if not match:
        return
    sign, whole, fraction, exponent = (part.replace("_", "") for part in match.groups(""))
    digits = (whole + fraction).lstrip("0")
    if not digits:
        raise ValueError("quantile must satisfy 0 < q <= 1, got 0")
    power = int(exponent) - len(fraction) + len(digits) - 1  # 10**power <= |q| < 10**(power + 1)
    if -4301 < power < 4300:  # Fraction builds it quickly, and a refusal may print it exactly
        return
    head = digits[:17]
    mantissa, negative = int(head) / 10 ** (len(head) - 1), sign == "-"
    if negative or power >= 0:
        raise ValueError(
            f"quantile must satisfy 0 < q <= 1, got {_about(negative, power, mantissa)}"
        )
    limit = _THRESHOLD_LIMIT + 1
    if power + 1 <= -math.ceil(limit / math.log2(10)):  # |q| < 10**(power + 1) <= 2**-limit
        ln_a, ln_rate = _decay(w)
        # the power is clamped only so that it converts to a float
        ln_q = math.log(10) * (max(power, -10**300) + math.log10(mantissa))
        raise _past_limit(w, _about(False, power, mantissa), 1 + (ln_a - ln_q) / ln_rate)


def threshold(w: Word, q: Fraction | float | str) -> int:
    """Smallest n with tail(w, n) <= q, for 0 < q <= 1.

    tail(w, n) = b(n-1)/2**(n-1) is 1 up to n = k and strictly decreasing
    after, like A (2r)**-(n-1) (see ``_decay``).  That float model only picks
    where to look.  Each look jumps to b(n-2) and b(n-1) with one
    ``nth_terms`` call and tests tail(n) <= q < tail(n-1) in integers,
    b * q.denominator against q.numerator * 2**(n-1).  A miss aims again from
    the exact tail it read and narrows the range the next look must fall in,
    so the answer is exact whatever the floats say.  An answer past
    L = _THRESHOLD_LIMIT + 1 is refused with ``ValueError``.  A union bound
    over the L - k places where w can end before toss L gives
    tail(L) >= 1 - (L - k) / 2**k; when that exceeds q (every word of 18 or
    more letters at q <= 1/2), the refusal needs no look.  Otherwise, when
    the model puts the answer past L, one look at L decides.
    """
    if isinstance(q, str):
        _refuse_by_exponent(w, q)
    q = Fraction(q)
    if not 0 < q <= 1:
        raise ValueError(f"quantile must satisfy 0 < q <= 1, got {_quantile_text(q)}")
    if q == 1:
        return 1
    spec = _avoidance_spec(w)
    ln_a, ln_rate = _decay(w)
    ln_q = _ln_ratio(q.numerator, q.denominator)
    k, limit = len(w), _THRESHOLD_LIMIT + 1
    past_limit = ((1 << k) - limit + k) * q.denominator > q.numerator << k

    def aim(n: int, ln_over_q: float) -> int:
        """Where the decay reaches q from a tail(n) that is exp(ln_over_q) q."""
        return n + math.ceil(max(-limit, min(limit, ln_over_q / ln_rate)))

    def look(n: int, b: int) -> tuple[bool, int]:
        """(tail(n) = b / 2**(n-1) > q, and the aim from it)."""
        x, y = b * q.denominator, q.numerator << (n - 1)
        return x > y, aim(n, _ln_ratio(x, y))

    lo, hi, n = k, limit, aim(1, ln_a - ln_q)  # tail(lo) = 1 > q
    while not past_limit:
        n = min(max(n, lo + 1), hi)
        before, at = nth_terms(spec, (n - 1, n))
        above, next_n = look(n, at)
        if above:
            if n == limit:
                break
            lo = n
        else:
            above, next_n = look(n - 1, before)
            if above:
                return n
            hi = n - 1
        n = next_n
    raise _past_limit(w, _quantile_text(q), 1 + (ln_a - ln_q) / ln_rate)


def partial_moment_sums(w: Word, n_max: int) -> tuple[Fraction, Fraction]:
    """Exact truncated sums (sum n p(n), sum n**2 p(n)) for n <= n_max.

    p(n) = a(n) / 2**n, so the numerators over 2**n_max are the Horner sums
    s = 2 s + n a(n) and 2 s + n**2 a(n), run over ``_stepped``'s counts:
    memory holds the word's last k counts and the two sums.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    num1 = num2 = 0
    for n, a in zip(range(1, n_max + 1), _stepped(builtin_spec(w))):
        num1 = 2 * num1 + n * a
        num2 = 2 * num2 + n * n * a
    den = 1 << n_max
    return Fraction(num1, den), Fraction(num2, den)
