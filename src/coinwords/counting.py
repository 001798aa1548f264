"""Exact integer sequences a(n) of first-occurrence counts.

a(n) is the number of length-n toss records whose first occurrence of a
pattern ends at toss n.  Every sequence here is the Taylor series of a
numerator over one denominator, read off the pattern's autocorrelation
polynomial c(x) = sum x**i over the shifts i at which the pattern overlaps
itself (i = 0 always counts):

    D(x) = x**k + (1 - 2x) c(x)        (Guibas & Odlyzko, JCTA 1981)

with D(0) = 1.  The counts a(n) are the coefficients of x**k / D(x), and
the numbers b(m) of length-m records that avoid the pattern those of
c(x) / D(x).  A ``RecurrenceSpec`` is such a fraction, and D is known only
to this module, which works it out once per word and keeps it in a bounded
memo (``_memo``).  ``_stepped`` is the one loop that runs the fraction term
by term, over D's nonzero coefficients: ``extend_counts`` and the stepped
routes of ``stats``, ``genfun`` and ``montecarlo`` all read it.
``nth_term`` jumps to a single term with Bostan and Mori's algorithm ("A
simple and fast algorithm for computing the N-th term of a linearly
recurrent sequence", SOSA 2021) in O(log n) products of degree-k
polynomials, instead of building all n terms.  An independent dynamic
program over the prefix-match states of the pattern automaton counts the
same sequence.  All arithmetic uses Python's unbounded integers.
"""

from functools import lru_cache
from itertools import chain, compress, islice, repeat
from operator import itemgetter, mul

from .words import Word, _Record, _set_field, brute_force_count

__all__ = [
    "ESSENTIAL_WORDS",
    "CountSequence",
    "RecurrenceSpec",
    "automaton_counts",
    "builtin_spec",
    "counts",
    "extend_counts",
    "nth_term",
    "nth_terms",
    "transition_table",
]

ESSENTIAL_WORDS = tuple(Word(s) for s in ("HT", "HH", "HHH", "HHT", "HTT", "HTH"))


def _denominator(w: Word | str, shifts: tuple[int, ...]) -> tuple[int, ...]:
    """D_0..D_k of D(x) = x**k + (1 - 2x) c(x), c from the overlaps ``shifts`` of ``w``."""
    den = [0] * (len(w) + 1)
    den[-1] = 1
    for i in shifts:
        den[i] += 1
        den[i + 1] -= 2
    return tuple(den)


@lru_cache(maxsize=1024)
def _derive(letters: str) -> tuple:
    """The overlap shifts, D_0..D_k and the numerators of the count and
    avoidance specs of the word ``letters``.  It calls no public function, so
    a call traces the same on a miss as on a hit."""
    k = len(letters)
    shifts = tuple(i for i in range(k) if letters[i:] == letters[: k - i])
    return (
        shifts,
        _denominator(letters, shifts),
        (0,) * (k - 1) + (1,),
        tuple(int(i in shifts) for i in range(k)),
    )


def _memo(w: Word) -> tuple:
    """``_derive`` for ``w``, kept for the 1024 words of at most 64 letters
    used most recently (65536 letters in all); longer words are worked out on
    every call."""
    s = w.letters
    return _derive(s) if len(s) <= 64 else _derive.__wrapped__(s)


def _overlaps(w: Word) -> tuple[int, ...]:
    """Shifts i in 0..k-1 at which ``w`` matches itself; i = 0 always does."""
    return _memo(w)[0]


class RecurrenceSpec(_Record):
    """The generating fraction num(x)/den(x): term n >= 1 is its x**(n-1) coefficient.

    den[0] = 1, so the terms obey the linear recurrence
    t(n) = num[n-1] - sum(den[j] * t(n-j) for j >= 1), with t(n) = 0 for n < 1.
    A spec names no word, since complement words share one fraction.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: tuple[int, ...], den: tuple[int, ...]) -> None:
        if not den or den[0] != 1:
            raise ValueError(f"denominator must have constant term 1, got {den}")
        if not any(den[1:]):
            raise ValueError(f"denominator must have degree >= 1, got {den}")
        _set_field(self, "num", num)
        _set_field(self, "den", den)


class CountSequence(_Record):
    """The terms of a sequence, indexed from n = 1."""

    __slots__ = ("values",)

    def at(self, n: int) -> int:
        """a(n) for 1 <= n <= len(self)."""
        if n < 1:
            raise IndexError(f"counts are indexed from n = 1, got {n}")
        return self.values[n - 1]

    def __len__(self) -> int:
        return len(self.values)


def builtin_spec(w: Word) -> RecurrenceSpec:
    """The first-occurrence counts of ``w`` as x**(k-1) / D(x), so a(n) is term n.

    Complement pairs share one fraction, since overlaps are invariant under
    swapping H and T.
    """
    _, den, num, _ = _memo(w)
    return RecurrenceSpec(num, den)


def _avoidance_spec(w: Word) -> RecurrenceSpec:
    """b(m), the length-m records that avoid ``w``, as term m + 1 of c(x) / D(x)."""
    _, den, _, num = _memo(w)
    return RecurrenceSpec(num, den)


def extend_counts(spec: RecurrenceSpec, n_max: int) -> CountSequence:
    """The first ``n_max`` terms of the fraction, exactly, read off ``_stepped``."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return CountSequence(tuple(islice(_stepped(spec), n_max)))


def _stepped(spec: RecurrenceSpec):
    """Yield the terms t(1), t(2), ... of ``spec`` without end: the one loop
    that steps the recurrence.  A term reads the terms at den's nonzero
    coefficients only, and memory holds the last k to 2k terms (k = deg den)."""
    k = len(spec.den) - 1
    den = spec.den[:0:-1]  # den[k] .. den[1]: t(n - j) enters t(n) times -den[j]
    coeffs = [-d for d in den if d]
    # the window's taps; -1 keeps one tap a tuple, and map stops at coeffs' end
    pick = itemgetter(*compress(range(-k, 0), den), -1)
    window = [0] * k  # at most t(n - 2k + 1) .. t(n), from n = 0
    for p in chain(spec.num, repeat(0)):  # num[n - 1], added to t(n)
        term = sum(map(mul, coeffs, pick(window)), p)  # p + sum(...) would copy the sum again
        window.append(term)
        if len(window) > 2 * k:
            del window[:k]
        yield term


def _terms_at(spec: RecurrenceSpec, indices) -> list[int]:
    """The terms of ``spec`` at ``indices`` (ascending, each >= 1), read off
    ``_stepped``."""
    terms = _stepped(spec)
    pairs = zip((0, *indices), indices)
    return [next(islice(terms, index - last - 1, None)) for last, index in pairs]


def _signed_split(b: list[int]) -> tuple[list, list]:
    """The nonzero coefficients of b(-x) as (power, coefficient) pairs, even powers then odd."""
    split = ([], [])
    for j, y in enumerate(b):
        if y:
            split[j & 1].append((j, -y if j & 1 else y))
    return split


def _half_product(a: list[int], b: list[int], split: tuple[list, list], parity: int) -> list[int]:
    """Coefficients of a(x) * b(-x) at the powers x**(2i + parity), as a list over i;
    ``split`` is ``_signed_split(b)``."""
    out = [0] * ((len(a) + len(b) - parity) // 2)
    for i, x in enumerate(a):
        if x:
            for j, y in split[(i ^ parity) & 1]:
                out[(i + j) >> 1] += x * y
    return out


def nth_term(spec: RecurrenceSpec, n: int) -> int:
    """The n-th term of ``spec`` alone, equal to ``extend_counts(spec, n).at(n)``.

    Bostan-Mori multiplies both halves of the fraction num(x)/den(x) by
    den(-x), which leaves an even denominator, and keeps the half of the
    numerator whose parity matches the index; each round halves the index.
    That is O(log n) integer products of degree-k polynomials whose
    coefficients grow to O(n) bits.  Each round splits den(-x) by parity
    once, for both of its products.
    """
    if n < 1:
        raise ValueError(f"term index must be >= 1, got {n}")
    num, den = list(spec.num) or [0], list(spec.den)
    index = n - 1
    while index:
        split = _signed_split(den)
        num = _half_product(num, den, split, index & 1)
        den = _half_product(den, den, split, 0)
        index >>= 1
    return num[0]


def nth_terms(spec: RecurrenceSpec, indices: tuple[int, ...]) -> tuple[int, ...]:
    """``nth_term`` at each of ``indices``, every jump run to one index.

    Term n of num/den is also term m of x**(m-n) * num/den for any m >= n,
    so each numerator is padded with zeros up to the largest index and all
    of them take ``nth_term``'s rounds for that one index, sharing its
    denominator chain: two neighbouring terms take three products per round
    instead of four.  Spread indices pay for their padding, in the first
    rounds only.
    """
    if min(indices) < 1:
        raise ValueError(f"term index must be >= 1, got {min(indices)}")
    top, num = max(indices), list(spec.num) or [0]
    nums, den = [[0] * (top - n) + num for n in indices], list(spec.den)
    index = top - 1
    while index:
        split = _signed_split(den)
        nums = [_half_product(part, den, split, index & 1) for part in nums]
        den = _half_product(den, den, split, 0)
        index >>= 1
    return tuple(part[0] for part in nums)


def transition_table(w: Word) -> list[list[int]]:
    """Prefix-match automaton transitions.

    State s in 0..N-1 is the length of the longest proper prefix of ``w``
    matching the current toss suffix; row s is (next state on T, next state
    on H).  State N means the pattern just completed and is absorbing.
    Row s is the row of the restart state, the state reached on letters
    2..s of ``w``, except that letter s + 1 leads to state s + 1; the
    restart state then reads letter s + 1 itself.  So one pass builds the
    table, with no failure function.
    """
    letters = w.letters
    size = len(letters)
    table = [[0, 0] for _ in range(size + 1)]
    table[0][letters[0] == "H"] = 1
    back = 0
    for s in range(1, size):
        bit = letters[s] == "H"
        table[s] = list(table[back])
        table[s][bit] = s + 1
        back = table[back][bit]
    table[size] = [size, size]
    return table


def automaton_counts(w: Word, n_max: int) -> CountSequence:
    """Count first completions at each toss via the prefix automaton.

    Tracks how many length-t strings sit in each non-completed state.  Each
    toss moves them into a list with one more slot, the full-match state;
    popping that slot counts the paths that just completed once and removes
    them, which is exactly the first-occurrence condition.  Agrees with
    brute_force_count for every word and toss count, with no enumeration
    limit.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    table = transition_table(w)
    state_counts = [1]  # the empty record; zip skips the states it cannot be in
    values = []
    for _ in range(n_max):
        nxt = [0] * len(table)
        for (on_t, on_h), cnt in zip(table, state_counts):
            nxt[on_t] += cnt
            nxt[on_h] += cnt
        values.append(nxt.pop())
        state_counts = nxt
    return CountSequence(tuple(values))


def counts(w: Word, n_max: int, engine: str = "recurrence") -> CountSequence:
    """Counts for ``w`` up to ``n_max`` using the requested engine.

    ``recurrence`` and ``automaton`` cover every pattern.  ``brute`` is the
    enumeration oracle, for cross-validation: it enumerates n_max first, so
    an n_max past ``brute_force_count``'s limit is refused before any other
    enumeration.
    """
    if engine == "recurrence":
        return extend_counts(builtin_spec(w), n_max)
    if engine == "automaton":
        return automaton_counts(w, n_max)
    if engine == "brute":
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        last = brute_force_count(w, n_max)  # the largest enumeration: refused first
        values = [brute_force_count(w, n) for n in range(1, n_max)]
        return CountSequence((*values, last))
    raise ValueError(f"unknown engine {engine!r}: expected recurrence, automaton, or brute")
