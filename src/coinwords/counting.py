"""Exact integer sequences a(n) of first-occurrence counts.

a(n) is the number of length-n toss records whose first occurrence of a
pattern ends at toss n.  Every pattern of length k has a linear recurrence
of order k read off its autocorrelation polynomial c(x) = sum x**i over the
shifts i at which the pattern overlaps itself (i = 0 always counts): the
counts are the Taylor coefficients of x**k / D(x) with

    D(x) = x**k + (1 - 2x) c(x)        (Guibas & Odlyzko, JCTA 1981)

and D(0) = 1.  ``extend_counts`` runs a recurrence term by term;
``nth_term`` jumps to a single term with Bostan and Mori's algorithm ("A
simple and fast algorithm for computing the N-th term of a linearly
recurrent sequence", SOSA 2021) in O(log n) products of degree-k
polynomials, instead of building all n terms.  An independent dynamic
program over the prefix-match states of the pattern automaton counts the
same sequence.  All arithmetic uses Python's unbounded integers.
"""

from dataclasses import dataclass

from .words import ENUMERATION_CAP_ENV, Word, brute_force_count, enumeration_cap

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


def _overlaps(w: Word) -> tuple[int, ...]:
    """Shifts i in 0..k-1 at which ``w`` matches itself; i = 0 always does."""
    s, k = w.letters, len(w)
    return tuple(i for i in range(k) if s[i:] == s[: k - i])


def _denominator(w: Word) -> tuple[int, ...]:
    """Coefficients D_0..D_k of D(x) = x**k + (1 - 2x) c(x); D_0 = 1, D_k = +-1."""
    den = [0] * (len(w) + 1)
    den[-1] = 1
    for i in _overlaps(w):
        den[i] += 1
        den[i + 1] -= 2
    return tuple(den)


@dataclass(frozen=True)
class RecurrenceSpec:
    """Linear recurrence a(n) = sum(coefficients[i] * a(n-1-i)), seeded by initial_values."""

    order: int
    coefficients: tuple[int, ...]
    initial_values: tuple[int, ...]
    word: Word | None = None

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"recurrence order must be >= 1, got {self.order}")
        if len(self.coefficients) != self.order:
            raise ValueError("need exactly one coefficient per order")
        if len(self.initial_values) != self.order:
            raise ValueError("need exactly one initial value per order")


@dataclass(frozen=True)
class CountSequence:
    """First-occurrence counts indexed from n = 1."""

    word: Word | None
    values: tuple[int, ...]

    def at(self, n: int) -> int:
        """a(n) for 1 <= n <= len(self)."""
        if n < 1:
            raise IndexError(f"counts are indexed from n = 1, got {n}")
        return self.values[n - 1]

    def __len__(self) -> int:
        return len(self.values)

    def to_csv(self) -> str:
        lines = ["n,a_W(n)"]
        lines.extend(f"{n},{v}" for n, v in enumerate(self.values, start=1))
        return "\n".join(lines) + "\n"


def builtin_spec(w: Word) -> RecurrenceSpec:
    """The order-k recurrence of ``w`` read off D(x).

    Coefficients are -D_1..-D_k and the initial values are a(1..k) =
    (0, ..., 0, 1).  Complement pairs share one spec, since overlaps are
    invariant under swapping H and T.
    """
    k = len(w)
    coeffs = tuple(-d for d in _denominator(w)[1:])
    return RecurrenceSpec(
        order=k, coefficients=coeffs, initial_values=(0,) * (k - 1) + (1,), word=w
    )


def extend_counts(spec: RecurrenceSpec, n_max: int) -> CountSequence:
    """Run the recurrence out to ``n_max`` terms, exactly."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    values = list(spec.initial_values[:n_max])
    terms = [(-1 - i, c) for i, c in enumerate(spec.coefficients) if c]
    for _ in range(len(values), n_max):
        values.append(sum(c * values[i] for i, c in terms))
    return CountSequence(word=spec.word, values=tuple(values))


def _half_product(a: list[int], b: list[int], parity: int) -> list[int]:
    """Coefficients of a(x) * b(-x) at the powers x**(2i + parity), as a list over i."""
    out = [0] * ((len(a) + len(b) - parity) // 2)
    by_parity = ([], [])
    for j, y in enumerate(b):
        if y:
            by_parity[j & 1].append((j, -y if j & 1 else y))
    for i, x in enumerate(a):
        if x:
            for j, y in by_parity[(i ^ parity) & 1]:
                out[(i + j) >> 1] += x * y
    return out


def _generating_fraction(spec: RecurrenceSpec) -> tuple[list[int], list[int]]:
    """(P, Q) with the terms from n = 1 on the Taylor coefficients of P(x)/Q(x).

    Q(x) = 1 - sum c_i x**(i+1) and P = (Q * sum init_i x**i) mod x**k.
    """
    den = [1] + [-c for c in spec.coefficients]
    init = spec.initial_values
    return [sum(den[j] * init[i - j] for j in range(i + 1)) for i in range(spec.order)], den


def nth_term(spec: RecurrenceSpec, n: int) -> int:
    """The n-th term of ``spec`` alone, equal to ``extend_counts(spec, n).at(n)``.

    Bostan-Mori multiplies both halves of the generating fraction P(x)/Q(x)
    by Q(-x), which leaves an even denominator, and keeps the half of the
    numerator whose parity matches the index; each round halves the index.
    That is O(log n) integer products of degree-k polynomials whose
    coefficients grow to O(n) bits.
    """
    if n < 1:
        raise ValueError(f"term index must be >= 1, got {n}")
    if n <= spec.order:
        return spec.initial_values[n - 1]
    num, den = _generating_fraction(spec)
    index = n - 1
    while index:
        num = _half_product(num, den, index & 1)
        den = _half_product(den, den, 0)
        index >>= 1
    return num[0]


def nth_terms(spec: RecurrenceSpec, indices: tuple[int, ...]) -> tuple[int, ...]:
    """``nth_term`` at each of ``indices``, the jumps sharing one denominator chain.

    The chain Q(x), Q(x)Q(-x), ... does not depend on the index; only how
    far it runs does (the bit length of the index).  So each further index
    costs one numerator product per round: two neighbouring terms take three
    products per round instead of four.
    """
    if min(indices) < 1:
        raise ValueError(f"term index must be >= 1, got {min(indices)}")
    init = spec.initial_values
    num, den = _generating_fraction(spec)
    out = [init[n - 1] if n <= spec.order else 0 for n in indices]
    live = [(i, n - 1, num) for i, n in enumerate(indices) if n > spec.order]
    while live:
        rest = []
        for i, index, part in live:
            part = _half_product(part, den, index & 1)
            if index > 1:
                rest.append((i, index >> 1, part))
            else:
                out[i] = part[0]
        live = rest
        den = _half_product(den, den, 0)
    return tuple(out)


def transition_table(w: Word) -> list[list[int]]:
    """Prefix-match automaton transitions.

    State s in 0..N-1 is the length of the longest proper prefix of ``w``
    matching the current toss suffix; row s is (next state on T, next state
    on H).  State N means the pattern just completed and is absorbing.
    Fallbacks use the classical longest-suffix-that-is-a-prefix function.
    """
    letters = w.letters
    size = len(letters)
    fail = [0] * size
    k = 0
    for i in range(1, size):
        while k and letters[i] != letters[k]:
            k = fail[k - 1]
        if letters[i] == letters[k]:
            k += 1
        fail[i] = k
    table = [[0, 0] for _ in range(size + 1)]
    table[0][letters[0] == "H"] = 1
    for s in range(1, size):
        table[s] = list(table[fail[s - 1]])
        table[s][letters[s] == "H"] = s + 1
    table[size] = [size, size]
    return table


def automaton_counts(w: Word, n_max: int) -> CountSequence:
    """Count first completions at each toss via the prefix automaton.

    Tracks how many length-t strings sit in each non-completed state; paths
    entering the full-match state are counted once and removed, which is
    exactly the first-occurrence condition.  Agrees with brute_force_count
    for every word and toss count, with no enumeration cap.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    table = transition_table(w)
    size = len(w)
    state_counts = [0] * size
    state_counts[0] = 1
    values = []
    for _ in range(n_max):
        nxt = [0] * size
        completed = 0
        for s, cnt in enumerate(state_counts):
            if not cnt:
                continue
            for b in (0, 1):
                t = table[s][b]
                if t == size:
                    completed += cnt
                else:
                    nxt[t] += cnt
        values.append(completed)
        state_counts = nxt
    return CountSequence(word=w, values=tuple(values))


def counts(w: Word, n_max: int, engine: str = "auto") -> CountSequence:
    """Counts for ``w`` up to ``n_max`` using the requested engine.

    ``auto`` is the recurrence, which covers every pattern.  ``brute`` is
    capped (see words.enumeration_cap) and intended for cross-validation.
    """
    if engine in ("auto", "recurrence"):
        return extend_counts(builtin_spec(w), n_max)
    if engine == "automaton":
        return automaton_counts(w, n_max)
    if engine == "brute":
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        cap = enumeration_cap()
        if n_max > cap:
            raise ValueError(
                f"n_max {n_max} exceeds the enumeration cap {cap} of the brute engine; "
                f"raise {ENUMERATION_CAP_ENV} or use another engine"
            )
        values = tuple(brute_force_count(w, n) for n in range(1, n_max + 1))
        return CountSequence(word=w, values=values)
    raise ValueError(
        f"unknown engine {engine!r}: expected auto, recurrence, automaton, or brute"
    )
