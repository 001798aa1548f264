"""Binary pattern words over the alphabet {H, T} and the enumeration oracle.

Outcome strings (full toss records) are plain ``str`` values over the same
alphabet.  The enumeration oracle iterates outcomes as integers with H = bit 1
and T = bit 0, first toss in the most significant position, so substring
tests reduce to shifts and masks.  A record in which a word first appears at
the last toss ends in that word, so the oracle enumerates only those records:
every prefix of the other n - k tosses, followed by the word's k letters.
"""

import itertools
import operator
import os
from typing import Iterator

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "ENUMERATION_CAP_ENV",
    "Word",
    "all_words",
    "brute_force_count",
    "enumeration_cap",
    "first_occurrence_ends_at",
    "parse_word",
]

DEFAULT_ENUMERATION_CAP = 24
ENUMERATION_CAP_ENV = "COINWORDS_ENUM_CAP"

_COMPLEMENT = str.maketrans("HT", "TH")
_CHUNK = 1 << 22  # prefixes per numpy block


# Sets a field of a record in its __init__, past the refusing __setattr__.
_set_field = object.__setattr__


class _Record:
    """An immutable value whose fields are the ``__slots__`` of its class, set in
    ``__init__`` with ``_set_field``: a frozen dataclass without the cold-start
    cost of importing ``dataclasses``.  It equals only a record of its own class
    with equal fields, and ``_fields`` reads them all in one C call.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Word(_Record):
    """A nonempty pattern over {H, T} in canonical uppercase form."""

    __slots__ = ("letters",)

    def __init__(self, letters: str) -> None:
        if not letters:
            raise ValueError("word must have at least one letter")
        if letters.strip("HT"):  # some letter is neither H nor T: name the first
            pos, ch = next(p for p in enumerate(letters, start=1) if p[1] not in "HT")
            raise ValueError(
                f"invalid letter {ch!r} at position {pos}: words use only H and T"
            )
        _set_field(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters

    def complement(self) -> "Word":
        """The word with every H replaced by T and vice versa."""
        return Word(self.letters.translate(_COMPLEMENT))

    def bits(self) -> int:
        """Integer encoding of the letters, first letter most significant, H = 1."""
        value = 0
        for ch in self.letters:
            value = (value << 1) | (ch == "H")
        return value


def parse_word(text: str) -> Word:
    """Parse ``text`` into a :class:`Word`, accepting lowercase letters.

    Raises ``ValueError`` for an empty string or for any character outside
    {H, T, h, t}, naming the offending character and its 1-based position.
    """
    if not text:
        raise ValueError("empty word: expected a nonempty string over {H, T}")
    for pos, ch in enumerate(text, start=1):
        if ch not in "HTht":
            raise ValueError(
                f"invalid character {ch!r} at position {pos}: expected H or T"
            )
    return Word(text.upper())


def first_occurrence_ends_at(outcome: str, w: Word) -> bool:
    """True iff ``w`` first occurs in ``outcome`` ending exactly at the last toss.

    An occurrence anywhere earlier disqualifies the string, and occurrences
    may overlap (HH ends at positions 2 and 3 of HHH).
    """
    pattern = w.letters
    if not outcome.endswith(pattern):
        return False
    return outcome.find(pattern) == len(outcome) - len(pattern)


def enumeration_cap() -> int:
    """Current cap on brute-force toss counts (overridable via the environment)."""
    raw = os.environ.get(ENUMERATION_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(
            f"{ENUMERATION_CAP_ENV} must be an integer, got {raw!r}"
        ) from None
    if cap < 1:
        raise ValueError(f"{ENUMERATION_CAP_ENV} must be positive, got {cap}")
    return cap


def brute_force_count(w: Word, n: int, cap: int | None = None) -> int:
    """Count length-``n`` outcome strings whose first occurrence of ``w`` ends at toss ``n``.

    Enumerates the 2**(n - k) outcomes that end in ``w`` (k = len(w)) as
    integers, in numpy blocks of at most ``_CHUNK`` prefixes, and counts those
    in which no earlier window equals ``w``.  The result is independent of the
    block partitioning, and this path is kept deliberately independent of the
    recurrence and automaton engines so it can serve as their oracle.
    """
    if n < 1:
        raise ValueError(f"toss count must be >= 1, got {n}")
    if cap is None:
        cap = enumeration_cap()
    if n > cap:
        ending = f"the 2**{n - len(w)}" if n >= len(w) else "no"
        raise ValueError(
            f"toss count {n} exceeds the enumeration cap {cap}; raise it explicitly or "
            f"via {ENUMERATION_CAP_ENV} to enumerate {ending} strings that end in {w}"
        )
    if n > 62:
        raise ValueError("enumeration beyond 62 tosses is not supported")
    import numpy as np  # here, not at module level: the exact layers never load it

    size = len(w)
    if n < size:
        return 0
    wbits = w.bits()
    mask = (1 << size) - 1
    prefixes = 1 << (n - size)
    total = 0
    for lo in range(0, prefixes, _CHUNK):
        hi = min(lo + _CHUNK, prefixes)
        xs = (np.arange(lo, hi, dtype=np.int64) << size) | wbits
        win = np.empty_like(xs)
        ok = np.ones(hi - lo, dtype=bool)
        # window ending at toss p < n sits at shift n - p
        for shift in range(1, n - size + 1):
            np.right_shift(xs, shift, out=win)
            np.bitwise_and(win, mask, out=win)
            ok &= win != wbits
        total += int(np.count_nonzero(ok))
    return total


def all_words(length: int) -> Iterator[Word]:
    """Yield every word of the given length, H before T at each position."""
    if length < 1:
        raise ValueError(f"word length must be >= 1, got {length}")
    for combo in itertools.product("HT", repeat=length):
        yield Word("".join(combo))
