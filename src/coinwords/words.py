"""Binary pattern words over the alphabet {H, T} and the enumeration oracle.

Outcome strings (full toss records) are plain ``str`` values over the same
alphabet.  The enumeration oracle iterates outcomes as integers with H = bit 1
and T = bit 0, first toss in the most significant position, so substring
tests reduce to shifts and masks.  A record in which a word first appears at
the last toss ends in that word, so the oracle enumerates only those records:
every prefix of the other n - k tosses, followed by the word's k letters.
Its limit counts those strings, at most 2**22 of them, and records of at
most 62 tosses, which fit an int64.
"""

import itertools
import operator
from typing import Iterator

__all__ = [
    "Word",
    "all_words",
    "brute_force_count",
    "parse_word",
]

_COMPLEMENT = str.maketrans("HT", "TH")


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


def brute_force_count(w: Word, n: int) -> int:
    """Count length-``n`` outcome strings whose first occurrence of ``w`` ends at toss ``n``.

    Enumerates the 2**(n - k) outcomes that end in ``w`` (k = len(w)) as
    integers in one numpy array, and counts those in which no earlier window
    equals ``w``.  This path is kept deliberately independent of the
    recurrence and automaton engines so it can serve as their oracle.  It
    answers 0 for n < k, where there is no such outcome, and refuses more
    than 2**22 outcomes (one array of about 72 MiB at the limit) or n above
    62, past which a record does not fit an int64.
    """
    if n < 1:
        raise ValueError(f"toss count must be >= 1, got {n}")
    size = len(w)
    if n < size:
        return 0
    if n - size > 22:
        raise ValueError(
            f"toss count {n} would enumerate the 2**{n - size} strings that end in {w}, "
            "past the enumeration limit of 2**22"
        )
    if n > 62:
        raise ValueError(f"toss count {n} is past the enumeration limit of 62 tosses")
    import numpy as np  # here, not at module level: the exact layers never load it

    wbits = w.bits()
    mask = (1 << size) - 1
    xs = (np.arange(1 << (n - size), dtype=np.int64) << size) | wbits
    win = np.empty_like(xs)
    ok = np.ones(xs.size, dtype=bool)
    # window ending at toss p < n sits at shift n - p
    for shift in range(1, n - size + 1):
        np.right_shift(xs, shift, out=win)
        np.bitwise_and(win, mask, out=win)
        ok &= win != wbits
    return int(np.count_nonzero(ok))


def all_words(length: int) -> Iterator[Word]:
    """Yield every word of the given length, H before T at each position."""
    if length < 1:
        raise ValueError(f"word length must be >= 1, got {length}")
    for combo in itertools.product("HT", repeat=length):
        yield Word("".join(combo))
