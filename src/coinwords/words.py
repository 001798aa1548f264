"""Binary pattern words over the alphabet {H, T} and the enumeration oracle.

Outcome strings (full toss records) are plain ``str`` values over the same
alphabet.  A record in which a word first appears at the last toss ends in
that word, so the oracle enumerates only those records: every prefix of the
other n - k tosses, followed by the word's k letters.  It holds one bit per
record in one Python int, so each window test is a handful of big-integer
ANDs; its limit is 2**22 records, an int of 512 KiB.
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
    cost of importing ``dataclasses``.  A class with no ``__init__`` of its own
    gets ``__init__(self, <slots>)``, built as a frozen dataclass builds it.  A
    record equals only a record of its own class with equal fields, and
    ``_fields`` reads them all in one C call.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = operator.attrgetter(*cls.__slots__)
        if "__init__" not in vars(cls):
            body = "".join(f"\n    _set_field(self, {name!r}, {name})" for name in cls.__slots__)
            namespace: dict = {}
            exec(f"def __init__(self, {', '.join(cls.__slots__)}):{body}", globals(), namespace)
            namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = namespace["__init__"]

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


def _toss_slice(j: int, strings: int) -> int:
    """The ``strings``-bit int whose bit x is bit j of x: 2**j zeros, then
    2**j ones, repeated.  Built by doubling, in linear time."""
    half = 1 << j
    bits, span = ((1 << half) - 1) << half, half << 1
    while span < strings:
        bits |= bits << span
        span <<= 1
    return bits


def brute_force_count(w: Word, n: int) -> int:
    """Count length-``n`` outcome strings whose first occurrence of ``w`` ends at toss ``n``.

    Enumerates the 2**(n - k) outcomes that end in ``w`` (k = len(w)), bit
    sliced: bit x of one int stands for the record whose free prefix is x,
    first toss most significant, H = 1.  Each window that ends before toss n
    and agrees with ``w`` on its fixed letters marks the records it matches,
    the AND of its free tosses' slices; the count is the records left
    unmarked.  This path reads only the letters and n, deliberately
    independent of the recurrence and automaton engines so it can serve as
    their oracle.  It answers 0 for n < k, where there is no such outcome,
    and refuses more than 2**22 outcomes (an int of 512 KiB at the limit).
    """
    if n < 1:
        raise ValueError(f"toss count must be >= 1, got {n}")
    size = len(w)
    if n < size:
        return 0
    free = n - size
    if free > 22:
        raise ValueError(
            f"toss count {n} would enumerate the 2**{free} strings that end in {w}, "
            "past the enumeration limit of 2**22"
        )
    letters, strings = w.letters, 1 << free
    everyone = (1 << strings) - 1
    slices: dict[int, int] = {}  # free toss -> its slice, while a later window reads it
    earlier = 0  # the records in which some earlier window equals w
    for start in range(free):  # the window at tosses start..start+k-1 (from 0)
        fixed = max(start + size - free, 0)  # its letters that fall in w's copy
        if letters[size - fixed:] == letters[:fixed]:
            match = everyone
            for toss in range(start, start + size - fixed):
                if toss not in slices:
                    slices[toss] = _toss_slice(free - 1 - toss, strings)
                is_h = slices[toss]
                match &= is_h if letters[toss - start] == "H" else everyone ^ is_h
            earlier |= match
        slices.pop(start, None)
    return strings - earlier.bit_count()


def all_words(length: int) -> Iterator[Word]:
    """Yield every word of the given length, H before T at each position."""
    if length < 1:
        raise ValueError(f"word length must be >= 1, got {length}")
    for combo in itertools.product("HT", repeat=length):
        yield Word("".join(combo))
