"""Value semantics of the records on the exact path, pinned class by class.

Each record is an immutable value: equal instances compare and hash alike,
survive pickle and deepcopy, print the same repr, and refuse assignment.
It can be built by keyword with its field names, a different value in any
field makes it unequal, and it never equals an object of another type.
"""

import copy
import math
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from coinwords.counting import CountSequence, RecurrenceSpec, builtin_spec, counts
from coinwords.genfun import Polynomial, RationalFunction, closed_gf
from coinwords.stats import DyadicRational, WordStats, moments
from coinwords.words import Word

P = Polynomial
HTH_STATS = {"mean": Fraction(10), "variance": Fraction(58), "stddev": math.sqrt(58)}

# name -> (make, field, repr, keyword arguments that build the same record,
#          records that differ from it in one field each)
RECORDS = {
    "Word": (
        lambda: Word("HTH"), "letters", "Word(letters='HTH')",
        {"letters": "HTH"}, [Word("HTT")],
    ),
    "RecurrenceSpec": (
        lambda: builtin_spec(Word("HH")), "num", "RecurrenceSpec(num=(0, 1), den=(1, -1, -1))",
        {"num": (0, 1), "den": (1, -1, -1)},
        [RecurrenceSpec((1, 1), (1, -1, -1)), RecurrenceSpec((0, 1), (1, -1, -2))],
    ),
    "CountSequence": (
        lambda: counts(Word("HH"), 5), "values", "CountSequence(values=(0, 1, 1, 2, 3))",
        {"values": (0, 1, 1, 2, 3)}, [CountSequence((0, 1, 1, 2, 4))],
    ),
    "DyadicRational": (
        lambda: DyadicRational(12, 5), "numerator", "DyadicRational(numerator=3, exponent=3)",
        {"numerator": 12, "exponent": 5}, [DyadicRational(5, 3), DyadicRational(3, 4)],
    ),
    "WordStats": (
        lambda: moments(Word("HTH")), "mean",
        "WordStats(mean=Fraction(10, 1), variance=Fraction(58, 1), stddev=7.615773105863909)",
        HTH_STATS,
        [WordStats(**dict(HTH_STATS, **{name: value}))
         for name, value in (("mean", Fraction(11)), ("variance", Fraction(59)), ("stddev", 7.6))],
    ),
    "Polynomial": (
        lambda: Polynomial((-1, 1, 1, 0)), "coeffs", "Polynomial(coeffs=(-1, 1, 1))",
        {"coeffs": (-1, 1, 1)}, [Polynomial((-1, 1, 2))],
    ),
    "Polynomial()": (
        lambda: Polynomial(), "coeffs", "Polynomial(coeffs=())",
        {"coeffs": (0, 0)}, [Polynomial((1,))],
    ),
    "RationalFunction": (
        lambda: closed_gf(Word("HH")), "num",
        "RationalFunction(num=Polynomial(coeffs=(0, 0, -1)), den=Polynomial(coeffs=(-1, 1, 1)))",
        {"num": P((0, 0, -1)), "den": P((-1, 1, 1))},
        [RationalFunction(P((0, 0, 1)), P((-1, 1, 1))),
         RationalFunction(P((0, 0, -1)), P((-1, 1, 2)))],
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_an_immutable_value(name):
    make, field, text, keywords, others = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == text
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), type(a)(**keywords)):
        assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)
        assert repr(twin) == text
    for other in others:
        assert type(other) is type(a) and a != other and not a == other
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b and repr(a) == text


@pytest.mark.parametrize("name", RECORDS)
def test_record_never_equals_another_type(name):
    make, field, _, keywords, _ = RECORDS[name]
    a = make()
    assert a != getattr(a, field)  # Word("HTH") != "HTH"
    assert a != SimpleNamespace(**{key: getattr(a, key) for key in keywords})
    for other_name, (other_make, *_) in RECORDS.items():
        other = other_make()
        if type(other) is not type(a):  # e.g. a RecurrenceSpec and a RationalFunction
            assert a != other and other != a


def test_equal_fields_of_another_record_class_differ():
    sequence, polynomial = CountSequence((0, 1)), Polynomial((0, 1))
    assert sequence.values == polynomial.coeffs
    assert sequence != polynomial and polynomial != sequence


def test_zero_polynomial():
    zero = Polynomial()
    assert zero.coeffs == () and zero == Polynomial((0,)) and str(zero) == "0"


@pytest.mark.parametrize(
    "value, number",
    [(DyadicRational(12, 2), 3), (DyadicRational(0, 7), 0),
     (DyadicRational(12, 5), Fraction(3, 8)), (DyadicRational(1, 40), Fraction(1, 1 << 40))],
)
def test_dyadic_rational_is_the_number_it_equals(value, number):
    assert value == number and number == value and hash(value) == hash(number)
    assert value != number + 1 and value < number + 1
