"""Value semantics of the records on the exact path, pinned class by class.

Each record is an immutable value: equal instances compare and hash alike,
survive pickle and deepcopy, print the same repr, and refuse assignment.
"""

import copy
import pickle

import pytest

from coinwords.counting import builtin_spec, counts
from coinwords.genfun import Polynomial, closed_gf
from coinwords.stats import DyadicRational, moments
from coinwords.words import Word

RECORDS = {
    "Word": (lambda: Word("HTH"), "letters", "Word(letters='HTH')"),
    "RecurrenceSpec": (
        lambda: builtin_spec(Word("HH")), "num", "RecurrenceSpec(num=(0, 1), den=(1, -1, -1))"
    ),
    "CountSequence": (
        lambda: counts(Word("HH"), 5), "values", "CountSequence(values=(0, 1, 1, 2, 3))"
    ),
    "DyadicRational": (
        lambda: DyadicRational(12, 5), "numerator", "DyadicRational(numerator=3, exponent=3)"
    ),
    "WordStats": (
        lambda: moments(Word("HTH")), "mean",
        "WordStats(mean=Fraction(10, 1), variance=Fraction(58, 1), stddev=7.615773105863909)",
    ),
    "Polynomial": (lambda: Polynomial((-1, 1, 1, 0)), "coeffs", "Polynomial(coeffs=(-1, 1, 1))"),
    "RationalFunction": (
        lambda: closed_gf(Word("HH")), "num",
        "RationalFunction(num=Polynomial(coeffs=(0, 0, -1)), den=Polynomial(coeffs=(-1, 1, 1)))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_an_immutable_value(name):
    make, field, text = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == text
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)
        assert repr(twin) == text
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b and repr(a) == text
