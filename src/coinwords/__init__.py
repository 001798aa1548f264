"""Exact analysis of first-occurrence waiting times for H/T patterns in fair coin flips.

The exact layers (``words``, ``counting``, ``genfun``, ``stats``) use only
Python integers and ``Fraction``.  numpy serves root finding
(``closedform``), Monte Carlo (``montecarlo``) and the enumeration oracle
(``brute_force_count``, which imports it when called), and importing it
costs more than the rest of the package.  So ``import coinwords`` loads
neither ``closedform`` nor ``montecarlo``: their submodule names and
exports are served on first use by the module ``__getattr__`` below, and
the exact commands run without numpy.
"""

import importlib

from .counting import (
    ESSENTIAL_WORDS,
    CountSequence,
    RecurrenceSpec,
    automaton_counts,
    builtin_spec,
    counts,
    extend_counts,
    nth_term,
    transition_table,
)
from .genfun import (
    Polynomial,
    RationalFunction,
    closed_gf,
    finite_gf,
    truncation_remainder,
)
from .stats import (
    DyadicRational,
    WordStats,
    cdf,
    closed_tail,
    moments,
    partial_moment_sums,
    pmf,
    tail,
    threshold,
)
from .words import (
    Word,
    all_words,
    brute_force_count,
    enumeration_cap,
    parse_word,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedFormModel",
    "CountSequence",
    "DyadicRational",
    "EmpiricalSummary",
    "ESSENTIAL_WORDS",
    "Polynomial",
    "RationalFunction",
    "RecurrenceSpec",
    "TrialConfig",
    "Word",
    "WordStats",
    "all_words",
    "automaton_counts",
    "brute_force_count",
    "builtin_spec",
    "cdf",
    "certify_horizon",
    "closed_form_count",
    "closed_gf",
    "closed_tail",
    "counts",
    "enumeration_cap",
    "extend_counts",
    "finite_gf",
    "moments",
    "nth_term",
    "parse_word",
    "partial_moment_sums",
    "pmf",
    "root_formula_count",
    "run_trials",
    "secondary_term",
    "solve_denominator",
    "tail",
    "threshold",
    "transition_table",
    "truncation_remainder",
]

# Submodule -> exports loaded on first access rather than at import.
_LAZY = {
    "closedform": (
        "ClosedFormModel",
        "certify_horizon",
        "closed_form_count",
        "root_formula_count",
        "secondary_term",
        "solve_denominator",
    ),
    "montecarlo": ("EmpiricalSummary", "TrialConfig", "run_trials"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
