"""Exact analysis of first-occurrence waiting times for H/T patterns in fair coin flips."""

from .closedform import (
    ClosedFormModel,
    certify_horizon,
    closed_form_count,
    root_formula_count,
    secondary_term,
    solve_denominator,
)
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
from .montecarlo import (
    EmpiricalSummary,
    TrialConfig,
    run_trials,
    sample_waiting_time,
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
    first_occurrence_ends_at,
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
    "first_occurrence_ends_at",
    "moments",
    "nth_term",
    "parse_word",
    "partial_moment_sums",
    "pmf",
    "root_formula_count",
    "run_trials",
    "sample_waiting_time",
    "secondary_term",
    "solve_denominator",
    "tail",
    "threshold",
    "transition_table",
    "truncation_remainder",
]
