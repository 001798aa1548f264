"""Exact analysis of first-occurrence waiting times for H/T patterns in fair coin flips.

The exact layers (``words``, ``counting``, ``genfun``, ``stats``) use only
Python integers and ``Fraction``; ``closedform`` and ``verify`` add plain
floats.  numpy serves only Monte Carlo (``montecarlo``).  ``import coinwords``
loads no submodule: ``_EXPORTS`` names each export once, under the
submodule that defines it, and the module ``__getattr__`` below imports a
submodule, or the home of an exported name, on first access.  So each
command loads only the modules it uses, and every command but ``simulate``
runs without numpy.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the names the package exports from it.
_EXPORTS = {
    "words": ("Word", "all_words", "brute_force_count", "parse_word"),
    "counting": ("ESSENTIAL_WORDS", "CountSequence", "RecurrenceSpec", "automaton_counts",
                 "builtin_spec", "counts", "extend_counts", "nth_term", "transition_table"),
    "genfun": ("Polynomial", "RationalFunction", "closed_gf", "finite_gf", "truncation_remainder"),
    "stats": ("DyadicRational", "WordStats", "cdf", "closed_tail", "moments",
              "partial_moment_sums", "pmf", "tail", "threshold"),
    "closedform": ("ClosedFormModel", "certify_horizon", "closed_form_count",
                   "root_formula_count", "secondary_term", "solve_denominator"),
    "montecarlo": ("EmpiricalSummary", "TrialConfig", "run_trials"),
    "verify": (),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        # a loaded submodule is bound here; the name itself is not, so that a
        # wrapper put on the submodule's binding, and its removal, show through
        home = globals().get(_HOME[name]) or importlib.import_module(f"{__name__}.{_HOME[name]}")
        return getattr(home, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# dir() and tab completion list the exports, which stay in their submodules.
def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
