"""Floating-point closed forms for the counts, with a measured trust range.

The counts are the Taylor coefficients of x**k / D(x), so partial fractions
give a(n) = sum over the roots r of D of -r**(k-1-n) / D'(r) for n >= 1.
The root x = 1 occurs exactly when the pattern has no proper self-overlap;
it is divided out exactly and contributes an exact polynomial in n.  The
other roots must be simple (``solve_denominator`` checks).  Keeping only
the roots with |r| <= 1 and rounding to the nearest integer recovers the
exact count as long as the dropped terms stay below 1/2 and double
precision can still tell integers apart.  How far that holds is not
assumed: ``certify_horizon`` measures it against the exact recurrence and
stores the result.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .counting import builtin_spec, extend_counts
from .words import Word

__all__ = [
    "DEFAULT_CERTIFY_PROBE",
    "RESIDUAL_TOL",
    "ClosedFormModel",
    "certify_horizon",
    "closed_form_count",
    "root_formula_count",
    "secondary_term",
    "solve_denominator",
]

RESIDUAL_TOL = 1e-12
DEFAULT_CERTIFY_PROBE = 70

_REAL_EPS = 1e-9  # imaginary part below this means a real root
_UNIT_EPS = 1e-9  # |r| < 1 + this counts as |r| <= 1: (HT)^j words have roots on |x| = 1
_REPEAT_EPS = 1e-6  # numeric roots closer than this are taken as one repeated root


@dataclass
class ClosedFormModel:
    """Denominator roots plus the largest n the rounding formula is certified for.

    Roots are ordered real-first by ascending magnitude, then complex with the
    positive-imaginary member of each conjugate pair first.  ``weights`` are
    -1/D'(r), aligned with ``roots``, and 0 at the exact root x = 1, whose
    part is the polynomial ``unit_slope * n + unit_intercept``.  Only
    ``reliability_horizon`` is ever mutated (by ``certify_horizon``).
    """

    word: Word
    roots: tuple[complex, ...]
    weights: tuple[complex, ...]
    unit_slope: float
    unit_intercept: float
    reliability_horizon: int


def _ceval(coeffs: tuple[float, ...], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _polish_root(z: complex, coeffs: tuple[float, ...]) -> complex:
    """Newton refinement; skipped near multiple roots where the slope vanishes."""
    deriv = tuple(k * c for k, c in enumerate(coeffs))[1:]
    for _ in range(4):
        slope = _ceval(deriv, z)
        if abs(slope) < 1e-9:
            break
        step = _ceval(coeffs, z) / slope
        z -= step
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            break
    return z


def _ordered(poles: list[tuple[complex, complex]]) -> list[tuple[complex, complex]]:
    """(root, weight) pairs in the documented root order, conjugates pinned exactly."""
    reals = sorted(
        (
            (complex(z.real, 0.0), complex(c.real, 0.0))
            for z, c in poles
            if abs(z.imag) < _REAL_EPS
        ),
        key=lambda p: (abs(p[0]), p[0].real),
    )
    upper = sorted(
        ((z, c) for z, c in poles if z.imag >= _REAL_EPS), key=lambda p: abs(p[0])
    )
    return reals + [
        pair for z, c in upper for pair in ((z, c), (z.conjugate(), c.conjugate()))
    ]


def solve_denominator(w: Word, probe: int = DEFAULT_CERTIFY_PROBE) -> ClosedFormModel:
    """Solve D(x) = 0 and certify the rounding horizon.

    Factors of x - 1 are divided out exactly; the rest goes through the numpy
    companion-matrix solver with Newton polishing.  Residuals above
    RESIDUAL_TOL, or two roots that coincide, indicate a solver failure (the
    partial fractions need simple roots) and raise.
    """
    k = len(w)
    den = builtin_spec(w).den
    quot, unit = den, 0
    while sum(quot) == 0:  # D(1) = 0: divide by x - 1, exactly
        quot = tuple(-s for s in itertools.accumulate(quot))[:-1]
        unit += 1
    coeffs = tuple(map(float, quot))
    found = [_polish_root(complex(z), coeffs) for z in np.roots(coeffs[::-1])]
    worst = max((abs(_ceval(coeffs, z)) for z in found), default=0.0)
    if worst > RESIDUAL_TOL:
        raise ArithmeticError(
            f"root polishing for {w} stalled at residual {worst:.3e}"
        )
    if any(abs(a - b) < _REPEAT_EPS for a, b in itertools.combinations(found, 2)):
        raise ArithmeticError(f"denominator of {w} has a repeated root")
    deriv = tuple(float(j * d) for j, d in enumerate(den))[1:]
    poles = [(z, -1 / _ceval(deriv, z)) for z in found] + [(1 + 0j, 0j)] * unit
    roots, weights = zip(*_ordered(poles))
    # The pole at x = 1 contributes -Res x**(k-1-n) / D(x) there: a constant
    # for a simple pole, and linear in n for the double pole of HT.
    q1, dq1 = sum(quot), sum(j * q for j, q in enumerate(quot))
    if unit == 2:
        unit_slope, unit_intercept = 1 / q1, (1 - k) / q1 + dq1 / q1**2
    else:
        unit_slope, unit_intercept = 0.0, -unit / q1
    model = ClosedFormModel(
        word=w,
        roots=roots,
        weights=weights,
        unit_slope=unit_slope,
        unit_intercept=unit_intercept,
        reliability_horizon=0,
    )
    certify_horizon(model, probe)
    return model


def _root_terms(model: ClosedFormModel, n: int, inside: bool) -> complex:
    """Sum of -r**(k-1-n)/D'(r) over the roots with |r| <= 1 (or > 1 if not inside)."""
    k = len(model.word)
    total = 0j
    for z, c in zip(model.roots, model.weights):
        if c and (abs(z) < 1 + _UNIT_EPS) == inside:
            total += c * z ** (k - 1 - n)
    return total


def _formula_value(model: ClosedFormModel, n: int) -> int:
    """The rounded closed-form count, with no horizon guard."""
    if n < len(model.word):
        return 0
    unit_part = model.unit_slope * n + model.unit_intercept
    return round(unit_part + _root_terms(model, n, True).real)


def closed_form_count(model: ClosedFormModel, n: int) -> int:
    """Exact count a(n) computed in double precision and rounded.

    Refuses n beyond the certified horizon, where accumulated floating error
    could silently flip the rounding.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > model.reliability_horizon:
        raise ValueError(
            f"n={n} is beyond the certified horizon {model.reliability_horizon} "
            f"for {model.word}; recertify with certify_horizon to extend"
        )
    return _formula_value(model, n)


def certify_horizon(model: ClosedFormModel, n_probe: int) -> int:
    """Largest n <= n_probe with the rounding formula exact for ALL k <= n.

    Compared term by term against the exact recurrence; the result is stored
    on the model as its new reliability_horizon.
    """
    exact = extend_counts(builtin_spec(model.word), n_probe)
    horizon = 0
    for n in range(1, n_probe + 1):
        if _formula_value(model, n) != exact.at(n):
            break
        horizon = n
    model.reliability_horizon = horizon
    return horizon


def root_formula_count(model: ClosedFormModel, n: int) -> complex:
    """Full partial-fraction expression for a(n), n >= 1, in complex floats.

    The exact part from x = 1 plus -r**(k-1-n)/D'(r) over every other root r.
    Its imaginary part measures only floating noise.
    """
    return (
        model.unit_slope * n
        + model.unit_intercept
        + _root_terms(model, n, True)
        + _root_terms(model, n, False)
    )


def secondary_term(model: ClosedFormModel, n: int) -> float:
    """Magnitude of the part the rounding formula throws away at n.

    That is the terms of the roots with |r| > 1.  Rounding recovers the exact
    count precisely when this stays below 1/2 (for HTH that is only claimed
    from n = 3 on).
    """
    return abs(_root_terms(model, n, False))
