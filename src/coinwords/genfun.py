"""Exact polynomials and rational functions on integer coefficients.

The power series of interest carry the first-occurrence counts a(n) as
coefficients: ``finite_gf`` is the degree-m partial sum with a(n) on x**n,
and every pattern has the closed rational form x**k / D(x), built on its
autocorrelation denominator D (see ``counting``), whose Taylor expansion at
0 reproduces the whole sequence.  Every polynomial built here has integer
coefficients; a ``Fraction`` appears only when one is evaluated (at 1/2, the
probability of seeing the pattern within m tosses) or expanded by ``series``.
"""

from fractions import Fraction

from .counting import _terms_at, builtin_spec, counts
from .words import Word, _Record, _set_field

__all__ = [
    "Polynomial",
    "RationalFunction",
    "closed_gf",
    "finite_gf",
    "truncation_remainder",
]


class Polynomial(_Record):
    """Coefficients in ascending degree; trailing zeros trimmed, zero = ()."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] = ()) -> None:
        cs = tuple(coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        _set_field(self, "coeffs", cs)

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        mixed = list(a)
        for i, c in enumerate(b):
            mixed[i] += c
        return Polynomial(tuple(mixed))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(tuple(out))

    def __call__(self, x: int | Fraction) -> Fraction:
        """Exact value at x = p/q: Horner on sum c_i p**i q**(d-i) in integers, over q**d."""
        p, q = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * p + c * scale
            scale *= q
        return Fraction(acc * q, scale)

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            elif mag == 1:
                body = "x" if k == 1 else f"x^{k}"
            else:
                body = f"{mag}*x" if k == 1 else f"{mag}*x^{k}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)


class RationalFunction(_Record):
    """Quotient of two exact polynomials, compared and hashed as written (unreduced)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial) -> None:
        if not den.coeffs:
            raise ZeroDivisionError("rational function with zero denominator")
        _set_field(self, "num", num)
        _set_field(self, "den", den)

    def derivative(self) -> "RationalFunction":
        """Quotient-rule derivative, left unreduced."""
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, x: int | Fraction) -> Fraction:
        bottom = self.den(x)
        if bottom == 0:
            raise ZeroDivisionError(f"denominator vanishes at x = {x}")
        return self.num(x) / bottom

    def series(self, n_max: int) -> tuple[Fraction, ...]:
        """Taylor coefficients c_0..c_n_max at 0.

        Driven by the denominator's induced recurrence on the coefficient
        stream: q_0 c_n = p_n - sum(q_k c_{n-k}), so the only divisions are
        by the constant term, which must be nonzero.
        """
        q = self.den.coeffs
        if not q or q[0] == 0:
            raise ValueError(
                "denominator has zero constant term: no Taylor expansion at 0"
            )
        out: list[Fraction] = []
        for n in range(n_max + 1):
            acc = self.num.coefficient(n)
            for k in range(1, min(n, len(q) - 1) + 1):
                acc -= q[k] * out[n - k]
            out.append(Fraction(acc, q[0]))
        return tuple(out)

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"


def finite_gf(w: Word, m: int) -> Polynomial:
    """Partial sum polynomial: coefficient of x**n is a(n) for 1 <= n <= m."""
    if m < 1:
        raise ValueError(f"partial-sum degree m must be >= 1, got {m}")
    seq = counts(w, m)
    return Polynomial((0, *seq.values))


def closed_gf(w: Word) -> RationalFunction:
    """Closed rational form x**k / D(x) whose Taylor coefficients at 0 are a(n).

    Written as (-x**k) / (-D(x)), so the denominator is
    -1 + A x + B x**2 + ... with (A, B, ...) the recurrence coefficients
    a(n) = A a(n-1) + B a(n-2) + ....  The numerator is a power of x and
    D(0) = 1, so the form is always in lowest terms.  Complements share one
    form.
    """
    den = builtin_spec(w).den
    return RationalFunction(
        Polynomial((0,) * len(w) + (-1,)), Polynomial(tuple(-d for d in den))
    )


def truncation_remainder(w: Word, m: int) -> Polynomial:
    """The remainder polynomial R_m with finite_gf(w, m) * den == num * (1 - R_m).

    The dropped tail sum(a(n) x**n for n > m) times D(x) is x**k R_m, and the
    recurrence cancels every power past x**(m+k).  With D_0 = 1, that leaves
    R_m = x**(m+1-k) * sum(sum(D_i a(m+j-i) for i < j) x**(j-1) for j = 1..k),
    defined for m >= max(1, k - 1).
    """
    k = len(w)
    lowest = max(1, k - 1)
    if m < lowest:
        raise ValueError(
            f"truncation remainder of a length-{k} word needs m >= {lowest}, got {m}"
        )
    spec = builtin_spec(w)
    a = _terms_at(spec, range(m + 1, m + k + 1))  # a(m + 1) .. a(m + k)
    top = [sum(spec.den[i] * a[j - 1 - i] for i in range(j)) for j in range(1, k + 1)]
    return Polynomial((0,) * (m + 1 - k) + tuple(top))
