"""Dense univariate polynomials over exact rationals.

Coefficients are stored ascending: index i holds the coefficient of x**i.
The zero polynomial is the empty coefficient tuple; otherwise the trailing
coefficient is nonzero.  All operations are pure and values immutable.

Evaluation runs one integer Horner loop over the cached cleared
coefficients, with one denominator at the end: exactly at an ``int`` or
``Fraction`` point, and in fixed point at a floating point, which is a
dyadic rational, with one rounding to the point's precision.
``from_roots`` multiplies integer linear factors.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import dyadic, is_exact, round_scaled


def _is_zero(c) -> bool:
    return c == 0


class Polynomial:
    # _cleared, set on the first evaluation: (a_n..a_0, D) with integer
    # a_i = c_i * D (the zero polynomial clears to (0,))
    __slots__ = ("coeffs", "_cleared")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def from_roots(cls, roots) -> "Polynomial":
        """Monic product of (x - r) over rational roots; empty list gives 1.

        Multiplies the integer factors (d x - a) for r = a/d and divides
        once by the product of the d.  A root that is not an ``int`` or
        ``Fraction`` raises ``TypeError``.
        """
        out = [1]
        den = 1
        for r in roots:
            if not is_exact(r):
                raise TypeError(f"from_roots takes rational roots, got {r!r}")
            a, d = r.numerator, r.denominator
            out = [d * hi - a * lo for hi, lo in zip([0] + out, out + [0])]
            den *= d
        return cls(tuple(Fraction(c, den) for c in out))

    # -- structure --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Long division: self = q*other + r with deg r < deg other."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = Fraction(other.coeffs[-1])  # so that int / lead is exact
        if len(rem) <= d:
            return Polynomial(), Polynomial(rem)
        q = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if _is_zero(c):
                continue
            f = c / lead
            q[i - d] = f
            for j in range(d + 1):
                rem[i - d + j] = rem[i - d + j] - f * other.coeffs[j]
        return Polynomial(q), Polynomial(rem[:d])

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- calculus and evaluation ------------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def _clear(self):
        cs = self.coeffs or (0,)
        if not all(is_exact(c) for c in cs):
            raise TypeError(f"cannot evaluate {self!r}: inexact coefficient")
        den = math.lcm(*(c.denominator for c in cs))
        cleared = (tuple(c.numerator * (den // c.denominator)
                         for c in reversed(cs)), den)
        object.__setattr__(self, "_cleared", cleared)
        return cleared

    def __call__(self, x):
        """Horner evaluation on the cached cleared coefficients a_n..a_0, D.

        At an ``int`` or ``Fraction`` x = p/q it sums a_i p^i q^(n-i) and
        returns one exact ``Fraction``.  At a floating x = m/2^e it runs the
        same loop in fixed point with f fraction bits, doubling f until the
        truncation error is below 2^-(prec+2) of the sum, and rounds the sum
        over D 2^f once to nearest at the precision of x: the value is
        within one ulp of the polynomial's exact value at x.  A coefficient
        that is not exact raises ``TypeError``.
        """
        try:
            cleared = self._cleared
        except AttributeError:
            cleared = self._clear()
        top_down, den = cleared
        if is_exact(x):
            p, q = x.numerator, x.denominator
            acc, qk = top_down[0], 1
            for a in top_down[1:]:
                qk *= q
                acc = acc * p + a * qk
            return Fraction(acc, den * qk)
        m, e = dyadic(x)
        prec = x.precision
        n = len(top_down) - 1
        # each step truncates by under one unit of 2^-f, and a later step
        # scales an earlier error by |x|: the sum is off by under
        # n max(1, |x|)^n <= 2^slack units; with f >= n e no step truncates
        slack = n.bit_length() + n * max(0, m.bit_length() - e)
        f = prec + 32 + slack
        while True:
            acc = top_down[0] << f
            for a in top_down[1:]:
                acc = ((acc * m) >> e) + (a << f)
            if f >= n * e or abs(acc).bit_length() > prec + 2 + slack:
                return round_scaled(acc, den, f, prec)
            f *= 2

    def shift(self, h) -> "Polynomial":
        """p(x + h), by Horner over the polynomial ring."""
        return self.compose(Polynomial((h, Fraction(1))))

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """p(inner(x))."""
        acc = Polynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial.constant(c)
        return acc

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if _is_zero(c):
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "Polynomial(" + " + ".join(terms) + ")"
