"""Dense univariate polynomials over exact rationals.

A polynomial is stored in one canonical form: integer numerators ``num``,
ascending (index i holds x**i), over one denominator ``den``, with the
trailing numerator nonzero, ``den > 0`` and ``gcd(*num, den) == 1``.  The
zero polynomial is ``num == ()`` over 1.  Equal polynomials have equal
fields, so ``==`` and ``hash`` compare them directly; ``coeffs`` is the
``Fraction`` view.  No operation changes a polynomial in place, and each
runs on the integers with one gcd normalization of its result.

Evaluation is one integer Horner loop with one division by ``den`` at the
end: exact at an ``int`` or ``Fraction`` point, and in fixed point at a
floating point, which is a dyadic rational, with one rounding to the
point's precision.  Division is pseudo-division, the one division that
both ``divmod`` and the root counter's remainder sequence use.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import dyadic, is_exact, round_scaled


def pseudo_divide(a, c) -> tuple[list, list]:
    """(q, r) with lc^(deg a - deg c + 1) a = q c + r and deg r < deg c,
    for integer vectors a and c and lc = c[-1]: division without a
    fraction (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R).  q is empty and
    r is a when deg a < deg c."""
    q, r = [], list(a)
    for j in range(len(a) - len(c), -1, -1):
        t = r.pop()
        q = [t] + [c[-1] * v for v in q]
        r = [c[-1] * v for v in r]
        for i, ci in enumerate(c[:-1]):
            r[j + i] -= t * ci
    return q, r


def _poly(num, den=1) -> "Polynomial":
    """The polynomial num / den, for integers num and den != 0."""
    return object.__new__(Polynomial)._set(list(num), den)


def _monic(vec) -> "Polynomial":
    """vec / vec[-1] for a primitive integer vector vec with vec[-1] > 0,
    which is already the canonical form: taken as it stands."""
    p = object.__new__(Polynomial)
    p.num, p.den = tuple(vec), vec[-1]
    return p


class Polynomial:
    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        """The polynomial with ``int`` or ``Fraction`` coefficients coeffs,
        ascending; any other coefficient raises ``TypeError``."""
        cs = tuple(coeffs)
        if not all(is_exact(c) for c in cs):
            raise TypeError(f"cannot make a polynomial of {cs!r}: "
                            "inexact coefficient")
        den = math.lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, num: list, den: int) -> "Polynomial":
        while num and not num[-1]:
            num.pop()
        g = math.gcd(*num, den)
        if den < 0:
            g = -g
        self.num = tuple(v // g for v in num) if g != 1 else tuple(num)
        self.den = den // g
        return self

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def x(cls) -> "Polynomial":
        return _poly((0, 1))

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
        return _poly(out, den)

    # -- structure --------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients a_0..a_n as ``Fraction``s."""
        return tuple(Fraction(v, self.den) for v in self.num)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.num) - 1

    @property
    def leading(self):
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_monic(self) -> bool:
        return bool(self.num) and self.num[-1] == self.den

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        a = [v * (den // self.den) for v in self.num]
        b = [v * (den // other.den) for v in other.num]
        if len(a) < len(b):
            a, b = b, a
        for i, v in enumerate(b):
            a[i] += v
        return _poly(a, den)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _poly([-v for v in self.num], self.den)

    def __mul__(self, other):
        """The product with a polynomial, or with an ``int`` or ``Fraction``;
        any other factor raises ``TypeError``."""
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            for j, b in enumerate(other.num):
                out[i + j] += a * b
        return _poly(out, self.den * other.den)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """self = q*other + r with deg r < deg other, by one pseudo-division
        of the numerators: with A = lc^k self.num = Q other.num + R, q is
        Q other.den and r is R, both over self.den lc^k."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = pseudo_divide(self.num, other.num)
        den = self.den * other.num[-1] ** len(q)
        return _poly([v * other.den for v in q], den), _poly(r, den)

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- calculus and evaluation ------------------------------------------

    def derivative(self) -> "Polynomial":
        return _poly([i * v for i, v in enumerate(self.num) if i], self.den)

    def __call__(self, x):
        """Horner evaluation on the numerators a_n..a_0 and the denominator D.

        At an ``int`` or ``Fraction`` x = p/q it sums a_i p^i q^(n-i) and
        returns one exact ``Fraction``.  At a floating x = m/2^e it runs the
        same loop in fixed point with f fraction bits, doubling f until the
        truncation error is below 2^-(prec+2) of the sum, and rounds the sum
        over D 2^f once to nearest at the precision of x: the value is
        within one ulp of the polynomial's exact value at x.
        """
        top_down, den = self.num[::-1] or (0,), self.den
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
        return self.compose(Polynomial((h, 1)))

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """p(inner(x)): Horner on the numerators, over den once."""
        acc = Polynomial()
        for a in reversed(self.num):
            acc = acc * inner + _poly((a,))
        return _poly(acc.num, acc.den * self.den)

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "Polynomial(" + " + ".join(terms) + ")"
