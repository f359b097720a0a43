"""Dense univariate polynomials over exact rationals or big floats.

Coefficients are stored ascending: index i holds the coefficient of x**i.
The zero polynomial is the empty coefficient tuple; otherwise the trailing
coefficient is nonzero.  All operations are pure and values immutable.
"""

from __future__ import annotations

from fractions import Fraction


def _is_zero(c) -> bool:
    return c == 0


class Polynomial:
    __slots__ = ("coeffs",)

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
        """Monic product of (x - r) over the given roots; empty list gives 1."""
        p = cls((Fraction(1),))
        for r in roots:
            p = p * cls((-r, Fraction(1)))
        return p

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
        lead = other.coeffs[-1]
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

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- calculus and evaluation ------------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __call__(self, x):
        """Horner evaluation in the promoted backend of x and the coefficients."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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
