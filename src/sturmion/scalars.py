"""Scalar backends: exact rationals and explicit-precision big floats.

The exact backend is ``fractions.Fraction`` (always normalized, positive
denominator).  The floating backend is :class:`BigFloat`, a thin wrapper
around mpmath that carries its precision in bits with every value, so two
values of different precision combine at the larger one and rationals
promote to BigFloat when mixed.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

DEFAULT_PRECISION = 256
MIN_PRECISION = 64

#: Comparison tolerance used for default-precision checks, 2**-200.
DEFAULT_TOLERANCE = Fraction(1, 2**200)


class BigFloat:
    """A floating value at an explicit binary precision (>= 64 bits)."""

    __slots__ = ("value", "precision")

    def __init__(self, value, precision: int = DEFAULT_PRECISION):
        if precision < MIN_PRECISION:
            raise ValueError(
                f"precision must be >= {MIN_PRECISION} bits, got {precision}"
            )
        object.__setattr__(self, "precision", int(precision))
        with mpmath.workprec(precision):
            if isinstance(value, BigFloat):
                mpf = +value.value
            elif isinstance(value, Fraction):
                mpf = mpmath.mpf(value.numerator) / value.denominator
            else:
                mpf = mpmath.mpf(value)
        object.__setattr__(self, "value", mpf)

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, BigFloat):
            return other
        if isinstance(other, (int, Fraction)):
            return BigFloat(other, self.precision)
        return None

    def _binop(self, other, op):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prec = max(self.precision, other.precision)
        with mpmath.workprec(prec):
            return BigFloat(op(self.value, other.value), prec)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        with mpmath.workprec(self.precision):
            return BigFloat(self.value**n, self.precision)

    def __neg__(self):
        with mpmath.workprec(self.precision):
            return BigFloat(-self.value, self.precision)

    def __pos__(self):
        return self

    def __abs__(self):
        with mpmath.workprec(self.precision):
            return BigFloat(abs(self.value), self.precision)

    # -- comparison -------------------------------------------------------

    def _cmp_value(self, other):
        if isinstance(other, BigFloat):
            return other.value
        if isinstance(other, (int, Fraction)):
            return mpmath.mpf(other.numerator) / other.denominator \
                if isinstance(other, Fraction) else other
        return None

    def __eq__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is None else self.value == v

    def __lt__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is None else self.value < v

    def __le__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is None else self.value <= v

    def __gt__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is None else self.value > v

    def __ge__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is None else self.value >= v

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return f"BigFloat({mpmath.nstr(self.value, 17)}, precision={self.precision})"


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def to_fraction(x) -> Fraction:
    """Exact rational value of a scalar (every BigFloat is dyadic)."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, BigFloat):
        sign, man, exp, _ = x.value._mpf_
        mag = Fraction(int(man)) * (
            Fraction(2) ** exp if exp >= 0 else Fraction(1, 2 ** -exp))
        return -mag if sign else mag
    raise TypeError(f"not a scalar: {x!r}")


def cos_pi(t: Fraction, precision: int = DEFAULT_PRECISION) -> BigFloat:
    """cos(pi*t) for rational t, evaluated at the requested precision."""
    with mpmath.workprec(precision + 16):
        v = mpmath.cospi(mpmath.mpf(t.numerator) / t.denominator)
    return BigFloat(v, precision)


def sin_pi(t: Fraction, precision: int = DEFAULT_PRECISION) -> BigFloat:
    """sin(pi*t) for rational t, evaluated at the requested precision."""
    with mpmath.workprec(precision + 16):
        v = mpmath.sinpi(mpmath.mpf(t.numerator) / t.denominator)
    return BigFloat(v, precision)


# -- serialization --------------------------------------------------------

def scalar_str(x) -> str:
    """Canonical string form: ``num/den`` in lowest terms, bare ``n`` for integers."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    raise TypeError(f"not a rational scalar: {x!r}")


def parse_rational(text: str) -> Fraction:
    """Parse ``num/den``, bare integers, or decimal literals exactly."""
    return Fraction(text.strip())


def scalar_json(x):
    """JSON-ready form of a scalar (rational string or BigFloat object)."""
    if isinstance(x, (int, Fraction)):
        return scalar_str(Fraction(x))
    if isinstance(x, BigFloat):
        digits = int(x.precision * 0.302) + 2
        return {
            "value": mpmath.nstr(x.value, digits),
            "precision_bits": x.precision,
        }
    raise TypeError(f"not a scalar: {x!r}")
