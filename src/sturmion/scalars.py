"""Scalar backends: exact rationals and explicit-precision big floats.

The exact backend is ``fractions.Fraction`` (always normalized, positive
denominator).  The floating backend is :class:`BigFloat`, a libmp value
that carries its precision in bits.  Every operation is one
``mpmath.libmp`` call rounded to nearest at the larger operand precision,
so two values of different precision combine at the larger one, rationals
promote to BigFloat when mixed, and mpmath's global precision is never
read or changed.
"""

from __future__ import annotations

import operator
from decimal import Decimal
from fractions import Fraction
from functools import partialmethod

from mpmath.libmp import (
    from_int, from_rational, mpf_abs, mpf_add, mpf_cmp, mpf_cos_pi, mpf_div,
    mpf_hash, mpf_mul, mpf_neg, mpf_pos, mpf_pow_int, mpf_shift, mpf_sin_pi,
    mpf_sub, round_nearest, to_str)

DEFAULT_PRECISION = 256
MIN_PRECISION = 64


class BigFloat:
    """A floating value at an explicit binary precision (>= 64 bits): the
    libmp value ``_mpf_`` rounded to nearest at ``precision`` bits."""

    __slots__ = ("_mpf_", "precision")

    def __init__(self, value, precision: int = DEFAULT_PRECISION):
        """Round an int, a Fraction (as round(numerator) / denominator), a
        libmp tuple or anything with ``_mpf_`` to ``precision`` bits."""
        if precision < MIN_PRECISION:
            raise ValueError(
                f"precision must be >= {MIN_PRECISION} bits, got {precision}"
            )
        precision = int(precision)
        if isinstance(value, (int, Fraction)):
            mpf = mpf_div(from_int(value.numerator, precision, round_nearest),
                          from_int(value.denominator), precision, round_nearest)
        elif isinstance(value, tuple) or hasattr(value, "_mpf_"):
            mpf = mpf_pos(getattr(value, "_mpf_", value), precision,
                          round_nearest)
        else:
            raise TypeError(f"cannot make a BigFloat from {value!r}")
        self._mpf_ = mpf
        self.precision = precision

    # -- arithmetic -------------------------------------------------------

    def _binop(self, other, func, reflected=False):
        if isinstance(other, (int, Fraction)):
            other = BigFloat(other, self.precision)
        elif not isinstance(other, BigFloat):
            return NotImplemented
        prec = max(self.precision, other.precision)
        a, b = (other, self) if reflected else (self, other)
        return BigFloat(func(a._mpf_, b._mpf_, prec, round_nearest), prec)

    def __add__(self, other):
        return self._binop(other, mpf_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, mpf_sub)

    def __rsub__(self, other):
        return self._binop(other, mpf_sub, reflected=True)

    def __mul__(self, other):
        return self._binop(other, mpf_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, mpf_div)

    def __rtruediv__(self, other):
        return self._binop(other, mpf_div, reflected=True)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return BigFloat(mpf_pow_int(self._mpf_, n, self.precision,
                                    round_nearest), self.precision)

    def __neg__(self):
        return BigFloat(mpf_neg(self._mpf_, self.precision, round_nearest),
                        self.precision)

    def __abs__(self):
        return BigFloat(mpf_abs(self._mpf_, self.precision, round_nearest),
                        self.precision)

    # -- comparison -------------------------------------------------------

    def _compare(self, other, op):
        # every BigFloat is dyadic, so a rational compares exactly
        if isinstance(other, BigFloat):
            return op(mpf_cmp(self._mpf_, other._mpf_), 0)
        if isinstance(other, (int, Fraction)):
            return op(to_fraction(self), other)
        return NotImplemented

    __eq__ = partialmethod(_compare, op=operator.eq)
    __lt__ = partialmethod(_compare, op=operator.lt)
    __le__ = partialmethod(_compare, op=operator.le)
    __gt__ = partialmethod(_compare, op=operator.gt)
    __ge__ = partialmethod(_compare, op=operator.ge)

    def __hash__(self):
        return mpf_hash(self._mpf_)

    def __bool__(self):
        return bool(self._mpf_[1])

    def __repr__(self):
        return f"BigFloat({to_str(self._mpf_, 17)}, precision={self.precision})"


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def to_fraction(x) -> Fraction:
    """Exact rational value of a scalar (every BigFloat is dyadic)."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    m, e = dyadic(x)
    return Fraction(m, 1 << e)


def dyadic(x: BigFloat) -> tuple[int, int]:
    """(m, e) with e >= 0 and x = m / 2**e exactly."""
    if not isinstance(x, BigFloat):
        raise TypeError(f"not a scalar: {x!r}")
    sign, man, exp, _ = x._mpf_
    m = -int(man) if sign else int(man)
    return (m << exp, 0) if exp >= 0 else (m, -exp)


def round_scaled(num: int, den: int, shift: int, precision: int) -> BigFloat:
    """num / (den * 2**shift), rounded once to nearest at ``precision`` bits."""
    return BigFloat(mpf_shift(from_rational(num, den, precision, round_nearest),
                              -shift), precision)


def cos_pi(t: Fraction, precision: int = DEFAULT_PRECISION) -> BigFloat:
    """cos(pi*t) for rational t, evaluated at the requested precision."""
    return _of_pi_times(mpf_cos_pi, t, precision)


def sin_pi(t: Fraction, precision: int = DEFAULT_PRECISION) -> BigFloat:
    """sin(pi*t) for rational t, evaluated at the requested precision."""
    return _of_pi_times(mpf_sin_pi, t, precision)


def _of_pi_times(func, t: Fraction, precision: int) -> BigFloat:
    # t and func(pi*t) at 16 guard bits, then one rounding to precision
    wp = precision + 16
    x = mpf_div(from_int(t.numerator, wp, round_nearest),
                from_int(t.denominator), wp, round_nearest)
    return BigFloat(func(x, wp, round_nearest), precision)


# -- serialization --------------------------------------------------------

def scalar_str(x) -> str:
    """Canonical string form: ``num/den`` in lowest terms, bare ``n`` for integers."""
    if isinstance(x, int):
        return _int_str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _int_str(x.numerator)
        return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"
    raise TypeError(f"not a rational scalar: {x!r}")


def _int_str(n: int) -> str:
    """Decimal digits of n, also past the interpreter's int-to-str digit
    limit, which guards the parsing of input, not this output."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def parse_rational(text: str) -> Fraction:
    """Parse ``num/den``, bare integers, or decimal literals exactly."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {text!r}") from None


def scalar_json(x):
    """JSON-ready form of a scalar (rational string or BigFloat object)."""
    if isinstance(x, (int, Fraction)):
        return scalar_str(Fraction(x))
    if isinstance(x, BigFloat):
        digits = int(x.precision * 0.302) + 2
        return {
            "value": to_str(x._mpf_, digits),
            "precision_bits": x.precision,
        }
    raise TypeError(f"not a scalar: {x!r}")
