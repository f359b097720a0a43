"""The two scalar backends: exact rationals and tracked-precision floats."""

import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from sturmion.scalars import (
    DEFAULT_PRECISION,
    BigFloat,
    cos_pi,
    is_exact,
    parse_rational,
    scalar_json,
    scalar_str,
    sin_pi,
    to_fraction,
    tolerance,
)


def test_minimum_precision_enforced():
    with pytest.raises(ValueError):
        BigFloat(1, 32)


def test_precision_combines_to_max():
    a = BigFloat(Fraction(1, 3), 128)
    b = BigFloat(Fraction(1, 7), 192)
    assert (a + b).precision == 192
    assert (a * b).precision == 192


def test_mixed_arithmetic_promotes_rationals():
    a = BigFloat(Fraction(1, 3), 128)
    assert isinstance(a + Fraction(1, 6), BigFloat)
    assert isinstance(2 * a, BigFloat)
    assert abs(to_fraction(a + Fraction(1, 6)) - Fraction(1, 2)) \
        < Fraction(1, 2**120)


def test_negation_keeps_full_precision():
    v = cos_pi(Fraction(1, 4), 256)
    w = -v
    assert abs(to_fraction(v) + to_fraction(w)) == 0
    assert abs(to_fraction(w) ** 2 - Fraction(1, 2)) < Fraction(1, 2**250)


def test_comparisons():
    a = BigFloat(Fraction(1, 3), 128)
    assert a > Fraction(1, 4)
    assert a < Fraction(1, 2)
    assert a > 0


def test_rational_comparisons_are_exact():
    # a Fraction rounded to 53 bits would call both of these wrong
    below = Fraction(1, 3) - Fraction(1, 2**100)
    assert BigFloat(below, 256) < Fraction(1, 3)
    tenth = BigFloat(Fraction(1, 10), 256)
    assert not tenth < Fraction(1, 10)
    assert tenth != Fraction(1, 10)
    assert tenth == to_fraction(tenth)


def test_tolerance_follows_precision():
    assert tolerance(256) == Fraction(1, 2**200)
    assert tolerance(512) < tolerance(256) < tolerance(128) < tolerance(64)


def test_is_exact_and_promote():
    assert is_exact(Fraction(1, 2))
    assert is_exact(3)
    assert not is_exact(BigFloat(1, 64))


def test_trig_values():
    assert abs(to_fraction(cos_pi(Fraction(1, 3)))
               - Fraction(1, 2)) < Fraction(1, 2**250)
    assert abs(to_fraction(sin_pi(Fraction(1, 6)))
               - Fraction(1, 2)) < Fraction(1, 2**250)
    assert abs(to_fraction(sin_pi(Fraction(1, 2)))
               - 1) < Fraction(1, 2**250)


def test_to_fraction_is_exact_on_dyadics():
    v = BigFloat(Fraction(3, 8), 64)
    assert to_fraction(v) == Fraction(3, 8)


def test_scalar_str():
    assert scalar_str(Fraction(2, 4)) == "1/2"
    assert scalar_str(Fraction(-3)) == "-3"
    assert scalar_str(7) == "7"


def test_scalar_str_past_the_int_digit_limit():
    big = 10**5000 + 1
    assert len(scalar_str(Fraction(big, 3))) == 5001 + 2
    assert scalar_str(-big) == "-1" + "0" * 4999 + "1"


def test_parse_rational():
    assert parse_rational("2/6") == Fraction(1, 3)
    assert parse_rational(" -5 ") == Fraction(-5)
    with pytest.raises(ValueError):
        parse_rational("x")


def test_scalar_json_forms():
    assert scalar_json(Fraction(1, 2)) == "1/2"
    payload = scalar_json(BigFloat(Fraction(1, 4), 64))
    assert payload["precision_bits"] == 64
    assert payload["value"].startswith("0.25")


def test_default_precision():
    assert BigFloat(1).precision == DEFAULT_PRECISION



# -- the libmp arithmetic against the old mpmath-context semantics --------

# numerators past 512 bits, so that rounding the numerator first matters
RATIONALS = st.builds(Fraction, st.integers(-2**600, 2**600),
                      st.integers(1, 2**300))
PRECISIONS = st.sampled_from((64, 96, 128, 256, 512))
OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)


def _old_round(value, prec):
    """The old BigFloat(value, prec): round(numerator) / denominator."""
    with mpmath.workprec(prec):
        return mpmath.mpf(value.numerator) / value.denominator


def _old_binop(op, left, right):
    """op on two (value, precision) operands under workprec of the larger
    precision; a rational operand has precision None and is rounded at the
    other operand's."""
    (lv, lp), (rv, rp) = left, right
    lp, rp = lp or rp, rp or lp
    with mpmath.workprec(max(lp, rp)):
        return op(_old_round(lv, lp), _old_round(rv, rp))


def _old_unary(op, value, prec):
    with mpmath.workprec(prec):
        return op(_old_round(value, prec))


def _old_of_pi_times(func, t, prec):
    with mpmath.workprec(prec + 16):
        v = func(mpmath.mpf(t.numerator) / t.denominator)
    with mpmath.workprec(prec):
        return +v


def _exact(m) -> Fraction:
    sign, man, exp, _ = m._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _new_and_old(a, b, pa, pb, k):
    """Pairs (new, old) of exact values for every operation on a and b."""
    x, y = BigFloat(a, pa), BigFloat(b, pb)
    pairs = [(x, _old_round(a, pa)),
             (-x, _old_unary(lambda m: -m, a, pa)),
             (abs(x), _old_unary(abs, a, pa)),
             (cos_pi(a, pa), _old_of_pi_times(mpmath.cospi, a, pa)),
             (sin_pi(a, pa), _old_of_pi_times(mpmath.sinpi, a, pa))]
    if a or k >= 0:
        pairs.append((x ** k, _old_unary(lambda m: m ** k, a, pa)))
    int_b = b.numerator
    operands = [(x, (a, pa), y, (b, pb)), (y, (b, pb), x, (a, pa)),
                (x, (a, pa), b, (b, None)), (b, (b, None), x, (a, pa)),
                (x, (a, pa), int_b, (int_b, None)),
                (int_b, (int_b, None), x, (a, pa))]
    for op in OPERATORS:
        for left, old_left, right, old_right in operands:
            if op is operator.truediv and not to_fraction(right):
                continue
            pairs.append((op(left, right), _old_binop(op, old_left, old_right)))
    return [(to_fraction(new), _exact(old)) for new, old in pairs]


@settings(max_examples=100, deadline=None)
@given(a=RATIONALS, b=RATIONALS, pa=PRECISIONS, pb=PRECISIONS,
       k=st.integers(-5, 7))
def test_libmp_arithmetic_gives_the_old_bits(a, b, pa, pb, k):
    saved = mpmath.mp.prec
    try:
        for global_prec in (53, 1000):
            mpmath.mp.prec = global_prec
            for new, old in _new_and_old(a, b, pa, pb, k):
                assert new == old
    finally:
        mpmath.mp.prec = saved
