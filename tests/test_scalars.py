"""The two scalar backends: exact rationals and tracked-precision floats."""

from fractions import Fraction

import pytest

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
