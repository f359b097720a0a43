"""Exact polynomial arithmetic over the rationals."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sturmion.poly import Polynomial
from sturmion.scalars import BigFloat, to_fraction


def make(*coeffs):
    return Polynomial(tuple(Fraction(c) for c in coeffs))


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=7)
polys = st.lists(rationals, min_size=0, max_size=6).map(
    lambda cs: Polynomial(tuple(cs)))


coefficient_lists = st.lists(st.one_of(rationals, st.integers(-2**80, 2**80),
                                       st.just(0)), max_size=8)


def assert_canonical(p):
    assert p.den > 0
    assert math.gcd(*p.num, p.den) == 1
    assert not p.num or p.num[-1] != 0


@given(coefficient_lists, polys)
def test_canonical_form(cs, b):
    p = Polynomial(cs)
    results = [p, p + b, p - b, p * b, -p, p.derivative(), p.compose(b)]
    if not b.is_zero:
        results += divmod(p, b)
    for r in results:
        assert_canonical(r)
    while cs and cs[-1] == 0:
        cs = cs[:-1]
    assert p.coeffs == tuple(Fraction(c) for c in cs)


@given(polys, polys, st.lists(rationals, max_size=6))
def test_equal_polynomials_have_equal_fields(a, b, roots):
    linear = Polynomial((1,))
    for r in roots:
        linear = linear * Polynomial((-r, 1))
    for p, q in ((Polynomial.from_roots(roots), linear), ((a + b) - b, a),
                 (a * b, b * a)):
        assert (p.num, p.den, hash(p)) == (q.num, q.den, hash(q))


def test_trailing_zeros_are_stripped():
    assert make(1, 2, 0, 0) == make(1, 2)
    assert make(0, 0).degree == -1


def test_degree_and_leading():
    p = make(-6, 11, -6, 1)
    assert p.degree == 3
    assert p.coeffs[-1] == 1


def test_evaluation_by_horner():
    p = make(-6, 11, -6, 1)  # (x-1)(x-2)(x-3)
    assert p(Fraction(0)) == -6
    assert p(Fraction(2)) == 0
    assert p(Fraction(5, 2)) == Fraction(-3, 8)


def test_from_roots():
    p = Polynomial.from_roots([Fraction(1), Fraction(2), Fraction(3)])
    assert p == make(-6, 11, -6, 1)


def test_derivative():
    p = make(5, 0, 3, 2)
    assert p.derivative() == make(0, 6, 6)
    assert make(7).derivative().degree == -1


def test_long_division_exact():
    num = make(-6, 11, -6, 1)
    den = make(-3, 1)
    q, r = divmod(num, den)
    assert q == make(2, -3, 1)
    assert r.degree == -1


def test_long_division_with_remainder():
    num = make(1, 0, 1)  # x^2 + 1
    den = make(-1, 1)
    q, r = divmod(num, den)
    assert q == make(1, 1)
    assert r == make(2)


def test_long_division_of_int_coefficients_is_exact():
    # x^2 + 3 = (3/2 x) (2x) + 1, not 1.5 x
    q, r = divmod(Polynomial((1, 0, 3)), Polynomial((0, 2)))
    assert q == make(0, Fraction(3, 2))
    assert all(type(c) is Fraction for c in q.coeffs)
    assert r == make(1)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        divmod(make(1, 1), Polynomial())


def test_shift():
    p = make(0, 0, 1)  # x^2
    assert p.shift(Fraction(1)) == make(1, 2, 1)
    assert p.shift(Fraction(-1)) == make(1, -2, 1)


def test_compose():
    p = make(1, 1)  # x + 1
    inner = make(0, 0, 1)
    assert p.compose(inner) == make(1, 0, 1)


@given(polys, polys)
def test_divmod_reconstructs(a, b):
    if b.degree < 0:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(polys, polys)
def test_product_rule(a, b):
    left = (a * b).derivative()
    right = a.derivative() * b + a * b.derivative()
    assert left == right


@given(polys, polys, rationals)
def test_ring_operations_agree_pointwise(a, b, x):
    assert (a + b)(x) == a(x) + b(x)
    assert (a - b)(x) == a(x) - b(x)
    assert (a * b)(x) == a(x) * b(x)


# exact scalars with numerators past 256 bits and mixed denominators
big_ints = st.integers(min_value=-2**300, max_value=2**300)
exact = st.one_of(
    big_ints,
    st.builds(Fraction, big_ints, st.integers(min_value=1, max_value=2**70)),
    rationals)
exact_polys = st.lists(st.one_of(exact, st.just(0)), max_size=9).map(
    Polynomial)


def fraction_horner(p, x):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


@settings(max_examples=200, deadline=None)
@given(exact_polys, st.lists(exact, min_size=1, max_size=4),
       st.sampled_from([64, 256]))
def test_exact_evaluation_is_horner(p, points, precision):
    twin = Polynomial(p.coeffs)
    before = hash(p)
    for x in points:
        value = p(x)
        assert type(value) is Fraction
        assert value == fraction_horner(p, x)
        xf = BigFloat(x, precision)
        exact_value = fraction_horner(p, to_fraction(xf))
        got = p(xf)
        assert got.precision == precision
        assert abs(to_fraction(got) - exact_value) <= ulp(exact_value,
                                                         precision)
    assert p == twin and hash(p) == before


def ulp(v: Fraction, precision: int) -> Fraction:
    """Unit in the last place of v at ``precision`` bits; 0 for v = 0."""
    if v == 0:
        return Fraction(0)
    v = abs(v)
    e = v.numerator.bit_length() - v.denominator.bit_length()
    if Fraction(2) ** e > v:
        e -= 1
    return Fraction(2) ** (e - precision + 1)


def test_floating_evaluation_near_and_at_a_root():
    # a triple root at 1/3 cancels about 3 * precision bits, and -1/2 is a
    # root that a floating point holds exactly
    p = Polynomial.from_roots([Fraction(1, 3)] * 3 + [Fraction(-1, 2)])
    for precision in (64, 512):
        near = BigFloat(Fraction(1, 3), precision)
        exact_value = fraction_horner(p, to_fraction(near))
        assert exact_value != 0
        assert abs(to_fraction(p(near)) - exact_value) <= ulp(exact_value,
                                                              precision)
        assert p(BigFloat(Fraction(-1, 2), precision)) == 0


def test_inexact_coefficient_is_not_evaluated():
    # no polynomial holds a floating coefficient, so none is evaluated
    with pytest.raises(TypeError, match="inexact coefficient"):
        Polynomial((Fraction(1), BigFloat(2)))
    for p in (make(1, 1), Polynomial()):
        for product in (lambda: p * BigFloat(2), lambda: BigFloat(2) * p):
            with pytest.raises(TypeError, match="inexact coefficient"):
                product()


def test_from_roots_rejects_a_float_root():
    with pytest.raises(TypeError):
        Polynomial.from_roots([Fraction(1), BigFloat(2)])


@given(st.lists(st.one_of(st.integers(-50, 50), rationals), max_size=8))
def test_from_roots_is_the_product_of_linear_factors(roots):
    roots = roots + roots[:2]  # repeated roots
    expected = Polynomial((Fraction(1),))
    for r in roots:
        expected = expected * Polynomial((-r, Fraction(1)))
    got = Polynomial.from_roots(roots)
    assert got == expected
    assert all(type(c) is Fraction for c in got.coeffs)
    assert Polynomial.from_roots([]) == make(1)
