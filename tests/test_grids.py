"""Classical grids: nodes, characteristic polynomials and the CLI grid
syntax."""

from fractions import Fraction

import pytest

from sturmion import families, grids
from sturmion.poly import Polynomial
from sturmion.scalars import cos_pi, to_fraction
from sturmion.spectral import generate_polys


def test_linear_nodes():
    spec = grids.linear(3)
    assert grids.nodes(spec) == [Fraction(s) for s in range(4)]


def test_quadratic_nodes():
    assert grids.nodes(grids.quadratic(Fraction(1), 2)) == [0, 2, 6]
    assert grids.nodes(grids.quadratic(Fraction(2), 2)) == [0, 3, 8]


def test_exponential_nodes():
    spec = grids.exponential(Fraction(1, 2), 2)
    assert grids.nodes(spec) == [1, 2, 4]


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        grids.quadratic(Fraction(-2), 2)
    with pytest.raises(ValueError):
        grids.exponential(Fraction(3, 2), 2)


def test_characteristic_polynomial_vanishes_on_nodes():
    for spec in (grids.linear(4),
                 grids.quadratic(Fraction(1), 3),
                 grids.quadratic(Fraction(5, 2), 3),
                 grids.exponential(Fraction(2, 3), 3)):
        p = grids.characteristic_polynomial(spec)
        xs = grids.nodes(spec)
        assert p.degree == spec.n + 1
        assert p.coeffs[-1] == 1
        for x in xs:
            assert p(x) == 0


def test_trig_first_nodes_and_polynomial():
    spec = grids.trig_first(2)
    xs = grids.nodes(spec)
    assert len(xs) == 3
    assert abs(to_fraction(xs[1])) < Fraction(1, 2**200)
    p = grids.characteristic_polynomial(spec)
    # monic T_3 = x^3 - (3/4) x
    assert p == Polynomial((Fraction(0), Fraction(-3, 4),
                            Fraction(0), Fraction(1)))
    for x in xs:
        assert abs(to_fraction(p(x))) < Fraction(1, 2**200)


def test_trig_second_nodes_and_polynomial():
    spec = grids.trig_second(2)
    p = grids.characteristic_polynomial(spec)
    # monic U_3 = x^3 - x/2
    assert p == Polynomial((Fraction(0), Fraction(-1, 2),
                            Fraction(0), Fraction(1)))
    for x in grids.nodes(spec):
        assert abs(to_fraction(p(x))) < Fraction(1, 2**200)


def test_monic_chebyshev_closed_form():
    # T_n(cos t) = cos(nt), so monic T_n(cos t) = 2^{1-n} cos(nt)
    for n in range(2, 8):
        t = Fraction(1, 7)
        p = grids.characteristic_polynomial(grids.trig_first(n - 1))
        lhs = p(cos_pi(t))
        rhs = Fraction(1, 2 ** (n - 1)) * cos_pi(Fraction(n) * t)
        assert abs(to_fraction(lhs - rhs)) < Fraction(1, 2**200)


def test_parse_grid():
    assert grids.parse_grid("linear", 3).kind == grids.LINEAR
    spec = grids.parse_grid("quad:tau=3/2", 2)
    assert spec.params == (Fraction(3, 2),)
    spec = grids.parse_grid("exp:q=2/3", 2)
    assert spec.params == (Fraction(2, 3),)
    assert grids.parse_grid("trig1", 2).kind == grids.TRIG_FIRST
    assert grids.parse_grid("trig2", 2).kind == grids.TRIG_SECOND
    with pytest.raises(ValueError):
        grids.parse_grid("nope", 2)


@pytest.mark.parametrize("make, family", [
    (grids.trig_first, families.ChebyshevT),
    (grids.trig_second, families.ChebyshevU)])
def test_trig_characteristic_polynomial_is_the_top_generated_polynomial(
        make, family):
    for n in range(13):
        jm = families.jacobi_matrix(family(), n)
        assert grids.characteristic_polynomial(make(n)) \
            == generate_polys(jm, n + 1)[-1]
