"""Christoffel, Geronimus and Uvarov spectral transforms."""

import random
from fractions import Fraction

import pytest

from sturmion import transforms
from sturmion.chain import build_chain, sturmian_pair
from sturmion.poly import Polynomial
from sturmion.spectral import (
    mirror_dual,
    JacobiMatrix,
    SpectralData,
    generate_polys,
    jacobi_from_chain,
)


QHAHN_ANCHOR = JacobiMatrix((Fraction(4, 3), Fraction(5, 3)), (Fraction(2, 9),))


def random_matrix(rng, n):
    b = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5))
              for _ in range(n + 1))
    u = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 6))
              for _ in range(n))
    return JacobiMatrix(b, u)


def test_christoffel_anchor():
    res, rec = transforms.christoffel(QHAHN_ANCHOR, Fraction(0))
    assert res.b == (Fraction(3, 2), Fraction(3, 2))
    assert res.u == (Fraction(1, 4),)
    assert rec.kind == "christoffel"
    assert rec.point == 0


def test_christoffel_polynomial_identity():
    # (x - a) Ptilde_n = P_{n+1} - V_n P_n with V_n = P_{n+1}(a)/P_n(a)
    rng = random.Random(2)
    jm = random_matrix(rng, 4)
    a = Fraction(-20)
    res, _ = transforms.christoffel(jm, a)
    source = generate_polys(jm, 5)
    target = generate_polys(res, 5)
    x = Polynomial.x()
    shift = x - Polynomial.constant(a)
    for n in range(5):
        v = source[n + 1](a) / source[n](a)
        assert shift * target[n] == source[n + 1] - v * source[n]


def test_christoffel_coefficient_route_agrees():
    rng = random.Random(6)
    for _ in range(10):
        jm = random_matrix(rng, rng.randint(1, 6))
        a = Fraction(-30)
        res, _ = transforms.christoffel(jm, a)
        bs, us = transforms.christoffel_coefficients(jm, a)
        assert bs == res.b[:len(bs)]
        assert us == res.u


def test_christoffel_pivot_zero():
    jm = JacobiMatrix((Fraction(0), Fraction(0)), (Fraction(1),))
    with pytest.raises(transforms.PivotZero):
        transforms.christoffel(jm, Fraction(0))


def test_christoffel_inside_spectrum_rejected():
    # x - 1/2 changes sign on the nodes 0, 1, 2: the transformed weights
    # are not all positive, so no Jacobi matrix exists
    chain = build_chain(*sturmian_pair(Polynomial.from_roots(
        (Fraction(0), Fraction(1), Fraction(2)))))
    with pytest.raises(transforms.TransformError):
        transforms.christoffel(jacobi_from_chain(chain), Fraction(1, 2))


def test_geronimus_round_trip():
    res, _ = transforms.christoffel(QHAHN_ANCHOR, Fraction(0))
    # matching seed: phi_1/phi_0 = u_1 / (a - b_0) of the source matrix
    phi1 = QHAHN_ANCHOR.u[0] / (Fraction(0) - QHAHN_ANCHOR.b[0])
    back, rec = transforms.geronimus(res, Fraction(0), Fraction(1), phi1)
    assert back == QHAHN_ANCHOR
    assert rec.kind == "geronimus"


def test_geronimus_round_trip_random():
    rng = random.Random(13)
    for _ in range(15):
        jm = random_matrix(rng, rng.randint(1, 6))
        a = Fraction(-100)
        res, _ = transforms.christoffel(jm, a)
        phi1 = jm.u[0] / (a - jm.b[0])
        back, _ = transforms.geronimus(res, a, Fraction(1), phi1)
        assert back == jm


def test_geronimus_zero_phi_rejected():
    res, _ = transforms.christoffel(QHAHN_ANCHOR, Fraction(0))
    with pytest.raises(transforms.TransformError):
        transforms.geronimus(res, Fraction(0), Fraction(0), Fraction(0))


def test_second_kind_values_match_direct_sums():
    nodes = (Fraction(1), Fraction(2), Fraction(4))
    chain = build_chain(*sturmian_pair(Polynomial.from_roots(nodes)))
    jm = jacobi_from_chain(chain)
    weights = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    sd = SpectralData(nodes, weights)
    a = Fraction(0)
    polys = generate_polys(jm, 2)
    vals = transforms.second_kind_values(jm, sd, a, 2)
    for n in range(3):
        direct = sum((w * polys[n](x) / (a - x)
                      for w, x in zip(weights, nodes)), start=Fraction(0))
        assert vals[n] == direct


def test_second_kind_values_satisfy_recurrence():
    # uniform weights form the spectral measure of the mirror-dual matrix
    nodes = (Fraction(1), Fraction(2), Fraction(4), Fraction(8))
    chain = build_chain(*sturmian_pair(Polynomial.from_roots(nodes)))
    jm = mirror_dual(jacobi_from_chain(chain))
    sd = SpectralData(nodes, (Fraction(1, 4),) * 4)
    a = Fraction(-3)
    f = transforms.second_kind_values(jm, sd, a, 3)
    for n in range(1, 3):
        assert f[n + 1] == (a - jm.b[n]) * f[n] - jm.u[n - 1] * f[n - 1]


def test_second_kind_pole_rejected():
    nodes = (Fraction(1), Fraction(2))
    chain = build_chain(*sturmian_pair(Polynomial.from_roots(nodes)))
    jm = jacobi_from_chain(chain)
    sd = SpectralData(nodes, (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(transforms.TransformError):
        transforms.second_kind_values(jm, sd, Fraction(1), 1)


def test_uvarov_anchor():
    from sturmion.families import QHahn
    fam = QHahn(Fraction(1), Fraction(1), Fraction(1, 2), 1)
    b, u = [], []
    for n in range(2):
        bn, un = fam.recurrence(n)
        b.append(bn)
        if n:
            u.append(un)
    jm = JacobiMatrix(tuple(b), tuple(u))
    res, rec = transforms.uvarov(jm, fam.weights(), Fraction(0))
    assert res.b == (Fraction(3, 2), Fraction(3, 2))
    assert res.u == (Fraction(1, 4),)
    assert rec.kind == "uvarov"
