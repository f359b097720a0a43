"""Closed-form hypergeometric families against the Euclidean oracle."""

from fractions import Fraction
from math import prod

import pytest

from sturmion import families, grids
from sturmion.chain import build_chain, sturmian_pair
from sturmion.poly import Polynomial
from sturmion.spectral import (NonPositiveWeight, check_orthogonality,
                               generate_polys, jacobi_from_chain, mirror_dual)


def oracle(spec):
    chain = build_chain(*sturmian_pair(grids.characteristic_polynomial(spec)))
    return jacobi_from_chain(chain)


def test_pochhammer():
    assert families.poch(Fraction(3), 4) == 3 * 4 * 5 * 6
    assert families.poch(Fraction(-2), 3) == 0
    assert families.poch(Fraction(1, 2), 2) == Fraction(3, 4)
    assert families.poch(Fraction(5), 0) == 1


def test_q_pochhammer():
    q = Fraction(1, 2)
    assert families.qpoch(Fraction(1, 2), q, 2) == Fraction(1, 2) * Fraction(3, 4)
    assert families.qpoch(Fraction(1), q, 3) == 0
    assert families.qpoch(Fraction(3), q, 0) == 1


def test_hahn_anchor_coefficients():
    fam = families.Hahn(Fraction(-3), Fraction(-3), 2)
    jm = families.jacobi_matrix(fam, 2)
    assert jm.b == (Fraction(1), Fraction(1), Fraction(1))
    assert jm.u == (Fraction(1, 3), Fraction(2, 3))


def test_hahn_mirror_parameter_map():
    # the mirror of Hahn(alpha, beta) is Hahn(-N-1-beta, -N-1-alpha)
    for n_max in range(1, 8):
        direct = oracle(grids.linear(n_max))
        zero = families.Hahn(Fraction(0), Fraction(0), n_max)
        assert mirror_dual(direct) == families.jacobi_matrix(zero, n_max)


def test_racah_anchor_coefficients():
    fam = families.Racah(Fraction(-5, 2), Fraction(1, 2), Fraction(-1, 2), 2)
    jm = families.jacobi_matrix(fam, 2)
    assert jm.b == (Fraction(12, 7), Fraction(76, 21), Fraction(8, 3))
    assert jm.u == (Fraction(108, 49), Fraction(56, 9))


def test_racah_matches_oracle_both_sides():
    for n_max in range(1, 8):
        jm = oracle(grids.quadratic(Fraction(1), n_max))
        half = Fraction(1, 2)
        sturm = families.Racah(-n_max - half, half, -half, n_max)
        assert families.jacobi_matrix(sturm, n_max) == jm
        dual = families.Racah(n_max + half, -half, half, n_max)
        assert families.jacobi_matrix(dual, n_max) == mirror_dual(jm)


def test_racah_mirror_parameter_map():
    # mirror sends (beta, gamma, delta) to (-beta, delta, gamma)
    fam = families.Racah(Fraction(-5, 2), Fraction(1, 2), Fraction(-1, 2), 2)
    mirrored = families.Racah(Fraction(5, 2), Fraction(-1, 2), Fraction(1, 2), 2)
    jm = jacobi_from_chain(build_chain(*sturmian_pair(
        grids.characteristic_polynomial(grids.quadratic(Fraction(1), 2)))))
    assert families.jacobi_matrix(fam, 2) == jm
    assert families.jacobi_matrix(mirrored, 2) == mirror_dual(jm)


def test_racah_nodes_and_mass():
    fam = families.Racah(Fraction(5, 2), Fraction(-1, 2), Fraction(1, 2), 2)
    assert [fam.node(s) for s in range(3)] == [0, 2, 6]
    assert fam.mass() == 3


def test_qhahn_anchor_coefficients():
    fam = families.QHahn(Fraction(4), Fraction(4), Fraction(1, 2), 1)
    jm = families.jacobi_matrix(fam, 1)
    assert jm.b == (Fraction(4, 3), Fraction(5, 3))
    assert jm.u == (Fraction(2, 9),)


def test_qhahn_nodes():
    fam = families.QHahn(Fraction(1), Fraction(1), Fraction(1, 2), 2)
    assert [fam.node(s) for s in range(3)] == [1, 2, 4]


@pytest.mark.parametrize("fam", [
    families.Racah(Fraction(7, 2), Fraction(-1, 2), Fraction(1, 2), 3),
    families.Racah(Fraction(5, 2), Fraction(-1, 2), Fraction(1, 2), 2),
    families.QHahn(Fraction(8), Fraction(8), Fraction(1, 2), 2),
    families.QHahn(Fraction(1), Fraction(1), Fraction(2, 3), 3),
], ids=["racah-N3", "racah-N2", "qhahn-N2", "qhahn-N3"])
def test_qhahn_weights_sum_to_one(fam):
    # the closed-form weights are a probability measure for the family's
    # own recurrence: P_m, P_n orthogonal, and h_n = u_1 ... u_n
    n_max = fam.n_max
    jm = families.jacobi_matrix(fam, n_max)
    sd = fam.weights()
    assert sum(sd.weights) == 1
    assert all(w > 0 for w in sd.weights)
    offdiag, diag = check_orthogonality(generate_polys(jm, n_max), sd)
    assert offdiag == 0
    assert diag == [prod(jm.u[:n]) for n in range(n_max + 1)]


def test_non_positive_weight_is_the_spectral_error():
    # a = 3, b = 1, q = 1/2, N = 2 puts the weight -18/5 on s = 1
    fam = families.QHahn(Fraction(3), Fraction(1), Fraction(1, 2), 2)
    with pytest.raises(NonPositiveWeight, match="weight -18/5 at node 1"):
        fam.weights()


# a Hahn, a Racah and a q-Hahn family, each with N = 5
ASKEY_FAMILIES = pytest.mark.parametrize("cls, args", [
    (families.Hahn, (Fraction(0), Fraction(0), 5)),
    (families.Racah, (Fraction(11, 2), Fraction(-1, 2), Fraction(1, 2), 5)),
    (families.QHahn, (Fraction(1), Fraction(1), Fraction(1, 2), 5)),
], ids=["hahn", "racah", "qhahn"])


@ASKEY_FAMILIES
def test_each_closed_form_evaluated_once(monkeypatch, cls, args):
    # construction and the whole matrix read A_0..A_{N-1} and C_1..C_N,
    # each once; A_N = 0 and C_0 = 0 by the truncation convention
    seen = {"_a": [], "_c": []}
    for name, calls in seen.items():
        def counted(self, n, closed_form=getattr(cls, name), calls=calls):
            calls.append(n)
            return closed_form(self, n)
        monkeypatch.setattr(cls, name, counted)
    families.jacobi_matrix(cls(*args), 5)
    assert seen == {"_a": [0, 1, 2, 3, 4], "_c": [1, 2, 3, 4, 5]}


def monic_t(degree):
    """Monic T_degree, degree >= 1: the trig1 characteristic polynomial."""
    return grids.characteristic_polynomial(grids.trig_first(degree - 1))


def monic_u(degree):
    """Monic U_degree, degree >= 1: the trig2 characteristic polynomial."""
    return grids.characteristic_polynomial(grids.trig_second(degree - 1))


def test_chebyshev_recurrences_build_known_polys():
    t = families.ChebyshevT()
    u = families.ChebyshevU()
    x = Polynomial.x()
    pt = [Polynomial.constant(Fraction(1)), x]
    pu = [Polynomial.constant(Fraction(1)), x]
    for n in range(1, 6):
        _, ut = t.recurrence(n)
        _, uu = u.recurrence(n)
        pt.append(x * pt[n] - ut * pt[n - 1])
        pu.append(x * pu[n] - uu * pu[n - 1])
    assert pt[3] == monic_t(3)
    assert pu[3] == monic_u(3)
    assert pt[5] == monic_t(5)
    assert pu[5] == monic_u(5)


def test_chebyshev_derivative_relations():
    # T'_{n+1} = (n+1) U_n and U'_{n+1} = (n+1) C_n^(2), monic-normalized
    c2 = families.Ultraspherical(Fraction(2))
    x = Polynomial.x()
    pc = [Polynomial.constant(Fraction(1)), x]
    for n in range(1, 20):
        _, uc = c2.recurrence(n)
        pc.append(x * pc[n] - uc * pc[n - 1])
    for n in range(0, 19):
        lhs = monic_t(n + 1).derivative()
        u_n = monic_u(n) if n else Polynomial.constant(1)  # no grid has N = -1
        assert lhs == Fraction(n + 1) * u_n
        lhs = monic_u(n + 1).derivative()
        assert lhs == Fraction(n + 1) * pc[n]


def test_denominator_zero_reported_with_index():
    with pytest.raises(families.DenominatorZero) as caught:
        families.Hahn(Fraction(-1), Fraction(0), 2)
    assert (caught.value.family, caught.value.index) == ("Hahn", "A_0")


@ASKEY_FAMILIES
def test_recurrence_index_out_of_range(cls, args):
    fam = cls(*args)
    for n in (-1, fam.n_max + 1):
        with pytest.raises(ValueError, match="index out of range"):
            fam.recurrence(n)


def test_racah_case_two_limit():
    # gamma + delta = 0 keeps the node law s(s + 1) for any gamma
    fam = families.Racah(Fraction(9, 2), Fraction(1), Fraction(-1), 2)
    assert [fam.node(s) for s in range(3)] == [0, 2, 6]
