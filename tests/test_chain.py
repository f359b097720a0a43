"""Euclidean chains, sign variations and real-root counting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sturmion.chain import (
    ChainError,
    SturmChain,
    build_chain,
    count_from_chain,
    count_roots,
    sign_variations,
    sturmian_pair,
)
from sturmion.poly import Polynomial


def grid_poly(nodes):
    return Polynomial.from_roots([Fraction(x) for x in nodes])


def linear_chain(n):
    return build_chain(*sturmian_pair(grid_poly(range(n + 1))))


def test_sturmian_pair_normalizes_derivative():
    p = grid_poly([0, 1, 2])
    top, nxt = sturmian_pair(p)
    assert top == p
    assert nxt == p.derivative() * Fraction(1, 3)
    assert nxt.coeffs[-1] == 1


def test_linear_anchor_chain():
    chain = linear_chain(2)
    assert chain.b == (Fraction(1), Fraction(1), Fraction(1))
    assert chain.u == (Fraction(1, 3), Fraction(2, 3))


def test_small_linear_chain():
    chain = linear_chain(1)
    assert chain.b == (Fraction(1, 2), Fraction(1, 2))
    assert chain.u == (Fraction(1, 4),)


def test_chain_polynomials_satisfy_recurrence():
    chain = linear_chain(4)
    x = Polynomial.x()
    for n in range(1, 5):
        p_next = chain.poly(n + 1)
        p = chain.poly(n)
        p_prev = chain.poly(n - 1)
        lhs = (x - Polynomial.constant(chain.b[n])) * p \
            - chain.u[n - 1] * p_prev
        assert lhs == p_next


def test_h_top_is_product_of_u():
    chain = linear_chain(3)
    expected = Fraction(1)
    for u in chain.u:
        expected *= u
    assert chain.h_top == expected


def test_repeated_root_rejected():
    p = grid_poly([0, 1, 1])
    with pytest.raises(ChainError):
        build_chain(*sturmian_pair(p))


def test_complex_roots_rejected():
    p = Polynomial((Fraction(1), Fraction(0), Fraction(1)))  # x^2 + 1
    with pytest.raises(ChainError):
        build_chain(*sturmian_pair(p))


def test_sign_variation_endpoints():
    chain = linear_chain(2)
    assert sign_variations(chain, Fraction(-1)) == 3
    assert sign_variations(chain, Fraction(3)) == 0


def test_count_from_chain_half_open():
    chain = linear_chain(2)
    # interval (a, b] so a root at the left endpoint is excluded
    assert count_from_chain(chain, Fraction(0), Fraction(2)) == 2
    assert count_from_chain(chain, Fraction(-1), Fraction(2)) == 3
    assert count_from_chain(chain, Fraction(1), Fraction(2)) == 1


def test_count_roots_examples():
    p = Polynomial((Fraction(0), Fraction(2), Fraction(-3), Fraction(1)))
    assert count_roots(p, Fraction(1, 2), Fraction(5, 2)) == 2
    assert count_roots(p, Fraction(-1), Fraction(3)) == 3


def test_count_roots_non_monic():
    p = Fraction(-5) * grid_poly([0, 1, 2])
    assert count_roots(p, Fraction(-1), Fraction(3)) == 3


def test_count_roots_root_at_left_endpoint():
    # monic T_3 has roots at +-sqrt(3)/2 and 0; only sqrt(3)/2 lies in (0, 1]
    t3 = Polynomial((Fraction(0), Fraction(-3, 4), Fraction(0), Fraction(1)))
    assert count_roots(t3, Fraction(0), Fraction(1)) == 1


def test_total_count_equals_degree():
    random.seed(4)
    for _ in range(20):
        pts = sorted(random.sample(range(-30, 30), random.randint(2, 7)))
        roots = [Fraction(p, random.randint(1, 4)) for p in pts]
        roots = sorted(set(roots))
        p = Polynomial.from_roots(roots)
        chain = build_chain(*sturmian_pair(p))
        lo = min(roots) - 1
        hi = max(roots) + 1
        assert count_from_chain(chain, lo, hi) == len(roots)


def test_random_intervals_match_direct_count():
    random.seed(11)
    roots = [Fraction(k) for k in (-3, -1, 0, 2, 5)]
    chain = build_chain(*sturmian_pair(Polynomial.from_roots(roots)))
    for _ in range(100):
        a = Fraction(random.randint(-80, 80), random.randint(1, 9))
        b = Fraction(random.randint(-80, 80), random.randint(1, 9))
        if a == b:
            continue
        a, b = min(a, b), max(a, b)
        direct = sum(1 for r in roots if a < r <= b)
        assert count_from_chain(chain, a, b) == direct


def _above(t, centre, d, sign) -> bool:
    """Whether centre + sign*sqrt(d) > t, decided exactly."""
    gap = t - centre
    if sign > 0:
        return gap < 0 or gap * gap < d
    return gap < 0 and gap * gap > d


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
factors = st.lists(
    st.tuples(st.sampled_from(("real", "irrational", "complex")),
              small, st.sampled_from((2, 3, 5, 6, 7)),
              st.integers(1, 3)),
    min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(factors, st.sampled_from((1, -1, Fraction(3, 2), Fraction(-1, 3))),
       small, small, st.booleans(), st.data())
def test_count_roots_is_the_number_of_distinct_real_roots(
        fs, lead, lo, hi, on_root, data):
    # a product of linear factors x - a and quadratics (x - a)^2 - d
    # (irrational roots) or (x - a)^2 + d (complex roots), each to a power
    p = Polynomial.constant(Fraction(lead))
    x = Polynomial.x()
    rational, irrational = set(), set()
    for kind, a, d, power in fs:
        shift = x - Polynomial.constant(a)
        if kind == "real":
            factor = shift
            rational.add(a)
        else:
            sign = 1 if kind == "complex" else -1
            factor = shift * shift + Polynomial.constant(Fraction(sign * d))
            if kind == "irrational":
                irrational.add((a, d))
        for _ in range(power):
            p = p * factor
    if on_root and rational:
        # put a root on an endpoint
        root = data.draw(st.sampled_from(sorted(rational)))
        lo, hi = (root, max(hi, root + 1)) if data.draw(st.booleans()) \
            else (min(lo, root - 1), root)
    if lo == hi:
        return
    lo, hi = min(lo, hi), max(lo, hi)
    direct = sum(lo < r <= hi for r in rational)
    direct += sum(_above(lo, a, d, sign) and not _above(hi, a, d, sign)
                  for a, d in irrational for sign in (1, -1))
    assert count_roots(p, lo, hi) == direct
