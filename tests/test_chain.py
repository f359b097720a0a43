"""Euclidean chains, sign variations and real-root counting."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sturmion import grids
from sturmion.chain import (
    ChainError,
    DegreeGap,
    NonPositiveU,
    ZeroRemainder,
    build_chain,
    count_from_chain,
    count_roots,
    sign_variations,
    sturmian_pair,
)
from sturmion.poly import Polynomial
from sturmion.scalars import BigFloat
from sturmion.spectral import generate_polys, jacobi_from_chain


def grid_poly(nodes):
    return Polynomial.from_roots([Fraction(x) for x in nodes])


def linear_chain(n):
    return build_chain(*sturmian_pair(grid_poly(range(n + 1))))


def chain_polys(chain):
    """P_{N+1}, ..., P_0, regenerated from the chain's (b, u)."""
    return generate_polys(jacobi_from_chain(chain), chain.n + 1)[::-1]


def reference_chain(p_top, p_next):
    """The Euclidean chain by polynomial long division, for valid pairs:
    its polynomials, top degree first, and (b, u)."""
    polys = [p_top, p_next]
    b_rev, u_rev = [], []
    while polys[-1].degree > 0:
        q, r = divmod(polys[-2], polys[-1])
        b_rev.append(-q.coeffs[0])
        u_rev.append(-r.leading)
        polys.append(r * (Fraction(-1) / u_rev[-1]))
    b_rev.append(-polys[-2].coeffs[0])
    return polys, tuple(reversed(b_rev)), tuple(reversed(u_rev))


def reference_count_roots(p, a, b):
    """count_roots by polynomial long division over Fraction: the signed
    remainder sequence normalized to leading coefficient +-1."""
    seq = [p, p.derivative()]
    while not (r := seq[-2] % seq[-1]).is_zero:
        seq.append(r * (Fraction(-1) / abs(r.leading)))
    g = seq[-1]
    if g.degree > 0:
        seq = [divmod(s, g)[0] for s in seq]
    return count_from_chain(seq, a, b)


def assert_matches_reference(p_top, p_next):
    """build_chain gives the reference (b, u), and regenerating from them
    gives back exactly the input pair: by uniqueness of Euclidean division
    that alone proves (b, u)."""
    chain = build_chain(p_top, p_next)
    _, b, u = reference_chain(p_top, p_next)
    assert (chain.b, chain.u) == (b, u)
    assert all(type(v) is Fraction for v in chain.b + chain.u)
    assert chain.pair == (p_top, p_next)
    assert chain_polys(chain)[:2] == [p_top, p_next]


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
    top_first = chain_polys(chain)
    assert top_first == reference_chain(*chain.pair)[0]
    polys = top_first[::-1]
    x = Polynomial.x()
    for n in range(1, 5):
        lhs = (x - Polynomial.constant(chain.b[n])) * polys[n] \
            - chain.u[n - 1] * polys[n - 1]
        assert lhs == polys[n + 1]


GRIDS = ("linear", "quad:tau=1", "quad:tau=2", "quad:tau=1/2", "exp:q=1/2",
         "exp:q=2/3", "aw:q=1/2,c1=1,c2=1,c0=0", "bi:c1=4,c2=-3,c0=0",
         "trig1", "trig2")


# one large case per kind whose coefficient bits grow fast, so that the
# content division runs on integers of thousands of bits
LARGE = {"linear": 150, "exp:q=1/2": 48, "quad:tau=1/2": 40}


@pytest.mark.parametrize("grid", GRIDS)
def test_chain_matches_long_division_on_every_grid(grid):
    extra = (LARGE[grid],) if grid in LARGE else ()
    for n in (1, 2, 3, 4, 5, 8, 13, 21, 30) + extra:
        spec = grids.parse_grid(grid, n)
        assert_matches_reference(
            *sturmian_pair(grids.characteristic_polynomial(spec)))


distinct_roots = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=7),
    min_size=1, max_size=9, unique=True)


@settings(max_examples=100, deadline=None)
@given(distinct_roots)
def test_chain_matches_long_division_on_random_roots(roots):
    assert_matches_reference(*sturmian_pair(Polynomial.from_roots(roots)))


@settings(max_examples=100, deadline=None)
@given(distinct_roots.filter(lambda r: len(r) > 1),
       st.lists(st.integers(1, 9), min_size=8, max_size=8))
def test_chain_matches_long_division_on_interlacing_pairs(roots, steps):
    # P_N has one root strictly between each two of P_{N+1}
    roots = sorted(roots)
    inner = [lo + (hi - lo) * Fraction(t, 10)
             for lo, hi, t in zip(roots, roots[1:], steps)]
    assert_matches_reference(Polynomial.from_roots(roots),
                             Polynomial.from_roots(inner))


def test_int_coefficients_give_the_fraction_chain():
    # roots 0, 2, 4 and 1, 3
    top = Polynomial((0, 8, -6, 1))
    nxt = Polynomial((3, -4, 1))
    chain = build_chain(top, nxt)
    exact = build_chain(Polynomial(tuple(map(Fraction, top.coeffs))),
                        Polynomial(tuple(map(Fraction, nxt.coeffs))))
    assert (chain.b, chain.u) == (exact.b, exact.u)
    assert all(type(v) is Fraction for v in chain.b + chain.u)
    assert chain.b == (Fraction(2),) * 3
    assert chain.u == (Fraction(1), Fraction(3))


def test_inexact_coefficient_raises_type_error():
    # a chain's input is a Polynomial, which holds no floating coefficient
    with pytest.raises(TypeError, match="inexact coefficient"):
        Polynomial((BigFloat(Fraction(-1, 4)), 0, 1))  # x^2 - 1/4


@pytest.mark.parametrize("top, nxt, error, message", [
    ((0, -1, 1), (0, 1), ZeroRemainder, "zero remainder at index 1"),
    ((1, 0, 0, 1), (0, 0, 1), DegreeGap, "remainder degree 0 at index 2"),
    ((1, 0, 1), (0, 1), NonPositiveU, "u_1 = -1 <= 0"),
    # the first step is regular, u_3 = 1 and P_2 = x^2
    ((0, -1, -1, 0, 1), (-1, 0, 0, 1), DegreeGap,
     "remainder degree 0 at index 2"),
])
def test_chain_errors_name_the_index(top, nxt, error, message):
    with pytest.raises(error) as info:
        build_chain(Polynomial(top), Polynomial(nxt))
    assert str(info.value) == message


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
    polys = chain_polys(linear_chain(2))
    assert sign_variations(polys, Fraction(-1)) == 3
    assert sign_variations(polys, Fraction(3)) == 0


def test_count_from_chain_half_open():
    polys = chain_polys(linear_chain(2))
    # interval (a, b] so a root at the left endpoint is excluded
    assert count_from_chain(polys, Fraction(0), Fraction(2)) == 2
    assert count_from_chain(polys, Fraction(-1), Fraction(2)) == 3
    assert count_from_chain(polys, Fraction(1), Fraction(2)) == 1


def test_count_roots_examples():
    p = Polynomial((Fraction(0), Fraction(2), Fraction(-3), Fraction(1)))
    assert count_roots(p, Fraction(1, 2), Fraction(5, 2)) == 2
    assert count_roots(p, Fraction(-1), Fraction(3)) == 3


def test_count_roots_non_monic():
    p = Fraction(-5) * grid_poly([0, 1, 2])
    assert count_roots(p, Fraction(-1), Fraction(3)) == 3


def test_count_roots_int_coefficients():
    # x^2 - 3x + 2, roots 1 and 2
    assert count_roots(Polynomial((2, -3, 1)), 0, 100) == 2


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
        assert count_from_chain(chain_polys(chain), lo, hi) == len(roots)


def test_random_intervals_match_direct_count():
    random.seed(11)
    roots = [Fraction(k) for k in (-3, -1, 0, 2, 5)]
    polys = chain_polys(
        build_chain(*sturmian_pair(Polynomial.from_roots(roots))))
    for _ in range(100):
        a = Fraction(random.randint(-80, 80), random.randint(1, 9))
        b = Fraction(random.randint(-80, 80), random.randint(1, 9))
        if a == b:
            continue
        a, b = min(a, b), max(a, b)
        direct = sum(1 for r in roots if a < r <= b)
        assert count_from_chain(polys, a, b) == direct


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


leads = st.sampled_from((1, -1, Fraction(3, 2), Fraction(-1, 3)))


def product(fs, lead):
    """lead times a product of linear factors x - a and quadratics
    (x - a)^2 - d (irrational roots) or (x - a)^2 + d (complex roots), each
    to a power; with its rational roots and its (a, d) irrational pairs."""
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
    return p, rational, irrational


def endpoints(lo, hi, rational, on_root, data):
    """(lo, hi) in order, with a rational root on one end if on_root, or
    None when they coincide."""
    if on_root and rational:
        root = data.draw(st.sampled_from(sorted(rational)))
        lo, hi = (root, max(hi, root + 1)) if data.draw(st.booleans()) \
            else (min(lo, root - 1), root)
    if lo == hi:
        return None
    return min(lo, hi), max(lo, hi)


@settings(max_examples=200, deadline=None)
@given(factors, leads, small, small, st.booleans(), st.data())
def test_count_roots_is_the_number_of_distinct_real_roots(
        fs, lead, lo, hi, on_root, data):
    p, rational, irrational = product(fs, lead)
    ends = endpoints(lo, hi, rational, on_root, data)
    if ends is None:
        return
    lo, hi = ends
    direct = sum(lo < r <= hi for r in rational)
    direct += sum(_above(lo, a, d, sign) and not _above(hi, a, d, sign)
                  for a, d in irrational for sign in (1, -1))
    assert count_roots(p, lo, hi) == direct


def integral(p):
    """p times the least common denominator of its coefficients, with
    ``int`` coefficients."""
    den = math.lcm(*(Fraction(c).denominator for c in p.coeffs))
    return Polynomial(tuple(int(c * den) for c in p.coeffs))


@settings(max_examples=200, deadline=None)
@given(factors, leads, small, small, st.booleans(), st.data())
def test_count_roots_matches_long_division(fs, lead, lo, hi, on_root, data):
    p, rational, _ = product(fs, lead)
    ends = endpoints(lo, hi, rational, on_root, data)
    if ends is None:
        return
    for q in (p, integral(p)):
        assert count_roots(q, *ends) == reference_count_roots(q, *ends)


# sparse integer polynomials: remainders that drop two or more degrees,
# where the sign of lc^(delta+1) in the pseudo-remainder matters
@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=1,
                max_size=7), leads,
       st.lists(st.integers(-6, 6), min_size=2, max_size=2, unique=True))
def test_count_roots_matches_long_division_on_sparse_polynomials(
        coeffs, lead, ends):
    p = Polynomial(tuple(coeffs) + (lead,))
    lo, hi = sorted(ends)
    for q in (p, integral(p)):
        assert count_roots(q, lo, hi) == reference_count_roots(q, lo, hi)


@pytest.mark.parametrize("coeffs, lo, hi, count", [
    ((0, 0, 1, 0, 0, -1), -1, 4, 2),    # x^2 - x^5: double root 0, root 1
    ((3, 3, 0, 0, -1), -4, 6, 2),       # -x^4 + 3x + 3
    ((2, 0, 0, 0, 3, 1), -6, 0, 1),     # x^5 + 3x^4 + 2
])
def test_count_roots_where_the_remainder_skips_degrees(coeffs, lo, hi, count):
    p = Polynomial(coeffs)
    assert count_roots(p, lo, hi) == count
    assert reference_count_roots(p, lo, hi) == count
