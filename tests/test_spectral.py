"""Jacobi matrices, weights, moments, Hankel determinants and the
Stieltjes continued fraction."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sturmion import families, grids, spectral, transforms
from sturmion.chain import build_chain, sturmian_pair
from sturmion.poly import Polynomial
from sturmion.scalars import BigFloat, dyadic, is_exact, sin_pi, to_fraction
from sturmion.spectral import (
    JacobiMatrix,
    NodeMismatch,
    SpectralData,
    check_orthogonality,
    dual_moments,
    dual_weights,
    duality_product_check,
    generate_polys,
    hankel_tests,
    jacobi_from_chain,
    mirror_dual,
    primal_weights,
    stieltjes_fraction,
)


def linear_setup(n):
    nodes = [Fraction(s) for s in range(n + 1)]
    chain = build_chain(*sturmian_pair(Polynomial.from_roots(nodes)))
    return chain, nodes


def test_jacobi_validation():
    with pytest.raises(ValueError):
        JacobiMatrix((Fraction(0),), (Fraction(1),))
    with pytest.raises(ValueError):
        JacobiMatrix((Fraction(0), Fraction(0)), (Fraction(0),))


def test_spectral_data_validation():
    with pytest.raises(ValueError):
        SpectralData((Fraction(1), Fraction(0)),
                     (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        SpectralData((Fraction(0), Fraction(1)),
                     (Fraction(1, 2), Fraction(1, 3)))


def test_mirror_dual_is_persymmetric_flip():
    jm = JacobiMatrix((Fraction(1), Fraction(2), Fraction(3)),
                      (Fraction(1, 2), Fraction(1, 3)))
    dual = mirror_dual(jm)
    assert dual.b == (Fraction(3), Fraction(2), Fraction(1))
    assert dual.u == (Fraction(1, 3), Fraction(1, 2))
    assert mirror_dual(dual) == jm


def test_mirror_dual_matches_reversal_matrix():
    random.seed(3)
    for _ in range(10):
        n = random.randint(1, 9)
        b = tuple(Fraction(random.randint(-9, 9), random.randint(1, 5))
                  for _ in range(n + 1))
        u = tuple(Fraction(random.randint(1, 9), random.randint(1, 5))
                  for _ in range(n))
        jm = JacobiMatrix(b, u)
        dual = mirror_dual(jm)
        for i in range(n + 1):
            assert dual.b[i] == jm.b[n - i]
        for i in range(1, n + 1):
            assert dual.u[i - 1] == jm.u[n - i]


def test_generate_polys_reproduces_chain():
    chain, _ = linear_setup(3)
    jm = jacobi_from_chain(chain)
    polys = generate_polys(jm, 4)
    # the top pair is the chain's input, and each P_{k-1} is the negated
    # remainder of P_{k+1} by P_k over u_k, down to P_0 = 1
    assert tuple(polys[:-3:-1]) == chain.pair
    assert polys[0] == Polynomial.constant(1)
    x = Polynomial.x()
    for k in range(1, 4):
        q, r = divmod(polys[k + 1], polys[k])
        assert q == x - Polynomial.constant(chain.b[k])
        assert r == -chain.u[k - 1] * polys[k - 1]
    with pytest.raises(ValueError):
        generate_polys(jm, 6)



def reference_generate_polys(jm, upto):
    """[P_0, ..., P_upto] by ``Polynomial`` arithmetic, one operation at a
    time: the recurrence that ``generate_polys`` runs on integer pairs."""
    x = Polynomial.x()
    polys = [Polynomial.constant(Fraction(1)), x - Polynomial.constant(jm.b[0])]
    for n in range(1, upto):
        polys.append((x - Polynomial.constant(jm.b[n])) * polys[n]
                     - jm.u[n - 1] * polys[n - 1])
    return polys[:upto + 1]


def assert_generate_polys_matches_reference(jm):
    ref = reference_generate_polys(jm, jm.n + 1)
    for upto in range(jm.n + 2):
        assert generate_polys(jm, upto) == ref[:upto + 1]


@pytest.mark.parametrize("grid", [
    "linear", "quad:tau=1", "quad:tau=2", "quad:tau=1/2", "exp:q=1/2",
    "exp:q=2/3", "aw:q=1/2,c1=1,c2=1,c0=0", "bi:c1=4,c2=-3,c0=0",
    "trig1", "trig2"])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 20])
def test_generate_polys_matches_reference_on_every_grid(grid, n):
    p = grids.characteristic_polynomial(grids.parse_grid(grid, n))
    assert_generate_polys_matches_reference(
        jacobi_from_chain(build_chain(*sturmian_pair(p))))


@pytest.mark.parametrize("fam", [
    families.Hahn(Fraction(-8), Fraction(-8), 7),
    families.Hahn(Fraction(1, 2), Fraction(3, 2), 9),
    families.Racah(Fraction(7, 2), Fraction(-1, 2), Fraction(1, 2), 3),
    families.QHahn(Fraction(1), Fraction(1), Fraction(1, 2), 6),
    families.ChebyshevT(),
    families.ChebyshevU(),
], ids=lambda fam: type(fam).__name__)
def test_generate_polys_matches_reference_on_families(fam):
    n_max = getattr(fam, "n_max", 15)
    assert_generate_polys_matches_reference(families.jacobi_matrix(fam, n_max))


exact = st.one_of(st.integers(-30, 30), st.fractions(max_denominator=30))
positive = st.one_of(st.integers(1, 30),
                     st.fractions(min_value=Fraction(1, 30), max_value=30,
                                  max_denominator=30))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.lists(exact, min_size=n + 1, max_size=n + 1),
    st.lists(positive, min_size=n, max_size=n))))
def test_generate_polys_matches_reference_on_random_matrices(bu):
    b, u = bu
    assert_generate_polys_matches_reference(JacobiMatrix(tuple(b), tuple(u)))


@pytest.mark.parametrize("grid, n", [("linear", 12), ("exp:q=1/2", 8),
                                     ("quad:tau=1/2", 8)])
def test_generate_polys_builds_each_p_n_from_its_primitive_vector(
        grid, n):
    # a primitive vector A of a monic P_n has the least common denominator
    # of P_n as its leading entry, the one denominator of P_n = A / A[-1];
    # without the content division the bit lengths grow like Fibonacci
    # numbers
    p = grids.characteristic_polynomial(grids.parse_grid(grid, n))
    jm = jacobi_from_chain(build_chain(*sturmian_pair(p)))
    for q in generate_polys(jm, n + 1):
        assert math.gcd(*q.num) == 1
        assert q.den == q.num[-1]


def test_generate_polys_rejects_negative_degree():
    jm = jacobi_from_chain(linear_setup(3)[0])
    for upto in (-1, -5):
        with pytest.raises(ValueError, match="< 0"):
            generate_polys(jm, upto)


def test_generate_polys_rejects_inexact_coefficient():
    half = BigFloat(Fraction(1, 2))
    for jm in (JacobiMatrix((half, Fraction(0)), (Fraction(1),)),
               JacobiMatrix((Fraction(0), Fraction(0)), (half,))):
        with pytest.raises(TypeError, match="inexact coefficient"):
            generate_polys(jm, 2)

def test_primal_weights_linear_anchor():
    chain, nodes = linear_setup(2)
    sd = primal_weights(chain, nodes)
    assert sd.weights == (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6))


def test_dual_weights_are_uniform():
    chain, nodes = linear_setup(2)
    sd = dual_weights(*chain.pair, nodes)
    assert sd.weights == (Fraction(1, 3),) * 3


def test_weights_reject_non_roots():
    chain, nodes = linear_setup(2)
    with pytest.raises(NodeMismatch):
        primal_weights(chain, [Fraction(7)] + nodes[1:])


TRIG_PRECISIONS = (64, 128, 256, 512)


def trig_spec(kind, n, precision=256):
    return (grids.trig_first if kind == 1 else grids.trig_second)(n, precision)


def trig_chain(kind, n):
    return build_chain(*sturmian_pair(grids.characteristic_polynomial(
        trig_spec(kind, n))))


def sine_law(kind, n, s, precision):
    """Primal trig weight w_s in closed form, from sin at ``precision`` bits."""
    if kind == 1:
        sine = sin_pi(Fraction(2 * s + 1, 2 * (n + 1)), precision)
        return Fraction(2, n + 1) * to_fraction(sine) ** 2
    sine = sin_pi(Fraction(s + 1, n + 2), precision)
    return Fraction(8, 3 * (n + 2)) * to_fraction(sine) ** 4


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("n", [20, 80, 160])
def test_trig_weight_accuracy(kind, n):
    chain = trig_chain(kind, n)
    for precision in TRIG_PRECISIONS:
        nodes = grids.nodes(trig_spec(kind, n, precision))
        primal = primal_weights(chain, nodes)
        dual = dual_weights(*chain.pair, nodes)
        for s, (w, ws) in enumerate(zip(primal.weights, dual.weights)):
            target = sine_law(kind, n, s, precision + 64)
            assert abs(to_fraction(w) - target) \
                <= target / 2 ** (precision - 16)
            assert abs(to_fraction(ws) - Fraction(1, n + 1)) \
                <= Fraction(1, 2 ** (precision - 3))


@pytest.mark.parametrize("kind", [1, 2])
def test_trig_nodes_pass_the_node_check(kind):
    # small N covers a zero node (trig1, N even) and the exact node -1/2
    # (trig2, 3 divides N + 2); test_trig_weight_accuracy covers large N
    for n in range(1, 41):
        chain = trig_chain(kind, n)
        for precision in TRIG_PRECISIONS:
            dual_weights(*chain.pair,
                         grids.nodes(trig_spec(kind, n, precision)))


def moved(x, ulps):
    """x moved by ``ulps`` units in the last place at its precision."""
    m, e = dyadic(x)
    ulp = Fraction(2) ** (m.bit_length() - e - x.precision)
    return BigFloat(to_fraction(x) + ulps * ulp, x.precision)


@pytest.mark.parametrize("kind", [1, 2])
def test_node_moved_by_256_ulps_is_rejected(kind):
    chain = trig_chain(kind, 20)
    for precision in TRIG_PRECISIONS:
        nodes = grids.nodes(trig_spec(kind, 20, precision))
        with pytest.raises(NodeMismatch):
            primal_weights(chain, [nodes[0], moved(nodes[1], 2**8)]
                           + nodes[2:])


def scalar_key(v):
    """A BigFloat by its libmp value and precision, a rational by value."""
    return (v._mpf_, v.precision) if isinstance(v, BigFloat) else v


ONE_PASS_GRIDS = ["linear", "quad:tau=1/2", "exp:q=2/3",
                  "aw:q=1/2,c1=1,c2=1,c0=0", "bi:c1=4,c2=-3,c0=0", "trig1",
                  "trig2"]


@pytest.mark.parametrize("grid", ONE_PASS_GRIDS)
@pytest.mark.parametrize("n, precision", [(1, 64), (6, 256), (13, 512)])
def test_one_pass_weights_equal_the_one_law_calls(grid, n, precision):
    spec = grids.parse_grid(grid, n, precision)
    nodes = grids.nodes(spec)
    chain = build_chain(*sturmian_pair(grids.characteristic_polynomial(spec)))
    p_top, p_next = chain.pair
    dp = p_top.derivative()
    h = chain.h_top
    two_passes = ([h / (dp(x) * p_next(x)) for x in nodes],
                  [p_next(x) / dp(x) for x in nodes])
    one_law = (primal_weights(chain, nodes), dual_weights(p_top, p_next, nodes))
    for got, law, ref in zip(spectral.weights(chain, nodes), one_law,
                             two_passes):
        assert got.nodes == law.nodes == tuple(nodes)
        assert ([scalar_key(w) for w in got.weights]
                == [scalar_key(w) for w in law.weights]
                == [scalar_key(w) for w in ref])


@pytest.mark.parametrize("grid", ["linear", "exp:q=1/2", "trig1", "trig2"])
def test_one_pass_names_the_moved_node(grid):
    spec = grids.parse_grid(grid, 8)
    nodes = grids.nodes(spec)
    chain = build_chain(*sturmian_pair(grids.characteristic_polynomial(spec)))
    x = nodes[5]
    nodes[5] = (x + (nodes[6] - x) / 3 if is_exact(x) else moved(x, 2**8))
    with pytest.raises(NodeMismatch, match=r"^node 5, .* is not a root"):
        spectral.weights(chain, nodes)


def test_exact_nodes_evaluate_a_non_sturmian_p_next_by_horner(monkeypatch):
    # the Christoffel transform at -1 keeps P_{N+1} and changes P_N, so the
    # slopes still come from node differences and P_N alone is evaluated
    n = 6
    chain, nodes = linear_setup(n)
    jm, _ = transforms.christoffel(jacobi_from_chain(chain), Fraction(-1))
    p_next, p_top = generate_polys(jm, n + 1)[-2:]
    assert p_top == chain.pair[0]
    assert p_next != p_top.derivative() * Fraction(1, n + 1)
    pair_chain = build_chain(p_top, p_next)
    dp, h = p_top.derivative(), pair_chain.h_top
    expected = ([h / (dp(x) * p_next(x)) for x in nodes],
                [p_next(x) / dp(x) for x in nodes])
    evaluated = []
    evaluate = Polynomial.__call__

    def counting(self, x):
        evaluated.append(self)
        return evaluate(self, x)

    monkeypatch.setattr(Polynomial, "__call__", counting)
    primal, dual = spectral.weights(pair_chain, nodes)
    assert evaluated == [p_next] * (n + 1)
    assert list(primal.weights) == expected[0]
    assert list(dual.weights) == expected[1]


@pytest.mark.parametrize("nodes, error, message", [
    ([0, 0, 2], ValueError, "nodes must be strictly increasing"),
    ([0, 1, 2, 2], ValueError, "nodes must be strictly increasing"),
    ([2, 1, 0], ValueError, "nodes must be strictly increasing"),
    ([1, 2, 0], ValueError, "nodes must be strictly increasing"),
    ([0, 1], ValueError, "exact weights must sum to 1"),
    ([], ValueError, "exact weights must sum to 1"),
    ([0, 1, 2, 3], NodeMismatch,
     "node 3, Fraction(3, 1), is not a root of the top polynomial"),
])
def test_exact_nodes_that_are_not_the_roots_raise_as_horner_does(
        nodes, error, message):
    # node differences would give a repeated node a zero slope, so lists
    # that are not the distinct roots take the Horner path, and unsorted
    # roots pass the identity: each fails the root check or one of
    # SpectralData's checks, never with a ZeroDivisionError
    chain, _ = linear_setup(2)
    nodes = [Fraction(x) for x in nodes]
    for call in (lambda: spectral.weights(chain, nodes),
                 lambda: primal_weights(chain, nodes),
                 lambda: dual_weights(*chain.pair, nodes)):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


def test_exact_weight_sum_is_checked_exactly():
    nodes = (Fraction(0), Fraction(1), Fraction(2))
    third = Fraction(1, 3)
    SpectralData(nodes, (third, Fraction(1, 2), Fraction(1, 6)))
    with pytest.raises(ValueError, match="^exact weights must sum to 1$"):
        SpectralData(nodes, (third, third, third + Fraction(1, 2**4000)))


def test_root_test_on_dyadic_integers_agrees_with_the_division():
    # the earlier test divided |slope x| by the BigFloat 2^(prec - 1); the
    # integer comparison must decide the same on nodes a few ulps off
    roots = total = 0
    for kind in (1, 2):
        for n in (5, 12, 30):
            p_top = trig_chain(kind, n).pair[0]
            dp = p_top.derivative()
            for precision in (64, 256):
                for x in grids.nodes(trig_spec(kind, n, precision)):
                    for y in (moved(x, k) for k in range(-6, 7)):
                        value, slope = p_top(y), dp(y)
                        expected = (abs(value) <= abs(slope * y)
                                    / 2 ** (y.precision - 1))
                        assert spectral._is_root(value, slope, y) == expected
                        roots += expected
                        total += 1
    assert 0 < roots < total


def test_duality_product_anchor():
    chain, nodes = linear_setup(2)
    primal = primal_weights(chain, nodes)
    dual = dual_weights(*chain.pair, nodes)
    assert duality_product_check(primal, dual, chain) == 0
    # at s = 0: w_0 w*_0 = (1/6)(1/3) = 1/18 = h_N / P'(0)^2
    dp = chain.pair[0].derivative()
    assert primal.weights[0] * dual.weights[0] == Fraction(1, 18)
    assert chain.h_top / dp(nodes[0]) ** 2 == Fraction(1, 18)


def test_dual_moments_are_power_sums():
    nodes = [Fraction(1), Fraction(2), Fraction(3)]
    assert dual_moments(nodes, 0) == 1
    assert dual_moments(nodes, 1) == 2
    assert dual_moments(nodes, 2) == Fraction(14, 3)


def test_hankel_anchor():
    nodes = [Fraction(1), Fraction(2), Fraction(3)]
    moments = [dual_moments(nodes, k) for k in range(6)]
    rows = hankel_tests(moments, 1)
    assert rows[0][0] == 1
    assert rows[1][0] == Fraction(2, 3)
    assert all(ok for _, _, ok in rows)


def test_hankel_positivity_on_shifted_grids():
    for n in range(1, 8):
        nodes = [Fraction(s + 1) for s in range(n + 1)]
        moments = [dual_moments(nodes, k) for k in range(2 * n + 2)]
        for _, _, ok in hankel_tests(moments, n):
            assert ok


def test_stieltjes_anchor():
    chain, _ = linear_setup(2)
    jm = mirror_dual(jacobi_from_chain(chain))
    assert stieltjes_fraction(jm, Fraction(3)) == Fraction(11, 18)


def test_stieltjes_equals_partial_fractions():
    random.seed(5)
    for n in range(1, 6):
        nodes = [Fraction(s * (s + 1)) for s in range(n + 1)]
        chain = build_chain(*sturmian_pair(Polynomial.from_roots(nodes)))
        jm = mirror_dual(jacobi_from_chain(chain))
        for _ in range(10):
            z = Fraction(random.randint(-400, 400), random.randint(1, 7))
            if any(z == x for x in nodes):
                continue
            direct = sum((Fraction(1) / (z - x) for x in nodes),
                         start=Fraction(0)) / (n + 1)
            assert stieltjes_fraction(jm, z) == direct


def test_check_orthogonality_linear():
    chain, nodes = linear_setup(3)
    jm = jacobi_from_chain(chain)
    sd = primal_weights(chain, nodes)
    offdiag, diag = check_orthogonality(generate_polys(jm, 3), sd)
    assert offdiag == 0
    h = Fraction(1)
    assert diag[0] == 1
    for n in range(1, 4):
        h *= jm.u[n - 1]
        assert diag[n] == h


@settings(max_examples=40, deadline=None)
@given(st.sets(st.fractions(min_value=-60, max_value=60, max_denominator=40),
               min_size=2, max_size=12))
def test_weights_on_random_exact_grids(node_set):
    nodes = sorted(node_set)
    chain = build_chain(*sturmian_pair(Polynomial.from_roots(nodes)))
    h = Fraction(1)
    for un in chain.u:
        h *= un
    size = len(nodes)
    expected = []
    for s, xs in enumerate(nodes):
        d = Fraction(1)
        for t, xt in enumerate(nodes):
            if t != s:
                d *= (xs - xt) ** 2
        expected.append(size * h / d)
    assert primal_weights(chain, nodes).weights == tuple(expected)
    dual = dual_weights(*chain.pair, nodes)
    assert dual.weights == (Fraction(1, size),) * size
