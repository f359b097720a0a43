"""Jacobi matrices, mirror duality, weights, moments, Hankel determinants
and Stieltjes continued fractions for finite orthogonal systems."""

from __future__ import annotations

import math
from fractions import Fraction

from .chain import SturmChain, _Record, _step
from .poly import Polynomial, _monic
from .scalars import dyadic, is_exact


class SpectralError(Exception):
    pass


class NodeMismatch(SpectralError):
    """A claimed node is not a root of the characteristic polynomial."""


class NonPositiveWeight(SpectralError):
    pass


class PoleHit(SpectralError):
    """Continued-fraction evaluation hit a pole."""


class InsufficientMoments(SpectralError):
    pass


class JacobiMatrix(_Record):
    """Tridiagonal spectral data: diagonal b_0..b_N, subdiagonal u_1..u_N."""

    __slots__ = ("b", "u")

    def __init__(self, b, u):
        if len(u) != len(b) - 1:
            raise ValueError("need len(u) == len(b) - 1")
        for i, un in enumerate(u, start=1):
            if not un > 0:
                raise ValueError(f"u_{i} = {un} must be positive")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return len(self.b) - 1


class SpectralData(_Record):
    """Strictly increasing nodes with positive weights summing to one."""

    __slots__ = ("nodes", "weights")

    def __init__(self, nodes, weights):
        if len(nodes) != len(weights):
            raise ValueError("nodes and weights must have equal length")
        for a, b in zip(nodes, nodes[1:]):
            if not a < b:
                raise ValueError("nodes must be strictly increasing")
        for s, w in enumerate(weights):
            if not w > 0:
                raise NonPositiveWeight(f"weight {w} at node {s}, "
                                        f"{nodes[s]!r}, is not positive")
        if all(is_exact(w) for w in weights):
            # one integer sum over the common denominator
            den = math.lcm(*(w.denominator for w in weights))
            if sum(w.numerator * (den // w.denominator)
                   for w in weights) != den:
                raise ValueError("exact weights must sum to 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def jacobi_from_chain(chain: SturmChain) -> JacobiMatrix:
    return JacobiMatrix(chain.b, chain.u)


def mirror_dual(jm: JacobiMatrix) -> JacobiMatrix:
    """Persymmetric reflection: b*_n = b_{N-n}, u*_n = u_{N+1-n}."""
    return JacobiMatrix(tuple(reversed(jm.b)), tuple(reversed(jm.u)))


def generate_polys(jm: JacobiMatrix, upto: int) -> list[Polynomial]:
    """[P_0, ..., P_upto], 0 <= upto <= N+1, by the Euclidean chain's own
    step on primitive integer vectors, run upwards: P_{n+1} = (x - b_n) P_n
    - u_n P_{n-1} with f = c ud and g = a bd un, for P_n = A / a, P_{n-1} =
    C / c, b_n = bn/bd, u_n = un/ud.  Each P_n is its vector as it stands,
    ``num`` = A over ``den`` = a; (b, u) not exact raise ``TypeError``."""
    return _top_polys(jm, upto, upto + 1)


def _top_polys(jm: JacobiMatrix, upto: int, count: int) -> list[Polynomial]:
    """``generate_polys(jm, upto)[-count:]``: each of those last primitive
    vectors A is the polynomial's ``num``, over ``den`` = A[-1]."""
    if upto < 0:
        raise ValueError(f"cannot generate up to degree {upto} < 0")
    if upto > jm.n + 1:
        raise ValueError("cannot generate beyond degree N+1")
    b, u = tuple(jm.b), (0,) + tuple(jm.u)
    if not all(is_exact(c) for c in b + u):
        raise TypeError(f"cannot build a chain from {jm!r}: "
                        "inexact coefficient")
    vecs = [[1], [1]]  # P_{-1}, which u_0 = 0 cancels, and P_0
    for n in range(upto):
        lower, a = vecs[-2:]
        bn, bd, un, ud = (b[n].numerator, b[n].denominator, u[n].numerator,
                          u[n].denominator)
        vecs.append(_step(lower[-1] * ud, a[-1] * bd * un, bn, bd, a,
                          lower + [0, 0])[0])
    return [_monic(vec) for vec in vecs[1:][-count:]]


def _is_root(value, slope, x) -> bool:
    """P_{N+1}(x) = value and P'_{N+1}(x) = slope at a floating node x:
    x must be within one ulp of a root by a Newton step."""
    # |value| <= |slope x| / 2^(prec - 1), on the dyadic integers m / 2^e
    (mv, ev), (ms, es) = dyadic(value), dyadic(slope * x)
    return abs(mv) << (es + x.precision - 1) <= abs(ms) << ev


def _node_slopes(p_top: Polynomial, nodes):
    """P'_{N+1}(x_s) = prod over t != s of (x_s - x_t), when the nodes are
    exact and are the N+1 distinct roots of p_top, which one ``from_roots``
    identity decides; else None.  With x_s = a_s / D over one common
    denominator, each slope is one integer product over D^N: the
    reciprocal of the barycentric weight of Berrut & Trefethen, SIAM Rev.
    46 (2004)."""
    if (not nodes or not all(is_exact(x) for x in nodes)
            or Polynomial.from_roots(nodes) != p_top):
        return None
    d = math.lcm(*(x.denominator for x in nodes))
    a = [x.numerator * (d // x.denominator) for x in nodes]
    dn = d ** (len(a) - 1)
    slopes = []
    for s, a_s in enumerate(a):
        diffs = [a_s - a_t for a_t in a]
        diffs[s] = 1
        prod = math.prod(diffs)
        if not prod:  # a repeated node
            return None
        slopes.append(Fraction(prod, dn))
    return slopes


def _evaluated(p_top: Polynomial, p_next: Polynomial, nodes):
    """(P'_{N+1}(x_s), P_N(x_s)) by Horner at each node, which must be a
    root of p_top: exactly at an exact node, to one ulp at a floating one."""
    dp = p_top.derivative()
    slopes, values = [], []
    for s, x in enumerate(nodes):
        slope, value = dp(x), p_top(x)
        if not (value == 0 if is_exact(x) else _is_root(value, slope, x)):
            raise NodeMismatch(
                f"node {s}, {x!r}, is not a root of the top polynomial")
        slopes.append(slope)
        values.append(p_next(x))
    return slopes, values


def _weights(p_top: Polynomial, p_next: Polynomial, nodes, h=None,
             dual=True) -> tuple:
    """The primal weights h / (P'_{N+1}(x_s) P_N(x_s)) if h is given, then
    the dual weights P_N(x_s) / P'_{N+1}(x_s) if ``dual``, as
    ``SpectralData``.

    Exact nodes that are the roots of p_top take their slopes from node
    differences, and evaluate no polynomial when p_next = P'_{N+1}/(N+1),
    as in every Sturmian pair: the primal weight is then (N+1) h / P'^2
    and the dual one 1/(N+1).  Any other p_next is evaluated by Horner.
    Floating nodes, and exact ones that are not the N+1 distinct roots,
    take every value by Horner, with each node's root check."""
    k = p_top.degree
    slopes = _node_slopes(p_top, nodes)
    if slopes is None:
        slopes, values = _evaluated(p_top, p_next, nodes)
    elif p_next == p_top.derivative() * Fraction(1, k):
        values = None
    else:
        values = [p_next(x) for x in nodes]
    laws = []
    if h is not None:
        kh = k * h
        laws.append((kh / dp**2 for dp in slopes) if values is None else
                    (h / (dp * p) for dp, p in zip(slopes, values)))
    if dual:
        laws.append([Fraction(1, k)] * k if values is None else
                    (p / dp for dp, p in zip(slopes, values)))
    return tuple(SpectralData(tuple(nodes), tuple(ws)) for ws in laws)


def weights(chain: SturmChain, nodes) -> tuple[SpectralData, SpectralData]:
    """(primal, dual) weights from one pass over the nodes."""
    return _weights(*chain.pair, nodes, chain.h_top)


def primal_weights(chain: SturmChain, nodes) -> SpectralData:
    """w_s = h_N / (P'_{N+1}(x_s) P_N(x_s)) on the roots of the top polynomial."""
    return _weights(*chain.pair, nodes, chain.h_top, dual=False)[0]


def dual_weights(p_top: Polynomial, p_next: Polynomial, nodes) -> SpectralData:
    """w*_s = P_N(x_s) / P'_{N+1}(x_s); constant 1/(N+1) for a Sturmian pair."""
    return _weights(p_top, p_next, nodes)[0]


def duality_product_check(primal: SpectralData, dual: SpectralData,
                          chain: SturmChain):
    """Max residual of w_s w*_s - h_N / P'_{N+1}(x_s)^2 over the nodes."""
    if primal.nodes != dual.nodes:
        raise NodeMismatch("primal and dual data carry different nodes")
    dp = chain.pair[0].derivative()
    h = chain.h_top
    worst = Fraction(0)
    for x, w, ws in zip(primal.nodes, primal.weights, dual.weights):
        res = abs(w * ws - h / dp(x) ** 2)
        if res > worst:
            worst = res
    return worst


def dual_moments(nodes, k: int):
    """c*_k = (N+1)^{-1} * sum of x_s^k: power sums of the grid points."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    total = sum((x**k for x in nodes), start=Fraction(0))
    return total / len(nodes)


def _hankel_det(moments, start: int, size: int) -> Fraction:
    """Determinant of (c_{start+i+j}), by exact Gaussian elimination."""
    m = [[Fraction(moments[start + i + j]) for j in range(size)]
         for i in range(size)]
    det = Fraction(1)
    for k in range(size):
        pivot = next((i for i in range(k, size) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, size):
            f = m[i][k] / m[k][k]
            for j in range(k + 1, size):
                m[i][j] -= f * m[k][j]
    return det


def hankel_tests(moments, n_max: int):
    """Exact Hankel determinants (Delta_n, Delta_n^(1)) for n = 0..n_max.

    Joint positivity of both families is the Stieltjes criterion for a
    positive measure on the positive half-line; here it detects whether
    all grid points are positive.
    """
    if len(moments) < 2 * n_max + 2:
        raise InsufficientMoments(
            f"need {2 * n_max + 2} moments, have {len(moments)}")
    out = []
    for n in range(n_max + 1):
        d = _hankel_det(moments, 0, n + 1)
        d1 = _hankel_det(moments, 1, n + 1)
        out.append((d, d1, d > 0 and d1 > 0))
    return out


def stieltjes_fraction(jm: JacobiMatrix, z):
    """The finite continued fraction 1/(z-b_0 - u_1/(z-b_1 - ...)).

    Equals the partial-fraction sum of w_s/(z - x_s) over the matrix's
    spectral measure; for the mirror of a Sturmian chain it collapses to
    P'_{N+1}(z) / ((N+1) P_{N+1}(z)).
    """
    n = jm.n
    tail = z - jm.b[n]
    for k in range(n - 1, -1, -1):
        if tail == 0:
            raise PoleHit(f"zero tail at level {k + 1}")
        tail = z - jm.b[k] - jm.u[k] / tail
    if tail == 0:
        raise PoleHit("zero tail at level 0")
    return 1 / tail


def check_orthogonality(polys, spectral: SpectralData):
    """(max off-diagonal residual, diagonal h_n candidates) of the Gram matrix."""
    worst = Fraction(0)
    diag = []
    values = [[p(x) for x in spectral.nodes] for p in polys]
    for i in range(len(polys)):
        for j in range(i, len(polys)):
            g = sum((w * vi * vj for w, vi, vj in
                     zip(spectral.weights, values[i], values[j])),
                    start=Fraction(0))
            if i == j:
                diag.append(g)
            elif abs(g) > worst:
                worst = abs(g)
    return worst, diag
