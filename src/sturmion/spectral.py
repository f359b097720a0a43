"""Jacobi matrices, mirror duality, weights, moments, Hankel determinants
and Stieltjes continued fractions for finite orthogonal systems."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .chain import SturmChain
from .poly import Polynomial
from .scalars import BigFloat, is_exact


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


@dataclass(frozen=True)
class JacobiMatrix:
    """Tridiagonal spectral data: diagonal b_0..b_N, subdiagonal u_1..u_N."""

    b: tuple
    u: tuple

    def __post_init__(self):
        if len(self.u) != len(self.b) - 1:
            raise ValueError("need len(u) == len(b) - 1")
        for i, un in enumerate(self.u, start=1):
            if not un > 0:
                raise ValueError(f"u_{i} = {un} must be positive")

    @property
    def n(self) -> int:
        return len(self.b) - 1


@dataclass(frozen=True)
class SpectralData:
    """Strictly increasing nodes with positive weights summing to one."""

    nodes: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise ValueError("nodes and weights must have equal length")
        for a, b in zip(self.nodes, self.nodes[1:]):
            if not a < b:
                raise ValueError("nodes must be strictly increasing")
        for s, w in enumerate(self.weights):
            if not w > 0:
                raise NonPositiveWeight(
                    f"weight {w} at node {s} is not positive")
        if all(is_exact(w) for w in self.weights):
            if sum(self.weights) != 1:
                raise ValueError("exact weights must sum to 1")


def jacobi_from_chain(chain: SturmChain) -> JacobiMatrix:
    return JacobiMatrix(chain.b, chain.u)


def mirror_dual(jm: JacobiMatrix) -> JacobiMatrix:
    """Persymmetric reflection: b*_n = b_{N-n}, u*_n = u_{N+1-n}."""
    return JacobiMatrix(tuple(reversed(jm.b)), tuple(reversed(jm.u)))


def generate_polys(jm: JacobiMatrix, upto: int) -> list[Polynomial]:
    """[P_0, ..., P_upto] from the three-term recurrence; upto <= N+1."""
    if upto > jm.n + 1:
        raise ValueError("cannot generate beyond degree N+1")
    polys = [Polynomial.constant(Fraction(1))]
    if upto == 0:
        return polys
    x = Polynomial.x()
    polys.append(x - Polynomial.constant(jm.b[0]))
    for n in range(1, upto):
        nxt = (x - Polynomial.constant(jm.b[n])) * polys[n] - jm.u[n - 1] * polys[n - 1]
        polys.append(nxt)
    return polys


def _node_residual_ok(p_top: Polynomial, x) -> bool:
    v = p_top(x)
    if isinstance(x, BigFloat) or isinstance(v, BigFloat):
        threshold = Fraction(1, 2 ** (x.precision // 2)) if isinstance(x, BigFloat) \
            else Fraction(1, 2 ** 128)
        return abs(v) < threshold
    return v == 0


def primal_weights(chain: SturmChain, nodes) -> SpectralData:
    """w_s = h_N / (P'_{N+1}(x_s) P_N(x_s)) on the roots of the top polynomial."""
    p_top = chain.polys[0]
    p_next = chain.polys[1]
    dp = p_top.derivative()
    h = chain.h_top
    weights = []
    for s, x in enumerate(nodes):
        if not _node_residual_ok(p_top, x):
            raise NodeMismatch(
                f"node {s}, {x!r}, is not a root of the top polynomial")
        w = h / (dp(x) * p_next(x))
        if not w > 0:
            raise NonPositiveWeight(
                f"weight {w} at node {s}, {x!r}, is not positive")
        weights.append(w)
    return SpectralData(tuple(nodes), tuple(weights))


def dual_weights(p_top: Polynomial, p_next: Polynomial, nodes) -> SpectralData:
    """w*_s = P_N(x_s) / P'_{N+1}(x_s); constant 1/(N+1) for a Sturmian pair."""
    dp = p_top.derivative()
    weights = []
    for s, x in enumerate(nodes):
        if not _node_residual_ok(p_top, x):
            raise NodeMismatch(
                f"node {s}, {x!r}, is not a root of the top polynomial")
        weights.append(p_next(x) / dp(x))
    return SpectralData(tuple(nodes), tuple(weights))


def duality_product_check(primal: SpectralData, dual: SpectralData,
                          chain: SturmChain):
    """Max residual of w_s w*_s - h_N / P'_{N+1}(x_s)^2 over the nodes."""
    if primal.nodes != dual.nodes:
        raise NodeMismatch("primal and dual data carry different nodes")
    dp = chain.polys[0].derivative()
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


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def _hankel_det(moments, start: int, size: int) -> Fraction:
    rows = [[Fraction(moments[start + i + j]) for j in range(size)]
            for i in range(size)]
    denom = 1
    for row in rows:
        for e in row:
            denom = denom * e.denominator // math.gcd(denom, e.denominator)
    ints = [[int(e * denom) for e in row] for row in rows]
    return Fraction(_bareiss_det(ints), denom**size)


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
