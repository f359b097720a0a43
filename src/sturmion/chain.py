"""Euclidean (Sturm) chains of a polynomial pair and real-root counting.

Repeated division of a monic pair (P_{N+1}, P_N) with interlacing zeros
produces monic polynomials P_{N-1}, ..., P_0 = 1 together with recurrence
coefficients b_0..b_N and u_1..u_N, u_n > 0, satisfying

    P_{n+1}(x) = (x - b_n) P_n(x) - u_n P_{n-1}(x).

A :class:`SturmChain` keeps the pair it was given and (b, u).  One integer
pair step, ``_step``, runs the recurrence down here, dropping the P_n, and
up in ``spectral.generate_polys``, which regenerates them from (b, u).

Sign variations along the chain count real roots: the chain differs from
the textbook negated-remainder chain only by positive factors u_n, which
never change a sign pattern.  :func:`count_roots` runs that textbook
chain itself, so it takes any polynomial, with repeated or complex roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import Polynomial
from .scalars import is_exact


class ChainError(Exception):
    """Base class for chain construction failures."""


class DegreeGap(ChainError):
    """A remainder dropped degree by more than one (degenerate pair)."""


class ZeroRemainder(ChainError):
    """Exact common factor found (non-simple roots)."""


class NonPositiveU(ChainError):
    """Some u_n <= 0 (interlacing violation, complex or multiple roots)."""


@dataclass(frozen=True)
class SturmChain:
    """The top pair (P_{N+1}, P_N) of a chain with its (b, u)."""

    pair: tuple   # (P_{N+1}, P_N)
    b: tuple      # b_0..b_N
    u: tuple      # u_1..u_N

    @property
    def n(self) -> int:
        """N: the chain's top polynomial has degree N+1."""
        return len(self.b) - 1

    @property
    def h_top(self):
        """h_N = u_1 ... u_N, the squared-norm product."""
        h = Fraction(1)
        for un in self.u:
            h = h * un
        return h


def sturmian_pair(p: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(P, P'/(N+1)) for monic P of degree N+1; the second entry is monic."""
    if not p.is_monic:
        raise ValueError("sturmian_pair requires a monic polynomial")
    deg = p.degree
    if deg < 1:
        raise ValueError("sturmian_pair requires degree >= 1")
    return p, p.derivative() * Fraction(1, deg)


# Reduced (numerator, denominator) int pairs, denominator > 0, combined by
# the gcd reductions of Fraction._add and Fraction._mul (Henrici 1956)
# with no object per operation.
def _sub(an, ad, bn, bd):
    """an/ad - bn/bd."""
    g = math.gcd(ad, bd)
    if g == 1:
        return an * bd - ad * bn, ad * bd
    s = ad // g
    t = an * (bd // g) - bn * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return t, s * bd
    return t // g2, s * (bd // g2)


def _mul(an, ad, bn, bd):
    """an/ad * bn/bd."""
    g1 = math.gcd(an, bd)
    if g1 > 1:
        an //= g1
        bd //= g1
    g2 = math.gcd(bn, ad)
    if g2 > 1:
        bn //= g2
        ad //= g2
    return an * bn, ad * bd


def _pairs(values, source) -> list:
    """values as reduced int pairs; source names them in the error."""
    if not all(is_exact(c) for c in values):
        raise TypeError(f"cannot build a chain from {source!r}: "
                        "inexact coefficient")
    return [(c.numerator, c.denominator) for c in values]


def _step(bn, bd, a, c) -> list:
    """(a_{i-1} - c_i) - b a_i with b = bn/bd, a_{-1} = 0, for each index
    i that both a and c reach: the ascending coefficients of (x - b) A - C."""
    return [_sub(*_sub(*below, *ci), *_mul(bn, bd, *ai))
            for below, ci, ai in zip([(0, 1)] + a, c, a)]


def build_chain(p_top: Polynomial, p_next: Polynomial) -> SturmChain:
    """Run the Euclidean algorithm down to P_0 = 1, extracting (b, u).

    With c the coefficients of P_{k+1} and d those of P_k, the quotient of
    P_{k+1} by P_k is x - b_k with b_k = d_{k-1} - c_k, and the negated
    remainder s_i = d_{i-1} - c_i - b_k d_i (i < k) has leading coefficient
    u_k, so that P_{k-1} = s / u_k.  Coefficients may be ``int`` or
    ``Fraction``; any other raises ``TypeError``.
    """
    if not p_top.is_monic or not p_next.is_monic:
        raise ValueError("build_chain requires monic inputs")
    if p_next.degree != p_top.degree - 1:
        raise ValueError("degrees must be consecutive")
    cur, nxt = _pairs(p_top.coeffs, p_top), _pairs(p_next.coeffs, p_next)
    b_rev, u_rev = [], []
    for k in range(p_next.degree, 0, -1):
        bn, bd = _sub(*nxt[k - 1], *cur[k])
        s = _step(bn, bd, nxt[:k], cur)
        un, ud = s[-1]
        if un == 0:
            nonzero = [i for i, (n, _) in enumerate(s) if n]
            if not nonzero:
                raise ZeroRemainder(f"zero remainder at index {k}")
            raise DegreeGap(f"remainder degree {nonzero[-1]} at index {k}")
        u_k = Fraction(un, ud)
        if un < 0:
            raise NonPositiveU(f"u_{k} = {u_k} <= 0")
        b_rev.append(Fraction(bn, bd))
        u_rev.append(u_k)
        cur, nxt = nxt, [_mul(n, d, ud, un) for n, d in s[:-1]] + [(1, 1)]
    # cur is P_1 = x - b_0
    b_rev.append(Fraction(-cur[0][0], cur[0][1]))
    return SturmChain((p_top, p_next), tuple(reversed(b_rev)),
                      tuple(reversed(u_rev)))


def sign_variations(polys, t) -> int:
    """Sign changes along the polynomial sequence at t, zero values
    skipped."""
    signs = []
    for p in polys:
        v = p(t)
        if v > 0:
            signs.append(1)
        elif v < 0:
            signs.append(-1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_from_chain(polys, a, b) -> int:
    """Roots of polys[0] in the half-open interval (a, b], for a Sturm
    sequence polys, top degree first, such as the chain P_{N+1}, ..., P_0
    that ``spectral.generate_polys`` regenerates."""
    if not a < b:
        raise ValueError("interval endpoints must satisfy a < b")
    return sign_variations(polys, a) - sign_variations(polys, b)


def count_roots(p: Polynomial, a, b) -> int:
    """Exact number of distinct real roots of p in (a, b].

    Sturm's theorem on the signed remainder sequence p, p', -rem, ...,
    each member divided by g = gcd(p, p'), so repeated and non-real roots
    are allowed.  A root at an endpoint is handled exactly by the
    half-open convention: a root at a is excluded, a root at b included.
    """
    if p.degree < 1:
        raise ValueError("constant polynomial has no roots to count")
    seq = [p, p.derivative()]
    while not (r := seq[-2] % seq[-1]).is_zero:
        seq.append(r * (Fraction(-1) / abs(r.leading)))
    g = seq[-1]
    if g.degree > 0:
        seq = [s // g for s in seq]
    return count_from_chain(seq, a, b)
