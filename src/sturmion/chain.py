"""Euclidean (Sturm) chains of a polynomial pair and real-root counting.

Repeated division of a monic pair (P_{N+1}, P_N) with interlacing zeros
produces monic polynomials P_{N-1}, ..., P_0 = 1 together with recurrence
coefficients b_0..b_N and u_1..u_N, u_n > 0, satisfying

    P_{n+1}(x) = (x - b_n) P_n(x) - u_n P_{n-1}(x).

Sign variations along the chain count real roots: the chain differs from
the textbook negated-remainder chain only by positive factors u_n, which
never change a sign pattern.  :func:`count_roots` runs that textbook
chain itself, so it takes any polynomial, with repeated or complex roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Polynomial


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
    """The full chain [P_{N+1}, P_N, ..., P_0] with extracted (b, u)."""

    polys: tuple  # top degree first
    b: tuple      # b_0..b_N
    u: tuple      # u_1..u_N

    @property
    def n(self) -> int:
        """N: the chain's top polynomial has degree N+1."""
        return len(self.b) - 1

    def poly(self, k: int) -> Polynomial:
        """P_k, indexed by degree."""
        return self.polys[len(self.polys) - 1 - k]

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


def build_chain(p_top: Polynomial, p_next: Polynomial) -> SturmChain:
    """Run the Euclidean algorithm down to P_0 = 1, extracting (b, u)."""
    if not p_top.is_monic or not p_next.is_monic:
        raise ValueError("build_chain requires monic inputs")
    if p_next.degree != p_top.degree - 1:
        raise ValueError("degrees must be consecutive")
    polys = [p_top, p_next]
    b_rev: list = []
    u_rev: list = []
    cur, nxt = p_top, p_next
    while nxt.degree > 0:
        k = nxt.degree  # extracting b_k, u_k
        q, r = divmod(cur, nxt)
        # q is monic linear: x - b_k
        b_rev.append(-q.coeffs[0])
        if r.is_zero:
            raise ZeroRemainder(f"zero remainder at index {k}")
        if r.degree < k - 1:
            raise DegreeGap(f"remainder degree {r.degree} at index {k}")
        u_k = -r.leading
        if not u_k > 0:
            raise NonPositiveU(f"u_{k} = {u_k} <= 0")
        u_rev.append(u_k)
        prev = r * (Fraction(-1) / u_k)
        polys.append(prev)
        cur, nxt = nxt, prev
    # nxt is P_0 = 1 by construction; cur is P_1 = x - b_0
    b_rev.append(-cur.coeffs[0])
    return SturmChain(tuple(polys), tuple(reversed(b_rev)), tuple(reversed(u_rev)))


def sign_variations(chain: SturmChain, t) -> int:
    """Sign changes along the chain at t, zero values skipped."""
    signs = []
    for p in chain.polys:
        v = p(t)
        if v > 0:
            signs.append(1)
        elif v < 0:
            signs.append(-1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_from_chain(chain: SturmChain, a, b) -> int:
    """Roots of the chain's top polynomial in the half-open interval (a, b]."""
    if not a < b:
        raise ValueError("interval endpoints must satisfy a < b")
    return sign_variations(chain, a) - sign_variations(chain, b)


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
    # a general Sturm sequence has no (b, u); sign variations read only
    # its polynomials
    return count_from_chain(SturmChain(tuple(seq), (), ()), a, b)
