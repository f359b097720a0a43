"""Euclidean (Sturm) chains of a polynomial pair and real-root counting.

Repeated division of a monic pair (P_{N+1}, P_N) with interlacing zeros
produces monic polynomials P_{N-1}, ..., P_0 = 1 together with recurrence
coefficients b_0..b_N and u_1..u_N, u_n > 0, satisfying

    P_{n+1}(x) = (x - b_n) P_n(x) - u_n P_{n-1}(x).

A :class:`SturmChain` keeps the pair it was given and (b, u).  Each
polynomial here is a primitive integer vector A (content 1): a monic P_k
is A / A[-1], so A is its ``Polynomial.num`` and A[-1] its ``den``.  One
step on them, ``_step``, runs the recurrence down here, from the pair's
``num``, dropping the P_n, and up in ``spectral.generate_polys``, which
regenerates them from (b, u) and returns each vector as it stands.

Sign variations along the chain count real roots: the chain differs from
the textbook negated-remainder chain only by positive factors u_n, which
never change a sign pattern.  :func:`count_roots` runs the textbook
chain on such vectors, for any polynomial, repeated or complex roots too,
with the pseudo-division that ``Polynomial.__divmod__`` also runs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import Polynomial, pseudo_divide


class ChainError(Exception):
    """Base class for chain construction failures."""


class DegreeGap(ChainError):
    """A remainder dropped degree by more than one (degenerate pair)."""


class ZeroRemainder(ChainError):
    """Exact common factor found (non-simple roots)."""


class NonPositiveU(ChainError):
    """Some u_n <= 0 (interlacing violation, complex or multiple roots)."""


class _Record:
    """A frozen value whose fields are the names in ``__slots__`` not
    starting with ``_``: ``==``, ``hash`` and ``repr`` cover them, and
    none can be assigned or deleted once ``__init__`` has set them."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f[0] != "_")

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class SturmChain(_Record):
    """The top pair (P_{N+1}, P_N) of a chain with its (b, u)."""

    __slots__ = ("pair", "b", "u")  # (P_{N+1}, P_N), b_0..b_N, u_1..u_N

    def __init__(self, pair, b, u):
        self._set(pair, b, u)

    @property
    def n(self) -> int:
        """N: the chain's top polynomial has degree N+1."""
        return len(self.b) - 1

    @property
    def h_top(self):
        """h_N = u_1 ... u_N, the squared-norm product."""
        return math.prod(self.u, start=Fraction(1))


def sturmian_pair(p: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(P, P'/(N+1)) for monic P of degree N+1; the second entry is monic."""
    if not p.is_monic:
        raise ValueError("sturmian_pair requires a monic polynomial")
    if p.degree < 1:
        raise ValueError("sturmian_pair requires degree >= 1")
    return p, p.derivative() * Fraction(1, p.degree)


def _primitive(s) -> tuple[list, int]:
    """(s / g, g) for the content g = gcd(s) >= 0 (s itself if g <= 1)."""
    g = math.gcd(*s)
    return ([v // g for v in s] if g > 1 else s), g


def _step(f, g, bn, bd, a, c) -> tuple[list, int]:
    """(S / G, G) for S = f (bd x - bn) A - g C at each index that c
    reaches (A read as 0 past its ends) and G its content; gcd(f, g) is
    taken out of f and g before the products are formed."""
    h = math.gcd(f, g)
    f, g = f // h, g // h
    s, content = _primitive([f * bd * lo - f * bn * hi - g * ci
                             for lo, hi, ci in zip([0] + a, a + [0], c)])
    return s, content * h


def build_chain(p_top: Polynomial, p_next: Polynomial) -> SturmChain:
    """Run the Euclidean algorithm down to P_0 = 1, extracting (b, u).

    With P_{k+1} = C / c and P_k = A / a, the quotient of P_{k+1} by P_k
    is x - b_k with b_k = A_{k-1}/a - C_k/c = bn/bd, and the negated
    remainder s = (x - b_k) P_k - P_{k+1} has leading coefficient u_k, so
    that P_{k-1} = s / u_k.  ``_step`` with f = c and g = a bd forms
    S = s a c bd, whose leading entry over a c bd is u_k.  C and A are
    the inputs' numerators ``num``.
    """
    if not p_top.is_monic or not p_next.is_monic:
        raise ValueError("build_chain requires monic inputs")
    if p_next.degree != p_top.degree - 1:
        raise ValueError("degrees must be consecutive")
    cur, nxt = list(p_top.num), list(p_next.num)
    b_rev, u_rev = [], []
    for k in range(p_next.degree, 0, -1):
        a, c = nxt[-1], cur[-1]
        b_k = Fraction(nxt[k - 1] * c - cur[k] * a, a * c)
        bn, bd = b_k.numerator, b_k.denominator
        s, content = _step(c, a * bd, bn, bd, nxt, cur[:k])
        if s[-1] == 0:
            nonzero = [i for i, v in enumerate(s) if v]
            if not nonzero:
                raise ZeroRemainder(f"zero remainder at index {k}")
            raise DegreeGap(f"remainder degree {nonzero[-1]} at index {k}")
        u_k = Fraction(s[-1] * content, a * c * bd)
        if u_k < 0:
            raise NonPositiveU(f"u_{k} = {u_k} <= 0")
        b_rev.append(b_k)
        u_rev.append(u_k)
        cur, nxt = nxt, s
    # cur is P_1 = x - b_0
    b_rev.append(Fraction(-cur[0], cur[1]))
    return SturmChain((p_top, p_next), tuple(reversed(b_rev)),
                      tuple(reversed(u_rev)))


def sign_variations(polys, t) -> int:
    """Sign changes along the polynomial sequence at t, zero values
    skipped."""
    signs = [v > 0 for v in (p(t) for p in polys) if v != 0]
    return sum(s != r for s, r in zip(signs, signs[1:]))


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
    are allowed.  Each member is a primitive integer vector and a positive
    multiple of the textbook one (the primitive remainder sequence of
    Collins and Brown).  A root at an endpoint is handled exactly by the
    half-open convention: a root at a is excluded, a root at b included.

    The sequence stays on primitive vectors rather than ``Polynomial``
    ``%``: the rational remainders of a Sturm sequence grow so fast that
    a degree-30 count took 70.8 s that way, against 0.01 s here.
    """
    if p.degree < 1:
        raise ValueError("constant polynomial has no roots to count")
    top = _primitive(list(p.num))[0]
    seq = [top, _primitive([i * c for i, c in enumerate(top) if i])[0]]
    while any(r := pseudo_divide(*seq[-2:])[1]):
        while not r[-1]:
            r.pop()
        # r = lc^(delta+1) rem(num, den): negate it unless lc^(delta+1) < 0
        num, den = seq[-2:]
        if den[-1] > 0 or (len(num) - len(den)) % 2:
            r = [-v for v in r]
        seq.append(_primitive(r)[0])
    g = seq[-1]
    if len(g) > 1:
        # g is primitive and divides each member: the quotients are
        # integral (Gauss's lemma), so the pseudo-quotients divide exactly
        seq = [[v // g[-1] ** (len(s) - len(g) + 1)
                for v in pseudo_divide(s, g)[0]] for s in seq]
    return count_from_chain([Polynomial(s) for s in seq], a, b)
