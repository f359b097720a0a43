"""Closed-form data for the classical families under test: Hahn, Racah,
q-Hahn, Chebyshev T/U and ultraspherical.

All recurrence coefficients are in monic form and all weights are exact
rationals.  The truncation index n = N is handled by the convention
A_N = 0 (the (N - n) factor wins the 0/0 against a vanishing denominator
for the parameter sets used here), and likewise C_0 = 0 via its n factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .spectral import JacobiMatrix, SpectralData


class FamilyError(Exception):
    pass


class DenominatorZero(FamilyError):
    """A closed-form denominator vanished for a required index."""

    def __init__(self, family: str, index, detail: str = ""):
        self.family = family
        self.index = index
        msg = f"{family}: denominator vanishes at index {index}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class UnsupportedFamily(FamilyError):
    pass


def poch(x, n: int) -> Fraction:
    """Pochhammer symbol (x)_n = x (x+1) ... (x+n-1)."""
    out = Fraction(1)
    x = Fraction(x)
    for k in range(n):
        out *= x + k
    return out


def qpoch(x, q, n: int) -> Fraction:
    """q-Pochhammer symbol (x; q)_n = prod_{k<n} (1 - x q^k)."""
    out = Fraction(1)
    x, q = Fraction(x), Fraction(q)
    for k in range(n):
        out *= 1 - x * q**k
    return out


def _checked_div(num, den, family, index):
    if den == 0:
        raise DenominatorZero(family, index)
    return num / den


# ---------------------------------------------------------------------------
# Hahn
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hahn:
    """Monic Hahn family on the linear grid x_s = s, s = 0..N."""

    alpha: Fraction
    beta: Fraction
    n_max: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        for n in range(self.n_max + 1):
            self.recurrence(n)

    def _a(self, n: int) -> Fraction:
        if n == self.n_max:
            return Fraction(0)
        al, be = self.alpha, self.beta
        num = (n + al + be + 1) * (n + al + 1) * (self.n_max - n)
        den = (2 * n + al + be + 1) * (2 * n + al + be + 2)
        return _checked_div(num, den, "Hahn", f"A_{n}")

    def _c(self, n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        al, be = self.alpha, self.beta
        num = n * (n + al + be + self.n_max + 1) * (n + be)
        den = (2 * n + al + be + 1) * (2 * n + al + be)
        return _checked_div(num, den, "Hahn", f"C_{n}")

    def recurrence(self, n: int):
        """(b_n, u_n): b_n = A_n + C_n, u_n = A_{n-1} C_n (u_0 undefined)."""
        b = self._a(n) + self._c(n)
        u = self._a(n - 1) * self._c(n) if n >= 1 else None
        return b, u


# ---------------------------------------------------------------------------
# Racah (alpha fixed to -N-1 by the truncation condition)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Racah:
    """Monic Racah family on the grid x_s = s (s + gamma + delta + 1)."""

    beta: Fraction
    gamma: Fraction
    delta: Fraction
    n_max: int

    def __post_init__(self):
        for name in ("beta", "gamma", "delta"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        for n in range(self.n_max + 1):
            self.recurrence(n)

    def node(self, s: int) -> Fraction:
        return s * (s + self.gamma + self.delta + 1)

    def _a(self, n: int) -> Fraction:
        if n == self.n_max:
            return Fraction(0)
        be, ga, de, nn = self.beta, self.gamma, self.delta, self.n_max
        num = (n + be - nn) * (n + be + de + 1) * (n + ga + 1) * (n - nn)
        den = (2 * n + be - nn) * (2 * n + be - nn + 1)
        return _checked_div(num, den, "Racah", f"A_{n}")

    def _c(self, n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        be, ga, de, nn = self.beta, self.gamma, self.delta, self.n_max
        num = n * (n + be) * (n + be - ga - nn - 1) * (n - de - nn - 1)
        den = (2 * n + be - nn) * (2 * n + be - nn - 1)
        return _checked_div(num, den, "Racah", f"C_{n}")

    def recurrence(self, n: int):
        """(b_n, u_n): b_n = -A_n - C_n, u_n = A_{n-1} C_n."""
        b = -self._a(n) - self._c(n)
        u = self._a(n - 1) * self._c(n) if n >= 1 else None
        return b, u

    def mass(self) -> Fraction:
        be, ga, de, nn = self.beta, self.gamma, self.delta, self.n_max
        den = poch(1 + ga - be, nn) * poch(de + 1, nn)
        if den == 0:
            raise DenominatorZero("Racah", "mass")
        return poch(-be, nn) * poch(ga + de + 2, nn) / den

    def weights(self) -> SpectralData:
        be, ga, de, nn = self.beta, self.gamma, self.delta, self.n_max
        m = self.mass()
        if m == 0:
            raise DenominatorZero("Racah", "mass is zero")
        ws = []
        for s in range(nn + 1):
            num = (poch(-nn, s) * poch(be + de + 1, s) * poch(ga + 1, s)
                   * poch(ga + de + 1, s) * poch((ga + de + 3) / 2, s))
            den = (Fraction(_factorial(s)) * poch(ga + de + 2 + nn, s)
                   * poch(-be + ga + 1, s) * poch(de + 1, s)
                   * poch((ga + de + 1) / 2, s))
            w = _checked_div(num, den, "Racah", s) / m
            if not w > 0:
                raise NonPositiveWeightFor("Racah", s, w)
            ws.append(w)
        return SpectralData(tuple(self.node(s) for s in range(nn + 1)), tuple(ws))


# ---------------------------------------------------------------------------
# q-Hahn
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QHahn:
    """Monic q-Hahn family on the exponential grid x_s = q^{-s}."""

    a: Fraction
    b: Fraction
    q: Fraction
    n_max: int

    def __post_init__(self):
        for name in ("a", "b", "q"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not (0 < self.q < 1):
            raise ValueError(f"need 0 < q < 1, got {self.q}")
        for n in range(self.n_max + 1):
            self.recurrence(n)

    def node(self, s: int) -> Fraction:
        return self.q ** (-s)

    def _a(self, n: int) -> Fraction:
        if n == self.n_max:
            return Fraction(0)
        a, b, q, nn = self.a, self.b, self.q, self.n_max
        num = (1 - q ** (n - nn)) * (1 - a * q ** (n + 1)) * (1 - a * b * q ** (n + 1))
        den = (1 - a * b * q ** (2 * n + 1)) * (1 - a * b * q ** (2 * n + 2))
        return _checked_div(num, den, "QHahn", f"A_{n}")

    def _c(self, n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        a, b, q, nn = self.a, self.b, self.q, self.n_max
        num = -a * q ** (n - nn) * (1 - q**n) * (1 - b * q**n) \
            * (1 - a * b * q ** (n + nn + 1))
        den = (1 - a * b * q ** (2 * n + 1)) * (1 - a * b * q ** (2 * n))
        return _checked_div(num, den, "QHahn", f"C_{n}")

    def recurrence(self, n: int):
        """(b_n, u_n): b_n = 1 - A_n - C_n, u_n = A_{n-1} C_n."""
        b = 1 - self._a(n) - self._c(n)
        u = self._a(n - 1) * self._c(n) if n >= 1 else None
        return b, u

    def mass(self) -> Fraction:
        a, b, q, nn = self.a, self.b, self.q, self.n_max
        den = qpoch(b * q, q, nn) * (a * q) ** nn
        if den == 0:
            raise DenominatorZero("QHahn", "mass")
        return qpoch(a * b * q**2, q, nn) / den

    def weights(self) -> SpectralData:
        a, b, q, nn = self.a, self.b, self.q, self.n_max
        m = self.mass()
        ws = []
        for s in range(nn + 1):
            num = qpoch(a * q, q, s) * qpoch(q ** (-nn), q, s)
            den = qpoch(q, q, s) * qpoch(q ** (-nn) / b, q, s) * (a * b * q) ** s
            w = _checked_div(num, den, "QHahn", s) / m
            if not w > 0:
                raise NonPositiveWeightFor("QHahn", s, w)
            ws.append(w)
        # exponential nodes increase with s already
        return SpectralData(tuple(self.node(s) for s in range(nn + 1)), tuple(ws))


# ---------------------------------------------------------------------------
# Chebyshev and ultraspherical
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChebyshevT:
    def recurrence(self, n: int):
        if n < 0:
            raise ValueError("index must be >= 0")
        u = None if n == 0 else (Fraction(1, 2) if n == 1 else Fraction(1, 4))
        return Fraction(0), u


@dataclass(frozen=True)
class ChebyshevU:
    def recurrence(self, n: int):
        if n < 0:
            raise ValueError("index must be >= 0")
        return Fraction(0), None if n == 0 else Fraction(1, 4)


@dataclass(frozen=True)
class Ultraspherical:
    """Monic ultraspherical family with parameter lam."""

    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))

    def recurrence(self, n: int):
        if n == 0:
            return Fraction(0), None
        lam = self.lam
        den = 4 * (n + lam) * (n + lam - 1)
        u = _checked_div(n * (n + 2 * lam - 1), den, "Ultraspherical", n)
        return Fraction(0), u


def jacobi_matrix(fam, n_max: int) -> JacobiMatrix:
    """The family's (b_0..b_N, u_1..u_N) from its recurrence, N = n_max."""
    b, u = [], []
    for n in range(n_max + 1):
        bn, un = fam.recurrence(n)
        b.append(bn)
        if n >= 1:
            u.append(un)
    return JacobiMatrix(tuple(b), tuple(u))


# ---------------------------------------------------------------------------
# Printed Legendre-dual closed forms (the formulas under test)
# ---------------------------------------------------------------------------

def legendre_dual_coeffs(grid_kind: str, n_max: int, n: int):
    """The printed closed-form (b_n, u_n) for the Legendre-duality chains.

    These are the quantities the verification harness compares against the
    Euclidean oracle; in particular the quadratic-grid b formula is known
    to disagree with the oracle and is reported, never asserted.
    """
    if not 0 <= n <= n_max:
        raise ValueError("index out of range")
    if grid_kind == "linear":
        b = Fraction(n_max, 2)
        u = None if n == 0 else Fraction(
            n * n * ((n_max + 1) ** 2 - n * n), 4 * (4 * n * n - 1))
        return b, u
    if grid_kind == "quad_tau1":
        nn = Fraction(n_max)
        b = ((nn + Fraction(5, 4)) * (nn + Fraction(3, 4)) / 8
             * (Fraction(1, 4 * n - 1) - Fraction(1, 4 * n - 3))
             + (nn - n) * (2 * n + 2 * nn + 1) / 4
             + 3 * nn / 4 + Fraction(5, 32))
        u = None
        if n >= 1:
            num = (Fraction(n**2) * (2 * n - 1) ** 2
                   * ((n_max + 1) ** 2 - n**2)
                   * (2 * n_max + 3 - 2 * n) * (2 * n_max + 1 + 2 * n))
            den = (4 * n + 1) * (4 * n - 3) * (4 * n - 1) ** 2
            u = Fraction(num, den)
        return b, u
    if grid_kind == "trig1":
        u = None if n == 0 else (
            Fraction(1, 2) if n == n_max else Fraction(1, 4))
        return Fraction(0), u
    if grid_kind == "trig2":
        if n == 0:
            u = None
        elif n == n_max:
            u = Fraction(n_max, 2 * (n_max + 1))
        else:
            u = Fraction(n * (n + 3), 4 * (n + 2) * (n + 1))
        return Fraction(0), u
    raise UnsupportedFamily(f"no printed dual coefficients for {grid_kind!r}")


class NonPositiveWeightFor(FamilyError):
    def __init__(self, family, index, value):
        super().__init__(f"{family}: weight at s={index} is {value}, not positive")


def _factorial(n: int) -> int:
    import math
    return math.factorial(n)
