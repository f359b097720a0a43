"""Closed-form data for the classical families under test: Hahn, Racah,
q-Hahn, Chebyshev T/U and ultraspherical.

All recurrence coefficients are exact and monic.  Hahn, Racah and q-Hahn
give only their closed-form A_n and C_n and the affine map from A_n + C_n
to b_n; one sweep, `_askey_table`, turns these into the family's (b_n, u_n)
and states the truncation convention.  The Racah and q-Hahn weights are the
Gauss weights of each family's own matrix on its nodes.
"""

from __future__ import annotations

from fractions import Fraction

from .chain import SturmChain, _Record
from .spectral import JacobiMatrix, SpectralData, _top_polys, primal_weights


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


def _checked_div(num, den, family, index):
    if den == 0:
        raise DenominatorZero(family, index)
    return num / den


def _askey_table(fam, b_of) -> None:
    """Store on fam its monic (b_n, u_n), n = 0..N, with b_n = b_of(A_n + C_n)
    and u_n = A_{n-1} C_n (u_0 is None), evaluating each A_n and C_n once
    from the (numerator, denominator) that fam._a and fam._c give.

    The truncation convention: A_N = 0 and C_0 = 0, since the (N - n) and n
    factors win the 0/0 against a vanishing denominator for the parameter
    sets used here (Koekoek, Lesky & Swarttouw 2010, ch. 9 and 14).
    """
    family, nn = type(fam).__name__, fam.n_max
    table, a_prev = [], None
    for n in range(nn + 1):
        a = (_checked_div(*fam._a(n), family, f"A_{n}") if n < nn
             else Fraction(0))
        c = _checked_div(*fam._c(n), family, f"C_{n}") if n else Fraction(0)
        table.append((b_of(a + c), a_prev * c if n else None))
        a_prev = a
    object.__setattr__(fam, "_table", tuple(table))


def _table_entry(fam, n: int):
    if not 0 <= n <= fam.n_max:
        raise ValueError("index out of range")
    return fam._table[n]


# ---------------------------------------------------------------------------
# Hahn
# ---------------------------------------------------------------------------

class Hahn(_Record):
    """Monic Hahn family on the linear grid x_s = s, s = 0..N."""

    __slots__ = ("alpha", "beta", "n_max", "_table")

    def __init__(self, alpha, beta, n_max: int):
        self._set(Fraction(alpha), Fraction(beta), n_max)
        _askey_table(self, lambda a_plus_c: a_plus_c)

    def _a(self, n: int):
        al, be = self.alpha, self.beta
        num = (n + al + be + 1) * (n + al + 1) * (self.n_max - n)
        den = (2 * n + al + be + 1) * (2 * n + al + be + 2)
        return num, den

    def _c(self, n: int):
        al, be = self.alpha, self.beta
        num = n * (n + al + be + self.n_max + 1) * (n + be)
        den = (2 * n + al + be + 1) * (2 * n + al + be)
        return num, den

    def recurrence(self, n: int):
        """(b_n, u_n) for 0 <= n <= N, with b_n = A_n + C_n."""
        return _table_entry(self, n)


# ---------------------------------------------------------------------------
# Racah (alpha fixed to -N-1 by the truncation condition)
# ---------------------------------------------------------------------------

class Racah(_Record):
    """Monic Racah family on the grid x_s = s (s + gamma + delta + 1)."""

    __slots__ = ("beta", "gamma", "delta", "n_max", "_table")

    def __init__(self, beta, gamma, delta, n_max: int):
        self._set(Fraction(beta), Fraction(gamma), Fraction(delta), n_max)
        _askey_table(self, lambda a_plus_c: -a_plus_c)

    def node(self, s: int) -> Fraction:
        return s * (s + self.gamma + self.delta + 1)

    def _a(self, n: int):
        be, ga, de, nn = self.beta, self.gamma, self.delta, self.n_max
        num = (n + be - nn) * (n + be + de + 1) * (n + ga + 1) * (n - nn)
        den = (2 * n + be - nn) * (2 * n + be - nn + 1)
        return num, den

    def _c(self, n: int):
        be, ga, de, nn = self.beta, self.gamma, self.delta, self.n_max
        num = n * (n + be) * (n + be - ga - nn - 1) * (n - de - nn - 1)
        den = (2 * n + be - nn) * (2 * n + be - nn - 1)
        return num, den

    def recurrence(self, n: int):
        """(b_n, u_n) for 0 <= n <= N, with b_n = -A_n - C_n."""
        return _table_entry(self, n)

    def weights(self) -> SpectralData:
        return _gauss_weights(self)


# ---------------------------------------------------------------------------
# q-Hahn
# ---------------------------------------------------------------------------

class QHahn(_Record):
    """Monic q-Hahn family on the exponential grid x_s = q^{-s}."""

    __slots__ = ("a", "b", "q", "n_max", "_table")

    def __init__(self, a, b, q, n_max: int):
        self._set(Fraction(a), Fraction(b), Fraction(q), n_max)
        if not (0 < self.q < 1):
            raise ValueError(f"need 0 < q < 1, got {self.q}")
        _askey_table(self, lambda a_plus_c: 1 - a_plus_c)

    def node(self, s: int) -> Fraction:
        return self.q ** (-s)

    def _a(self, n: int):
        a, b, q, nn = self.a, self.b, self.q, self.n_max
        num = (1 - q ** (n - nn)) * (1 - a * q ** (n + 1)) * (1 - a * b * q ** (n + 1))
        den = (1 - a * b * q ** (2 * n + 1)) * (1 - a * b * q ** (2 * n + 2))
        return num, den

    def _c(self, n: int):
        a, b, q, nn = self.a, self.b, self.q, self.n_max
        num = -a * q ** (n - nn) * (1 - q**n) * (1 - b * q**n) \
            * (1 - a * b * q ** (n + nn + 1))
        den = (1 - a * b * q ** (2 * n + 1)) * (1 - a * b * q ** (2 * n))
        return num, den

    def recurrence(self, n: int):
        """(b_n, u_n) for 0 <= n <= N, with b_n = 1 - A_n - C_n."""
        return _table_entry(self, n)

    def weights(self) -> SpectralData:
        return _gauss_weights(self)


# ---------------------------------------------------------------------------
# Chebyshev and ultraspherical
# ---------------------------------------------------------------------------

class ChebyshevT(_Record):
    __slots__ = ()

    def recurrence(self, n: int):
        if n < 0:
            raise ValueError("index must be >= 0")
        u = None if n == 0 else (Fraction(1, 2) if n == 1 else Fraction(1, 4))
        return Fraction(0), u


class ChebyshevU(_Record):
    __slots__ = ()

    def recurrence(self, n: int):
        if n < 0:
            raise ValueError("index must be >= 0")
        return Fraction(0), None if n == 0 else Fraction(1, 4)


class Ultraspherical(_Record):
    """Monic ultraspherical family with parameter lam."""

    __slots__ = ("lam",)

    def __init__(self, lam):
        self._set(Fraction(lam))

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


def _gauss_weights(fam) -> SpectralData:
    """Gauss weights h_N / (P'_{N+1}(x_s) P_N(x_s)) of fam's own matrix at
    its nodes x_s, s = 0..N (Gautschi 2004, sec. 1.4); spectral checks that
    they are the roots of P_{N+1} and that the weights sum to 1."""
    nn = fam.n_max
    jm = jacobi_matrix(fam, nn)
    p_next, p_top = _top_polys(jm, nn + 1, 2)
    return primal_weights(SturmChain((p_top, p_next), jm.b, jm.u),
                          [fam.node(s) for s in range(nn + 1)])


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

