"""Christoffel, Geronimus and Uvarov spectral transforms.

The Christoffel transform multiplies the orthogonality measure by (x - a)
and is realized at the polynomial level as the exact quotient

    P~_n = (P_{n+1} - V_n P_n) / (x - a),   V_n = P_{n+1}(a) / P_n(a).

The Geronimus transform is the inverse: P_n = P~_n - U_n P~_{n-1} where
U_n = phi_n / phi_{n-1} for a solution phi of the transformed recurrence
at the point a.  The Uvarov transform seeds phi with the second-kind
solution F_n(a) = sum_s w_s P_n(x_s) / (a - x_s).

Each transform runs one three-term recurrence at a for its multipliers
(V_n or U_n), reads the transformed matrix off the Euclidean chain of the
transformed top pair, and returns both.  A transform fails where the
spectral data it needs does not exist, so its errors are spectral errors:
a node hit by the second-kind sum is the :class:`spectral.PoleHit` of the
Stieltjes function it evaluates.
"""

from __future__ import annotations

from fractions import Fraction

from .chain import ChainError, build_chain
from .poly import Polynomial
from .spectral import (JacobiMatrix, PoleHit, SpectralData, SpectralError,
                       _top_polys, generate_polys, jacobi_from_chain)

TransformError = SpectralError


class PivotZero(TransformError):
    """Some P_n(a) = 0: the Christoffel transform is undefined at a."""


class ZeroPhi(TransformError):
    """The phi sequence hit zero: a Geronimus ratio is undefined."""


class ZeroF(TransformError):
    """A second-kind value F_n(a) vanished."""


def _ratios(jm: JacobiMatrix, a, phi0, phi1, fault):
    """phi_{n+1} / phi_n for n = 0..N, where phi_0, phi_1 seed the
    recurrence phi_{n+1} = (a - b_n) phi_n - u_n phi_{n-1} of jm; fault(n)
    is the error raised when phi_n = 0."""
    phis = [phi0, phi1]
    for n in range(1, jm.n + 1):
        phis.append((a - jm.b[n]) * phis[n] - jm.u[n - 1] * phis[n - 1])
    for n in range(jm.n + 1):
        if phis[n] == 0:
            raise fault(n)
    return tuple(phis[n + 1] / phis[n] for n in range(jm.n + 1))


def _chain_matrix(name: str, a, p_top: Polynomial,
                  p_next: Polynomial) -> JacobiMatrix:
    """The Jacobi matrix of the Euclidean chain of a transformed top pair."""
    try:
        return jacobi_from_chain(build_chain(p_top, p_next))
    except ChainError as exc:
        raise TransformError(f"{name} transform at {a} has no Jacobi "
                             f"matrix: {exc}") from exc


def _christoffel_multipliers(jm: JacobiMatrix, a):
    """V_n = P_{n+1}(a) / P_n(a) for n = 0..N."""
    return _ratios(jm, a, Fraction(1), a - jm.b[0],
                   lambda n: PivotZero(f"P_{n}({a}) = 0"))


def christoffel(jm: JacobiMatrix, a) -> tuple[JacobiMatrix, tuple]:
    """Transform jm by measure multiplication with (x - a).

    Returns the transformed matrix and V_0..V_N.  The unchanged
    characteristic polynomial P_{N+1} and the new P~_N form an interlacing
    pair whose Euclidean chain is the transformed system, so no data beyond
    the finite truncation is needed.  The coefficient formulas
    u~_n = u_n V_n / V_{n-1} and b~_n = b_{n+1} + V_{n+1} - V_n are kept as
    a cross-check (see :func:`christoffel_coefficients`).
    """
    nn = jm.n
    v_seq = _christoffel_multipliers(jm, a)
    p_nn, p_top = _top_polys(jm, nn + 1, 2)
    divisor = Polynomial((-a, 1))
    p_new, r = divmod(p_top - v_seq[nn] * p_nn, divisor)
    if not r.is_zero:
        raise TransformError("quotient construction left a remainder")
    return _chain_matrix("Christoffel", a, p_top, p_new), v_seq


def christoffel_coefficients(jm: JacobiMatrix, a):
    """Coefficient-level Christoffel data for the indices it defines.

    Returns (b~_0..b~_{N-1}, u~_1..u~_N); the top diagonal entry needs
    data beyond the truncation and is left to the polynomial route.
    """
    nn = jm.n
    v_seq = _christoffel_multipliers(jm, a)
    b = tuple(jm.b[n + 1] + v_seq[n + 1] - v_seq[n] for n in range(nn))
    u = tuple(jm.u[n - 1] * v_seq[n] / v_seq[n - 1] for n in range(1, nn + 1))
    return b, u


def geronimus(jm: JacobiMatrix, a, phi0, phi1) -> tuple[JacobiMatrix, tuple]:
    """Geronimus transform of jm at a, seeded by (phi_0, phi_1).

    phi is extended by phi_{n+1} = (a - b_n) phi_n - u_n phi_{n-1}; only
    the ratio phi_1/phi_0 matters.  Returns the matrix of the polynomials
    P_n = P~_n - U_n P~_{n-1}, U_n = phi_n/phi_{n-1}, read from the
    Euclidean chain of its top pair (P_{N+1}, P_N), and U_1..U_{N+1}.
    """
    nn = jm.n
    u_seq = _ratios(jm, a, phi0, phi1, lambda n: ZeroPhi(f"phi_{n} = 0"))
    *lower, p_nn, p_top = _top_polys(jm, nn + 1, 3)
    top = p_top - u_seq[nn] * p_nn
    nxt = p_nn - u_seq[nn - 1] * lower[0] if nn else p_nn
    return _chain_matrix("Geronimus", a, top, nxt), u_seq


def second_kind_values(jm: JacobiMatrix, spectral: SpectralData, a, upto: int):
    """F_n(a) = sum_s w_s P_n(x_s) / (a - x_s) for n = 0..upto, by direct sums."""
    for s, x in enumerate(spectral.nodes):
        if x == a:
            raise PoleHit(f"{a} is grid node {s}")
    polys = generate_polys(jm, upto)
    out = []
    for p in polys:
        out.append(sum((w * p(x) / (a - x)
                        for x, w in zip(spectral.nodes, spectral.weights)),
                       start=Fraction(0)))
    return out


def uvarov(jm: JacobiMatrix, spectral: SpectralData, a) -> tuple[JacobiMatrix, tuple]:
    """Geronimus transform seeded by the second-kind solution at a."""
    f = second_kind_values(jm, spectral, a, 1)
    if f[0] == 0:
        raise ZeroF("F_0(a) = 0")
    return geronimus(jm, a, f[0], f[1])
