"""Christoffel, Geronimus and Uvarov spectral transforms.

The Christoffel transform multiplies the orthogonality measure by (x - a)
and is realized at the polynomial level as the exact quotient

    P~_n = (P_{n+1} - V_n P_n) / (x - a),   V_n = P_{n+1}(a) / P_n(a).

The Geronimus transform is the inverse: P_n = P~_n - U_n P~_{n-1} where
U_n = phi_n / phi_{n-1} for a solution phi of the transformed recurrence
at the point a.  The Uvarov transform seeds phi with the second-kind
solution F_n(a) = sum_s w_s P_n(x_s) / (a - x_s).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chain import ChainError, build_chain
from .poly import Polynomial
from .spectral import (JacobiMatrix, SpectralData, generate_polys,
                       jacobi_from_chain)


class TransformError(Exception):
    pass


class PivotZero(TransformError):
    """Some P_n(a) = 0: the Christoffel transform is undefined at a."""


class ZeroPhi(TransformError):
    """The phi sequence hit zero: a Geronimus ratio is undefined."""


class ZeroF(TransformError):
    """A second-kind value F_n(a) vanished."""


class PoleHit(TransformError):
    """The Uvarov point a coincides with a grid node."""


@dataclass(frozen=True)
class TransformRecord:
    kind: str
    point: Fraction
    multipliers: tuple  # V_n for Christoffel, U_n for Geronimus/Uvarov
    source: JacobiMatrix
    result: JacobiMatrix


def christoffel(jm: JacobiMatrix, a) -> tuple[JacobiMatrix, TransformRecord]:
    """Transform jm by measure multiplication with (x - a).

    The unchanged characteristic polynomial P_{N+1} and the new P~_N form
    an interlacing pair whose Euclidean chain is the transformed system,
    so no data beyond the finite truncation is needed.  The coefficient
    formulas u~_n = u_n V_n / V_{n-1} and b~_n = b_{n+1} + V_{n+1} - V_n
    are kept as a cross-check (see :func:`christoffel_coefficients`).
    """
    nn = jm.n
    polys = generate_polys(jm, nn + 1)
    vals = [p(a) for p in polys]
    for i, v in enumerate(vals[:-1]):
        if v == 0:
            raise PivotZero(f"P_{i}({a}) = 0")
    v_seq = tuple(vals[i + 1] / vals[i] for i in range(nn + 1))
    divisor = Polynomial((-Fraction(a), Fraction(1)))
    p_new, r = divmod(polys[nn + 1] - v_seq[nn] * polys[nn], divisor)
    if not r.is_zero:
        raise TransformError("quotient construction left a remainder")
    try:
        chain = build_chain(polys[nn + 1], p_new)
    except ChainError as exc:
        raise TransformError(f"Christoffel transform at {a} has no Jacobi "
                             f"matrix: {exc}") from exc
    result = jacobi_from_chain(chain)
    record = TransformRecord("christoffel", Fraction(a), v_seq, jm, result)
    return result, record


def christoffel_coefficients(jm: JacobiMatrix, a):
    """Coefficient-level Christoffel data for the indices it defines.

    Returns (b~_0..b~_{N-1}, u~_1..u~_N); the top diagonal entry needs
    data beyond the truncation and is left to the polynomial route.
    """
    nn = jm.n
    polys = generate_polys(jm, nn + 1)
    vals = [p(a) for p in polys]
    for i, v in enumerate(vals[:-1]):
        if v == 0:
            raise PivotZero(f"P_{i}({a}) = 0")
    v_seq = [vals[i + 1] / vals[i] for i in range(nn + 1)]
    b = tuple(jm.b[n + 1] + v_seq[n + 1] - v_seq[n] for n in range(nn))
    u = tuple(jm.u[n - 1] * v_seq[n] / v_seq[n - 1] for n in range(1, nn + 1))
    return b, u


def geronimus(jm: JacobiMatrix, a, phi0, phi1) -> tuple[JacobiMatrix, TransformRecord]:
    """Geronimus transform of jm at a, seeded by (phi_0, phi_1).

    phi is extended by phi_{n+1} = (a - b_n) phi_n - u_n phi_{n-1}; only
    the ratio phi_1/phi_0 matters.  Returns the matrix of the polynomials
    P_n = P~_n - (phi_n/phi_{n-1}) P~_{n-1}.
    """
    nn = jm.n
    if phi0 == 0:
        raise ZeroPhi("phi_0 = 0")
    phis = [phi0, phi1]
    for n in range(1, nn + 1):
        phis.append((a - jm.b[n]) * phis[n] - jm.u[n - 1] * phis[n - 1])
    u_seq = []
    for n in range(1, nn + 2):
        if phis[n - 1] == 0:
            raise ZeroPhi(f"phi_{n - 1} = 0")
        u_seq.append(phis[n] / phis[n - 1])
    b = []
    u = []
    for n in range(nn + 1):
        prev = u_seq[n - 1] if n >= 1 else Fraction(0)
        b.append(jm.b[n] + u_seq[n] - prev)
    if nn >= 1:
        u.append(u_seq[0] * (a - jm.b[0] - u_seq[0]))
        for n in range(2, nn + 1):
            u.append(jm.u[n - 2] * u_seq[n - 1] / u_seq[n - 2])
    result = JacobiMatrix(tuple(b), tuple(u))
    record = TransformRecord("geronimus", Fraction(a), tuple(u_seq), jm, result)
    return result, record


def second_kind_values(jm: JacobiMatrix, spectral: SpectralData, a, upto: int):
    """F_n(a) = sum_s w_s P_n(x_s) / (a - x_s) for n = 0..upto, by direct sums."""
    for x in spectral.nodes:
        if x == a:
            raise PoleHit(f"{a} is a grid node")
    polys = generate_polys(jm, upto)
    out = []
    for p in polys:
        out.append(sum((w * p(x) / (a - x)
                        for x, w in zip(spectral.nodes, spectral.weights)),
                       start=Fraction(0)))
    return out


def uvarov(jm: JacobiMatrix, spectral: SpectralData, a) -> tuple[JacobiMatrix, TransformRecord]:
    """Geronimus transform seeded by the second-kind solution at a."""
    f = second_kind_values(jm, spectral, a, 1)
    if f[0] == 0:
        raise ZeroF("F_0(a) = 0")
    result, record = geronimus(jm, a, f[0], f[1])
    return result, TransformRecord("uvarov", record.point, record.multipliers,
                                   jm, result)
