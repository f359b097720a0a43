"""Classical grids: generation, classification and characteristic polynomials.

Every classical grid satisfies x_{s+1} + x_{s-1} - Omega*x_s = nu with
constants (Omega, nu); the value of Omega picks the family.  Nodes are
exact rationals for the linear, quadratic, exponential, Askey-Wilson and
Bannai-Ito kinds, and big floats for the two trigonometric kinds.  The
trig characteristic polynomials are built from the exact Chebyshev
recurrences, never from the floating nodes, so the Sturm chain stays in
the rational backend on every grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import families
from .poly import Polynomial
from .scalars import DEFAULT_PRECISION, cos_pi
from .spectral import generate_polys

LINEAR = "linear"
QUADRATIC = "quadratic"
EXPONENTIAL = "exponential"
ASKEY_WILSON = "askey_wilson"
BANNAI_ITO = "bannai_ito"
TRIG_FIRST = "trig1"
TRIG_SECOND = "trig2"

_TRIG_KINDS = (TRIG_FIRST, TRIG_SECOND)

#: Names of each kind's GridSpec.params, in order; kinds not listed take none.
PARAM_NAMES = {
    QUADRATIC: ("tau",),
    EXPONENTIAL: ("q",),
    ASKEY_WILSON: ("q", "c1", "c2", "c0"),
    BANNAI_ITO: ("c1", "c2", "c0"),
}


class GridError(Exception):
    pass


class DegenerateGrid(GridError):
    """The requested parameters produce repeated nodes."""


class NotAClassicalGrid(GridError):
    """Raw nodes do not satisfy the classical difference equation."""


@dataclass(frozen=True)
class GridSpec:
    kind: str
    n: int
    params: tuple = ()  # kind-specific, see factory helpers
    scale: Fraction = Fraction(1)
    shift: Fraction = Fraction(0)
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("grid size N must be >= 0")
        if self.scale == 0:
            raise ValueError("affine scale must be nonzero")
        if self.kind == QUADRATIC:
            (tau,) = self.params
            if not tau > -1:
                raise ValueError(f"quadratic grid needs tau > -1, got {tau}")
        elif self.kind == EXPONENTIAL:
            (q,) = self.params
            if not (0 < q < 1):
                raise ValueError(f"exponential grid needs 0 < q < 1, got {q}")
        elif self.kind == ASKEY_WILSON:
            if self.params[0] == 0:
                raise ValueError("Askey-Wilson grid needs q != 0, got 0")


def linear(n: int, scale=Fraction(1), shift=Fraction(0)) -> GridSpec:
    return GridSpec(LINEAR, n, (), Fraction(scale), Fraction(shift))


def quadratic(tau, n: int, scale=Fraction(1), shift=Fraction(0)) -> GridSpec:
    return GridSpec(QUADRATIC, n, (Fraction(tau),), Fraction(scale), Fraction(shift))


def exponential(q, n: int, scale=Fraction(1), shift=Fraction(0)) -> GridSpec:
    return GridSpec(EXPONENTIAL, n, (Fraction(q),), Fraction(scale), Fraction(shift))


def askey_wilson(q, c1, c2, c0, n: int) -> GridSpec:
    return GridSpec(ASKEY_WILSON, n,
                    (Fraction(q), Fraction(c1), Fraction(c2), Fraction(c0)))


def bannai_ito(c1, c2, c0, n: int) -> GridSpec:
    return GridSpec(BANNAI_ITO, n, (Fraction(c1), Fraction(c2), Fraction(c0)))


def trig_first(n: int, precision: int = DEFAULT_PRECISION) -> GridSpec:
    return GridSpec(TRIG_FIRST, n, precision=precision)


def trig_second(n: int, precision: int = DEFAULT_PRECISION) -> GridSpec:
    return GridSpec(TRIG_SECOND, n, precision=precision)


def _canonical_nodes(spec: GridSpec):
    n = spec.n
    if spec.kind == LINEAR:
        return [Fraction(s) for s in range(n + 1)]
    if spec.kind == QUADRATIC:
        (tau,) = spec.params
        return [Fraction(s) * (s + tau) for s in range(n + 1)]
    if spec.kind == EXPONENTIAL:
        (q,) = spec.params
        return [q ** (-s) for s in range(n + 1)]
    if spec.kind == ASKEY_WILSON:
        q, c1, c2, c0 = spec.params
        return [c1 * q**s + c2 * q ** (-s) + c0 for s in range(n + 1)]
    if spec.kind == BANNAI_ITO:
        c1, c2, c0 = spec.params
        # the nodes alternate around c0, so the grid is their sorted set
        return sorted((-1) ** s * (c1 * s + c2) + c0 for s in range(n + 1))
    if spec.kind == TRIG_FIRST:
        # -cos(pi (s + 1/2) / (N+1))
        return [-cos_pi(Fraction(2 * s + 1, 2 * (n + 1)), spec.precision)
                for s in range(n + 1)]
    if spec.kind == TRIG_SECOND:
        # -cos(pi (s + 1) / (N+2))
        return [-cos_pi(Fraction(s + 1, n + 2), spec.precision)
                for s in range(n + 1)]
    raise ValueError(f"unknown grid kind {spec.kind!r}")


def nodes(spec: GridSpec):
    """Strictly increasing node list after the affine map scale*x + shift."""
    xs = [spec.scale * x + spec.shift for x in _canonical_nodes(spec)]
    if spec.scale < 0:
        xs.reverse()
    for a, b in zip(xs, xs[1:]):
        if a == b:
            raise DegenerateGrid(f"grid node {a} is repeated")
        if not a < b:
            raise DegenerateGrid(f"nodes not strictly increasing: {a}, {b}")
    return xs


def monic_t(degree: int) -> Polynomial:
    """Monic T_degree from the exact Chebyshev recurrence."""
    jm = families.jacobi_matrix(families.ChebyshevT(), max(degree - 1, 0))
    return generate_polys(jm, degree)[-1]


def monic_u(degree: int) -> Polynomial:
    """Monic U_degree from the exact Chebyshev recurrence."""
    jm = families.jacobi_matrix(families.ChebyshevU(), max(degree - 1, 0))
    return generate_polys(jm, degree)[-1]


def characteristic_polynomial(spec: GridSpec) -> Polynomial:
    """Monic polynomial of degree N+1 vanishing on all grid nodes.

    Rational kinds expand the product over exact nodes; trig kinds use
    the monic Chebyshev recurrences so the result is exact as well.
    """
    if spec.kind in _TRIG_KINDS:
        canonical = monic_t(spec.n + 1) if spec.kind == TRIG_FIRST \
            else monic_u(spec.n + 1)
        if spec.scale == 1 and spec.shift == 0:
            return canonical
        inv = Polynomial((-spec.shift / spec.scale, 1 / spec.scale))
        return canonical.compose(inv) * spec.scale ** (spec.n + 1)
    return Polynomial.from_roots(nodes(spec))


def grid_constants(spec: GridSpec):
    """The (Omega, nu) of the affine-mapped difference equation, exact kinds only."""
    if spec.kind == LINEAR:
        omega, nu = Fraction(2), Fraction(0)
    elif spec.kind == QUADRATIC:
        omega, nu = Fraction(2), Fraction(2)
    elif spec.kind in (EXPONENTIAL, ASKEY_WILSON):
        q = spec.params[0]
        omega, nu = q + 1 / q, Fraction(0)
        if spec.kind == ASKEY_WILSON:
            nu = spec.params[3] * (2 - omega)
    elif spec.kind == BANNAI_ITO:
        omega, nu = Fraction(-2), 4 * spec.params[2]
    else:
        raise ValueError("trig grids have irrational Omega")
    return omega, nu * spec.scale + spec.shift * (2 - omega)


def classify(omega: Fraction):
    """Grid class for a given Omega, with q attached when it is rational.

    |Omega| > 2 -> Askey-Wilson class (exponential when C_1 = 0);
    |Omega| < 2 -> trigonometric class;  Omega = 2 -> quadratic class
    (linear when C_2 = 0);  Omega = -2 -> Bannai-Ito class.
    """
    omega = Fraction(omega)
    if omega == 2:
        return ("quadratic", None)
    if omega == -2:
        return ("bannai_ito", None)
    if abs(omega) < 2:
        return ("trigonometric", None)
    q = _rational_q(omega)
    return ("askey_wilson", q)


def _rational_sqrt(x: Fraction):
    if x < 0:
        return None
    num = _isqrt_exact(x.numerator)
    den = _isqrt_exact(x.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _isqrt_exact(n: int):
    import math
    r = math.isqrt(n)
    return r if r * r == n else None


def _rational_q(omega: Fraction):
    """Solve q + 1/q = Omega for rational 0 < |q| < 1, if possible."""
    disc = omega * omega - 4
    root = _rational_sqrt(disc)
    if root is None:
        return None
    q = (omega - root) / 2 if omega > 0 else (omega + root) / 2
    if abs(q) > 1:
        q = 1 / q
    return q


def _fit_omega_nu(xs):
    """Fit (Omega, nu) from consecutive triples; verify on all of them."""
    triples = [(xs[s - 1], xs[s], xs[s + 1]) for s in range(1, len(xs) - 1)]
    if len(triples) >= 2:
        (a0, b0, c0), (a1, b1, c1) = triples[0], triples[1]
        # (a+c) - Omega*b = nu for both triples
        det = b1 - b0
        if det == 0:
            raise NotAClassicalGrid("cannot separate Omega and nu")
        omega = ((a1 + c1) - (a0 + c0)) / det
        nu = a0 + c0 - omega * b0
    else:
        # One triple only: assume the quadratic class (Omega = 2).
        a0, b0, c0 = triples[0]
        omega = Fraction(2)
        nu = a0 + c0 - 2 * b0
    for a, b, c in triples:
        if a + c - omega * b != nu:
            raise NotAClassicalGrid("difference equation not constant")
    return omega, nu


def affine_reduce(raw_nodes):
    """Canonical GridSpec (with affine map) reproducing the raw nodes.

    Accepts >= 3 strictly monotone rational nodes; decreasing input is
    reversed first.  Trigonometric-class node sets have no exact rational
    canonical form and are rejected.
    """
    xs = [Fraction(x) for x in raw_nodes]
    if len(xs) < 3:
        raise NotAClassicalGrid("need at least 3 nodes")
    if xs[0] > xs[-1]:
        xs = list(reversed(xs))
    for a, b in zip(xs, xs[1:]):
        if not a < b:
            raise NotAClassicalGrid("nodes must be strictly monotone")
    n = len(xs) - 1
    omega, nu = _fit_omega_nu(xs)

    if omega == 2:
        c2 = nu / 2
        c1 = xs[1] - xs[0] - c2
        c0 = xs[0]
        if c2 == 0:
            spec = linear(n, scale=c1, shift=c0)
        else:
            tau = c1 / c2
            if tau > -1:
                spec = quadratic(tau, n, scale=c2, shift=c0)
            else:
                # reversed orientation: refit against s -> N - s
                c1r = -(2 * n * c2 + c1)
                c0r = c2 * n * n + c1 * n + c0
                taur = c1r / c2
                if not taur > -1:
                    raise NotAClassicalGrid("quadratic grid has no canonical tau")
                spec = quadratic(taur, n, scale=c2, shift=c0r)
    elif omega == -2:
        # x_s = (-1)^s (C1 s + C2) + C0; three unknowns, solve linearly
        c1, c2, c0 = _solve_bannai_ito(xs)
        spec = bannai_ito(c1, c2, c0, n)
    elif abs(omega) > 2:
        q = _rational_q(omega)
        if q is None or q <= 0:
            raise NotAClassicalGrid(f"no rational q with q + 1/q = {omega}")
        c1, c2, c0 = _solve_aw(xs, q)
        if c2 != 0 and c1 == 0:
            spec = exponential(q, n, scale=c2, shift=c0)
        elif c1 != 0 and c2 == 0:
            # pure q^s branch: reindex s -> N - s onto the canonical q^{-s}
            spec = exponential(q, n, scale=c1 * q**n, shift=c0)
        else:
            spec = GridSpec(ASKEY_WILSON, n, (q, c1, c2, c0))
    else:
        raise NotAClassicalGrid(
            "trigonometric-class nodes have no exact canonical reduction")

    if nodes(spec) != xs:
        raise NotAClassicalGrid("fitted spec does not reproduce the nodes")
    return spec, (spec.scale, spec.shift)


def _solve_aw(xs, q):
    # x_s = C1 q^s + C2 q^{-s} + C0 from s = 0, 1, 2
    rows = [(q**s, q ** (-s), Fraction(1), xs[s]) for s in range(3)]
    return _solve3(rows)


def _solve_bannai_ito(xs):
    rows = [(Fraction((-1) ** s * s), Fraction((-1) ** s), Fraction(1), xs[s])
            for s in range(3)]
    return _solve3(rows)


def _solve3(rows):
    """Solve a 3x3 rational linear system by elimination."""
    m = [list(r) for r in rows]
    for col in range(3):
        piv = next((i for i in range(col, 3) if m[i][col] != 0), None)
        if piv is None:
            raise NotAClassicalGrid("singular fit system")
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [e / pv for e in m[col]]
        for i in range(3):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return m[0][3], m[1][3], m[2][3]


#: CLI grid names, e.g. "quad" in "quad:tau=1".
_CLI_KINDS = {"linear": LINEAR, "quad": QUADRATIC, "exp": EXPONENTIAL,
              "trig1": TRIG_FIRST, "trig2": TRIG_SECOND,
              "aw": ASKEY_WILSON, "bi": BANNAI_ITO}


def parse_grid(text: str, n: int, precision: int = DEFAULT_PRECISION) -> GridSpec:
    """Parse the CLI grid syntax, e.g. "linear", "quad:tau=1", "exp:q=1/2".

    Every option of the kind must be given once, and no other.
    """
    head, _, rest = text.strip().partition(":")
    if head not in _CLI_KINDS:
        raise ValueError(f"unknown grid kind {text!r}")
    kind = _CLI_KINDS[head]
    names = PARAM_NAMES.get(kind, ())
    opts = {}
    for item in rest.split(",") if rest else ():
        key, _, val = (part.strip() for part in item.partition("="))
        if not val:
            raise GridError(f"malformed grid option {item!r}")
        if key not in names:
            raise GridError(f"grid {head} has no option {key!r}")
        if key in opts:
            raise GridError(f"grid option {key!r} given twice")
        try:
            opts[key] = Fraction(val)
        except (ValueError, ZeroDivisionError):
            raise GridError(
                f"grid option {key!r} has bad value {val!r}") from None
    missing = [key for key in names if key not in opts]
    if missing:
        raise GridError(f"grid {head} needs option {', '.join(missing)}")
    return GridSpec(kind, n, tuple(opts[key] for key in names),
                    precision=precision)
