"""Classical grids: nodes and characteristic polynomials.

Every classical grid satisfies x_{s+1} + x_{s-1} - Omega*x_s = nu with
constants (Omega, nu); the value of Omega picks the family.  Nodes are
exact rationals for the linear, quadratic, exponential, Askey-Wilson and
Bannai-Ito kinds, and big floats for the two trigonometric kinds.  The
trig characteristic polynomials are built from the exact Chebyshev
recurrences, never from the floating nodes, by the same integer-pair step
that the Euclidean chain runs downwards, so the Sturm chain stays in the
rational backend on every grid.
"""

from __future__ import annotations

from fractions import Fraction

from . import families
from .chain import _Record
from .poly import Polynomial
from .scalars import DEFAULT_PRECISION, cos_pi
from .spectral import _top_polys

LINEAR = "linear"
QUADRATIC = "quadratic"
EXPONENTIAL = "exponential"
ASKEY_WILSON = "askey_wilson"
BANNAI_ITO = "bannai_ito"
TRIG_FIRST = "trig1"
TRIG_SECOND = "trig2"

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


class GridSpec(_Record):
    __slots__ = ("kind", "n", "params", "precision")  # params: PARAM_NAMES

    def __init__(self, kind: str, n: int, params: tuple = (),
                 precision: int = DEFAULT_PRECISION):
        if n < 0:
            raise ValueError("grid size N must be >= 0")
        if kind == QUADRATIC:
            (tau,) = params
            if not tau > -1:
                raise ValueError(f"quadratic grid needs tau > -1, got {tau}")
        elif kind == EXPONENTIAL:
            (q,) = params
            if not (0 < q < 1):
                raise ValueError(f"exponential grid needs 0 < q < 1, got {q}")
        elif kind == ASKEY_WILSON:
            if params[0] == 0:
                raise ValueError("Askey-Wilson grid needs q != 0, got 0")
        self._set(kind, n, params, precision)


def linear(n: int) -> GridSpec:
    return GridSpec(LINEAR, n)


def quadratic(tau, n: int) -> GridSpec:
    return GridSpec(QUADRATIC, n, (Fraction(tau),))


def exponential(q, n: int) -> GridSpec:
    return GridSpec(EXPONENTIAL, n, (Fraction(q),))


def trig_first(n: int, precision: int = DEFAULT_PRECISION) -> GridSpec:
    return GridSpec(TRIG_FIRST, n, precision=precision)


def trig_second(n: int, precision: int = DEFAULT_PRECISION) -> GridSpec:
    return GridSpec(TRIG_SECOND, n, precision=precision)


def nodes(spec: GridSpec):
    """The grid's nodes x_0 < ... < x_N, checked to be distinct."""
    n = spec.n
    if spec.kind == LINEAR:
        xs = [Fraction(s) for s in range(n + 1)]
    elif spec.kind == QUADRATIC:
        (tau,) = spec.params
        xs = [Fraction(s) * (s + tau) for s in range(n + 1)]
    elif spec.kind == EXPONENTIAL:
        (q,) = spec.params
        xs = [q ** (-s) for s in range(n + 1)]
    elif spec.kind == ASKEY_WILSON:
        q, c1, c2, c0 = spec.params
        # c1 q^s + c2 q^-s need not increase with s: the grid is the sorted set
        xs = sorted(c1 * q**s + c2 * q ** (-s) + c0 for s in range(n + 1))
    elif spec.kind == BANNAI_ITO:
        c1, c2, c0 = spec.params
        # the nodes alternate around c0, so the grid is their sorted set
        xs = sorted((-1) ** s * (c1 * s + c2) + c0 for s in range(n + 1))
    elif spec.kind == TRIG_FIRST:
        # -cos(pi (s + 1/2) / (N+1))
        xs = [-cos_pi(Fraction(2 * s + 1, 2 * (n + 1)), spec.precision)
              for s in range(n + 1)]
    elif spec.kind == TRIG_SECOND:
        # -cos(pi (s + 1) / (N+2))
        xs = [-cos_pi(Fraction(s + 1, n + 2), spec.precision)
              for s in range(n + 1)]
    else:
        raise ValueError(f"unknown grid kind {spec.kind!r}")
    for a, b in zip(xs, xs[1:]):
        if a == b:
            raise DegenerateGrid(f"grid node {a} is repeated")
    return xs


def characteristic_polynomial(spec: GridSpec) -> Polynomial:
    """Monic polynomial of degree N+1 vanishing on all grid nodes.

    Rational kinds expand the product over exact nodes; trig kinds run
    the exact Chebyshev T or U recurrence, so the result is exact as well.
    """
    if spec.kind in (TRIG_FIRST, TRIG_SECOND):
        fam = (families.ChebyshevT() if spec.kind == TRIG_FIRST
               else families.ChebyshevU())
        return _top_polys(families.jacobi_matrix(fam, spec.n), spec.n + 1,
                          1)[0]
    return Polynomial.from_roots(nodes(spec))


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
