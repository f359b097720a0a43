"""Proposition-by-proposition verification: the Euclidean chain built from
each grid's characteristic polynomial is the ground truth, and every printed
closed form is checked against it, exactly on rational grids and to a fixed
tolerance on trigonometric ones.  Mismatches are reported with the first
differing index and never auto-corrected."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import families, grids, transforms
from .chain import build_chain, sturmian_pair
from .poly import Polynomial
from .scalars import (
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCE,
    scalar_str,
    sin_pi,
    to_fraction,
)
from .spectral import (
    SpectralData,
    check_orthogonality,
    dual_weights,
    generate_polys,
    jacobi_from_chain,
    mirror_dual,
    primal_weights,
)

EXACT = "exact_match"
TOLERANCE = "within_tolerance"
MISMATCH = "mismatch"
SKIPPED = "skipped"

_STATUS_RANK = {EXACT: 0, TOLERANCE: 1, SKIPPED: 2, MISMATCH: 3}


def _fmt(x) -> str:
    """Readable form of an exact or floating scalar for report fields."""
    try:
        return scalar_str(x)
    except TypeError:
        return scalar_str(to_fraction(x))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification: a status, an optional worst residual,
    and, on mismatch, a witness (label, oracle value, candidate value)."""

    name: str
    grid: str
    n_max: int
    status: str
    residual: Fraction | None = None
    witness: tuple | None = None
    notes: tuple = ()

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "grid": self.grid,
            "n_max": self.n_max,
            "status": self.status,
        }
        if self.residual is not None:
            d["residual"] = scalar_str(self.residual)
        if self.witness is not None:
            label, oracle, candidate = self.witness
            d["witness"] = {
                "index": label,
                "oracle": _fmt(oracle),
                "candidate": _fmt(candidate),
            }
        if self.notes:
            d["notes"] = list(self.notes)
        return d


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)


class _Collector:
    """Accumulates exact and toleranced comparisons for one report."""

    def __init__(self):
        self.witness = None
        self.worst = Fraction(0)
        self.toleranced = False
        self.notes = []

    def eq(self, label: str, oracle, candidate):
        if self.witness is None and oracle != candidate:
            self.witness = (label, oracle, candidate)

    def close(self, label: str, oracle, candidate, bound=DEFAULT_TOLERANCE):
        self.toleranced = True
        res = to_fraction(abs(candidate - oracle))
        if res > self.worst:
            self.worst = res
        if self.witness is None and res >= bound:
            self.witness = (label, oracle, candidate)

    def report(self, name: str, grid: str, n_max: int) -> CheckReport:
        if self.witness is not None:
            status = MISMATCH
        elif self.toleranced:
            status = TOLERANCE
        else:
            status = EXACT
        return CheckReport(
            name=name,
            grid=grid,
            n_max=n_max,
            status=status,
            residual=self.worst if self.toleranced else None,
            witness=self.witness,
            notes=tuple(self.notes),
        )


def _grid_label(spec: grids.GridSpec) -> str:
    parts = [spec.kind]
    names = grids.PARAM_NAMES.get(spec.kind, ())
    for key, value in zip(names, spec.params):
        parts.append(f"{key}={scalar_str(value)}")
    return ":".join(parts)


def _oracle(spec: grids.GridSpec):
    """Euclidean chain of the Sturmian pair of the grid's characteristic
    polynomial, plus the grid nodes."""
    char = grids.characteristic_polynomial(spec)
    chain = build_chain(*sturmian_pair(char))
    return chain, grids.nodes(spec)


def verify_legendre_duality(spec: grids.GridSpec) -> CheckReport:
    """Dual weights of the Sturmian pair equal the constant 1/(N+1)."""
    col = _Collector()
    chain, xs = _oracle(spec)
    dw = dual_weights(chain.polys[0], chain.polys[1], xs)
    target = Fraction(1, spec.n + 1)
    trig = spec.kind in (grids.TRIG_FIRST, grids.TRIG_SECOND)
    for s, w in enumerate(dw.weights):
        if trig:
            col.close(f"w*_{s}", target, w)
        else:
            col.eq(f"w*_{s}", target, w)
    return col.report("legendre_duality", _grid_label(spec), spec.n)


def verify_linear(n_max: int) -> CheckReport:
    """Linear grid: the chain is Hahn with both parameters -N-1, its mirror
    is Hahn with both parameters 0, the dual coefficients follow the printed
    closed form, the weights are squared binomials, and each chain polynomial
    satisfies the second-order difference equation."""
    col = _Collector()
    spec = grids.linear(n_max)
    chain, xs = _oracle(spec)
    jm = jacobi_from_chain(chain)
    dual = mirror_dual(jm)

    direct = families.Hahn(Fraction(-n_max - 1), Fraction(-n_max - 1), n_max)
    mirrored = families.Hahn(Fraction(0), Fraction(0), n_max)
    for n in range(n_max + 1):
        b, u = direct.recurrence(n)
        col.eq(f"b_{n}", jm.b[n], b)
        if n >= 1:
            col.eq(f"u_{n}", jm.u[n - 1], u)
        b, u = mirrored.recurrence(n)
        col.eq(f"b*_{n}", dual.b[n], b)
        if n >= 1:
            col.eq(f"u*_{n}", dual.u[n - 1], u)
        bd, ud = families.legendre_dual_coeffs("linear", n_max, n)
        col.eq(f"dual-form b*_{n}", dual.b[n], bd)
        if n >= 1:
            col.eq(f"dual-form u*_{n}", dual.u[n - 1], ud)

    nu = Fraction(
        families._factorial(n_max) ** 2, families._factorial(2 * n_max))
    pw = primal_weights(chain, xs)
    for s, w in enumerate(pw.weights):
        binom = Fraction(
            families._factorial(n_max),
            families._factorial(s) * families._factorial(n_max - s))
        col.eq(f"w_{s}", w, nu * binom**2)

    x = Polynomial.x()
    edge = x - Polynomial.constant(Fraction(n_max))
    left_out = edge * edge
    right_out = x * x
    polys = generate_polys(jm, n_max)
    for n, p in enumerate(polys):
        lhs = left_out * (p.shift(Fraction(1)) - p) \
            + right_out * (p.shift(Fraction(-1)) - p)
        rhs = Fraction(n * (n - 2 * n_max - 1)) * p
        col.eq(f"difference-equation n={n}", rhs, lhs)

    return col.report("linear_hahn", _grid_label(spec), n_max)


def verify_quadratic_tau1(n_max: int) -> CheckReport:
    """Grid s(s+1): the mirror of the chain is a Racah system (checked on
    both the dual and the Sturm side, which are related by the parameter
    mirror map), and the dual u follow the printed closed form.  The printed
    dual b closed form is compared but only reported, never asserted."""
    col = _Collector()
    spec = grids.quadratic(Fraction(1), n_max)
    chain, _ = _oracle(spec)
    jm = jacobi_from_chain(chain)
    dual = mirror_dual(jm)

    try:
        dual_fam = families.Racah(
            Fraction(2 * n_max + 1, 2), Fraction(-1, 2), Fraction(1, 2), n_max)
        sturm_fam = families.Racah(
            Fraction(-2 * n_max - 1, 2), Fraction(1, 2), Fraction(-1, 2), n_max)
    except families.FamilyError as exc:
        col.notes.append(f"skipped: {exc}")
        return CheckReport("quadratic_tau1_racah", _grid_label(spec), n_max,
                           SKIPPED, notes=tuple(col.notes))

    disagreements = []
    for n in range(n_max + 1):
        b, u = dual_fam.recurrence(n)
        col.eq(f"b*_{n}", dual.b[n], b)
        if n >= 1:
            col.eq(f"u*_{n}", dual.u[n - 1], u)
        b, u = sturm_fam.recurrence(n)
        col.eq(f"b_{n}", jm.b[n], b)
        if n >= 1:
            col.eq(f"u_{n}", jm.u[n - 1], u)
        bd, ud = families.legendre_dual_coeffs("quad_tau1", n_max, n)
        if n >= 1:
            col.eq(f"dual-form u*_{n}", dual.u[n - 1], ud)
        if bd != dual.b[n]:
            disagreements.append(
                f"n={n}: formula {scalar_str(bd)} vs oracle "
                f"{scalar_str(dual.b[n])}")
    if disagreements:
        col.notes.append(
            "known-discrepancy: printed dual-b closed form disagrees with "
            "the oracle at " + "; ".join(disagreements))
    else:
        col.notes.append("printed dual-b closed form agrees at every index")

    return col.report("quadratic_tau1_racah", _grid_label(spec), n_max)


def verify_quadratic_tau2(n_max: int) -> CheckReport:
    """Grid s(s+2): the chain is the Christoffel transform at -1 of a Racah
    system, and the transformed uniform measure has weights proportional to
    x_s + 1."""
    col = _Collector()
    spec = grids.quadratic(Fraction(2), n_max)
    chain, xs = _oracle(spec)
    jm = jacobi_from_chain(chain)

    try:
        fam = families.Racah(
            Fraction(-2 * n_max - 3, 2), Fraction(1, 2), Fraction(1, 2), n_max)
        source = families.jacobi_matrix(fam, n_max)
        transformed, _ = transforms.christoffel(source, Fraction(-1))
    except (families.FamilyError, transforms.TransformError) as exc:
        col.notes.append(f"skipped: {exc}")
        return CheckReport("quadratic_tau2_christoffel", _grid_label(spec),
                           n_max, SKIPPED, notes=tuple(col.notes))

    for n in range(n_max + 1):
        col.eq(f"b_{n}", jm.b[n], transformed.b[n])
        if n >= 1:
            col.eq(f"u_{n}", jm.u[n - 1], transformed.u[n - 1])

    legendre = mirror_dual(jm)
    lifted, _ = transforms.christoffel(legendre, Fraction(-1))
    mass = sum((x + 1 for x in xs), start=Fraction(0))
    weights = tuple((x + 1) / mass for x in xs)
    polys = generate_polys(lifted, n_max)
    offdiag, diag = check_orthogonality(polys, SpectralData(xs, weights))
    col.eq("orthogonality off-diagonal residual", Fraction(0), offdiag)
    h = Fraction(1)
    for n in range(1, n_max + 1):
        h *= lifted.u[n - 1]
        col.eq(f"norm h_{n}", h, diag[n])

    printed_mass = Fraction(n_max * (n_max + 1) * (2 * n_max + 7), 6)
    if printed_mass != mass:
        col.notes.append(
            "known-discrepancy: printed normalization mass "
            f"{scalar_str(printed_mass)} differs from the true mass "
            f"{scalar_str(mass)}")

    return col.report("quadratic_tau2_christoffel", _grid_label(spec), n_max)


def verify_exponential(q: Fraction, n_max: int) -> CheckReport:
    """Exponential grid q^{-s}: the chain is the Christoffel transform at 0
    of a q-Hahn system, its mirror is the Uvarov transform at 0 of another,
    and the coefficient-level transform formulas reproduce the chain."""
    col = _Collector()
    spec = grids.exponential(q, n_max)
    chain, xs = _oracle(spec)
    jm = jacobi_from_chain(chain)

    try:
        big = Fraction(q) ** (-(n_max + 1))
        source = families.QHahn(big, big, Fraction(q), n_max)
        j_source = families.jacobi_matrix(source, n_max)
        transformed, _ = transforms.christoffel(j_source, Fraction(0))

        plain = families.QHahn(Fraction(1), Fraction(1), Fraction(q), n_max)
        j_plain = families.jacobi_matrix(plain, n_max)
        uv, _ = transforms.uvarov(j_plain, plain.weights(), Fraction(0))
    except (families.FamilyError, transforms.TransformError) as exc:
        col.notes.append(f"skipped: {exc}")
        return CheckReport("exponential_qhahn", _grid_label(spec), n_max,
                           SKIPPED, notes=tuple(col.notes))

    dual = mirror_dual(jm)
    for n in range(n_max + 1):
        col.eq(f"b_{n}", jm.b[n], transformed.b[n])
        col.eq(f"b*_{n}", dual.b[n], uv.b[n])
        if n >= 1:
            col.eq(f"u_{n}", jm.u[n - 1], transformed.u[n - 1])
            col.eq(f"u*_{n}", dual.u[n - 1], uv.u[n - 1])

    bs, us = transforms.christoffel_coefficients(j_source, Fraction(0))
    for n, b in enumerate(bs):
        col.eq(f"coefficient-form b_{n}", jm.b[n], b)
    for n, u in enumerate(us, start=1):
        col.eq(f"coefficient-form u_{n}", jm.u[n - 1], u)
    col.eq("trace", sum(jm.b, start=Fraction(0)),
           sum(xs, start=Fraction(0)))

    return col.report("exponential_qhahn", _grid_label(spec), n_max)


def verify_trig(kind: int, n_max: int) -> CheckReport:
    """Trigonometric grids: the chain coefficients follow the exact printed
    closed forms, and the primal weights match the sine-power law at the
    working precision."""
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    col = _Collector()
    spec = grids.trig_first(n_max) if kind == 1 else grids.trig_second(n_max)
    key = "trig1" if kind == 1 else "trig2"
    chain, xs = _oracle(spec)
    jm = jacobi_from_chain(chain)
    for n in range(n_max + 1):
        bd, ud = families.legendre_dual_coeffs(key, n_max, n)
        col.eq(f"b_{n}", jm.b[n], bd)
        if n >= 1:
            col.eq(f"u_{n}", jm.u[n - 1], ud)

    pw = primal_weights(chain, xs)
    for s, w in enumerate(pw.weights):
        if kind == 1:
            theta = Fraction(2 * s + 1, 2 * (n_max + 1))
            target = Fraction(2, n_max + 1) * sin_pi(theta, spec.precision) ** 2
        else:
            theta = Fraction(s + 1, n_max + 2)
            target = Fraction(8, 3 * (n_max + 2)) \
                * sin_pi(theta, spec.precision) ** 4
        col.close(f"w_{s}", target, w)

    return col.report(f"trig_{'first' if kind == 1 else 'second'}",
                      _grid_label(spec), n_max)


def _aggregate(name: str, grid: str, n_max: int, parts) -> CheckReport:
    """Fold per-instance reports into one, keeping the worst status, the
    largest residual, the first witness and every note."""
    status = EXACT
    residual = None
    witness = None
    notes = []
    for part in parts:
        if _STATUS_RANK[part.status] > _STATUS_RANK[status]:
            status = part.status
        if part.residual is not None:
            if residual is None or part.residual > residual:
                residual = part.residual
        if witness is None and part.witness is not None:
            label, oracle, cand = part.witness
            witness = (f"{part.grid} N={part.n_max} {label}", oracle, cand)
        for note in part.notes:
            notes.append(f"{part.grid} N={part.n_max}: {note}")
    return CheckReport(name, grid, n_max, status, residual, witness,
                       tuple(notes))


def run_all(n_max: int, q_list=(Fraction(1, 2),),
            precision: int = DEFAULT_PRECISION):
    """One aggregated report per verification family, in a fixed order."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    q_list = tuple(Fraction(q) for q in q_list)
    ns = range(1, n_max + 1)

    duality_specs = []
    for n in ns:
        duality_specs.append(grids.linear(n))
        duality_specs.append(grids.quadratic(Fraction(1), n))
        duality_specs.append(grids.quadratic(Fraction(2), n))
        for q in q_list:
            duality_specs.append(grids.exponential(q, n))
        duality_specs.append(grids.trig_first(n, precision))
        duality_specs.append(grids.trig_second(n, precision))

    return [
        _aggregate("legendre_duality", "all", n_max,
                   [verify_legendre_duality(s) for s in duality_specs]),
        _aggregate("linear_hahn", "linear", n_max,
                   [verify_linear(n) for n in ns]),
        _aggregate("quadratic_tau1_racah", "quad:tau=1", n_max,
                   [verify_quadratic_tau1(n) for n in ns]),
        _aggregate("quadratic_tau2_christoffel", "quad:tau=2", n_max,
                   [verify_quadratic_tau2(n) for n in ns]),
        _aggregate("exponential_qhahn", "exp", n_max,
                   [verify_exponential(q, n) for q in q_list for n in ns]),
        _aggregate("trig_first", "trig1", n_max,
                   [verify_trig(1, n) for n in ns]),
        _aggregate("trig_second", "trig2", n_max,
                   [verify_trig(2, n) for n in ns]),
    ]
