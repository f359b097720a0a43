"""Proposition-by-proposition verification: the Euclidean chain built from
each grid's characteristic polynomial, once per grid in a run, is the ground
truth, and every printed closed form is checked against it exactly.  A law
on the grid nodes is checked as a polynomial identity modulo the
characteristic polynomial P_{N+1}, whose simple roots are exactly the nodes,
so no check reads a floating node; w(x_s) is the measure of a Jacobi matrix
iff its P_{N+1} is that polynomial and h_N - w P'_{N+1} P_N = 0 modulo it
(Gauss quadrature).  One routine checks every weight law this way: the trig
sine laws, the tau=2 law and the uniform dual law 1/(N+1) on the mirror.
Mismatches name the first differing index and are never auto-corrected."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, partial
from itertools import zip_longest

from . import families, grids, transforms
from .chain import _Record, build_chain, sturmian_pair
from .poly import Polynomial
from .scalars import scalar_str
from .spectral import _top_polys, jacobi_from_chain, mirror_dual, primal_weights

EXACT = "exact_match"
MISMATCH = "mismatch"
SKIPPED = "skipped"


class CheckReport(_Record):
    """Outcome of one verification: a status and, on mismatch, a witness
    (label, oracle value, candidate value)."""

    __slots__ = ("name", "grid", "n_max", "status", "witness", "notes")

    def __init__(self, name: str, grid: str, n_max: int, status: str,
                 witness: tuple | None = None, notes: tuple = ()):
        self._set(name, grid, n_max, status, witness, notes)

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "grid": self.grid,
            "n_max": self.n_max,
            "status": self.status,
        }
        if self.witness is not None:
            label, oracle, candidate = self.witness
            d["witness"] = {
                "index": label,
                "oracle": scalar_str(oracle),
                "candidate": scalar_str(candidate),
            }
        if self.notes:
            d["notes"] = list(self.notes)
        return d


class _Collector:
    """Accumulates exact comparisons, skips and folded reports for one
    report; the status is the worst of them, in the order mismatch, skipped,
    exact."""

    def __init__(self):
        self.witness = None
        self.skipped = False
        self.notes = []

    def eq(self, label: str, oracle, candidate):
        if self.witness is None and oracle != candidate:
            self.witness = (label, oracle, candidate)

    def matrix(self, jm, form, star: str = "", prefix: str = ""):
        """Compare jm with the closed form n -> (b_n, u_n), entry by entry,
        as "{prefix}b{star}_n" and "{prefix}u{star}_n"; u_0 is not read."""
        for n in range(jm.n + 1):
            b, u = form(n)
            self.eq(f"{prefix}b{star}_{n}", jm.b[n], b)
            if n >= 1:
                self.eq(f"{prefix}u{star}_{n}", jm.u[n - 1], u)

    def measure(self, label: str, jm, law: Polynomial, char: Polynomial):
        """Require jm's measure to be law(x_s) on the roots of the squarefree
        char: its P_{N+1} = char (walked as "P_{N+1}, x^k" only if the two
        differ), and h_N - law P'_{N+1} P_N = 0 modulo char, each coefficient
        of the remainder compared with 0 as "{label}, x^k of the remainder"."""
        p_n, p_top = _top_polys(jm, jm.n + 1, 2)
        if p_top != char:
            for k, (c, t) in enumerate(zip_longest(
                    char.coeffs, p_top.coeffs, fillvalue=Fraction(0))):
                self.eq(f"P_{jm.n + 1}, x^{k}", c, t)
        h = math.prod(jm.u, start=Fraction(1))
        rest = Polynomial.constant(h) - law * char.derivative() * p_n % char
        for k, c in enumerate(rest.coeffs):
            self.eq(f"{label}, x^{k} of the remainder", Fraction(0), c)

    def skip(self, exc: Exception):
        self.skipped = True
        self.notes.append(f"skipped: {exc}")

    def fold(self, part: CheckReport):
        """Take in an instance's report, its labels and notes prefixed by
        "grid N=n"."""
        where = f"{part.grid} N={part.n_max}"
        if self.witness is None and part.witness is not None:
            label, oracle, candidate = part.witness
            self.witness = (f"{where} {label}", oracle, candidate)
        self.skipped |= part.status == SKIPPED
        self.notes += [f"{where}: {note}" for note in part.notes]

    def report(self, name: str, grid: str, n_max: int) -> CheckReport:
        if self.witness is not None:
            status = MISMATCH
        elif self.skipped:
            status = SKIPPED
        else:
            status = EXACT
        return CheckReport(
            name=name,
            grid=grid,
            n_max=n_max,
            status=status,
            witness=self.witness,
            notes=tuple(self.notes),
        )


def _grid_label(spec: grids.GridSpec) -> str:
    parts = [spec.kind]
    names = grids.PARAM_NAMES.get(spec.kind, ())
    for key, value in zip(names, spec.params):
        parts.append(f"{key}={scalar_str(value)}")
    return ":".join(parts)


def _entries(jm):
    """n -> (b_n, u_n) of a Jacobi matrix, u_0 = 0."""
    return lambda n: (jm.b[n], jm.u[n - 1] if n else 0)


@cache
def _oracle(spec: grids.GridSpec):
    """Euclidean chain of the Sturmian pair of the grid's characteristic
    polynomial and its Jacobi matrix, cached until ``run_all`` ends."""
    chain = build_chain(*sturmian_pair(grids.characteristic_polynomial(spec)))
    return chain, jacobi_from_chain(chain)


def verify_legendre_duality(spec: grids.GridSpec) -> CheckReport:
    """Legendre duality: the mirror of the chain has the uniform measure,
    the dual weights w*_s = P_N(x_s) / P'_{N+1}(x_s) = 1/(N+1), checked on
    the mirror matrix by the Gauss-quadrature identity of every weight law."""
    col = _Collector()
    chain, jm = _oracle(spec)
    col.measure("w*_s", mirror_dual(jm),
                Polynomial.constant(Fraction(1, spec.n + 1)), chain.pair[0])
    return col.report("legendre_duality", _grid_label(spec), spec.n)


def verify_linear(n_max: int) -> CheckReport:
    """Linear grid: the chain is Hahn with both parameters -N-1, its mirror
    is Hahn with both parameters 0, the dual coefficients follow the printed
    closed form, the weights are squared binomials, and each chain polynomial
    satisfies the second-order difference equation."""
    col = _Collector()
    spec = grids.linear(n_max)
    chain, jm = _oracle(spec)
    xs = grids.nodes(spec)
    dual = mirror_dual(jm)

    direct = families.Hahn(Fraction(-n_max - 1), Fraction(-n_max - 1), n_max)
    mirrored = families.Hahn(Fraction(0), Fraction(0), n_max)
    col.matrix(jm, direct.recurrence)
    col.matrix(dual, mirrored.recurrence, "*")
    col.matrix(dual, partial(families.legendre_dual_coeffs, "linear", n_max),
               "*", "dual-form ")

    pw = primal_weights(chain, xs)
    for s, w in enumerate(pw.weights):
        col.eq(f"w_{s}", w, Fraction(math.comb(n_max, s) ** 2,
                                     math.comb(2 * n_max, n_max)))

    # the identity (x-N)^2 P_n(x+1) + x^2 P_n(x-1) = ((x-N)^2 + x^2 +
    # n(n-2N-1)) P_n(x) has degree <= n+1, so x = 0..n+1 decide it
    u, values = (0, *jm.u), []  # P_0(t)..P_N(t) at t = -1..N+2
    for t in range(-1, n_max + 3):
        vs = [Fraction(0), Fraction(1)]  # P_{-1}(t), P_0(t)
        for n in range(n_max):
            vs.append((t - jm.b[n]) * vs[-1] - u[n] * vs[-2])
        values.append(vs[1:])
    for n in range(n_max + 1):
        for x in range(n + 2):
            left, p, right = (values[i][n] for i in (x + 2, x + 1, x))
            col.eq(f"difference-equation n={n} at x={x}",
                   ((x - n_max) ** 2 + x * x + n * (n - 2 * n_max - 1)) * p,
                   (x - n_max) ** 2 * left + x * x * right)

    return col.report("linear_hahn", _grid_label(spec), n_max)


def verify_quadratic_tau1(n_max: int) -> CheckReport:
    """Grid s(s+1): the mirror of the chain is a Racah system (checked on
    both the dual and the Sturm side, which are related by the parameter
    mirror map), and the dual u follow the printed closed form.  The printed
    dual b closed form is compared but only reported, never asserted."""
    col = _Collector()
    spec = grids.quadratic(Fraction(1), n_max)
    _, jm = _oracle(spec)
    dual = mirror_dual(jm)

    try:
        dual_fam = families.Racah(
            Fraction(2 * n_max + 1, 2), Fraction(-1, 2), Fraction(1, 2), n_max)
        sturm_fam = families.Racah(
            Fraction(-2 * n_max - 1, 2), Fraction(1, 2), Fraction(-1, 2), n_max)
    except families.FamilyError as exc:
        col.skip(exc)
        return col.report("quadratic_tau1_racah", _grid_label(spec), n_max)

    col.matrix(dual, dual_fam.recurrence, "*")
    col.matrix(jm, sturm_fam.recurrence)
    disagreements = []
    for n in range(n_max + 1):
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
    system, and the Christoffel transform at -1 of its mirror has the
    measure (x_s + 1) / mass on the nodes."""
    col = _Collector()
    spec = grids.quadratic(Fraction(2), n_max)
    chain, jm = _oracle(spec)
    xs = grids.nodes(spec)

    try:
        fam = families.Racah(
            Fraction(-2 * n_max - 3, 2), Fraction(1, 2), Fraction(1, 2), n_max)
        source = families.jacobi_matrix(fam, n_max)
        transformed, _ = transforms.christoffel(source, Fraction(-1))
    except (families.FamilyError, transforms.TransformError) as exc:
        col.skip(exc)
        return col.report("quadratic_tau2_christoffel", _grid_label(spec),
                          n_max)

    col.matrix(jm, _entries(transformed))

    lifted, _ = transforms.christoffel(mirror_dual(jm), Fraction(-1))
    mass = sum((x + 1 for x in xs), start=Fraction(0))
    col.measure("w_s", lifted, Polynomial((1 / mass, 1 / mass)),
                chain.pair[0])

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
    _, jm = _oracle(spec)
    xs = grids.nodes(spec)

    try:
        big = Fraction(q) ** (-(n_max + 1))
        source = families.QHahn(big, big, Fraction(q), n_max)
        j_source = families.jacobi_matrix(source, n_max)
        transformed, _ = transforms.christoffel(j_source, Fraction(0))

        plain = families.QHahn(Fraction(1), Fraction(1), Fraction(q), n_max)
        j_plain = families.jacobi_matrix(plain, n_max)
        uv, _ = transforms.uvarov(j_plain, plain.weights(), Fraction(0))
    except (families.FamilyError, transforms.TransformError) as exc:
        col.skip(exc)
        return col.report("exponential_qhahn", _grid_label(spec), n_max)

    col.matrix(jm, _entries(transformed))
    col.matrix(mirror_dual(jm), _entries(uv), "*")

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
    closed forms, and the primal weights w_s = h_N / (P'_{N+1}(x_s) P_N(x_s))
    follow the sine-power law c sin(pi theta_s)^(2k) at x_s = -cos(pi theta_s),
    where sin^2 = 1 - x_s^2: h_N - c (1 - x^2)^k P'_{N+1} P_N = 0 modulo
    P_{N+1}, with c = 2/(N+1), k = 1 on trig1 and c = 8/(3(N+2)), k = 2 on
    trig2."""
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    col = _Collector()
    spec = (grids.trig_first if kind == 1 else grids.trig_second)(n_max)
    chain, jm = _oracle(spec)
    col.matrix(jm, partial(families.legendre_dual_coeffs, spec.kind, n_max))

    sin2 = Polynomial((1, 0, -1))  # 1 - x^2
    law = (sin2 * Fraction(2, n_max + 1) if kind == 1
           else sin2 * sin2 * Fraction(8, 3 * (n_max + 2)))
    col.measure("w_s", jm, law, chain.pair[0])

    return col.report(f"trig_{'first' if kind == 1 else 'second'}",
                      _grid_label(spec), n_max)


def _aggregate(name: str, grid: str, n_max: int, parts) -> CheckReport:
    """Fold per-instance reports into one, keeping the worst status, the
    first witness and every note."""
    col = _Collector()
    for part in parts:
        col.fold(part)
    return col.report(name, grid, n_max)


def run_all(n_max: int, q_list=(Fraction(1, 2),)):
    """One aggregated report per verification family, in a fixed order."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    q_list = tuple(Fraction(q) for q in q_list)
    ns = range(1, n_max + 1)

    duality_specs = [spec for n in ns for spec in (
        grids.linear(n), grids.quadratic(Fraction(1), n),
        grids.quadratic(Fraction(2), n),
        *(grids.exponential(q, n) for q in q_list),
        grids.trig_first(n), grids.trig_second(n))]
    try:
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
    finally:
        _oracle.cache_clear()
