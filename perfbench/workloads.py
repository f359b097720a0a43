"""Seeded op lists for the five workloads.

A workload is an endless sequence of rounds.  Every round of a workload has
the same make-up: the same grids, sizes and parameters, in the same numbers.
The seed draws the order of the ops in each round and those free inputs
whose choice barely changes an op's cost: the q values of verify and the
polynomials and intervals of count.  Seeds therefore change the inputs but not
the load, and a run that stops at a round boundary attempts the same share
of each kind of op whatever its seed and length.

Ops that fail every time because of a known fault are fixed inputs, never
drawn from the seed, and there is a fixed number of them in every round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

from checks import (check_count, check_exact_chain, check_trig_chain,
                    check_verify)


@dataclass(frozen=True)
class Op:
    kind: str                         # what kind of op, for tests and records
    argv: tuple                       # arguments for sturmion.cli.main
    check: Callable = field(compare=False)  # payload -> None, or CheckFailed
    known_fault: bool = False         # fails every time until a fault is mended


def _payload(check):
    """Adapt a payload check to take the whole JSON envelope."""
    return lambda envelope, **kw: check(envelope["payload"], **kw)


# A round of a chain workload or of verify has 25 or 15 ops, no two of the
# same kind, with sizes in ladders of small steps.  Over whole rounds the
# median then falls in the middle of one kind's share of the ops, and so
# does the 90th percentile (n/2 and 9n/10 are both k + 1/2 when n ends in
# 5), never on the edge between two kinds, where it would jump from one
# kind's cost to the next.  Rounds of 22 and 28 ops put the median on such
# an edge, and op_p50_s then spread up to 28% over ten seeds, against 15%
# for ops_per_s.  Sizes are fixed: drawn within 5% of a class centre, they
# made op_p50_s jump between neighbouring sizes (18% over five seeds).

# -- chain-rational ---------------------------------------------------------

# Integer tau only: the chain of s(s+tau) for half-integer tau grows so fast
# that tau = 3/2, N = 80 already overflows the 4300-digit int-to-str limit.
QUAD_SIZES = (10, 13, 18, 25, 34, 46, 62, 80)
RATIONAL_GRIDS = (("linear", None, (9, 13, 18, 25, 35, 50, 70, 100, 150)),
                  ("quad", Fraction(1), QUAD_SIZES),
                  ("quad", Fraction(2), QUAD_SIZES))


def _exact_op(kind: str, param, n: int) -> Op:
    grid = {"linear": "linear", "quad": f"quad:tau={param}",
            "exp": f"exp:q={param}"}[kind]
    return Op(f"chain {grid}", ("chain", "--grid", grid, "--n", str(n)),
              partial(_payload(check_exact_chain), kind=kind, param=param,
                      n=n))


def chain_rational_round(rng: random.Random) -> list[Op]:
    return [_exact_op(kind, param, n)
            for kind, param, sizes in RATIONAL_GRIDS for n in sizes]


# -- chain-exp --------------------------------------------------------------

EXP_QS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
EXP_SIZES = (12, 15, 18, 22, 27, 33, 40, 48)
EXP_LARGE = (Fraction(1, 2), 64)


def chain_exp_round(rng: random.Random) -> list[Op]:
    return [_exact_op("exp", q, n) for q in EXP_QS for n in EXP_SIZES] \
        + [_exact_op("exp", *EXP_LARGE)]


# -- chain-trig -------------------------------------------------------------

# N = 6..30, one op each; the four kinds (trig1 or trig2, 256 or 512 bits)
# take the sizes in turn
TRIG_SIZES = range(6, 31)
TRIG_KINDS = ((1, 256), (2, 256), (1, 512), (2, 512))


def _trig_op(kind: int, precision: int, n: int) -> Op:
    return Op(f"chain trig{kind}/{precision}",
              ("--precision", str(precision), "chain", "--grid",
               f"trig{kind}", "--n", str(n)),
              partial(_payload(check_trig_chain), kind=kind, n=n,
                      precision=precision))


def chain_trig_round(rng: random.Random) -> list[Op]:
    return [_trig_op(*TRIG_KINDS[i % len(TRIG_KINDS)], n)
            for i, n in enumerate(TRIG_SIZES)]


# -- verify -----------------------------------------------------------------

# q values whose exponential-grid checks cost about the same
VERIFY_QS = ("1/2", "1/3", "2/3")
# one op for each nmax and number of q values
VERIFY_SLOTS = tuple((nmax, nq) for nmax in range(1, 8) for nq in (1, 2))
# DEFAULT_TOLERANCE is a fixed 2**-200, so legendre_duality reports a false
# mismatch (exit 1) at any precision below 200 bits.
VERIFY_FAULT = ("--precision", "128", "verify", "--nmax", "4")


def _verify_op(nmax: int, qs) -> Op:
    argv = ["verify", "--nmax", str(nmax)]
    for q in qs:
        argv += ["--q", q]
    return Op("verify", tuple(argv),
              partial(_payload(check_verify), nmax=nmax))


def verify_round(rng: random.Random) -> list[Op]:
    ops = [_verify_op(nmax, rng.sample(VERIFY_QS, nq))
           for nmax, nq in VERIFY_SLOTS]
    ops.append(Op("verify low precision", VERIFY_FAULT,
                  partial(_payload(check_verify), nmax=4), known_fault=True))
    return ops


# -- count ------------------------------------------------------------------

# (linear factors, quadratic factors) for the ops of one round
COUNT_SLOTS = tuple((lin, quad) for lin in range(1, 6) for quad in range(3)
                    for _ in range(2))
# count_roots demands a strict chain with u > 0, so non-real roots
# (NonPositiveU) and repeated roots (ZeroRemainder) exit 4.
COUNT_FAULTS = (("x^3+x", "-1", "1", 1), ("x^3-2x^2+x", "-1", "2", 2))
NONSQUARES = (2, 3, 5, 6, 7, 8, 10, 11, 12, 13)


def poly_text(coeffs) -> str:
    """Coefficients ascending, as the CLI's polynomial syntax."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        mag = "" if mag == 1 and k else str(mag)
        var = "" if k == 0 else "x" if k == 1 else f"x^{k}"
        terms.append(sign + mag + var)
    text = "".join(terms)
    return text[1:] if text.startswith("+") else text


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _in_interval(centre: Fraction, d: int, sign: int, lo, hi) -> bool:
    """Whether centre + sign*sqrt(d) lies in (lo, hi], decided exactly."""
    def above(t):  # centre + sign*sqrt(d) > t
        gap = t - centre
        if sign > 0:
            return gap < 0 or gap * gap < d
        return gap < 0 and gap * gap > d
    return above(lo) and not above(hi)


def _count_op(rng: random.Random, n_lin: int, n_quad: int) -> Op:
    roots = rng.sample([Fraction(k, 2) for k in range(-12, 13)], n_lin)
    coeffs = [Fraction(rng.choice((1, 1, 2, 3)), rng.choice((1, 1, 2)))]
    for r in roots:
        coeffs = _mul(coeffs, [-r, Fraction(1)])
    # (x - a)^2 - d with d not a square: roots a +- sqrt(d), irrational
    quads = []
    for a, d in rng.sample([(a, d) for a in range(-3, 4) for d in NONSQUARES],
                           n_quad):
        coeffs = _mul(coeffs, [Fraction(a * a - d), Fraction(-2 * a),
                               Fraction(1)])
        quads.append((Fraction(a), d))
    ends = sorted(rng.sample(range(-16, 17), 2))
    lo, hi = (Fraction(e, 2) for e in ends)
    if rng.random() < 0.3:  # put a root on an endpoint
        if rng.random() < 0.5:
            lo = rng.choice(roots)
            hi = max(hi, lo + 1)
        else:
            hi = rng.choice(roots)
            lo = min(lo, hi - 1)
    expected = sum(lo < r <= hi for r in roots)
    expected += sum(_in_interval(a, d, sign, lo, hi)
                    for a, d in quads for sign in (1, -1))
    return Op("count", _count_argv(poly_text(coeffs), lo, hi),
              partial(_payload(check_count), expected=expected))


def _count_argv(poly: str, lo, hi) -> tuple:
    # "--lo=-3/2", since argparse takes a bare "-3/2" for an option
    return ("count", f"--poly={poly}", f"--lo={lo}", f"--hi={hi}")


def count_round(rng: random.Random) -> list[Op]:
    ops = [_count_op(rng, n_lin, n_quad) for n_lin, n_quad in COUNT_SLOTS]
    ops += [Op("count non-simple roots", _count_argv(poly, lo, hi),
               partial(_payload(check_count), expected=expected),
               known_fault=True)
            for poly, lo, hi, expected in COUNT_FAULTS]
    return ops


WORKLOADS = {
    "chain-rational": chain_rational_round,
    "chain-exp": chain_exp_round,
    "chain-trig": chain_trig_round,
    "verify": verify_round,
    "count": count_round,
}


def rounds(workload: str, seed: int):
    """Endless rounds of the workload; the same seed gives the same ops."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    while True:
        ops = make(rng)
        rng.shuffle(ops)
        yield ops
