"""Command-line front end: build chains on classical grids, count real roots
in an interval, and run the verification suite, with machine-readable output.

Exit codes: 0 success, also when the reader closes the output pipe early;
1 unexpected verification mismatch; 2 input parse error, including a bad
grid option and a precision (--precision or STURMION_PRECISION) that is not
a whole number of bits or is below 64 bits, on every command;
3 degenerate grid; 4 chain or weight failure (e.g. a node that is not a
root of the characteristic polynomial, or a weight that is not positive at
the working precision)."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__, grids, harness
from .chain import ChainError, build_chain, count_roots, sturmian_pair
from .poly import Polynomial
from .scalars import (DEFAULT_PRECISION, MIN_PRECISION, parse_rational,
                      scalar_json)
from .spectral import SpectralError, dual_weights, primal_weights

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_CHAIN = 4


class PolynomialSyntaxError(ValueError):
    pass


_TERM = re.compile(
    r"(?P<sign>[+-]?)"
    r"(?:"
    r"(?P<coeff>\d+(?:/\d+)?)(?P<var1>x(?:\^(?P<pow1>\d+))?)?"
    r"|"
    r"(?P<var2>x(?:\^(?P<pow2>\d+))?)"
    r")"
)


def parse_polynomial(text: str) -> Polynomial:
    """Rational-coefficient polynomials in x: e.g. ``x^3-3x^2+2x``, ``1/2x-3``."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise PolynomialSyntaxError("empty polynomial")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if m is None or m.end() == m.start():
            raise PolynomialSyntaxError(f"cannot parse term at {s[pos:]!r}")
        if not first and m.group("sign") == "":
            raise PolynomialSyntaxError(f"missing sign before {s[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("coeff") is not None:
            coeff = parse_rational(m.group("coeff"))
            var = m.group("var1")
            power = m.group("pow1")
        else:
            coeff = Fraction(1)
            var = m.group("var2")
            power = m.group("pow2")
        if var is None:
            degree = 0
        elif power is None:
            degree = 1
        else:
            degree = int(power)
        coeffs[degree] = coeffs.get(degree, Fraction(0)) + sign * coeff
        pos = m.end()
        first = False
    top = max(coeffs)
    return Polynomial(tuple(coeffs.get(k, Fraction(0)) for k in range(top + 1)))


def _envelope(command: str, inputs: dict, payload) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "payload": payload,
        "versions": {
            "engine": __version__,
            "default_precision": DEFAULT_PRECISION,
        },
    }


def _emit_json(envelope: dict, out) -> None:
    json.dump(envelope, out, indent=2, sort_keys=True)
    out.write("\n")


def _emit_chain_csv(payload: dict, out) -> None:
    writer = csv.writer(out)
    writer.writerow(["field", "index", "value"])
    for field in ("b", "u", "nodes", "primal_weights", "dual_weights"):
        for i, value in enumerate(payload[field]):
            if isinstance(value, dict):
                value = value["value"]
            writer.writerow([field, i, value])


def cmd_chain(args, out) -> int:
    spec = grids.parse_grid(args.grid, args.n, args.precision)
    xs = grids.nodes(spec)
    chain = build_chain(*sturmian_pair(grids.characteristic_polynomial(spec)))
    pw = primal_weights(chain, xs)
    dw = dual_weights(chain.polys[0], chain.polys[1], xs)
    payload = {
        "b": [scalar_json(v) for v in chain.b],
        "u": [scalar_json(v) for v in chain.u],
        "nodes": [scalar_json(v) for v in xs],
        "primal_weights": [scalar_json(v) for v in pw.weights],
        "dual_weights": [scalar_json(v) for v in dw.weights],
    }
    inputs = {"grid": args.grid, "n": args.n, "precision": args.precision,
              "format": args.format}
    if args.format == "csv":
        _emit_chain_csv(payload, out)
    else:
        _emit_json(_envelope("chain", inputs, payload), out)
    return EXIT_OK


def cmd_count(args, out) -> int:
    poly = parse_polynomial(args.poly)
    lo = parse_rational(args.lo)
    hi = parse_rational(args.hi)
    if not lo < hi:
        raise PolynomialSyntaxError(f"need lo < hi, got {args.lo} >= {args.hi}")
    n = count_roots(poly, lo, hi)
    inputs = {"poly": args.poly, "lo": args.lo, "hi": args.hi}
    _emit_json(_envelope("count", inputs, {"count": n}), out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    q_list = tuple(parse_rational(q) for q in args.q) or (Fraction(1, 2),)
    reports = harness.run_all(args.nmax, q_list)
    inputs = {"nmax": args.nmax, "q": [str(q) for q in args.q],
              "precision": args.precision}
    payload = [r.to_dict() for r in reports]
    _emit_json(_envelope("verify", inputs, payload), out)
    if any(r.status == harness.MISMATCH for r in reports):
        return EXIT_MISMATCH
    return EXIT_OK


def _default_precision(parser) -> int:
    env = os.environ.get("STURMION_PRECISION")
    if not env:
        return DEFAULT_PRECISION
    try:
        return int(env)
    except ValueError:
        parser.error(f"STURMION_PRECISION must be a whole number of bits, "
                     f"got {env!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sturmion",
        description="Exact Sturm chains of finite orthogonal polynomials "
                    "on classical grids.")
    parser.add_argument("--precision", type=int, default=None,
                        help="working precision in bits for floating grids")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_chain = sub.add_parser("chain", help="build the chain on a grid")
    p_chain.add_argument("--grid", required=True,
                         help="e.g. linear, quad:tau=1, exp:q=1/2, trig1")
    p_chain.add_argument("--n", type=int, required=True)
    p_chain.set_defaults(func=cmd_chain)

    p_count = sub.add_parser("count", help="count real roots in (lo, hi]")
    p_count.add_argument("--poly", required=True)
    p_count.add_argument("--lo", required=True)
    p_count.add_argument("--hi", required=True)
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--nmax", type=int, default=2)
    p_verify.add_argument("--q", action="append", default=[])
    p_verify.set_defaults(func=cmd_verify)

    return parser


# argparse reads a value such as "-1/2" or "-x^2+1" as an option and not as
# the value of the option before it; only "-1" and "-1.5" pass as negative
# numbers
_RATIONAL_OPTIONS = ("--lo", "--hi", "--q")
_NEGATIVE_RATIONAL = re.compile(r"-\d+/\d+")
_NEGATIVE_POLY = re.compile(r"-[^-]")


def _attach_negative_rationals(argv):
    """Write "--lo -1/2" as "--lo=-1/2", likewise for --hi and --q, and
    "--poly -x^2+1" as "--poly=-x^2+1"."""
    out = []
    for arg in argv:
        option = out[-1] if out else None
        if option in _RATIONAL_OPTIONS and _NEGATIVE_RATIONAL.fullmatch(arg) \
                or option == "--poly" and _NEGATIVE_POLY.match(arg):
            out[-1] = f"{option}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_rationals(
        sys.argv[1:] if argv is None else argv))
    if args.precision is None:
        args.precision = _default_precision(parser)
    if args.format == "csv" and args.command != "chain":
        parser.error(f"--format csv is only for chain, not {args.command}")
    if args.precision < MIN_PRECISION:
        print(f"error: precision must be >= {MIN_PRECISION} bits, "
              f"got {args.precision}", file=sys.stderr)
        return EXIT_PARSE
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has stopped reading; the interpreter's own flush of
        # the unwritten output at exit must not fail as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ChainError, SpectralError) as exc:
        where = ""
        if args.command == "chain":
            where = f"grid {args.grid}, N={args.n}: "
        print(f"error: {where}{exc}", file=sys.stderr)
        return EXIT_CHAIN
    except grids.DegenerateGrid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (PolynomialSyntaxError, grids.GridError, ValueError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
