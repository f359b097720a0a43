"""Output checks computed apart from sturmion.

Each check takes the program's parsed JSON envelope (or its payload) and the
facts the benchmark knew when it made the op, and raises CheckFailed with a
reason when the output is wrong.  Nothing here imports sturmion.

Exact-grid identities are rational identities of large numbers.  They are
tested modulo a 128-bit prime: a wrong value passes only if the numerator of
its error is a multiple of that prime.  The prime is the first one above the
golden-ratio constant 0x9E3779B9..., so that it divides none of the
q^k - 1 factors of exponential grids, as a Mersenne prime 2^k - 1 would.
Signs, nodes and the closed-form weights are compared exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import mpmath

PRIME = 0x9E3779B97F4A7C15F39CC0605CEDC839

FAMILIES = ("legendre_duality", "linear_hahn", "quadratic_tau1_racah",
            "quadratic_tau2_christoffel", "exponential_qhahn", "trig_first",
            "trig_second")


class CheckFailed(AssertionError):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _split(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den) if den else 1


def _mod(text: str) -> int:
    num, den = _split(text)
    return num % PRIME * pow(den, -1, PRIME) % PRIME


def _is_positive(text: str) -> bool:
    return _split(text)[0] > 0


def exact_nodes(kind: str, param: Fraction | None, n: int) -> list[Fraction]:
    """The benchmark's own node laws: s, s(s+tau) and q^-s."""
    if kind == "linear":
        return [Fraction(s) for s in range(n + 1)]
    if kind == "quad":
        return [s * (s + param) for s in map(Fraction, range(n + 1))]
    if kind == "exp":
        return [param ** -s for s in range(n + 1)]
    raise ValueError(f"no exact node law for {kind!r}")


def _lengths(payload: dict, n: int) -> None:
    for key, size in (("b", n + 1), ("u", n), ("nodes", n + 1),
                      ("primal_weights", n + 1), ("dual_weights", n + 1)):
        _require(len(payload[key]) == size,
                 f"{key} has {len(payload[key])} entries, want {size}")


def check_exact_chain(payload: dict, kind: str, param, n: int) -> None:
    """Chain, nodes and weights on a linear, quadratic or exponential grid."""
    _lengths(payload, n)
    xs = exact_nodes(kind, param, n)
    for s, (got, want) in enumerate(zip(payload["nodes"], xs)):
        _require(Fraction(got) == want, f"node {s} is {got}, want {want}")
    for i, text in enumerate(payload["u"], start=1):
        _require(_is_positive(text), f"u_{i} = {text} is not positive")
    for s, text in enumerate(payload["primal_weights"]):
        _require(_is_positive(text), f"w_{s} = {text} is not positive")
    dual = f"1/{n + 1}" if n else "1"
    for s, text in enumerate(payload["dual_weights"]):
        _require(text == dual, f"dual weight {s} is {text}, want {dual}")
    if kind == "linear":
        central = comb(2 * n, n)
        for s, text in enumerate(payload["primal_weights"]):
            want = Fraction(comb(n, s) ** 2, central)
            _require(Fraction(text) == want, f"w_{s} is {text}, want {want}")

    b = [_mod(t) for t in payload["b"]]
    u = [_mod(t) for t in payload["u"]]
    w = [_mod(t) for t in payload["primal_weights"]]
    x = [v.numerator % PRIME * pow(v.denominator, -1, PRIME) % PRIME
         for v in xs]
    h = n + 1
    for un in u:
        h = h * un % PRIME
    _require(sum(w) % PRIME == 1, "primal weights do not sum to 1")
    for s, xs_ in enumerate(x):
        # d = prod_{t != s} (x_s - x_t) = P'_{N+1}(x_s)
        d = 1
        for t, xt in enumerate(x):
            if t != s:
                d = d * (xs_ - xt) % PRIME
        prev, cur = 0, 1
        for k in range(n + 1):
            nxt = ((xs_ - b[k]) * cur - (u[k - 1] * prev if k else 0)) % PRIME
            if k == n:
                _require((n + 1) * cur % PRIME == d,
                         f"(N+1) P_N(x_{s}) differs from prod (x_{s} - x_t)")
            prev, cur = cur, nxt
        _require(cur == 0, f"P_(N+1)(x_{s}) is not 0")
        _require(w[s] * d % PRIME * d % PRIME == h,
                 f"w_{s} differs from (N+1) prod u / P'(x_{s})^2")


def _mpf(entry: dict, precision: int) -> mpmath.mpf:
    _require(entry["precision_bits"] == precision,
             f"precision_bits {entry['precision_bits']}, want {precision}")
    return mpmath.mpf(entry["value"])


def trig_u(kind: int, n: int) -> list[Fraction]:
    """u_1..u_N of the chain of (P, P'/(N+1)) for the Chebyshev grids.

    trig1: P is monic T_{N+1} and T'_{N+1} = (N+1) U_N, so the chain below
    the top is monic U (u = 1/4) and T_{N+1} = x U_N - U_{N-1}/2 on top.
    trig2: P is monic U_{N+1}, whose derivative is a multiple of the
    Gegenbauer C^(2)_N, so u_k = k(k+3)/(4(k+1)(k+2)) below the top and
    U_{N+1} = x C_N - N/(2(N+1)) C_{N-1} on top.
    """
    if kind == 1:
        return [Fraction(1, 4)] * (n - 1) + [Fraction(1, 2)]
    return [Fraction(k * (k + 3), 4 * (k + 1) * (k + 2)) for k in range(1, n)] \
        + [Fraction(n, 2 * (n + 1))]


def check_trig_chain(payload: dict, kind: int, n: int, precision: int) -> None:
    """Chebyshev grids: exact closed-form b and u, nodes and weights against
    mpmath at a higher precision, to a relative 2**-(precision/2)."""
    _lengths(payload, n)
    for i, text in enumerate(payload["b"]):
        _require(text == "0", f"b_{i} is {text}, want 0")
    h = Fraction(1)
    for i, (text, want) in enumerate(zip(payload["u"], trig_u(kind, n)),
                                     start=1):
        _require(Fraction(text) == want, f"u_{i} is {text}, want {want}")
        h *= want
    with mpmath.workprec(precision + 64):
        tol = mpmath.mpf(2) ** -(precision // 2)
        if kind == 1:
            xs = [-mpmath.cospi(mpmath.mpf(2 * s + 1) / (2 * (n + 1)))
                  for s in range(n + 1)]
        else:
            xs = [-mpmath.cospi(mpmath.mpf(s + 1) / (n + 2))
                  for s in range(n + 1)]
        dual = mpmath.mpf(1) / (n + 1)
        for s, x in enumerate(xs):
            got = _mpf(payload["nodes"][s], precision)
            _require(abs(got - x) <= tol, f"node {s} is off by {got - x}")
            d = mpmath.fprod(x - y for t, y in enumerate(xs) if t != s)
            w = (n + 1) * mpmath.mpf(h.numerator) / h.denominator / d**2
            got = _mpf(payload["primal_weights"][s], precision)
            _require(abs(got - w) <= tol * w, f"w_{s} is off by {got - w}")
            got = _mpf(payload["dual_weights"][s], precision)
            _require(abs(got - dual) <= tol * dual,
                     f"dual weight {s} is off by {got - dual}")


def check_verify(payload: list, nmax: int) -> None:
    """All seven families reported for the requested nmax, none a mismatch."""
    names = [r["name"] for r in payload]
    _require(names == list(FAMILIES), f"families {names}")
    for r in payload:
        _require(r["n_max"] == nmax, f"{r['name']} ran to {r['n_max']}")
        _require(r["status"] != "mismatch", f"{r['name']} reports mismatch")


def check_count(payload: dict, expected: int) -> None:
    _require(payload["count"] == expected,
             f"count {payload['count']}, want {expected}")
