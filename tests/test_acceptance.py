"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every exact claim is checked by strict equality of rationals against the
Euclidean chain; trigonometric-grid claims are checked to 2^-200 at 256-bit
working precision."""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from sturmion import families, grids, harness, transforms
from sturmion.chain import build_chain, count_from_chain, sturmian_pair
from sturmion.poly import Polynomial
from sturmion.scalars import sin_pi, to_fraction
from sturmion.spectral import (
    JacobiMatrix,
    dual_moments,
    dual_weights,
    duality_product_check,
    generate_polys,
    hankel_tests,
    jacobi_from_chain,
    mirror_dual,
    primal_weights,
    stieltjes_fraction,
)

TOL = Fraction(1, 2**200)

RATIONAL_GRIDS = [
    ("linear", lambda n: grids.linear(n)),
    ("quad:tau=1", lambda n: grids.quadratic(Fraction(1), n)),
    ("quad:tau=2", lambda n: grids.quadratic(Fraction(2), n)),
    ("exp:q=1/2", lambda n: grids.exponential(Fraction(1, 2), n)),
    ("exp:q=2/3", lambda n: grids.exponential(Fraction(2, 3), n)),
]


def report(number, text):
    print(f"criterion {number:2d}: PASS — {text}")


def oracle(spec):
    chain = build_chain(*sturmian_pair(grids.characteristic_polynomial(spec)))
    return chain, grids.nodes(spec)


def family_arrays(fam, n_max):
    b, u = [], []
    for n in range(n_max + 1):
        bn, un = fam.recurrence(n)
        b.append(bn)
        if n >= 1:
            u.append(un)
    return tuple(b), tuple(u)


def test_criterion_01_legendre_duality():
    start = time.time()
    for _, make in RATIONAL_GRIDS:
        for n in range(1, 13):
            chain, xs = oracle(make(n))
            dw = dual_weights(*chain.pair, xs)
            assert dw.weights == (Fraction(1, n + 1),) * (n + 1)
    for make in (grids.trig_first, grids.trig_second):
        for n in range(1, 13):
            chain, xs = oracle(make(n))
            dw = dual_weights(*chain.pair, xs)
            for w in dw.weights:
                assert abs(to_fraction(w) - Fraction(1, n + 1)) < TOL
    elapsed = time.time() - start
    assert elapsed < 10
    report(1, f"dual weights equal 1/(N+1) on 7 grids, N<=12 ({elapsed:.2f} s)")


def test_criterion_02_linear_hahn():
    start = time.time()
    for n_max in range(1, 26):
        chain, _ = oracle(grids.linear(n_max))
        jm = jacobi_from_chain(chain)
        dual = mirror_dual(jm)
        m = Fraction(-n_max - 1)
        assert family_arrays(families.Hahn(m, m, n_max), n_max) == (jm.b, jm.u)
        assert family_arrays(families.Hahn(Fraction(0), Fraction(0), n_max),
                             n_max) == (dual.b, dual.u)
        for n in range(n_max + 1):
            bd, ud = families.legendre_dual_coeffs("linear", n_max, n)
            assert dual.b[n] == bd
            if n >= 1:
                assert dual.u[n - 1] == ud
    anchor, _ = oracle(grids.linear(2))
    assert anchor.b == (Fraction(1),) * 3
    assert anchor.u == (Fraction(1, 3), Fraction(2, 3))
    elapsed = time.time() - start
    assert elapsed < 10
    report(2, f"linear chain is Hahn on both sides, N<=25 ({elapsed:.2f} s)")


def test_criterion_03_squared_binomial_weights():
    for n_max in range(1, 16):
        chain, xs = oracle(grids.linear(n_max))
        pw = primal_weights(chain, xs)
        nu = Fraction(math.factorial(n_max) ** 2,
                      math.factorial(2 * n_max))
        for s, w in enumerate(pw.weights):
            binom = Fraction(math.factorial(n_max),
                             math.factorial(s) * math.factorial(n_max - s))
            assert w == nu * binom**2
    chain, xs = oracle(grids.linear(2))
    assert primal_weights(chain, xs).weights == \
        (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6))
    report(3, "linear-grid weights are normalized squared binomials, N<=15")


def test_criterion_04_difference_equation():
    x = Polynomial.x()
    for n_max in range(1, 13):
        chain, _ = oracle(grids.linear(n_max))
        jm = jacobi_from_chain(chain)
        polys = generate_polys(jm, n_max)
        edge = x - Polynomial.constant(Fraction(n_max))
        for n, p in enumerate(polys):
            lhs = edge * edge * (p.shift(Fraction(1)) - p) \
                + x * x * (p.shift(Fraction(-1)) - p)
            assert lhs == Fraction(n * (n - 2 * n_max - 1)) * p
            if n_max == 2 and n == 1:
                assert lhs == Polynomial((Fraction(4), Fraction(-4)))
    report(4, "second-order difference equation holds for all n <= N <= 12")


def test_criterion_05_racah_tau1():
    half = Fraction(1, 2)
    for n_max in range(1, 16):
        chain, _ = oracle(grids.quadratic(Fraction(1), n_max))
        dual = mirror_dual(jacobi_from_chain(chain))
        fam = families.Racah(n_max + half, -half, half, n_max)
        assert family_arrays(fam, n_max) == (dual.b, dual.u)
        for n in range(1, n_max + 1):
            _, ud = families.legendre_dual_coeffs("quad_tau1", n_max, n)
            assert dual.u[n - 1] == ud
    chain, _ = oracle(grids.quadratic(Fraction(1), 2))
    dual = mirror_dual(jacobi_from_chain(chain))
    assert dual.u == (Fraction(56, 9), Fraction(108, 49))
    assert dual.b == (Fraction(8, 3), Fraction(76, 21), Fraction(12, 7))
    # the printed dual-b closed form is a known discrepancy: reported by the
    # harness, never asserted, and it must not fail the suite
    rep = harness.verify_quadratic_tau1(2)
    assert rep.status == harness.EXACT
    joined = " ".join(rep.notes)
    assert "known-discrepancy" in joined and "655/192" in joined
    bd, _ = families.legendre_dual_coeffs("quad_tau1", 2, 0)
    assert bd == Fraction(655, 192)
    report(5, "s(s+1) chain mirrors to Racah, N<=15; dual-b form flagged")


def test_criterion_06_christoffel_racah_tau2():
    for n_max in range(1, 13):
        chain, xs = oracle(grids.quadratic(Fraction(2), n_max))
        jm = jacobi_from_chain(chain)
        fam = families.Racah(Fraction(-2 * n_max - 3, 2), Fraction(1, 2),
                             Fraction(1, 2), n_max)
        source = JacobiMatrix(*family_arrays(fam, n_max))
        transformed, _ = transforms.christoffel(source, Fraction(-1))
        assert transformed == jm
        # transformed uniform measure carries weights proportional to x + 1
        lifted, _ = transforms.christoffel(mirror_dual(jm), Fraction(-1))
        mass = sum((x + 1 for x in xs), start=Fraction(0))
        h = [Fraction(1)]
        for u in lifted.u:
            h.append(h[-1] * u)
        polys = generate_polys(lifted, n_max)
        for i in range(n_max + 1):
            for j in range(i, n_max + 1):
                g = sum(((x + 1) / mass * polys[i](x) * polys[j](x)
                         for x in xs), start=Fraction(0))
                assert g == (h[i] if i == j else 0)
    report(6, "s(s+2) chain is the Christoffel transform of Racah, N<=12")


def test_criterion_07_exponential_qhahn():
    for q in (Fraction(1, 2), Fraction(2, 3)):
        for n_max in range(1, 13):
            chain, _ = oracle(grids.exponential(q, n_max))
            jm = jacobi_from_chain(chain)
            big = q ** (-(n_max + 1))
            source = families.QHahn(big, big, q, n_max)
            transformed, _ = transforms.christoffel(
                JacobiMatrix(*family_arrays(source, n_max)), Fraction(0))
            assert transformed == jm
            plain = families.QHahn(Fraction(1), Fraction(1), q, n_max)
            uv, _ = transforms.uvarov(
                JacobiMatrix(*family_arrays(plain, n_max)),
                plain.weights(), Fraction(0))
            assert uv == mirror_dual(jm)
    chain, _ = oracle(grids.exponential(Fraction(1, 2), 1))
    assert chain.b[0] == Fraction(3, 2)
    assert chain.u[0] == Fraction(1, 4)
    report(7, "exponential chain via Christoffel and Uvarov of q-Hahn, N<=12")


def test_criterion_08_trig_grids():
    for n_max in range(1, 21):
        chain, xs = oracle(grids.trig_first(n_max))
        assert chain.b == (Fraction(0),) * (n_max + 1)
        assert chain.u == (Fraction(1, 4),) * (n_max - 1) + (Fraction(1, 2),)
        pw = primal_weights(chain, xs)
        for s, w in enumerate(pw.weights):
            theta = Fraction(2 * s + 1, 2 * (n_max + 1))
            target = Fraction(2, n_max + 1) * sin_pi(theta) ** 2
            assert abs(to_fraction(w - target)) < TOL

        chain, _ = oracle(grids.trig_second(n_max))
        assert chain.b == (Fraction(0),) * (n_max + 1)
        expected = tuple(Fraction(n * (n + 3), 4 * (n + 2) * (n + 1))
                         for n in range(1, n_max)) \
            + (Fraction(n_max, 2 * (n_max + 1)),)
        assert chain.u == expected
    chain, _ = oracle(grids.trig_first(2))
    assert chain.u == (Fraction(1, 4), Fraction(1, 2))
    chain, _ = oracle(grids.trig_second(2))
    assert chain.u == (Fraction(1, 6), Fraction(1, 3))
    report(8, "trig chains match the closed forms, N<=20; weights to 2^-200")


def test_criterion_09_duality_product():
    for _, make in RATIONAL_GRIDS:
        for n in range(1, 13):
            chain, xs = oracle(make(n))
            pw = primal_weights(chain, xs)
            dw = dual_weights(*chain.pair, xs)
            assert duality_product_check(pw, dw, chain) == 0
    chain, xs = oracle(grids.linear(2))
    pw = primal_weights(chain, xs)
    dw = dual_weights(*chain.pair, xs)
    assert pw.weights[0] * dw.weights[0] == Fraction(1, 18)
    dp = chain.pair[0].derivative()
    assert chain.h_top / dp(xs[0]) ** 2 == Fraction(1, 18)
    report(9, "w_s w*_s = h_N / P'(x_s)^2 exactly on rational grids, N<=12")


def test_criterion_10_root_counting():
    rng = random.Random(20260826)
    for _, make in RATIONAL_GRIDS:
        for n in range(1, 13):
            chain, xs = oracle(make(n))
            # the chain P_{N+1}, ..., P_0, regenerated from (b, u)
            seq = generate_polys(jacobi_from_chain(chain), n + 1)[::-1]
            lo_lim = int(xs[0]) - 3
            hi_lim = int(xs[-1]) + 3
            for _ in range(50):
                a = Fraction(rng.randint(4 * lo_lim, 4 * hi_lim),
                             rng.randint(1, 4))
                b = Fraction(rng.randint(4 * lo_lim, 4 * hi_lim),
                             rng.randint(1, 4))
                if a == b:
                    continue
                a, b = min(a, b), max(a, b)
                direct = sum(1 for x in xs if a < x <= b)
                assert count_from_chain(seq, a, b) == direct
    report(10, "Sturm counts match direct node counts, 50 intervals each")


def test_criterion_11_hankel_positivity():
    for n_max in range(1, 9):
        nodes = [Fraction(s + 1) for s in range(n_max + 1)]
        moments = [dual_moments(nodes, k) for k in range(2 * n_max + 2)]
        for d, d1, ok in hankel_tests(moments, n_max):
            assert ok and d > 0 and d1 > 0
    nodes = [Fraction(1), Fraction(2), Fraction(3)]
    moments = [dual_moments(nodes, k) for k in range(4)]
    assert hankel_tests(moments, 1)[1][0] == Fraction(2, 3)
    report(11, "Hankel determinants positive on shifted-positive grids")


def test_criterion_12_continued_fraction():
    rng = random.Random(7)
    for _, make in RATIONAL_GRIDS:
        for n in (1, 2, 3, 5, 8):
            chain, xs = oracle(make(n))
            jm = mirror_dual(jacobi_from_chain(chain))
            done = 0
            while done < 20:
                z = Fraction(rng.randint(-200, 200), rng.randint(1, 9))
                if any(z == x for x in xs):
                    continue
                direct = sum((Fraction(1) / (z - x) for x in xs),
                             start=Fraction(0)) / (n + 1)
                assert stieltjes_fraction(jm, z) == direct
                done += 1
    chain, _ = oracle(grids.linear(2))
    jm = mirror_dual(jacobi_from_chain(chain))
    assert stieltjes_fraction(jm, Fraction(3)) == Fraction(11, 18)
    report(12, "mirror continued fraction equals the partial-fraction sum")


def test_criterion_13_hermite_pipeline():
    for n_max in range(1, 16):
        x = Polynomial.x()
        hs = [Polynomial.constant(Fraction(1)), x]
        for n in range(1, n_max + 1):
            hs.append(x * hs[n] - Fraction(n, 2) * hs[n - 1])
        chain = build_chain(*sturmian_pair(hs[n_max + 1]))
        assert chain.b == (Fraction(0),) * (n_max + 1)
        assert chain.u == tuple(Fraction(n, 2) for n in range(1, n_max + 1))
        dual = mirror_dual(jacobi_from_chain(chain))
        assert dual.u == tuple(Fraction(n_max + 1 - n, 2)
                               for n in range(1, n_max + 1))
    report(13, "Hermite Sturm chain reproduces the recurrence, N<=15")


def test_criterion_14_verify_suite_runtime():
    start = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "sturmion.cli", "verify", "--nmax", "12",
         "--q", "1/2", "--q", "2/3"],
        capture_output=True, text=True)
    elapsed = time.time() - start
    assert proc.returncode == 0
    assert elapsed < 60
    doc = json.loads(proc.stdout)
    assert len(doc["payload"]) == 7
    assert all(r["status"] in ("exact_match", "within_tolerance")
               for r in doc["payload"])
    report(14, f"full verification suite passed in {elapsed:.2f} s")
