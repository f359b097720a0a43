"""Tests of the benchmark's own output checks and op lists.

    python3 -m pytest perfbench/test_perfbench.py

Each check must pass the program's real output and reject that output with
one value changed.
"""

from __future__ import annotations

import copy
import io
import json
import sys
import unittest
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import (CheckFailed, check_count, check_exact_chain,  # noqa: E402
                    check_trig_chain, check_verify)
from workloads import WORKLOADS, count_round, rounds  # noqa: E402
from sturmion import cli  # noqa: E402


def program(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, argv
    return json.loads(out.getvalue())["payload"]


def bump(text: str, by=Fraction(1, 1000)) -> str:
    v = Fraction(text) + by
    return str(v.numerator) if v.denominator == 1 else str(v)


class ExactChain(unittest.TestCase):
    CASES = (("linear", None, "linear", 7), ("quad", Fraction(2), "quad:tau=2", 6),
             ("exp", Fraction(2, 3), "exp:q=2/3", 6))

    def each(self):
        for kind, param, grid, n in self.CASES:
            yield kind, param, n, program("chain", "--grid", grid, "--n", str(n))

    def test_accepts_program_output(self):
        for kind, param, n, payload in self.each():
            check_exact_chain(payload, kind, param, n)

    def test_rejects_one_changed_value(self):
        for kind, param, n, payload in self.each():
            for key, index in (("u", 2), ("b", 3), ("primal_weights", 1),
                               ("nodes", 4), ("dual_weights", 0)):
                bad = copy.deepcopy(payload)
                bad[key][index] = bump(bad[key][index])
                with self.subTest(kind=kind, key=key), \
                        self.assertRaises(CheckFailed):
                    check_exact_chain(bad, kind, param, n)


class TrigChain(unittest.TestCase):
    def each(self):
        for kind, n in ((1, 7), (2, 6)):
            yield kind, n, program("--precision", "256", "chain", "--grid",
                                   f"trig{kind}", "--n", str(n))

    def test_accepts_program_output(self):
        for kind, n, payload in self.each():
            check_trig_chain(payload, kind, n, 256)

    def test_rejects_one_changed_u(self):
        for kind, n, payload in self.each():
            bad = copy.deepcopy(payload)
            bad["u"][1] = bump(bad["u"][1])
            with self.subTest(kind=kind), self.assertRaises(CheckFailed):
                check_trig_chain(bad, kind, n, 256)

    def test_rejects_one_changed_weight_or_node(self):
        for kind, n, payload in self.each():
            for key in ("primal_weights", "dual_weights", "nodes"):
                bad = copy.deepcopy(payload)
                entry = bad[key][2]
                with mpmath.workprec(320):
                    entry["value"] = mpmath.nstr(
                        mpmath.mpf(entry["value"]) * (1 + mpmath.mpf(10) ** -30)
                        + mpmath.mpf(10) ** -30, 90)
                with self.subTest(kind=kind, key=key), \
                        self.assertRaises(CheckFailed):
                    check_trig_chain(bad, kind, n, 256)

    def test_rejects_wrong_precision(self):
        kind, n, payload = next(self.each())
        with self.assertRaises(CheckFailed):
            check_trig_chain(payload, kind, n, 512)


class Verify(unittest.TestCase):
    def setUp(self):
        self.payload = program("verify", "--nmax", "2", "--q", "1/3")

    def test_accepts_program_output(self):
        check_verify(self.payload, 2)

    def test_rejects_mismatch_missing_family_and_wrong_nmax(self):
        bad = copy.deepcopy(self.payload)
        bad[3]["status"] = "mismatch"
        with self.assertRaises(CheckFailed):
            check_verify(bad, 2)
        with self.assertRaises(CheckFailed):
            check_verify(self.payload[:-1], 2)
        with self.assertRaises(CheckFailed):
            check_verify(self.payload, 3)


class Count(unittest.TestCase):
    def test_rejects_count_off_by_one(self):
        payload = program("count", "--poly=x^3-3x^2+2x", "--lo=1/2",
                          "--hi=5/2")
        check_count(payload, 2)
        for wrong in (1, 3):
            with self.assertRaises(CheckFailed):
                check_count(payload, wrong)

    def test_expected_counts_match_numeric_roots(self):
        """The benchmark's exact interval counts agree with mpmath roots."""
        import random
        for op in count_round(random.Random(5)):
            if op.known_fault:
                continue
            args = dict(a.split("=", 1) for a in op.argv[1:])
            poly = cli.parse_polynomial(args["--poly"])
            lo, hi = Fraction(args["--lo"]), Fraction(args["--hi"])
            with mpmath.workprec(200):
                def mpf(v):
                    return mpmath.mpf(v.numerator) / v.denominator
                roots = mpmath.polyroots([mpf(c) for c in reversed(poly.coeffs)],
                                         maxsteps=200, extraprec=200)
                eps = mpmath.mpf(2) ** -100
                numeric = sum(1 for r in roots if abs(mpmath.im(r)) < eps and
                              mpf(lo) + eps < mpmath.re(r) <= mpf(hi) + eps)
            want = op.check.keywords["expected"]
            self.assertEqual(numeric, want, op.argv)
            op.check({"payload": program(*op.argv)})


class Rounds(unittest.TestCase):
    def test_same_make_up_for_every_seed(self):
        for name in WORKLOADS:
            def make_up(seed):
                ops = next(rounds(name, seed))
                return (Counter(op.kind for op in ops),
                        sum(op.known_fault for op in ops))
            with self.subTest(workload=name):
                self.assertEqual(make_up(1), make_up(2))
                self.assertEqual(make_up(1), make_up(3))

    def test_same_seed_same_ops(self):
        for name in WORKLOADS:
            a, b = rounds(name, 7), rounds(name, 7)
            for _ in range(3):
                self.assertEqual([op.argv for op in next(a)],
                                 [op.argv for op in next(b)])


if __name__ == "__main__":
    unittest.main()
