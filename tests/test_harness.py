"""The verification harness: statuses, known discrepancies, determinism."""

from fractions import Fraction

import pytest

from sturmion import cli, grids, harness, scalars, transforms
from sturmion.chain import build_chain, sturmian_pair
from sturmion.poly import Polynomial
from sturmion.spectral import PoleHit


def test_duality_exact_on_rational_grids():
    for spec in (grids.linear(2),
                 grids.quadratic(Fraction(1), 3),
                 grids.quadratic(Fraction(2), 3),
                 grids.exponential(Fraction(1, 2), 1)):
        rep = harness.verify_legendre_duality(spec)
        assert rep.status == harness.EXACT


def test_duality_exact_on_trig_grids():
    for spec in (grids.trig_first(4), grids.trig_second(4)):
        rep = harness.verify_legendre_duality(spec)
        assert rep.status == harness.EXACT
        assert rep.witness is None


def test_linear_report():
    for n in (1, 2, 5):
        rep = harness.verify_linear(n)
        assert rep.status == harness.EXACT
        assert rep.witness is None


def test_quadratic_tau1_report_flags_known_discrepancy():
    rep = harness.verify_quadratic_tau1(2)
    assert rep.status == harness.EXACT
    joined = " ".join(rep.notes)
    assert "known-discrepancy" in joined
    assert "655/192" in joined
    assert "8/3" in joined


def test_quadratic_tau2_report():
    for n in (1, 2, 4):
        rep = harness.verify_quadratic_tau2(n)
        assert rep.status == harness.EXACT
    assert any("known-discrepancy" in note
               for note in harness.verify_quadratic_tau2(1).notes)


def test_exponential_report():
    for q in (Fraction(1, 2), Fraction(2, 3)):
        rep = harness.verify_exponential(q, 3)
        assert rep.status == harness.EXACT


def test_trig_reports():
    for kind in (1, 2):
        rep = harness.verify_trig(kind, 3)
        assert rep.status == harness.EXACT
        assert rep.witness is None


def _sine_law_report(grid, n, c, k):
    """The trig weight law h_N - c (1 - x^2)^k P'_{N+1} P_N modulo P_{N+1},
    compared with zero by the collector that verify_trig uses."""
    chain = build_chain(*sturmian_pair(
        grids.characteristic_polynomial(grid(n))))
    top, nxt = chain.polys[:2]
    law = top.derivative() * nxt * c
    for _ in range(k):
        law = law * Polynomial((Fraction(1), Fraction(0), Fraction(-1)))
    col = harness._Collector()
    col.zero_mod("w_s", Polynomial.constant(chain.h_top) - law, top)
    return col.report("demo", grid(n).kind, n)


def test_sine_law_catches_a_wrong_constant_or_power():
    for grid, c, k in ((grids.trig_first, Fraction(2, 6), 1),
                       (grids.trig_second, Fraction(8, 21), 2)):
        assert _sine_law_report(grid, 5, c, k).status == harness.EXACT
    rep = _sine_law_report(grids.trig_first, 5, Fraction(2, 7), 1)
    assert rep.status == harness.MISMATCH
    # the remainder is the constant h_5 / 7 = (1/512) / 7
    assert rep.witness == ("w_s, x^0 of the remainder", 0,
                           Fraction(1, 3584))
    rep = _sine_law_report(grids.trig_second, 5, Fraction(8, 21), 1)
    assert rep.status == harness.MISMATCH
    assert rep.witness[1] == 0 and rep.witness[2] != 0


def test_exponential_transform_failure_is_skipped(monkeypatch):
    def pole(*args):
        raise PoleHit("0 is grid node 0")

    monkeypatch.setattr(transforms, "second_kind_values", pole)
    rep = harness.verify_exponential(Fraction(1, 2), 2)
    assert rep.status == harness.SKIPPED
    assert "grid node 0" in rep.notes[0]


def test_trig_kind_validation():
    with pytest.raises(ValueError):
        harness.verify_trig(3, 2)


def test_run_all_minimal_shape():
    reports = harness.run_all(1, (Fraction(1, 2),))
    assert len(reports) == 7
    assert [r.name for r in reports] == [
        "legendre_duality", "linear_hahn", "quadratic_tau1_racah",
        "quadratic_tau2_christoffel", "exponential_qhahn",
        "trig_first", "trig_second"]
    for r in reports:
        assert r.status == harness.EXACT


def test_run_all_makes_no_bigfloat(monkeypatch):
    made = []
    init = scalars.BigFloat.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(scalars.BigFloat, "__init__", counting_init)
    harness.run_all(4)
    assert made == []


def test_run_all_rejects_bad_nmax():
    with pytest.raises(ValueError):
        harness.run_all(0)


def test_reports_serialize_deterministically(capsys):
    outputs = []
    for _ in range(2):
        assert cli.main(["verify", "--nmax", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "655/192" in outputs[0]


def test_report_witness_on_forced_mismatch():
    col = harness._Collector()
    col.eq("b_0", Fraction(1), Fraction(2))
    rep = col.report("demo", "linear", 1)
    assert rep.status == harness.MISMATCH
    assert rep.witness == ("b_0", Fraction(1), Fraction(2))
    d = rep.to_dict()
    assert d["witness"]["oracle"] == "1"
    assert d["witness"]["candidate"] == "2"


def test_aggregate_keeps_worst_status_witness_and_notes():
    def part(status, n, witness=None, notes=()):
        return harness.CheckReport("demo", "exp:q=1/2", n, status,
                                   witness, notes)

    exact = part(harness.EXACT, 1, notes=("agrees",))
    skipped = part(harness.SKIPPED, 4, notes=("skipped: pole",))
    first = part(harness.MISMATCH, 5, witness=("b_1", Fraction(1), Fraction(2)))
    second = part(harness.MISMATCH, 6, witness=("u_1", Fraction(3), Fraction(4)))

    def fold(*parts):
        return harness._aggregate("demo", "exp", 6, parts)

    assert fold(exact).status == harness.EXACT
    assert fold(exact, skipped, exact).status == harness.SKIPPED
    rep = fold(exact, second, skipped, first)
    assert rep.status == harness.MISMATCH
    assert rep.witness == ("exp:q=1/2 N=6 u_1", Fraction(3), Fraction(4))
    assert rep.notes == ("exp:q=1/2 N=1: agrees",
                         "exp:q=1/2 N=4: skipped: pole")
