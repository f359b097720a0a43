"""The verification harness: statuses, known discrepancies, determinism."""

from fractions import Fraction

import pytest

from sturmion import cli, grids, harness, scalars, transforms
from sturmion.chain import build_chain, sturmian_pair
from sturmion.poly import Polynomial
from sturmion.spectral import (JacobiMatrix, PoleHit, jacobi_from_chain,
                               mirror_dual)


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


DUALITY_SPECS = [grids.linear(4), grids.quadratic(Fraction(1), 4),
                 grids.quadratic(Fraction(2), 4),
                 grids.exponential(Fraction(1, 2), 4), grids.trig_first(4),
                 grids.trig_second(4)]


@pytest.mark.parametrize("entry, index",
                         [("b", 0), ("b", -1), ("u", 0), ("u", -1)])
@pytest.mark.parametrize("spec", DUALITY_SPECS, ids=harness._grid_label)
def test_duality_catches_a_changed_mirror_entry(monkeypatch, spec, entry,
                                                index):
    """b*_0, b*_N, u*_1 or u*_N of the mirror moved by 1/7."""
    assert harness.verify_legendre_duality(spec).status == harness.EXACT

    def perturbed(jm):
        dual = mirror_dual(jm)
        b, u = list(dual.b), list(dual.u)
        (b if entry == "b" else u)[index] += Fraction(1, 7)
        return JacobiMatrix(tuple(b), tuple(u))

    monkeypatch.setattr(harness, "mirror_dual", perturbed)
    rep = harness.verify_legendre_duality(spec)
    assert rep.status == harness.MISMATCH
    assert rep.witness[1] != rep.witness[2]


def test_run_all_builds_each_oracle_once(monkeypatch):
    """One characteristic polynomial and one chain per spec: 7 N values
    times linear, quad tau=1 and 2, two exp q and trig1 and 2; a repeated q
    is the same spec and adds no build."""
    calls = {"char": 0, "chain": 0}

    def counted(key, func):
        def wrapper(*args):
            calls[key] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(grids, "characteristic_polynomial",
                        counted("char", grids.characteristic_polynomial))
    monkeypatch.setattr(harness, "build_chain",
                        counted("chain", harness.build_chain))
    for q_list in ((Fraction(1, 2), Fraction(2, 3)),
                   (Fraction(1, 2), Fraction(2, 3), Fraction(2, 3))):
        harness._oracle.cache_clear()
        calls.update(char=0, chain=0)
        harness.run_all(7, q_list)
        assert calls == {"char": 49, "chain": 49}


def test_run_all_leaves_no_cached_oracle(monkeypatch):
    harness.run_all(2)
    assert harness._oracle.cache_info().currsize == 0

    def failing(n_max):
        raise RuntimeError("check failed")

    monkeypatch.setattr(harness, "verify_quadratic_tau2", failing)
    with pytest.raises(RuntimeError):
        harness.run_all(2)
    assert harness._oracle.cache_info().currsize == 0


def test_measure_names_a_differing_characteristic_polynomial():
    """A matrix whose P_{N+1} is not char: the witness is the first
    differing coefficient, before any remainder is compared."""
    chain = build_chain(*sturmian_pair(
        grids.characteristic_polynomial(grids.linear(3))))
    jm = jacobi_from_chain(chain)
    moved = JacobiMatrix(jm.b[:-1] + (jm.b[-1] + 1,), jm.u)
    col = harness._Collector()
    col.measure("w_s", moved, Polynomial.constant(Fraction(1, 4)),
                chain.pair[0])
    rep = col.report("demo", "linear", 3)
    assert rep.status == harness.MISMATCH
    label, oracle, candidate = rep.witness
    assert label.startswith("P_4, x^") and oracle != candidate


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
    """The trig weight law c (1 - x^2)^k on the chain's matrix: the
    remainder of h_N - law P'_{N+1} P_N modulo P_{N+1} that the collector's
    measure compares with zero, as verify_trig does."""
    chain = build_chain(*sturmian_pair(
        grids.characteristic_polynomial(grid(n))))
    law = Polynomial.constant(c)
    for _ in range(k):
        law = law * Polynomial((Fraction(1), Fraction(0), Fraction(-1)))
    col = harness._Collector()
    col.measure("w_s", jacobi_from_chain(chain), law, chain.pair[0])
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


def record_comparisons(monkeypatch):
    """Every (label, oracle, candidate) that a collector compares, in order."""
    seen = []
    eq = harness._Collector.eq

    def recording(self, label, oracle, candidate):
        seen.append((label, oracle, candidate))
        eq(self, label, oracle, candidate)

    monkeypatch.setattr(harness._Collector, "eq", recording)
    return seen


def test_every_comparison_is_between_rationals(monkeypatch):
    seen = record_comparisons(monkeypatch)
    harness.run_all(5, (Fraction(1, 2), Fraction(2, 3)))
    assert seen
    for label, oracle, candidate in seen:
        assert type(oracle) in (int, Fraction), label
        assert type(candidate) in (int, Fraction), label


def perturb_lifted(monkeypatch, entry: str, index: int):
    """Change one b or u of the tau=2 lifted matrix: the Christoffel
    transform at -1 of the mirror of the grid's chain."""
    christoffel = transforms.christoffel

    def perturbed(jm, a):
        out, multipliers = christoffel(jm, a)
        if a == -1 and jm == mirror_dual(harness._oracle(
                grids.quadratic(Fraction(2), jm.n))[1]):
            b, u = list(out.b), list(out.u)
            (b if entry == "b" else u)[index] += Fraction(1, 7)
            out = JacobiMatrix(tuple(b), tuple(u))
        return out, multipliers

    monkeypatch.setattr(transforms, "christoffel", perturbed)


@pytest.mark.parametrize("entry, index",
                         [("b", 0), ("b", -1), ("u", 0), ("u", -1)])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_tau2_measure_catches_a_changed_lifted_entry(monkeypatch, n, entry,
                                                     index):
    assert harness.verify_quadratic_tau2(n).status == harness.EXACT
    perturb_lifted(monkeypatch, entry, index)
    rep = harness.verify_quadratic_tau2(n)
    assert rep.status == harness.MISMATCH
    assert rep.witness[1] != rep.witness[2]


@pytest.mark.parametrize("n", [1, 3, 6])
def test_tau2_measure_catches_a_wrong_mass(monkeypatch, n):
    """The law (x + 1) / mass with the printed mass in place of the true
    one, which the report notes as a known discrepancy."""
    printed = Fraction(n * (n + 1) * (2 * n + 7), 6)
    mass = sum(x + 1 for x in grids.nodes(grids.quadratic(Fraction(2), n)))
    assert printed != mass
    measure = harness._Collector.measure

    def printed_mass(self, label, jm, law, char):
        measure(self, label, jm, law * (mass / printed), char)

    monkeypatch.setattr(harness._Collector, "measure", printed_mass)
    rep = harness.verify_quadratic_tau2(n)
    assert rep.status == harness.MISMATCH
    assert rep.witness[0].startswith("w_s, x^")


def test_cli_verify_exits_1_on_a_changed_lifted_matrix(monkeypatch, capsys):
    perturb_lifted(monkeypatch, "u", 0)
    assert cli.main(["verify", "--nmax", "3"]) == 1
    out = capsys.readouterr().out
    assert "quadratic_tau2_christoffel" in out and "mismatch" in out


@pytest.mark.parametrize("index", range(4))
def test_difference_equation_catches_a_changed_u(monkeypatch, index):
    """u_1..u_4 of the N=5 chain: u_5 enters only P_6, which the difference
    equation on P_0..P_5 does not read."""
    oracle = harness._oracle

    def perturbed(spec):
        chain, jm = oracle(spec)
        u = list(jm.u)
        u[index] += Fraction(1, 7)
        return chain, JacobiMatrix(jm.b, tuple(u))

    seen = record_comparisons(monkeypatch)
    harness.verify_linear(5)
    assert not [c for c in seen if c[0].startswith("difference-equation")
                and c[1] != c[2]]
    seen.clear()
    monkeypatch.setattr(harness, "_oracle", perturbed)
    harness.verify_linear(5)
    assert [c for c in seen if c[0].startswith("difference-equation")
            and c[1] != c[2]]
