"""Command-line interface: parsing, output schema and exit codes."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from sturmion import cli
from sturmion.cli import parse_polynomial, PolynomialSyntaxError
from sturmion.poly import Polynomial
from sturmion.spectral import SpectralData


def run_cli(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "sturmion.cli", *argv],
        capture_output=True, text=True, env=env)


def test_parse_polynomial_basic():
    p = parse_polynomial("x^3-3x^2+2x")
    assert p == Polynomial((Fraction(0), Fraction(2), Fraction(-3), Fraction(1)))


def test_parse_polynomial_rational_coefficients():
    p = parse_polynomial("1/2x^2 - 3/4")
    assert p == Polynomial((Fraction(-3, 4), Fraction(0), Fraction(1, 2)))


def test_parse_polynomial_constants_and_signs():
    assert parse_polynomial("-x+5") == Polynomial((Fraction(5), Fraction(-1)))
    assert parse_polynomial("7") == Polynomial((Fraction(7),))
    assert parse_polynomial("x") == Polynomial((Fraction(0), Fraction(1)))


def test_parse_polynomial_merges_like_terms():
    assert parse_polynomial("x^2+x^2") == Polynomial(
        (Fraction(0), Fraction(0), Fraction(2)))


def test_parse_polynomial_rejects_garbage():
    for bad in ("", "x**2", "2*x", "x^", "x 2 x"):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial(bad)


def test_chain_linear_json():
    proc = run_cli("chain", "--grid", "linear", "--n", "2")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "chain"
    assert doc["payload"]["b"] == ["1", "1", "1"]
    assert doc["payload"]["u"] == ["1/3", "2/3"]
    assert doc["payload"]["dual_weights"] == ["1/3", "1/3", "1/3"]


def test_chain_exponential_json():
    proc = run_cli("chain", "--grid", "exp:q=1/2", "--n", "1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["payload"]["b"] == ["3/2", "3/2"]
    assert doc["payload"]["u"] == ["1/4"]


def test_chain_trig_csv():
    proc = run_cli("--format", "csv", "chain", "--grid", "trig1", "--n", "2")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "field,index,value"
    assert "u,0,1/4" in lines
    assert "u,1,1/2" in lines


def test_chain_parse_error_exit_2():
    proc = run_cli("chain", "--grid", "nope", "--n", "2")
    assert proc.returncode == 2
    assert "error" in proc.stderr


@pytest.mark.parametrize("grid, option", [
    ("quad", "tau"),
    ("linear:tau=3", "tau"),
    ("exp:q=1/2,foo=3", "foo"),
])
def test_chain_bad_grid_option_exit_2(grid, option):
    proc = run_cli("chain", "--grid", grid, "--n", "2")
    assert proc.returncode == 2
    assert option in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("precision, n", [("64", "80"), ("128", "120")])
def test_chain_trig_weights_at_low_precision(precision, n):
    proc = run_cli("--precision", precision, "chain", "--grid", "trig1",
                   "--n", n)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)["payload"]
    for key in ("primal_weights", "dual_weights"):
        assert len(payload[key]) == int(n) + 1
        assert all(w["precision_bits"] == int(precision)
                   and float(w["value"]) > 0 for w in payload[key])


def test_chain_weight_failure_exit_4(monkeypatch, capsys):
    def negative_first_weight(chain, xs):
        return SpectralData(tuple(xs),
                            (Fraction(-1),) + (Fraction(1),) * (len(xs) - 1))

    monkeypatch.setattr(cli, "primal_weights", negative_first_weight)
    assert cli.main(["chain", "--grid", "linear", "--n", "3"]) == 4
    err = capsys.readouterr().err
    assert "grid linear, N=3" in err
    assert "at node 0" in err
    assert "Traceback" not in err


def test_chain_closed_output_pipe_ends_quietly():
    # the reader is gone before the first write, as in `sturmion ... | head`
    proc = subprocess.Popen(
        [sys.executable, "-m", "sturmion.cli", "chain", "--grid", "linear",
         "--n", "100"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == ""


def test_chain_degenerate_grid_exit_3():
    # x_s = (1/2)^s decreases: distinct nodes, listed sorted
    proc = run_cli("chain", "--grid", "aw:q=1/2,c1=1,c2=0,c0=0", "--n", "3")
    assert proc.returncode == 0
    nodes = json.loads(proc.stdout)["payload"]["nodes"]
    assert nodes == ["1/8", "1/4", "1/2", "1"]
    # x_s = 2^s + 2^(1-s): 3, 3, 9/2, 33/4 repeats the node 3
    proc = run_cli("chain", "--grid", "aw:q=2,c1=1,c2=2,c0=0", "--n", "3")
    assert proc.returncode == 3
    assert "grid node 3 is repeated" in proc.stderr


def test_chain_bannai_ito_nodes_sorted():
    # x_s = (-1)^s (4s - 3) alternates: -3, -1, 5, -9, 13, -17
    proc = run_cli("chain", "--grid", "bi:c1=4,c2=-3,c0=0", "--n", "5")
    assert proc.returncode == 0
    nodes = json.loads(proc.stdout)["payload"]["nodes"]
    assert nodes == ["-17", "-9", "-3", "-1", "5", "13"]


def test_chain_bannai_ito_repeated_node_exit_3():
    # x_s = (-1)^s (2s - 3): -3, 1, 1, -3, 5
    proc = run_cli("chain", "--grid", "bi:c1=2,c2=-3,c0=0", "--n", "4")
    assert proc.returncode == 3
    assert "-3" in proc.stderr


def test_chain_prints_rationals_past_the_int_digit_limit(capsys):
    import os
    import re
    from sturmion import cli
    argv = ("chain", "--grid", "exp:q=1/2", "--n", "50")
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640")
    proc = run_cli(*argv, env=env)
    assert proc.returncode == 0, proc.stderr
    assert max(len(d) for d in re.findall(r"\d+", proc.stdout)) > 640
    assert cli.main(list(argv)) == 0
    assert proc.stdout == capsys.readouterr().out


def test_count_examples():
    proc = run_cli("count", "--poly", "x^3-3x^2+2x", "--lo", "1/2",
                   "--hi", "5/2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["count"] == 2
    proc = run_cli("count", "--poly", "x^3-3x^2+2x", "--lo", "-1", "--hi", "3")
    assert json.loads(proc.stdout)["payload"]["count"] == 3


def test_count_root_at_left_endpoint_excluded():
    proc = run_cli("count", "--poly", "x^3-3x^2+2x", "--lo", "0", "--hi", "3")
    assert json.loads(proc.stdout)["payload"]["count"] == 2


def test_count_complex_roots_not_counted():
    proc = run_cli("count", "--poly", "x^2+1", "--lo", "-1", "--hi", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["count"] == 0


@pytest.mark.parametrize("poly, lo, hi, count", [
    ("x^3+x", "-1", "1", 1),          # one real root, two complex
    ("x^3-2x^2+x", "-1", "2", 2),     # the root 1 is double
    ("x^4-1", "-2", "2", 2),
    ("x^2", "-1", "1", 1),
    ("x^2", "0", "1", 0),             # the double root sits on lo
    ("x^3-2x^2+x", "0", "1", 1),      # the double root sits on hi
])
def test_count_distinct_real_roots(capsys, poly, lo, hi, count):
    assert cli.main(["count", "--poly", poly, "--lo", lo, "--hi", hi]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["count"] == count


def test_count_bad_interval_exit_2():
    proc = run_cli("count", "--poly", "x", "--lo", "2", "--hi", "1")
    assert proc.returncode == 2


def test_verify_minimal():
    proc = run_cli("verify", "--nmax", "1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["payload"]) == 7
    assert all(r["status"] == "exact_match" for r in doc["payload"])


def test_verify_payload_does_not_depend_on_precision(capsys):
    payloads = []
    for bits in ("64", "128", "256", "512"):
        assert cli.main(["--precision", bits, "verify", "--nmax", "4",
                         "--q", "1/2"]) == 0
        payloads.append(json.loads(capsys.readouterr().out)["payload"])
    assert all(p == payloads[0] for p in payloads)


@pytest.mark.parametrize("precision, nmax", [("128", "4"), ("64", "3")])
def test_verify_below_256_bits_exit_0(precision, nmax):
    proc = run_cli("--precision", precision, "verify", "--nmax", nmax)
    assert proc.returncode == 0
    assert "mismatch" not in proc.stdout


def test_verify_flags_known_discrepancy():
    proc = run_cli("verify", "--nmax", "2", "--q", "1/2")
    assert proc.returncode == 0
    assert "known-discrepancy" in proc.stdout
    assert "655/192" in proc.stdout


def test_verify_round_trips_through_json():
    a = run_cli("verify", "--nmax", "2").stdout
    b = run_cli("verify", "--nmax", "2").stdout
    assert a == b
    json.loads(a)


def test_precision_env_override(monkeypatch):
    import os
    env = dict(os.environ, STURMION_PRECISION="128")
    proc = run_cli("chain", "--grid", "linear", "--n", "1", env=env)
    doc = json.loads(proc.stdout)
    assert doc["inputs"]["precision"] == 128


@pytest.mark.parametrize("argv", [
    ("count", "--poly", "x", "--lo", "-1", "--hi", "1"),
    ("verify", "--nmax", "1"),
])
def test_csv_only_for_chain_exit_2(argv):
    proc = run_cli("--format", "csv", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--format csv is only for chain" in proc.stderr


@pytest.mark.parametrize("argv, quoted", [
    (("count", "--poly", "x", "--lo", "1/0", "--hi", "1"), "'1/0'"),
    (("count", "--poly", "x", "--lo", "0", "--hi", "1/0"), "'1/0'"),
    (("verify", "--q", "1/0"), "'1/0'"),
    (("chain", "--grid", "aw:q=0,c1=1,c2=0,c0=0", "--n", "3"), "q != 0, got 0"),
])
def test_parse_error_names_the_value(argv, quoted):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert quoted in proc.stderr


@pytest.mark.parametrize("argv, code, expected", [
    (("count", "--poly", "x^2-1/4", "--lo", "-1/2", "--hi", "1"), 0,
     '"count": 1'),
    (("count", "--poly", "x^2-1/4", "--lo", "-1", "--hi", "-1/2"), 0,
     '"count": 1'),
    (("verify", "--q", "-1/2"), 2, "needs 0 < q < 1, got -1/2"),
    (("count", "--poly", "-x^2+1", "--lo", "-2", "--hi", "2"), 0,
     '"count": 2'),
])
def test_negative_rational_is_a_value(argv, code, expected):
    proc = run_cli(*argv)
    assert proc.returncode == code, proc.stderr
    assert expected in proc.stdout + proc.stderr


@pytest.mark.parametrize("argv, env_bits", [
    (("--precision", "10", "verify", "--nmax", "1"), None),
    (("--precision", "10", "count", "--poly", "x", "--lo", "-1", "--hi", "1"),
     None),
    (("--precision", "10", "chain", "--grid", "linear", "--n", "3"), None),
    (("chain", "--grid", "linear", "--n", "3"), "10"),
])
def test_precision_below_minimum_exit_2_on_every_command(argv, env_bits):
    import os
    env = dict(os.environ)
    if env_bits is not None:
        env["STURMION_PRECISION"] = env_bits
    proc = run_cli(*argv, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: precision must be >= 64 bits, got 10\n"


def test_precision_env_invalid_exit_2():
    import os
    env = dict(os.environ, STURMION_PRECISION="abc")
    proc = run_cli("chain", "--grid", "trig1", "--n", "1", env=env)
    assert proc.returncode == 2
    assert "STURMION_PRECISION" in proc.stderr
