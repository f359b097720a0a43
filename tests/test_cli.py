"""Command-line interface: parsing, output schema and exit codes."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from sturmion.cli import parse_polynomial, PolynomialSyntaxError
from sturmion.poly import Polynomial


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


def test_chain_weight_failure_exit_4():
    # 64 bits are too few for the trig1 weights at N = 80
    proc = run_cli("--precision", "64", "chain", "--grid", "trig1",
                   "--n", "80")
    assert proc.returncode == 4
    assert "grid trig1, N=80" in proc.stderr
    assert "at node 1" in proc.stderr
    assert "Traceback" not in proc.stderr


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
    # x_s = (1/2)^s is decreasing, so the node list is rejected
    proc = run_cli("chain", "--grid", "aw:q=1/2,c1=1,c2=0,c0=0", "--n", "3")
    assert proc.returncode == 3


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


def test_count_complex_roots_exit_4():
    proc = run_cli("count", "--poly", "x^2+1", "--lo", "-1", "--hi", "1")
    assert proc.returncode == 4


def test_count_bad_interval_exit_2():
    proc = run_cli("count", "--poly", "x", "--lo", "2", "--hi", "1")
    assert proc.returncode == 2


def test_verify_minimal():
    proc = run_cli("verify", "--nmax", "1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["payload"]) == 7
    assert all(r["status"] in ("exact_match", "within_tolerance")
               for r in doc["payload"])


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


def test_precision_env_invalid_exit_2():
    import os
    env = dict(os.environ, STURMION_PRECISION="abc")
    proc = run_cli("chain", "--grid", "trig1", "--n", "1", env=env)
    assert proc.returncode == 2
    assert "STURMION_PRECISION" in proc.stderr
