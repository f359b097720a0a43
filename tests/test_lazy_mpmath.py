"""mpmath is imported only when the first floating value is made.

Each test runs in a fresh interpreter, because the import state of this
one is shared by every other test."""

import ast
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from sturmion.scalars import BigFloat, cos_pi, round_scaled, sin_pi
from test_pinned_output import PINNED

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` on the path; its stdout."""
    env = {k: v for k, v in os.environ.items() if k != "STURMION_PRECISION"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


RUN_CLI = """\
import contextlib, hashlib, io, json, sys
before, loaded, new = set(sys.modules), [], []
def mark():
    loaded.append("mpmath" in sys.modules)
    new.append(sorted(set(sys.modules) - before))
import sturmion
mark()
import sturmion.cli
mark()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = sturmion.cli.main(sys.argv[1:])
mark()
print(json.dumps({"code": code, "loaded": loaded, "new": new,
                  "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}))
"""

EXACT = [
    ["chain", "--grid", "linear", "--n", "5"],
    ["chain", "--grid", "exp:q=1/2", "--n", "4"],
    ["chain", "--grid", "quad:tau=1", "--n", "4"],
    ["count", "--poly", "x^3-2x^2+x", "--lo", "-1", "--hi", "2"],
    ["verify", "--nmax", "2"],
]


@pytest.mark.parametrize("argv", EXACT, ids=" ".join)
def test_exact_commands_never_import_mpmath(argv):
    doc = json.loads(fresh(RUN_CLI, *argv))
    assert doc["code"] == 0
    assert doc["loaded"] == [False, False, False]


TRIG = ["chain", "--grid", "trig1", "--n", "12"]


def test_trig_chain_imports_mpmath_and_keeps_its_output():
    code, digest = next((c, d) for a, c, d in PINNED if a == TRIG)
    doc = json.loads(fresh(RUN_CLI, *TRIG))
    assert doc["loaded"] == [False, False, True]
    assert (doc["code"], doc["sha256"]) == (code, digest)


CSV = ["--format", "csv", "chain", "--grid", "trig1", "--n", "2"]


@pytest.mark.parametrize("argv", EXACT + [TRIG, CSV], ids=" ".join)
def test_no_command_imports_dataclasses_or_inspect(argv):
    """The record classes need neither, and only ``--format csv`` needs
    csv: none of the three is new after ``import sturmion``, after ``import
    sturmion.cli`` or after the command, except csv after a csv chain."""
    doc = json.loads(fresh(RUN_CLI, *argv))
    assert doc["code"] == 0
    late = [{"dataclasses", "inspect", "csv"}.intersection(names)
            for names in doc["new"]]
    assert late == [set(), set(), {"csv"} if argv == CSV else set()]


# every entry point that can make the first floating value of a process
FIRST_USES = [
    "BigFloat(Fraction(1, 3), 64)",
    "BigFloat(mpmath.mpf(1) / 3, 64)",
    "BigFloat((0, 3**50, -40, (3**50).bit_length()), 64)",
    "cos_pi(Fraction(1, 3), 64)",
    "sin_pi(Fraction(1, 3), 64)",
    "round_scaled(1, 3, 2, 64)",
]

FIRST_USE = """\
import sys
from fractions import Fraction
from sturmion.scalars import BigFloat, cos_pi, round_scaled, sin_pi
if "mpmath" in sys.argv[1]:
    import mpmath
else:
    assert "mpmath" not in sys.modules
x = eval(sys.argv[1])
print(repr((x._mpf_, x.precision)))
"""


@pytest.mark.parametrize("expr", FIRST_USES)
def test_first_floating_value_from_each_entry_point(expr):
    names = {"BigFloat": BigFloat, "Fraction": Fraction, "mpmath": mpmath,
             "cos_pi": cos_pi, "round_scaled": round_scaled, "sin_pi": sin_pi}
    x = eval(expr, names)
    assert ast.literal_eval(fresh(FIRST_USE, expr)) == (x._mpf_, x.precision)


def test_unpickled_bigfloat_works_in_a_fresh_interpreter(tmp_path):
    path = tmp_path / "x.pickle"
    fresh("import pickle, sys\n"
          "from fractions import Fraction\n"
          "from sturmion.scalars import BigFloat\n"
          "with open(sys.argv[1], 'wb') as f:\n"
          "    pickle.dump(BigFloat(Fraction(1, 3), 128), f)\n", str(path))
    out = fresh("import pickle, sys\n"
                "with open(sys.argv[1], 'rb') as f:\n"
                "    x = pickle.load(f)\n"
                "y = x + x\n"
                "print(repr([y._mpf_, y.precision, x < y, x == x, hash(x),"
                " repr(y)]))\n", str(path))
    x = BigFloat(Fraction(1, 3), 128)
    y = x + x
    assert ast.literal_eval(out) == [y._mpf_, y.precision, True, True,
                                     hash(x), repr(y)]
    with open(path, "rb") as f:
        z = pickle.load(f)
    assert (z._mpf_, z.precision) == (x._mpf_, x.precision)
