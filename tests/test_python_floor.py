"""The exact commands run on every Python that pyproject.toml admits
(requires-python >= 3.10) with nothing but ``src`` on the path: no mpmath,
no site-packages.  Each interpreter is looked up on PATH and skipped if it
is missing or does not run."""

import hashlib
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from test_pinned_output import COUNT_14, PINNED

SRC = Path(__file__).resolve().parents[1] / "src"
VERSIONS = ["3.10", "3.12", "3.13"]
EXACT = [["verify", "--nmax", "4"],
         ["chain", "--grid", "quad:tau=2", "--n", "20"],
         ["chain", "--grid", "exp:q=2/3", "--n", "12"],
         ["chain", "--grid", "exp:q=1/2", "--n", "40"],
         ["chain", "--grid", "linear", "--n", "150"],
         ["count", "--poly", COUNT_14, "--lo=-2", "--hi", "2"]]


def run(version: str, *args: str) -> subprocess.CompletedProcess:
    """``python<version> -S *args`` with only ``src`` on the path; a pyenv
    shim runs the installed ``version`` that PYENV_VERSION selects."""
    exe = shutil.which(f"python{version}")
    if exe is None:
        pytest.skip(f"python{version} is not on PATH")
    env = {k: v for k, v in os.environ.items() if k != "STURMION_PRECISION"}
    env.update(PYTHONPATH=str(SRC), PYENV_VERSION=version)
    return subprocess.run([exe, "-S", *args], env=env, capture_output=True,
                          timeout=300)


@pytest.mark.parametrize("version", VERSIONS)
def test_exact_commands_keep_their_pins(version):
    probe = run(version, "-c", "import sys; print(*sys.version_info[:2], "
                "sep='.')")
    if probe.returncode != 0 or probe.stdout.decode().strip() != version:
        pytest.skip(f"python{version} does not run")
    for argv in EXACT:
        code, digest = next((c, d) for a, c, d in PINNED if a == argv)
        done = run(version, "-m", "sturmion.cli", *argv)
        assert done.returncode == code, (argv, done.stderr.decode())
        assert hashlib.sha256(done.stdout).hexdigest() == digest, argv
