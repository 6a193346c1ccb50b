"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import shadowctl
from shadowctl import experiments, hum, pde

SRC = str(Path(shadowctl.__file__).resolve().parents[1])


@pytest.fixture()
def fresh_python():
    """Run Python source in a new interpreter that imports this shadowctl.

    Returns its standard output; a nonzero exit fails the test with its
    standard error.  Start-up imports can only be seen in a fresh process.
    """
    def run(source: str, *argv: str) -> str:
        out = subprocess.run([sys.executable, "-c", source, *argv],
                             env={**os.environ, "PYTHONPATH": SRC},
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        return out.stdout
    return run


@pytest.fixture()
def mode_marches(monkeypatch):
    """The ops type of every per-mode march made while the test runs, by
    whichever module makes it."""
    calls = []
    march = pde._march_in_modes

    def counted(ops, *args):
        calls.append(type(ops).__name__)
        return march(ops, *args)

    for module in (pde, hum, experiments):
        if hasattr(module, "_march_in_modes"):
            monkeypatch.setattr(module, "_march_in_modes", counted)
    return calls
