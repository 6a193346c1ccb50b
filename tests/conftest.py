"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import shadowctl

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
