"""Make ``shadowctl`` importable for the test suite without an install.

This checkout's ``src`` goes on the import path only when no other
``shadowctl`` is importable, so a checkout named on ``PYTHONPATH``, or an
installed package, is the one the suite tests.
"""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("shadowctl") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))
