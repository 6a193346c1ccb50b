"""The two LAPACK routines of the banded step, loaded without ``scipy.linalg``.

``pde`` factors each banded step matrix with ``dgbtrf`` and takes each step
as two triangular band solves with ``dtbtrs``, which runs a triangle in one
``dtbsv`` call where ``dgbtrs`` makes one BLAS call per column.  Nothing
else in the package calls scipy, so ``pde`` imports this module at its
first band factorization: a command that builds no step band (``hum`` and the
linear-mode ``shadow`` and ``sweep``, which solve in the cosine basis, and
``weights`` and ``check-hypotheses``) never loads scipy, nor the second copy
of OpenBLAS that scipy links.  ``import scipy.linalg.lapack`` would run the
whole ``scipy.linalg`` package, and with it ``scipy._lib`` and
``numpy.f2py``, which takes longer than most commands compute.  This module
loads only the f2py extension that holds the routines,
``scipy/linalg/_flapack<EXT_SUFFIX>``, under its own module name, so a later
``import scipy.linalg`` reuses it and the routines are the same objects.

That file name is private to scipy.  When the file is absent or fails to load,
as after a rename, the routines come from ``scipy.linalg.lapack``.
"""

from __future__ import annotations

import importlib.util
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path


def _load(path: Path):
    """``dgbtrf, dtbtrs`` from the extension at ``path``.

    Falls back to ``scipy.linalg.lapack`` when ``path`` cannot be loaded.
    """
    try:
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack",
                                                      path)
        if spec is None:
            raise ImportError(f"not an extension module: {path}")
        lib = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(lib)
    except ImportError:
        from scipy.linalg import lapack as lib
    return lib.dgbtrf, lib.dtbtrs


_scipy = importlib.util.find_spec("scipy")
dgbtrf, dtbtrs = _load(Path(
    _scipy.submodule_search_locations[0], "linalg", "_flapack" + EXTENSION_SUFFIXES[0]))
