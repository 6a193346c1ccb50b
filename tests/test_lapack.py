"""The banded step's LAPACK routines come from scipy's extension alone, and
only a command that builds a step band loads it.  The solvers load no
``numpy.polynomial`` module either.

Each import check runs in a fresh interpreter: what a command imports can
only be seen in a process that has imported nothing else.
"""

import json
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest
from scipy.linalg import lapack

from shadowctl import _lapack, pde

# what `import scipy.linalg.lapack` would bring in, and scipy.fft, which the
# cosine basis of the Gramian factor does without; a command that builds a
# step band is expected to load the extension scipy.linalg._flapack, so
# names match exactly
LEFT_OUT = ("scipy.linalg", "scipy._lib", "numpy.f2py", "scipy.sparse", "scipy.fft")

NUMBER_WORDS = ("no", "one", "two", "three", "four", "five", "six")

PRINT_LOADED = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def loaded(stdout: str) -> set[str]:
    """The module names that PRINT_LOADED printed on the last line."""
    return set(json.loads(stdout.splitlines()[-1]))


TINY_CFG = "grid.n_cells = 8\ntime.n_steps = 4\n"

RUN_COMMANDS = """
import sys
from shadowctl.cli import main
cfg, out = sys.argv[1:]
for command in {commands!r}:
    code = main([command, "--config", cfg, "--out", f"{{out}}/{{command}}"])
    assert code == 0, (command, code)
"""


def scipy_modules(modules: set[str]) -> set[str]:
    return {name for name in modules if name.split(".")[0] == "scipy"}


def run_commands(fresh_python, tmp_path, commands) -> set[str]:
    """The modules loaded after running ``commands`` on TINY_CFG in one
    fresh interpreter."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    return loaded(fresh_python(RUN_COMMANDS.format(commands=commands) + PRINT_LOADED,
                               str(cfg), str(tmp_path / "out")))


def test_cli_import_loads_no_scipy(fresh_python):
    modules = loaded(fresh_python("import shadowctl.cli; " + PRINT_LOADED))
    assert scipy_modules(modules) == set()


@pytest.mark.parametrize("commands", [["hum"],
                                      ["shadow", "sweep", "weights",
                                       "check-hypotheses"]])
def test_commands_import_no_scipy_later(fresh_python, tmp_path, commands):
    # TINY_CFG is linear mode: every field is constant and solved in the
    # cosine basis, so these commands build no step band
    assert scipy_modules(run_commands(fresh_python, tmp_path, commands)) == set()


@pytest.mark.parametrize("command", ["semilinear", "selftest"])
def test_banded_commands_load_only_the_lapack_extension(fresh_python, tmp_path,
                                                        command):
    modules = run_commands(fresh_python, tmp_path, [command])
    assert "scipy.linalg._flapack" in modules
    assert modules.isdisjoint(LEFT_OUT)


@pytest.mark.parametrize("command", ["semilinear", "selftest"])
def test_solver_commands_load_no_numpy_polynomial(fresh_python, tmp_path, command):
    # the ray quadrature builds its Gauss-Legendre rule with eigh; the
    # `weights` command still loads numpy.polynomial, for theory's polyval
    modules = run_commands(fresh_python, tmp_path, [command])
    assert {name for name in modules if name.startswith("numpy.polynomial")} == set()


@pytest.mark.parametrize("imports", ["shadowctl._lapack, scipy.linalg",
                                     "scipy.linalg, shadowctl._lapack"])
def test_routines_are_scipy_linalg_lapack_objects(fresh_python, imports):
    out = fresh_python(
        f"import sys, {imports}\n"
        "from scipy.linalg import lapack\n"
        "from shadowctl import _lapack\n"
        "print([_lapack.dgbtrf is lapack.dgbtrf,\n"
        "       _lapack.dtbtrs is lapack.dtbtrs,\n"
        "       sys.modules['scipy.linalg._flapack'] is lapack._flapack])")
    assert out.strip() == "[True, True, True]"


@pytest.mark.parametrize("name, content", [
    ("_flapack" + EXTENSION_SUFFIXES[0], None),
    ("_flapack" + EXTENSION_SUFFIXES[0], b"not a shared object\n"),
    ("_flapack.txt", b"not an extension module\n"),
], ids=["missing", "not-a-shared-object", "no-extension-suffix"])
def test_unloadable_extension_falls_back_to_scipy_linalg(tmp_path, name,
                                                         content):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    routines = _lapack._load(path)
    expected = (lapack.dgbtrf, lapack.dtbtrs)
    assert all(a is b for a, b in zip(routines, expected, strict=True))


def test_readme_install_names_every_routine(tmp_path):
    # the Install paragraph counts and names the routines the banded step loads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    install = readme.split("\n## Install\n", 1)[1].split("\n## ", 1)[0]
    paragraph = " ".join(install.split("```", 1)[0].split())
    # an f2py routine's __name__ reads "function dgbtrf"
    names = [r.__name__.split()[-1] for r in _lapack._load(tmp_path / "missing")]
    assert f"use {NUMBER_WORDS[len(names)]} of scipy's LAPACK routines" in paragraph
    assert all(f"`{name}`" in paragraph for name in names), (names, paragraph)


def test_every_loaded_routine_is_imported_by_a_solver(tmp_path):
    # a routine that the band LU does not import is a dead load
    loaded = {name: value for name, value in vars(_lapack).items()
              if type(value).__name__ == "fortran"}
    assert set(loaded) == {r.__name__.split()[-1]
                           for r in _lapack._load(tmp_path / "missing")}
    imported = pde._band_routines()
    assert len(imported) == len(loaded)
    assert all(any(r is routine for r in imported) for routine in loaded.values())
