"""The project's pytest settings must report a failing property test, and
test the ``shadowctl`` that ``PYTHONPATH`` names.

``filterwarnings = ["error"]`` turns every warning into an error, including
those raised by the test tooling itself while it reports a failure.  The root
``conftest.py`` falls back on the checkout's own ``src`` only when no other
``shadowctl`` is importable.
"""

from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

ROOT_CONFTEST = Path(__file__).resolve().parents[1] / "conftest.py"


def test_failing_property_is_reported_not_internal_error(pytester, pytestconfig):
    entries = "".join(f"    {entry!r},\n"
                      for entry in pytestconfig.getini("filterwarnings"))
    pytester.makepyprojecttoml(
        f"[tool.pytest.ini_options]\nfilterwarnings = [\n{entries}]\n")
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_always_fails(x):
            assert x != x
        """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1)


@pytest.mark.parametrize("pythonpath", [True, False], ids=["named", "unset"])
def test_a_pythonpath_checkout_wins(pytester, monkeypatch, pythonpath):
    # a copy of this checkout's layout whose src holds a marked shadowctl,
    # and a second checkout that PYTHONPATH may name
    pytester.makeconftest(ROOT_CONFTEST.read_text())
    for checkout, mark in ((pytester.path, "this"), (pytester.path / "other", "other")):
        package = checkout / "src" / "shadowctl"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(f"CHECKOUT = {mark!r}\n")
    want = "other" if pythonpath else "this"
    pytester.makepyfile(f"""
        import shadowctl

        def test_checkout():
            assert shadowctl.CHECKOUT == {want!r}
        """)
    if pythonpath:
        monkeypatch.setenv("PYTHONPATH", str(pytester.path / "other" / "src"))
    else:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(passed=1)
