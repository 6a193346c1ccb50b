"""The project's pytest settings must report a failing property test.

``filterwarnings = ["error"]`` turns every warning into an error, including
those raised by the test tooling itself while it reports a failure.
"""

pytest_plugins = ["pytester"]


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
