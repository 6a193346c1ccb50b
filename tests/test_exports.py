"""Every exported name resolves: the package's ``__all__`` and each
submodule's."""

import importlib
import pkgutil

import pytest

import shadowctl

_MODULES = ["shadowctl"] + sorted(
    f"shadowctl.{m.name}" for m in pkgutil.iter_modules(shadowctl.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
