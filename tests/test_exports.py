"""Every exported name resolves, and the package ships only its solver modules."""

import importlib
import pkgutil

import pytest

import relayalloc

MODULES = sorted(m.name for m in pkgutil.iter_modules(relayalloc.__path__))


def test_package_modules():
    # the brute force verifiers live with the tests, not in the package
    assert MODULES == ["channel", "cli", "highpower", "rates", "reference", "solver"]
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("relayalloc.oracle")


@pytest.mark.parametrize("name", [None, *MODULES])
def test_every_exported_name_resolves(name):
    module = relayalloc if name is None else importlib.import_module(f"relayalloc.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)
