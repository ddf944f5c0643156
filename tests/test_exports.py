"""Every exported name resolves, and the package ships only its solver modules."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_package_exports_only_its_modules():
    assert relayalloc.__all__ == ["channel", "highpower", "rates", "reference", "solver", "__version__"]
    assert callable(relayalloc.solver.solve)
    assert not hasattr(relayalloc, "solve")


def test_names_the_benchmark_reads_resolve():
    # perfbench/spans.py wraps the functions of TRACED by name, and
    # perfbench/run.py reads the other names; a rename breaks the benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    read = [("cli", "realization_seeds"), ("cli", "PROTO_REFERENCE"), ("cli", "PROTO_HIGHPOWER"), ("cli", "main"),
            ("solver", "user_rates"), ("solver", "ConvergenceError"), ("rates", "MODE_RELAY")]
    missing = [f"{module}.{name}" for module, name in (*spans.TRACED, *read)
               if not hasattr(importlib.import_module(f"relayalloc.{module}"), name)]
    assert spans.TRACED and missing == []
    assert all(callable(getattr(importlib.import_module(f"relayalloc.{m}"), n)) for m, n in spans.TRACED)
