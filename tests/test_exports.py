"""Every exported name resolves, and the package ships only its solver modules."""

import dataclasses
import importlib
import importlib.util
import inspect
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
    # perfbench/run.py and perfbench/checks.py read the other names and the
    # members below; a rename or a deleted member breaks the benchmark
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

    members = {
        ("solver", "Allocation"): ("wsr", "assignments", "dest", "power", "mode", "status"),
        ("highpower", "HighPowerReport"): ("conditions_met",),
        ("solver", "SubcarrierAssignment"): ("k", "u", "mode", "sum_power", "broadcast_power", "relaying_power",
                                             "relay_indices", "relay_powers"),
        ("rates", "ModeSets"): ("g1",),
        ("solver", "SolverParams"): ("ptot", "weights", "num_destinations"),
        ("cli", "ExperimentConfig"): ("solver_params", "tap_profile", "topology_for", "destination_region",
                                      "noise_watts"),
    }
    missing = []
    for (module, name), attrs in members.items():
        cls = getattr(importlib.import_module(f"relayalloc.{module}"), name)
        # a field without a default is no class attribute: hasattr misses it
        fields = {f.name for f in dataclasses.fields(cls)}
        missing += [f"{name}.{attr}" for attr in attrs if attr not in fields and not hasattr(cls, attr)]
    assert missing == []


# The call shapes of perfbench/run.py and perfbench/spans.py, as (module,
# function, positional count, keywords); spans.py adds ``trace=`` to every
# solve, also to the CLI's, which passes its mode sets.
BENCHMARK_CALLS = (
    ("solver", "solve", 2, ()),
    ("solver", "solve", 2, ("trace",)),
    ("solver", "solve", 3, ("trace",)),
    ("rates", "classify", 2, ()),
    ("reference", "solve_reference", 2, ("weights", "g1_table")),
    ("highpower", "check_conditions", 2, ()),
    ("highpower", "solve_high_power", 2, ("report",)),
    ("solver", "user_rates", 2, ()),
    ("channel", "place_destinations", 3, ()),
    ("channel", "synthesize_realization", 4, ()),
    ("channel", "to_gains", 2, ()),
    ("cli", "realization_seeds", 2, ()),
    ("cli", "load_config", 1, ()),
)


def test_calls_the_benchmark_makes_bind():
    # a renamed parameter, or one that gains or loses a default, breaks the
    # benchmark's calls before any of them runs
    unbound = []
    for module, name, count, keywords in BENCHMARK_CALLS:
        signature = inspect.signature(getattr(importlib.import_module(f"relayalloc.{module}"), name))
        try:
            signature.bind(*range(count), **dict.fromkeys(keywords))
        except TypeError as err:
            unbound.append(f"{module}.{name}: {err}")
    assert unbound == []
