"""The benchmark's independent checker passes the CLI on the first realizations of every workload."""

import importlib
import json
from pathlib import Path

import pytest

import relayalloc
from relayalloc import cli

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# the first realizations of seed 1 that each shape checks
FIRST = {64: 5, 1024: 2}


@pytest.fixture
def run(monkeypatch):
    """``perfbench/run.py``, with ``perfbench/`` first on ``sys.path``: it imports ``checks`` from there."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("run")


@pytest.mark.parametrize("name", WORKLOADS)
def test_checker_passes_the_first_realizations(run, tmp_path, name):
    cfg = run.workload_config(name, 1)
    cfg["realizations"] = FIRST[cfg["num_subcarriers"]]
    path, out = run.write_config(tmp_path / "config.json", cfg), tmp_path / "out"
    assert run.run_cli(cli, path, out) == 0
    config = cli.load_config(path)
    tables = run.synthesize(relayalloc, config)
    assert run.check_pass(relayalloc, config, tables, [None] * len(tables), out)["problems"] == []


def test_checker_flags_every_corruption(run, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    assert run.corruption_selftest(relayalloc) == []
