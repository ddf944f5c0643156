"""Config ingestion, experiment runner determinism, and output emission."""

import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from test_golden import meet_contract, read_summary, run_config

import relayalloc
from relayalloc import channel, cli, rates
from relayalloc.cli import (
    ConfigError,
    ExperimentConfig,
    emit,
    load_config,
    main,
    realization_seeds,
    run_monte_carlo,
)

GOOD_YAML = """\
num_subcarriers: 8
num_destinations: 2
ptot_dbw: 20.0
noise_dbw: -30.0
seed: 7
realizations: 3
protocols: [proposed, reference]
geometry:
  relay_xy: [[-5.0, -5.0], [5.0, -5.0]]
  destination_region: {x_min: -10.0, x_max: 10.0, y_min: -30.0, y_max: -10.0}
"""


def _write(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_config_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, "num_subcarriers: 16\nnum_destinations: 4\nptot_dbw: 35\nnoise_dbw: -30\n"))
    assert cfg.protocols == ("proposed",)
    np.testing.assert_allclose(cfg.weights, [0.25] * 4)
    assert len(cfg.relay_xy) == 4  # default four-relay line
    assert cfg.destination_region is not None
    assert cfg.seed == 0 and cfg.realizations == 1
    # channel.TapProfile holds the tap defaults
    assert (cfg.taps.num_taps, cfg.taps.decay, cfg.taps.shadowing_db_std) == (6, 3.0, 0.0)
    assert cfg.tap_profile() is cfg.taps
    assert math.isclose(cfg.ptot_watts, 10.0 ** 3.5, rel_tol=1e-12)
    assert math.isclose(cfg.noise_watts, 1e-3, rel_tol=1e-12)


def test_load_config_json_works(tmp_path):
    raw = {
        "num_subcarriers": 8, "num_destinations": 2,
        "ptot_dbw": 20.0, "noise_dbw": -30.0,
        "geometry": {"destination_xy": [[0.0, -15.0], [2.0, -20.0]]},
    }
    cfg = load_config(_write(tmp_path, json.dumps(raw), "config.json"))
    assert cfg.destination_xy == ((0.0, -15.0), (2.0, -20.0))
    assert cfg.destination_region is None


def test_load_config_collects_errors_by_field(tmp_path):
    text = """\
num_destinations: 2
ptot_dbw: twenty
weights: [0.5, 0.4, 0.1]
protocols: [proposed, bogus]
taps: {num_taps: 9}
"""
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, text))
    msg = str(err.value)
    for field in ("num_subcarriers", "ptot_dbw", "weights", "protocols"):
        assert field in msg


def test_load_config_rejects_reference_with_unequal_weights(tmp_path):
    text = GOOD_YAML + "weights: [0.7, 0.3]\n"
    with pytest.raises(ConfigError, match="equal weights"):
        load_config(_write(tmp_path, text))


def test_load_config_rejects_too_few_subcarriers(tmp_path):
    text = GOOD_YAML.replace("num_subcarriers: 8", "num_subcarriers: 4")
    with pytest.raises(ConfigError, match="num_subcarriers"):
        load_config(_write(tmp_path, text))


def test_db_round_trip():
    for x in (1e-3, 0.5, 3.0, 3162.2776601683795):
        db = 10.0 * math.log10(x)
        assert math.isclose(cli._db_to_watts(db), x, rel_tol=1e-12)


def test_realization_seeds_are_stable_and_distinct():
    a = realization_seeds(7, 0)
    assert a == realization_seeds(7, 0)
    assert len(a) == 2 and all(isinstance(s, int) and s >= 0 for s in a)
    assert realization_seeds(7, 1) != a
    assert realization_seeds(8, 0) != a


def test_monte_carlo_is_deterministic(tmp_path):
    cfg = load_config(_write(tmp_path, GOOD_YAML))
    r1 = run_monte_carlo(cfg)
    r2 = run_monte_carlo(cfg)
    np.testing.assert_array_equal(r1.wsr["proposed"], r2.wsr["proposed"])
    np.testing.assert_array_equal(r1.user_rates["reference"], r2.user_rates["reference"])
    assert np.all(np.isfinite(r1.wsr["proposed"]))


def test_worker_count_does_not_change_results(tmp_path):
    cfg = load_config(_write(tmp_path, GOOD_YAML))
    parallel = ExperimentConfig(**{**cfg.__dict__, "workers": 2})
    r1 = run_monte_carlo(cfg)
    r2 = run_monte_carlo(parallel)
    np.testing.assert_array_equal(r1.wsr["proposed"], r2.wsr["proposed"])
    np.testing.assert_array_equal(r1.wsr["reference"], r2.wsr["reference"])


class _SerialPool:
    """Stand-in for ProcessPoolExecutor: records max_workers and maps in process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("workers, realizations, cpus, started", [
    (5000, 2, 64, [2]),   # never more workers than realizations
    (8, 10, 4, [4]),      # nor than CPUs
    (3, 10, 4, [3]),
    (8, 10, None, []),    # an unknown CPU count runs serially
    (4, 1, 4, []),        # so does a single realization
])
def test_worker_count_is_capped(tmp_path, monkeypatch, workers, realizations, cpus, started):
    sizes = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda max_workers: _SerialPool(sizes, max_workers))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    cfg = load_config(_write(tmp_path, _with_line(f"realizations: {realizations}")))
    serial = run_monte_carlo(cfg)
    report = run_monte_carlo(ExperimentConfig(**{**cfg.__dict__, "workers": workers}))
    assert sizes == started
    np.testing.assert_array_equal(report.wsr["proposed"], serial.wsr["proposed"])
    np.testing.assert_array_equal(report.wsr["reference"], serial.wsr["reference"])


def test_dominance_in_reports(tmp_path):
    cfg = load_config(_write(tmp_path, GOOD_YAML))
    report = run_monte_carlo(cfg)
    assert np.all(report.wsr["proposed"] >= report.wsr["reference"] - 1e-9)
    # aggregates are plain means
    assert math.isclose(
        report.average_wsr["proposed"], float(report.wsr["proposed"].mean()), rel_tol=1e-12
    )


def test_cdf_is_sorted_and_normalized(tmp_path):
    cfg = load_config(_write(tmp_path, GOOD_YAML))
    report = run_monte_carlo(cfg)
    cdf = report.cdf_user1("proposed")
    assert np.all(np.diff(cdf[:, 0]) >= 0.0)
    assert np.all(np.diff(cdf[:, 1]) > 0.0)
    assert math.isclose(cdf[-1, 1], 1.0, rel_tol=1e-12)


def test_emit_writes_expected_files(tmp_path):
    cfg = load_config(_write(tmp_path, GOOD_YAML))
    single = ExperimentConfig(**{**cfg.__dict__, "realizations": 1})
    report = run_monte_carlo(single)
    assert set(report.assignments) == {"proposed", "reference"}
    assert report.gain_tables["g_su"].shape == (8, 2)
    out = tmp_path / "out"
    paths = emit(report, out)
    names = {p.name for p in paths}
    assert names == {
        "wsr_realizations.csv", "rates_proposed.csv", "cdf_user1_proposed.csv",
        "rates_reference.csv", "cdf_user1_reference.csv",
        "alloc_proposed.csv", "alloc_reference.csv", "gains_step1.csv", "summary.json",
    }
    alloc_rows = (out / "alloc_proposed.csv").read_text().splitlines()
    assert alloc_rows[0] == "k,u_k,mode,P_k,P_source,P_relay_1,P_relay_2"
    first = alloc_rows[1].split(",")
    assert first[0] == "1" and first[1] in ("1", "2")  # 1-based indices
    summary = read_summary(out)
    assert summary["config"]["num_relays"] == 2
    assert "proposed" in summary["average_wsr"]


def test_emit_is_byte_identical(tmp_path):
    cfg = load_config(_write(tmp_path, GOOD_YAML))
    report = run_monte_carlo(cfg)
    a, b = tmp_path / "a", tmp_path / "b"
    paths_a = emit(report, a)
    paths_b = emit(report, b)
    for pa, pb in zip(paths_a, paths_b):
        assert pa.name == pb.name
        assert pa.read_bytes() == pb.read_bytes()


def test_emit_skips_unselected_protocols(tmp_path):
    cfg = load_config(_write(tmp_path, GOOD_YAML.replace(
        "protocols: [proposed, reference]", "protocols: [proposed]"
    )))
    report = run_monte_carlo(cfg)
    paths = emit(report, tmp_path / "out")
    names = {p.name for p in paths}
    assert "rates_reference.csv" not in names
    header = (tmp_path / "out" / "wsr_realizations.csv").read_text().splitlines()[0]
    assert header == "realization,wsr_proposed"


def test_main_exit_codes(tmp_path, capsys):
    assert main([str(tmp_path / "missing.yaml")]) == 2

    bad = _write(tmp_path, "num_destinations: 2\n", "bad.yaml")
    assert main([str(bad)]) == 2
    assert "num_subcarriers" in capsys.readouterr().err

    # a file that is not UTF-8 once ended in a UnicodeDecodeError traceback
    undecodable = tmp_path / "undecodable.yaml"
    undecodable.write_bytes(b"\xff\xfe\x00bad")
    assert main([str(undecodable), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: config is not UTF-8 text")
    assert not (tmp_path / "out").exists()

    # a destination on top of the source once passed validation and failed at run time
    broken = _write(tmp_path, """\
num_subcarriers: 8
num_destinations: 1
ptot_dbw: 20.0
noise_dbw: -30.0
geometry:
  destination_xy: [[0.0, 0.0]]
""", "broken.yaml")
    assert main([str(broken), "-o", str(tmp_path / "out")]) == 2
    assert "geometry: coincident node positions on link source->dest0" in capsys.readouterr().err
    # so did a relay on top of the source, with randomly placed destinations
    on_source = _write(tmp_path, _with_line("geometry: {relay_xy: [[0.0, 0.0], [5.0, -5.0]]}"), "on_source.yaml")
    assert main([str(on_source), "-o", str(tmp_path / "out")]) == 2
    assert "geometry: coincident node positions on link source->relay0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    # a YAML syntax error, and a file whose top level is not a mapping
    for text, message in (("num_subcarriers: [8\n", "config parse error"),
                          ("- 8\n- 2\n", "expected a mapping at the top level")):
        assert main([str(_write(tmp_path, text, "unparsed.yaml")), "-o", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    good = _write(tmp_path, GOOD_YAML)
    code = main([str(good), "-o", str(tmp_path / "cli_out"), "-s", "11"])
    assert code == 0
    out = capsys.readouterr().out
    assert "average WSR" in out
    assert (tmp_path / "cli_out" / "summary.json").exists()


def _with_line(line):
    """GOOD_YAML with the top level key of ``line`` (and its indented block) replaced by it."""
    key, kept, skipping = line.split(":")[0] + ":", [], False
    for row in GOOD_YAML.splitlines(keepends=True):
        if not row.startswith(" "):
            skipping = row.startswith(key)
        if not skipping:
            kept.append(row)
    return "".join(kept) + line + "\n"


@pytest.mark.parametrize("field, line", [
    ("ptot_dbw", "ptot_dbw: .inf"),
    ("noise_dbw", "noise_dbw: .nan"),
    # finite in dB, but overflowing or underflowing in watts
    ("ptot_dbw", "ptot_dbw: 4000"),
    ("noise_dbw", "noise_dbw: 4000"),
    ("noise_dbw", "noise_dbw: -4000"),
    # subnormal in watts: 1e-320 W would overflow the gains it divides
    ("noise_dbw", "noise_dbw: -3200"),
    ("ptot_dbw", "ptot_dbw: -3200"),
    # coordinates and tap profiles that only fail inside a run unless checked at load
    ("geometry.source_xy", "geometry: {source_xy: 5}"),
    ("geometry.source_xy", "geometry: {source_xy: [1, 2, 3]}"),
    ("geometry.relay_xy", "geometry: {relay_xy: [[-5.0, -5.0], [.nan, -5.0]]}"),
    ("geometry.destination_xy", "geometry: {destination_xy: [[.inf, -20], [0, -20]]}"),
    ("geometry.destination_region", "geometry: {destination_region: {x_min: -.inf, x_max: 10, y_min: -30, y_max: -10}}"),
    ("decay", "taps: {decay: -1.0}"),
    ("shadowing_db_std", "taps: {shadowing_db_std: -2.0}"),
    # YAML booleans, which float() reads as 1 (true, yes) or 0 (false, no)
    ("ptot_dbw", "ptot_dbw: true"),
    ("noise_dbw", "noise_dbw: no"),
    ("decay", "taps: {decay: yes}"),
    ("shadowing_db_std", "taps: {shadowing_db_std: false}"),
    ("weights", "weights: [true, true]"),
    ("x_min", "geometry: {destination_region: {x_min: false, x_max: 10, y_min: -30, y_max: -10}}"),
    ("geometry.relay_xy", "geometry: {relay_xy: [[true, -5.0], [5.0, -5.0]]}"),
    # values of the wrong kind; equal weights, so that the reference
    # protocol's equal-weights message cannot stand in for theirs
    ("num_subcarriers", "num_subcarriers: 6.5"),
    ("weights", "weights: [a, b]"),
    ("weights", "weights: [0.0, 0.0]"),
    ("weights", "weights: [.inf, .inf]"),
    ("geometry", "geometry: 3"),
    ("taps", "taps: [1, 2]"),
    ("output_dir", "output_dir: 5"),
    ("geometry.relay_xy", "geometry: {relay_xy: [[a, 1.0]]}"),
    # messages that once named no field, or the wrong count or section
    ("weights: expected a list of numbers, got [[0.5, 0.5]]", "weights: [[0.5, 0.5]]"),
    ("taps.num_taps: must be >= 1", "taps: {num_taps: 0}"),
    ("taps.decay: expected a number, got 'abc'", "taps: {decay: abc}"),
    ("geometry.destination_region: expected a mapping", "geometry: {destination_region: 5}"),
    ("geometry.destination_region.x_min: expected a number, got 'a'",
     "geometry: {destination_region: {x_min: a, x_max: 10, y_min: -30, y_max: -10}}"),
    ("geometry.destination_region.y_max: required", "geometry: {destination_region: {x_min: -10, x_max: 10, y_min: -30}}"),
    ("geometry.destination_region: region must have positive area",
     "geometry: {destination_region: {x_min: 10, x_max: 10, y_min: -30, y_max: -10}}"),
    # an empty output_dir once wrote every file into the current directory
    ("output_dir: expected a nonempty string", 'output_dir: ""'),
    # a string is never a number, as YAML booleans are not: "20" was once 20 dBW
    ("ptot_dbw: expected a number, got '20'", 'ptot_dbw: "20"'),
    ("weights: expected a list of numbers", 'weights: ["0.5", "0.5"]'),
    ("geometry.relay_xy: expected a list of [x, y] pairs", 'geometry: {relay_xy: [["-5.0", -5.0], [5.0, -5.0]]}'),
    # an integer past the float range once ended in an OverflowError traceback
    pytest.param("ptot_dbw: expected a number", f"ptot_dbw: 1{'0' * 400}", id="ptot_dbw-past_float_range"),
    pytest.param("weights: expected a list of numbers", f"weights: [1{'0' * 400}, 1]", id="weights-past_float_range"),
])
def test_main_rejects_bad_numbers_as_config_errors(tmp_path, capsys, field, line):
    assert main([str(_write(tmp_path, _with_line(line))), "-o", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, line", [
    # misspelled keys once fell back to their defaults: one realization of proposed
    ("realisations", "realisations: 50"),
    ("protcols", "protcols: [reference]"),
    # the price search takes no settings, so an older config's mapping is unknown
    ("solver", "solver: {epsilon: 1.0e-6, highpower_factor: 100.0}"),
    ("geometry.relays_xy", "geometry: {relays_xy: [[-5.0, -5.0], [5.0, -5.0]]}"),
    ("geometry.destination_region.y_mx",
     "geometry: {destination_region: {x_min: -10, x_max: 10, y_min: -30, y_max: -10, y_mx: 0}}"),
    ("taps.num_tap", "taps: {num_tap: 1}"),
], ids=["realisations", "protcols", "solver", "geometry", "destination_region", "taps"])
def test_main_rejects_unknown_keys(tmp_path, capsys, field, line):
    assert main([str(_write(tmp_path, _with_line(line))), "-o", str(tmp_path / "out")]) == 2
    assert f"{field}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_exit_code_contract(tmp_path, capsys):
    good = _write(tmp_path, GOOD_YAML)
    # an output directory that is an existing file fails at run time
    taken = _write(tmp_path, "", "taken")
    assert main([str(good), "-o", str(taken)]) == 1
    assert "error:" in capsys.readouterr().err
    # noise so strong that every gain is too small to invert: no usable
    # link, and every protocol still runs
    dead = GOOD_YAML.replace("noise_dbw: -30.0", "noise_dbw: 3070.0").replace(
        "protocols: [proposed, reference]", "protocols: [proposed, reference, highpower]")
    assert main([str(_write(tmp_path, dead)), "-o", str(tmp_path / "dead")]) == 0
    summary = read_summary(tmp_path / "dead")
    # the budget spread evenly still carries subnormal rates, and both
    # protocols report them
    average = summary["average_wsr"]
    assert 0.0 < average["reference"] * (1.0 - 1e-12) <= average["proposed"]
    assert summary["status_counts"]["highpower"] == {"conditions_unmet": 3}
    # a budget of 1e300 W: the product of the bracket edges underflows
    huge = GOOD_YAML.replace("ptot_dbw: 20.0", "ptot_dbw: 3000.0")
    assert main([str(_write(tmp_path, huge)), "-o", str(tmp_path / "huge")]) == 0
    summary = read_summary(tmp_path / "huge")
    assert summary["average_wsr"]["proposed"] >= summary["average_wsr"]["reference"] > 0.0


def test_shadowing_past_the_float_range_is_an_error_exit(tmp_path):
    # a 3000 dB shadowing deviation draws link powers past 10**308, which
    # once ended in an OverflowError traceback
    config = _write(tmp_path, GOOD_YAML + "taps: {shadowing_db_std: 3000}\n")
    path = os.pathsep.join([str(Path(relayalloc.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-m", "relayalloc.cli", str(config), "-o", str(tmp_path / "out")],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 1
    assert run.stderr.startswith("error: ") and "overflows" in run.stderr
    assert "Traceback" not in run.stderr


def test_single_run_at_fixed_destinations_matches_a_direct_synthesis(tmp_path):
    # destination_xy skips the placement: the step 1 gains are those of a
    # synthesis at the given points, with the realization's channel seed
    dest_xy = [[-4.0, -20.0], [6.0, -12.0]]
    config = {**yaml.safe_load(GOOD_YAML), "realizations": 1,
              "geometry": {"relay_xy": [[-5.0, -5.0], [5.0, -5.0]], "destination_xy": dest_xy}}
    meet_contract(run_config(config, tmp_path))
    topology = channel.Topology(source_xy=[0.0, 0.0], relay_xy=[[-5.0, -5.0], [5.0, -5.0]], dest_xy=dest_xy)
    real = channel.synthesize_realization(topology, channel.TapProfile(), 8, realization_seeds(7, 0)[1])
    gains = channel.to_gains(real, 1e-3)
    table = np.loadtxt(tmp_path / "out" / "gains_step1.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(table[:, :2], [[k + 1, u + 1] for k in range(8) for u in range(2)])
    g1 = rates.effective_gain_table(gains.g_su, gains.g_sr, gains.g_ru)
    np.testing.assert_allclose(table[:, 2:], np.column_stack([gains.g_su.ravel(), g1.ravel()]), rtol=1e-11, atol=0.0)


def test_main_protocol_override(tmp_path, capsys):
    good = _write(tmp_path, GOOD_YAML)
    assert main([str(good), "-o", str(tmp_path / "o1"), "-p", "proposed"]) == 0
    capsys.readouterr()
    assert not (tmp_path / "o1" / "rates_reference.csv").exists()
    assert main([str(good), "-p", "nonsense"]) == 2


@pytest.mark.parametrize("text, argv, message", [
    # overrides pass the checks of the config file
    (GOOD_YAML.replace("protocols: [proposed, reference]", "protocols: [proposed]") + "weights: [0.7, 0.3]\n",
     ["-p", "reference"], "equal weights"),
    (GOOD_YAML, ["-p", "proposed,proposed"], "repeated"),
    (GOOD_YAML, ["-p", " , "], "nonempty"),
    (GOOD_YAML, ["-s", "-1"], "seed"),
    # the tap profile's own check once went unreported beside any other error
    (GOOD_YAML + "taps: {decay: 800}\n", ["-s", "-1"], "taps: tap variances must be strictly positive"),
    (GOOD_YAML.replace("protocols: [proposed, reference]", "protocols: [proposed, proposed]"), [], "repeated"),
], ids=["reference_override_unequal_weights", "repeated_override", "empty_override", "negative_seed",
        "negative_seed_and_bad_taps", "repeated_in_file"])
def test_main_rejects_bad_protocols_and_overrides(tmp_path, capsys, text, argv, message):
    assert main([str(_write(tmp_path, text)), "-o", str(tmp_path / "out")] + argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["n_grid", "delta_factor", "max_iters", "epsilon_is_relative"])
def test_load_config_rejects_removed_search_knobs(tmp_path, key):
    # the whole solver mapping is gone, with every knob it ever held
    text = GOOD_YAML + f"solver:\n  {key}: 10\n  epsilon: 1.0e-6\n  highpower_factor: 100.0\n"
    with pytest.raises(ConfigError, match="solver: unknown key"):
        load_config(_write(tmp_path, text))


def test_summary_is_strict_json_when_highpower_never_applies(tmp_path):
    # at 20 dBW the high power conditions fail on every realization, so its
    # average WSR has no value and must be written as null
    cfg = load_config(_write(tmp_path, GOOD_YAML.replace(
        "protocols: [proposed, reference]", "protocols: [proposed, highpower]"
    )))
    emit(run_monte_carlo(cfg), tmp_path / "out")
    summary = read_summary(tmp_path / "out")
    assert summary["highpower_conditions_met"] == 0
    assert summary["average_wsr"]["highpower"] is None
    assert summary["average_wsr"]["proposed"] > 0.0


def test_realization_builds_the_gain_table_once(tmp_path, monkeypatch):
    calls = []
    table = cli.rates.effective_gain_table
    monkeypatch.setattr(cli.rates, "effective_gain_table", lambda *a: calls.append(1) or table(*a))
    text = GOOD_YAML.replace("protocols: [proposed, reference]", "protocols: [highpower, proposed]")
    cfg = load_config(_write(tmp_path, text.replace("ptot_dbw: 20.0", "ptot_dbw: 90.0")))
    out = cli._run_realization(cfg, 0)
    assert out["status"]["highpower"] == "closed_form"
    assert len(calls) == 1


@pytest.mark.parametrize("protocols", ["[proposed, highpower]", "[highpower, proposed]"])
def test_realization_solves_the_price_bracket_once(tmp_path, monkeypatch, protocols):
    # the proposed and highpower protocols read one bracket, built with the
    # front of the realization's mode sets: the second read is a cache hit
    fronts, brackets = [], []
    pareto_front, price_bracket = cli.rates._pareto_front, cli.solver.price_bracket
    monkeypatch.setattr(cli.rates, "_pareto_front", lambda *a: fronts.append(1) or pareto_front(*a))
    monkeypatch.setattr(cli.solver, "price_bracket", lambda *a: brackets.append(1) or price_bracket(*a))
    text = GOOD_YAML.replace("protocols: [proposed, reference]", f"protocols: {protocols}")
    out = cli._run_realization(load_config(_write(tmp_path, text.replace("ptot_dbw: 20.0", "ptot_dbw: 90.0"))), 0)
    assert out["status"]["highpower"] == "closed_form"
    assert (len(fronts), len(brackets)) == (1, 2)


def _kill_every_link(monkeypatch):
    to_gains = cli.channel.to_gains

    def dead(*args):
        g = to_gains(*args)
        return cli.channel.GainTable(g_su=0.0 * g.g_su, g_sr=0.0 * g.g_sr, g_ru=0.0 * g.g_ru)

    monkeypatch.setattr(cli.channel, "to_gains", dead)


@pytest.mark.parametrize("protocols", ["[proposed, highpower]", "[highpower]"])
def test_realization_without_usable_links_reports_conditions_unmet(tmp_path, monkeypatch, protocols):
    _kill_every_link(monkeypatch)
    text = GOOD_YAML.replace("protocols: [proposed, reference]", f"protocols: {protocols}")
    out = cli._run_realization(load_config(_write(tmp_path, text)), 0)
    assert out["status"]["highpower"] == "conditions_unmet"


def test_main_without_usable_links_runs_the_reference(tmp_path, monkeypatch):
    # no split of the budget carries any rate: both protocols report WSR 0
    _kill_every_link(monkeypatch)
    assert main([str(_write(tmp_path, GOOD_YAML)), "-o", str(tmp_path / "out")]) == 0
    summary = read_summary(tmp_path / "out")
    assert summary["average_wsr"] == {"proposed": 0.0, "reference": 0.0}


def test_parallel_run_logs_progress(tmp_path, caplog):
    cfg = load_config(_write(tmp_path, GOOD_YAML + "workers: 2\n"))
    assert cfg.workers == 2 and cfg.realizations == 3
    caplog.set_level(logging.INFO, logger="relayalloc")
    run_monte_carlo(cfg)
    done = [r.getMessage() for r in caplog.records if r.getMessage().endswith("done")]
    assert done == ["realization 1/3 done", "realization 2/3 done", "realization 3/3 done"]


def _count_row_builds(monkeypatch) -> list:
    """Record every call that assembles assignment rows or their relay split."""
    calls = []
    assemble, closed_form = cli.solver._assemble, cli.rates.relay_aided_solution
    monkeypatch.setattr(cli.solver, "_assemble",
                        lambda *a, **kw: calls.append("_assemble") or assemble(*a, **kw))
    monkeypatch.setattr(cli.rates, "relay_aided_solution",
                        lambda *a: calls.append("relay_aided_solution") or closed_form(*a))
    return calls


def test_only_a_single_run_assembles_assignment_rows(tmp_path, monkeypatch):
    # at 90 dBW the high power conditions hold, so all three protocols
    # allocate; a Monte-Carlo run reads their arrays and never their rows
    calls = _count_row_builds(monkeypatch)
    text = GOOD_YAML.replace("ptot_dbw: 20.0", "ptot_dbw: 90.0").replace(
        "protocols: [proposed, reference]", "protocols: [proposed, reference, highpower]")
    assert main([str(_write(tmp_path, text)), "-o", str(tmp_path / "mc")]) == 0
    assert read_summary(tmp_path / "mc")["highpower_conditions_met"] == 3
    assert calls == []
    assert not list((tmp_path / "mc").glob("alloc_*.csv"))

    single = _write(tmp_path, text.replace("realizations: 3", "realizations: 1"), "single.yaml")
    assert main([str(single), "-o", str(tmp_path / "single")]) == 0
    # each protocol's rows take their relay split from one batched closed form call
    assert calls == ["_assemble", "relay_aided_solution"] * 3
    for proto in ("proposed", "reference", "highpower"):
        rows = (tmp_path / "single" / f"alloc_{proto}.csv").read_text().splitlines()
        assert len(rows) == 1 + 8


def test_realization_reads_the_relay_closed_form_in_batches(tmp_path, monkeypatch):
    # at 0 dBW most subcarriers go relay aided; neither protocol may rebuild
    # the closed form one subcarrier at a time
    calls = _count_row_builds(monkeypatch)
    # a single run, the only one that keeps assignment rows
    text = GOOD_YAML.replace("ptot_dbw: 20.0", "ptot_dbw: 0.0").replace("realizations: 3", "realizations: 1")
    cfg = load_config(_write(tmp_path, text))
    assert cfg.protocols == ("proposed", "reference")
    out = cli._run_realization(cfg, 0)
    for proto in cfg.protocols:
        assert sum(a.mode == cli.rates.MODE_RELAY for a in out["assignments"][proto]) >= 4
    # one batched closed form call per protocol's rows
    assert calls == ["_assemble", "relay_aided_solution"] * 2


DEAD_YAML = """\
num_subcarriers: 64
num_destinations: 8
ptot_dbw: 35.0
noise_dbw: 3070.0
seed: 1
realizations: 20
protocols: [proposed, reference]
"""


def test_dead_table_reports_the_rates_of_its_spread(tmp_path, monkeypatch):
    # every gain is subnormal, so no inverse gain is finite and both
    # protocols spread the budget evenly; the proposed one reports the
    # rates that spread carries, through the same path as weighted_sum_rate
    solved = []
    solve = cli.solver.solve

    def recording_solve(params, gains, mode_sets):
        solved.append((params, gains, solve(params, gains, mode_sets)))
        return solved[-1][2]

    monkeypatch.setattr(cli.solver, "solve", recording_solve)
    cfg = load_config(_write(tmp_path, DEAD_YAML))
    for i in range(cfg.realizations):
        out = cli._run_realization(cfg, i)
        params, gains, alloc = solved[-1]
        assert cli.solver.price_bracket(params, cli.rates.classify(gains, params.ptot)) == (0.0, 0.0)
        assert 0.0 < alloc.wsr == cli.solver.weighted_sum_rate(alloc.assignments, params, gains)
        np.testing.assert_array_equal(out["user_rates"]["proposed"], cli.solver.user_rates(alloc.assignments, gains))
        # the same choice and spread, and the same rates: 2 ln(1 + g p / 2)
        # of a subnormal g p / 2 is g p rounded once, as ln(1 + g p) is
        assert out["wsr"]["proposed"] == out["wsr"]["reference"]


def test_reference_is_recorded_from_its_allocation(tmp_path, monkeypatch):
    # the CLI records the reference like every other protocol: its rates
    # row is the per destination sum of the allocation's rates, which the
    # rows and the step 1 gains reproduce with the single slot direct rate
    solved = []
    solve_reference = cli.reference.solve_reference
    monkeypatch.setattr(cli.reference, "solve_reference",
                        lambda *a, **kw: solved.append(solve_reference(*a, **kw)) or solved[-1])
    text = GOOD_YAML.replace("ptot_dbw: 20.0", "ptot_dbw: 0.0").replace("realizations: 3", "realizations: 1")
    out = cli._run_realization(load_config(_write(tmp_path, text)), 0)
    [ref] = solved
    assert out["status"]["reference"] == "waterfill" and out["wsr"]["reference"] == ref.wsr
    np.testing.assert_array_equal(out["user_rates"]["reference"], np.bincount(ref.dest, weights=ref.rate, minlength=2))
    assert out["assignments"]["reference"] is ref.assignments
    tables = out["gain_tables"]
    recomputed = np.zeros(2)
    for a in ref.assignments:
        gain = tables["g1" if a.mode == cli.rates.MODE_RELAY else "g_su"][a.k, a.u]
        recomputed[a.u] += math.log1p(gain * a.sum_power)
    np.testing.assert_allclose(out["user_rates"]["reference"], recomputed, rtol=1e-12)
