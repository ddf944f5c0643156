"""Config ingestion, experiment runner determinism, and output emission."""

import json
import logging
import math

import numpy as np
import pytest

from relayalloc import cli
from relayalloc.cli import (
    ConfigError,
    ExperimentConfig,
    emit,
    load_config,
    main,
    realization_seeds,
    run_monte_carlo,
    run_single,
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


def test_run_single_requires_one_realization(tmp_path):
    cfg = load_config(_write(tmp_path, GOOD_YAML))
    with pytest.raises(ConfigError):
        run_single(cfg)
    single = ExperimentConfig(**{**cfg.__dict__, "realizations": 1})
    report = run_single(single)
    assert set(report.assignments) == {"proposed", "reference"}
    assert report.gain_tables["g_su"].shape == (8, 2)


def test_emit_writes_expected_files(tmp_path):
    cfg = load_config(_write(tmp_path, GOOD_YAML))
    single = ExperimentConfig(**{**cfg.__dict__, "realizations": 1})
    report = run_single(single)
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
    summary = json.loads((out / "summary.json").read_text())
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

    # a destination on top of the source passes validation but fails at run time
    broken = _write(tmp_path, """\
num_subcarriers: 8
num_destinations: 1
ptot_dbw: 20.0
noise_dbw: -30.0
geometry:
  destination_xy: [[0.0, 0.0]]
""", "broken.yaml")
    assert main([str(broken)]) == 1
    assert "coincident" in capsys.readouterr().err

    good = _write(tmp_path, GOOD_YAML)
    code = main([str(good), "-o", str(tmp_path / "cli_out"), "-s", "11"])
    assert code == 0
    out = capsys.readouterr().out
    assert "average WSR" in out
    assert (tmp_path / "cli_out" / "summary.json").exists()


def test_main_protocol_override(tmp_path, capsys):
    good = _write(tmp_path, GOOD_YAML)
    assert main([str(good), "-o", str(tmp_path / "o1"), "-p", "proposed"]) == 0
    capsys.readouterr()
    assert not (tmp_path / "o1" / "rates_reference.csv").exists()
    assert main([str(good), "-p", "nonsense"]) == 2


@pytest.mark.parametrize("key", ["n_grid", "delta_factor", "max_iters"])
def test_load_config_rejects_removed_search_knobs(tmp_path, key):
    text = GOOD_YAML + f"solver:\n  {key}: 10\n  epsilon: 1.0e-6\n"
    with pytest.raises(ConfigError, match=f"solver.{key}"):
        load_config(_write(tmp_path, text))


FLAT_YAML = """\
num_subcarriers: 64
num_destinations: 8
ptot_dbw: 35.0
noise_dbw: -30.0
seed: 1
realizations: 20
protocols: [proposed, reference]
taps: {num_taps: 1}
"""


def test_flat_channel_collapse_beats_the_reference(tmp_path):
    # one tap makes every subcarrier of a realization identical, so each
    # price gives them all one choice; where the bracket collapses, only a
    # split of them between the two edge choices spends the budget well
    report = run_monte_carlo(load_config(_write(tmp_path, FLAT_YAML)))
    collapsed = [i for i, s in enumerate(report.statuses["proposed"]) if s == "bracket_collapse"]
    assert collapsed
    for i in collapsed:
        assert report.wsr["proposed"][i] > report.wsr["reference"][i]


def test_summary_is_strict_json_when_highpower_never_applies(tmp_path):
    # at 20 dBW the high power conditions fail on every realization, so its
    # average WSR has no value and must be written as null
    cfg = load_config(_write(tmp_path, GOOD_YAML.replace(
        "protocols: [proposed, reference]", "protocols: [proposed, highpower]"
    )))
    emit(run_monte_carlo(cfg), tmp_path / "out")

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    summary = json.loads((tmp_path / "out" / "summary.json").read_text(), parse_constant=reject)
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
    assert out["highpower_met"]
    assert len(calls) == 1


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
    assert not out["highpower_met"]


def test_main_without_usable_links_runs_the_reference(tmp_path, monkeypatch):
    # no split of the budget carries any rate: both protocols report WSR 0
    _kill_every_link(monkeypatch)
    assert main([str(_write(tmp_path, GOOD_YAML)), "-o", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["average_wsr"] == {"proposed": 0.0, "reference": 0.0}


def test_parallel_run_logs_progress(tmp_path, caplog):
    cfg = load_config(_write(tmp_path, GOOD_YAML + "workers: 2\n"))
    assert cfg.workers == 2 and cfg.realizations == 3
    caplog.set_level(logging.INFO, logger="relayalloc")
    run_monte_carlo(cfg)
    done = [r.getMessage() for r in caplog.records if r.getMessage().endswith("done")]
    assert done == ["realization 1/3 done", "realization 2/3 done", "realization 3/3 done"]


def test_realization_reads_the_relay_closed_form_in_batches(tmp_path, monkeypatch):
    # at 0 dBW most subcarriers go relay aided; neither protocol may rebuild
    # the closed form one subcarrier at a time
    calls = []
    solution = cli.rates.relay_aided_solution
    from_table = cli.rates.PerPairGains.from_table.__func__
    monkeypatch.setattr(cli.rates, "relay_aided_solution",
                        lambda *a, **kw: calls.append("relay_aided_solution") or solution(*a, **kw))
    monkeypatch.setattr(cli.rates.PerPairGains, "from_table",
                        classmethod(lambda cls, *a: calls.append("from_table") or from_table(cls, *a)))
    cfg = load_config(_write(tmp_path, GOOD_YAML.replace("ptot_dbw: 20.0", "ptot_dbw: 0.0")))
    assert cfg.protocols == ("proposed", "reference")
    out = cli._run_realization(cfg, 0)
    for proto in cfg.protocols:
        assert sum(a.mode == cli.rates.MODE_RELAY for a in out["assignments"][proto]) >= 4
    assert calls == []
