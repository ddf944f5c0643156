"""Every config tier-1 runs through ``cli.main``: its digests and its contract.

Each entry of ``ENTRIES`` holds a config and the contract its outputs meet,
runs once per session, and has two test ids. The digest id compares the
sha256 of every file ``cli.main`` writes with ``golden.json``: a change that
leaves the maths alone must leave every digest as it is. The contract id
checks what every run must show, whatever the digests: exit 0, a strict
JSON summary, at most ``1e-9 * ptot`` of the budget unspent, and a proposed
WSR of at least the reference one on every realization where the reference
runs; an entry adds the clauses of its own corner. A change that does alter
the outputs regenerates the digests with

    python3 tests/test_golden.py

which names the configs and files whose digests moved, and says why they
moved. A regenerated ``golden.json`` leaves every contract in force.

The configs are the three benchmark workload shapes (README geometry, 6
exponential taps, -30 dBW noise) at seeds 1 and 2, each as a Monte-Carlo
run with fewer realizations and as a single run, and the corners of the
float range and of the tie order that the README's "Tests" table lists.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest
import yaml

from relayalloc import cli

GOLDEN = Path(__file__).with_name("golden.json")


class Run(NamedTuple):
    """What one ``cli.main`` call left: its exit code, output directory and ``RunReport``."""

    code: int
    out: Path
    report: Optional[cli.RunReport]


def run_config(config: dict, work: Path) -> Run:
    """``cli.main`` on ``config``, written to ``work``/config.yaml, with output to ``work``/out.

    Written as YAML: the loader reads JSON as YAML 1.1 too, which takes
    ``json.dumps``' ``1e+100`` for a string.
    """
    work.mkdir(parents=True, exist_ok=True)
    path, out = work / "config.yaml", work / "out"
    path.write_text(yaml.safe_dump(config))
    reports = []
    run_monte_carlo = cli.run_monte_carlo
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(cli, "run_monte_carlo", lambda cfg: reports.append(run_monte_carlo(cfg)) or reports[-1])
        code = cli.main([str(path), "-o", str(out)])
    return Run(code, out, reports[-1] if reports else None)


def digests(out: Path) -> dict:
    """File name -> sha256 of every file in ``out``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def read_summary(out: Path) -> dict:
    """``out``/summary.json, read as strict JSON: NaN and Infinity are errors."""

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads((out / "summary.json").read_text(), parse_constant=reject)


def _column(path: Path, name: str) -> np.ndarray:
    """Column ``name`` of a CSV file the CLI writes."""
    header = path.read_text().partition("\n")[0].split(",")
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=header.index(name), ndmin=1)


def meet_contract(result: Run) -> dict:
    """Check the clauses every run meets; returns its summary."""
    assert result.code == 0
    summary = read_summary(result.out)
    assert summary["max_budget_slack"] <= 1e-9 * summary["config"]["ptot_watts"]
    if "reference" in summary["config"]["protocols"]:
        wsr = result.out / "wsr_realizations.csv"
        assert np.all(_column(wsr, "wsr_proposed") >= _column(wsr, "wsr_reference"))
    return summary


# The clauses an entry adds, each called with the run and its summary.

def kkt(count: int):
    """Every proposed solve is certified."""

    def clause(result: Run, summary: dict) -> None:
        assert summary["status_counts"]["proposed"] == {"kkt": count}
    return clause


def positive_averages(result: Run, summary: dict) -> None:
    """Every protocol's average WSR that has a value is positive and finite."""
    averages = [x for x in summary["average_wsr"].values() if x is not None]
    assert averages and all(0.0 < x < np.inf for x in averages)


def budget_of_1e_300_watts(result: Run, summary: dict) -> None:
    assert summary["config"]["ptot_watts"] == 1e-300


def step1_gains_near_the_float_ceiling(result: Run, summary: dict) -> None:
    """Only a single run writes its step 1 gains; these reach past 1e300 and stay finite."""
    table = np.loadtxt(result.out / "gains_step1.csv", delimiter=",", skiprows=1)
    assert table.shape == (64, 4) and np.all(np.isfinite(table))
    assert table[:, 2:].max() > 1e300


def split(*protocols: str):
    """A single run writes ``alloc_<protocol>.csv`` for the listed protocols only,
    and each row's ``P_k`` is its source power plus its relay powers."""

    def clause(result: Run, summary: dict) -> None:
        assert sorted(p.name for p in result.out.glob("alloc_*.csv")) == sorted(f"alloc_{p}.csv" for p in protocols)
        for protocol in protocols:
            table = np.loadtxt(result.out / f"alloc_{protocol}.csv", delimiter=",", skiprows=1,
                               usecols=range(3, 5 + summary["config"]["num_relays"]), ndmin=2)
            assert table.shape[0] == summary["config"]["num_subcarriers"]
            np.testing.assert_allclose(table[:, 0], table[:, 1:].sum(axis=1), rtol=1e-9, atol=0.0)
    return clause


def collapses_beat_the_reference(result: Run, summary: dict) -> None:
    """At least one realization collapses, and each collapse beats the reference strictly."""
    wsr = result.report.wsr
    collapsed = [i for i, s in enumerate(result.report.statuses["proposed"]) if s == "bracket_collapse"]
    assert collapsed
    assert all(wsr["proposed"][i] > wsr["reference"][i] for i in collapsed)


class Entry(NamedTuple):
    config: dict
    clauses: tuple = ()


WORKLOADS = {
    "mc_default": {"num_subcarriers": 64, "num_destinations": 8, "ptot_dbw": 35.0, "realizations": 40,
                   "protocols": ["proposed", "reference"]},
    "mc_wide_lowpower": {"num_subcarriers": 1024, "num_destinations": 32, "ptot_dbw": 0.0, "realizations": 3,
                         "protocols": ["proposed", "reference"]},
    "mc_weighted_highpower": {"num_subcarriers": 64, "num_destinations": 8, "ptot_dbw": 80.0, "realizations": 40,
                              "protocols": ["proposed", "highpower"],
                              "weights": [0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05]},
}

EVERY_PROTOCOL = ["proposed", "reference", "highpower"]
FLAT = {"num_subcarriers": 64, "num_destinations": 8, "ptot_dbw": 35.0, "noise_dbw": -30.0, "seed": 1,
        "realizations": 20, "protocols": EVERY_PROTOCOL, "taps": {"num_taps": 1}}
SINGLE = {"num_subcarriers": 64, "num_destinations": 8, "ptot_dbw": 0.0, "noise_dbw": -30.0, "seed": 1,
          "realizations": 1, "protocols": EVERY_PROTOCOL}
# gains up to about 1e305: a product of two overflows unless the relay
# closed form scales them first
HUGE_GAINS = {"num_subcarriers": 16, "num_destinations": 4, "ptot_dbw": 35.0, "noise_dbw": -3070.0, "seed": 1,
              "realizations": 3, "protocols": EVERY_PROTOCOL}
TINY_BUDGET = {**HUGE_GAINS, "ptot_dbw": -3000.0, "noise_dbw": -30.0}


def _entries() -> dict:
    """Config name -> ``Entry``, in a fixed order."""
    entries = {}
    for name, shape in WORKLOADS.items():
        # the high power conditions fail on both seeds' first realization
        tables = [p for p in shape["protocols"] if p != "highpower"]
        for seed in (1, 2):
            config = {"noise_dbw": -30.0, "seed": seed, "workers": 1, **shape}
            entries[f"{name}-seed{seed}"] = Entry(config)
            entries[f"{name}-seed{seed}-single"] = Entry({**config, "realizations": 1}, (split(*tables),))
    # one tap makes every subcarrier of a realization identical, so each
    # price gives them all one choice; where the bracket collapses, only a
    # split of them between the two edge choices spends the budget well
    entries["flat"] = Entry(FLAT, (collapses_beat_the_reference,))
    # four weight levels give each subcarrier's front several entries per mode
    entries["flat-weighted"] = Entry({**FLAT, "protocols": ["proposed", "highpower"],
                                      "weights": WORKLOADS["mc_weighted_highpower"]["weights"]})
    # most subcarriers go relay aided at 0 dBW, and the high power
    # conditions hold at 100 dBW; at -3040 dBW on -3070 dBW noise every
    # subcarrier goes relay aided on gains above 2**500, so the split runs
    # on scaled gains, and its powers near 1e-305 W leave no absolute slack
    entries["single-0dBW"] = Entry(SINGLE, (split("proposed", "reference"),))
    entries["single-100dBW"] = Entry({**SINGLE, "ptot_dbw": 100.0}, (split(*EVERY_PROTOCOL),))
    entries["single-scaled"] = Entry({**SINGLE, "num_subcarriers": 16, "num_destinations": 4, "ptot_dbw": -3040.0,
                                      "noise_dbw": -3070.0}, (split("proposed", "reference"),))
    entries["huge-gains"] = Entry(HUGE_GAINS, (kkt(3), positive_averages))
    # g q overflows in the candidate table and in the rates: the rate is ln g + ln q
    entries["huge-gains-60dBW"] = Entry({**HUGE_GAINS, "ptot_dbw": 60.0}, (kkt(3), positive_averages))
    # the bracket is about [1.7e300, 5.3e300], and the product of its edges overflows
    entries["huge-gains-tiny-budget"] = Entry({**HUGE_GAINS, "ptot_dbw": -3000.0}, (kkt(3),))
    # 3015 puts the gains on both sides of the dead-gain floor 2**-1012;
    # 3030 just below it, where counting them live overflowed the search's
    # sums; 3070 far below it, subnormal
    entries["noise-3015dBW"] = Entry({**HUGE_GAINS, "noise_dbw": 3015.0}, (positive_averages,))
    for noise in (3030.0, 3070.0):
        entries[f"noise-{noise:g}dBW"] = Entry({**HUGE_GAINS, "noise_dbw": noise}, (kkt(3),))
    # 1e-300 W is below the rounding of every inverse gain, so the water
    # level cancels to zero on every subcarrier; the budget still goes out,
    # to the strongest subcarriers
    entries["tiny-budget"] = Entry(TINY_BUDGET, (budget_of_1e_300_watts, positive_averages))
    # far destinations under the strongest noise: every gain is 0, so every
    # candidate ties and the tables show the tie order
    entries["no-usable-link-single"] = Entry({**HUGE_GAINS, "noise_dbw": 3080.0, "realizations": 1, "geometry": {
        "destination_region": {"x_min": 1.0e6, "x_max": 2.0e6, "y_min": -30.0, "y_max": -10.0}}},
        (split("proposed", "reference"),))
    entries["huge-gains-single"] = Entry({**HUGE_GAINS, "realizations": 1},
                                         (kkt(1), step1_gains_near_the_float_ceiling, split("proposed", "reference")))
    # below the rounding of every inverse gain the budget goes to the least
    # thresholds in proportion to c w; budget / sum(c w) underflows unless
    # c w is scaled first
    entries["tiny-budget-huge-weight"] = Entry(
        {**TINY_BUDGET, "num_destinations": 3, "weights": [1.0, 1.0, 1.0e100], "realizations": 1,
         "protocols": ["proposed"]}, (positive_averages, split("proposed")))
    # the lower price root, about w_min K / ptot = 1e-100 * 16 / 1e300,
    # underflows to 0, a price the search must not evaluate
    entries["huge-budget-tiny-weight"] = Entry(
        {**TINY_BUDGET, "ptot_dbw": 3000.0, "num_destinations": 3, "weights": [1.0e-100, 1.0, 1.0],
         "protocols": ["proposed"]}, (kkt(3),))
    return entries


ENTRIES = _entries()


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    """Name -> ``Run`` of an entry, each run once per session."""
    done = {}

    def get(name: str) -> Run:
        if name not in done:
            done[name] = run_config(ENTRIES[name].config, tmp_path_factory.mktemp(name))
        return done[name]
    return get


@pytest.mark.parametrize("name", list(ENTRIES))
def test_outputs_match_their_golden_digests(runs, name):
    assert digests(runs(name).out) == json.loads(GOLDEN.read_text())[name]


@pytest.mark.parametrize("name", list(ENTRIES))
def test_outputs_meet_their_contract(runs, name):
    result = runs(name)
    summary = meet_contract(result)
    for clause in ENTRIES[name].clauses:
        clause(result, summary)


def test_golden_file_covers_every_config():
    assert list(json.loads(GOLDEN.read_text())) == list(ENTRIES)


def main() -> int:
    """Rewrite ``golden.json`` from the outputs of the installed package, naming the digests that moved."""
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        golden = {name: digests(run_config(entry.config, Path(work) / name).out) for name, entry in ENTRIES.items()}
    moved = 0
    for name in [*golden, *(name for name in old if name not in golden)]:
        before, after = old.get(name, {}), golden.get(name, {})
        files = sorted(f for f in {*before, *after} if before.get(f) != after.get(f))
        if files:
            moved += 1
            print(f"{name}: {', '.join(files)}")
    if not moved:
        print("no digest changed")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {sum(map(len, golden.values()))} digests of {len(golden)} configs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
