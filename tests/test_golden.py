"""Byte-identity gate: every file ``cli.main`` writes for a fixed set of configs.

``golden.json`` holds the sha256 of each output file, per config. A change
that leaves the maths alone must leave every digest as it is. A change that
does alter the outputs regenerates the file with

    python3 tests/test_golden.py

and says why the outputs moved. The configs are the three benchmark workload
shapes (README geometry, 6 exponential taps, -30 dBW noise) at seeds 1 and 2,
each as a Monte-Carlo run with fewer realizations and as a single run, the
corner configs of the README's "Tests" table, and a single run without any
usable link.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from relayalloc import cli

GOLDEN = Path(__file__).with_name("golden.json")

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
HUGE_GAINS = {"num_subcarriers": 16, "num_destinations": 4, "ptot_dbw": 35.0, "noise_dbw": -3070.0, "seed": 1,
              "realizations": 3, "protocols": EVERY_PROTOCOL}


def _configs() -> dict:
    """Config name -> config mapping, in a fixed order."""
    configs = {}
    for name, shape in WORKLOADS.items():
        for seed in (1, 2):
            config = {"noise_dbw": -30.0, "seed": seed, "workers": 1, **shape}
            configs[f"{name}-seed{seed}"] = config
            configs[f"{name}-seed{seed}-single"] = {**config, "realizations": 1}
    configs["flat"] = FLAT
    configs["flat-weighted"] = {**FLAT, "protocols": ["proposed", "highpower"],
                                "weights": WORKLOADS["mc_weighted_highpower"]["weights"]}
    configs["single-0dBW"] = SINGLE
    configs["single-100dBW"] = {**SINGLE, "ptot_dbw": 100.0}
    configs["single-scaled"] = {**SINGLE, "num_subcarriers": 16, "num_destinations": 4, "ptot_dbw": -3040.0,
                                "noise_dbw": -3070.0}
    configs["huge-gains"] = HUGE_GAINS
    configs["huge-gains-60dBW"] = {**HUGE_GAINS, "ptot_dbw": 60.0}
    configs["huge-gains-tiny-budget"] = {**HUGE_GAINS, "ptot_dbw": -3000.0}
    for noise in (3015.0, 3030.0, 3070.0):
        configs[f"noise-{noise:g}dBW"] = {**HUGE_GAINS, "noise_dbw": noise}
    configs["tiny-budget"] = {**HUGE_GAINS, "ptot_dbw": -3000.0, "noise_dbw": -30.0}
    # far destinations under the strongest noise: every gain is 0, so every
    # candidate ties and the tables show the tie order
    configs["no-usable-link-single"] = {**HUGE_GAINS, "noise_dbw": 3080.0, "realizations": 1, "geometry": {
        "destination_region": {"x_min": 1.0e6, "x_max": 2.0e6, "y_min": -30.0, "y_max": -10.0}}}
    return configs


CONFIGS = _configs()


def digests(config: dict, work: Path) -> dict:
    """File name -> sha256 of every file ``cli.main`` writes for ``config``."""
    path, out = work / "config.json", work / "out"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(path), "-o", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_outputs_match_their_golden_digests(tmp_path, name):
    assert digests(CONFIGS[name], tmp_path) == json.loads(GOLDEN.read_text())[name]


def test_golden_file_covers_every_config():
    assert list(json.loads(GOLDEN.read_text())) == list(CONFIGS)


def main() -> int:
    """Rewrite ``golden.json`` from the outputs of the installed package."""
    golden = {}
    for name, config in CONFIGS.items():
        with tempfile.TemporaryDirectory() as work:
            golden[name] = digests(config, Path(work))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {sum(map(len, golden.values()))} digests of {len(golden)} configs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
