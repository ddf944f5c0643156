"""Experiment runner: config in, allocation studies and plot data out.

A run is described by a small YAML or JSON config (physical quantities carry
unit suffixed keys such as ``ptot_dbw``). The config keeps the dB values; its
``ptot_watts`` and ``noise_watts`` properties convert them to linear watts on
every read, and every realization reads them. Single realization runs
additionally emit per subcarrier tables; Monte-Carlo runs aggregate weighted
sum rates and the user 1 rate CDF over independently seeded realizations.

Per realization seeds are derived from the master seed with a counter based
scheme: realization ``i`` takes the two 64-bit words of
``SeedSequence([seed, i]).generate_state(2, np.uint64)`` as its placement
seed and its channel seed, so any realization can be reproduced in isolation
and worker count cannot affect results.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import channel, highpower, rates, reference, solver

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunReport",
    "load_config",
    "run_monte_carlo",
    "emit",
    "main",
]

log = logging.getLogger("relayalloc")

PROTO_PROPOSED = "proposed"
PROTO_REFERENCE = "reference"
PROTO_HIGHPOWER = "highpower"
_PROTOCOLS = (PROTO_PROPOSED, PROTO_REFERENCE, PROTO_HIGHPOWER)

_KEYS = ("num_subcarriers", "num_destinations", "ptot_dbw", "noise_dbw", "weights", "seed", "realizations",
         "protocols", "geometry", "taps", "workers", "output_dir")
_GEOMETRY_KEYS = ("source_xy", "relay_xy", "destination_xy", "destination_region")
_REGION_KEYS = ("x_min", "x_max", "y_min", "y_max")
_TAP_KEYS = ("num_taps", "decay", "shadowing_db_std")

_DEFAULT_RELAYS = ((-15.0, -5.0), (-5.0, -5.0), (5.0, -5.0), (15.0, -5.0))
_DEFAULT_REGION = {"x_min": -10.0, "x_max": 10.0, "y_min": -30.0, "y_max": -10.0}


class ConfigError(ValueError):
    """Config validation failure; message lists the offending fields."""


def _db_to_watts(db: float) -> float:
    """Linear watts of a dB value; inf past the float range."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment description; budget and noise in dB, read in watts through properties."""

    num_subcarriers: int
    num_destinations: int
    ptot_dbw: float
    noise_dbw: float
    weights: np.ndarray
    seed: int
    realizations: int
    protocols: tuple
    source_xy: tuple
    relay_xy: tuple
    destination_region: Optional[channel.Region]
    destination_xy: Optional[tuple]
    taps: channel.TapProfile
    workers: int
    output_dir: str

    @property
    def ptot_watts(self) -> float:
        return _db_to_watts(self.ptot_dbw)

    @property
    def noise_watts(self) -> float:
        return _db_to_watts(self.noise_dbw)

    def solver_params(self) -> solver.SolverParams:
        return solver.SolverParams(ptot=self.ptot_watts, weights=self.weights)

    def tap_profile(self) -> channel.TapProfile:
        return self.taps

    def topology_for(self, dest_xy) -> channel.Topology:
        return channel.Topology(source_xy=self.source_xy, relay_xy=self.relay_xy, dest_xy=dest_xy)


@dataclass(frozen=True, eq=False)
class RunReport:
    """Per realization results plus aggregates for the requested protocols."""

    config: ExperimentConfig
    wsr: dict                 # protocol -> (R,) array, NaN when not computed
    user_rates: dict          # protocol -> (R, U) array
    statuses: dict            # protocol -> list of status strings
    residuals: np.ndarray     # (R,) proposed-protocol budget slack, NaN if absent
    assignments: dict         # protocol -> assignment rows, empty unless a single run
    gain_tables: dict         # "g_su" and "g1" tables, empty unless a single run

    @property
    def average_wsr(self) -> dict:
        return {p: float(np.nanmean(v)) if np.any(np.isfinite(v)) else math.nan
                for p, v in self.wsr.items()}

    def cdf_user1(self, protocol: str) -> np.ndarray:
        """Sorted (rate, cumulative probability) samples for destination 1."""
        samples = self.user_rates[protocol][:, 0]
        samples = np.sort(samples[np.isfinite(samples)])
        if samples.size == 0:
            return np.empty((0, 2))
        prob = (np.arange(samples.size) + 1.0) / samples.size
        return np.column_stack([samples, prob])


def _has_text_or_bool(value) -> bool:
    """True for a string or a YAML boolean, alone or in a list: float() reads "20" as 20 and true as 1."""
    return isinstance(value, (str, bool)) or (isinstance(value, (list, tuple)) and any(map(_has_text_or_bool, value)))


def _floats(value) -> Optional[np.ndarray]:
    """``value`` as a float array, or None if it is not numeric or holds a string or a YAML boolean."""
    try:
        return None if _has_text_or_bool(value) else np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None


def _number(value) -> float:
    number = _floats(value)
    if number is None or number.ndim or value is None:  # numpy reads None as nan
        raise ValueError(f"expected a number, got {value!r}")
    if not np.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(number)


def _integer(minimum: int):
    def parse(value) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"expected an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"must be >= {minimum}")
        return value
    return parse


def _points(count: Optional[int] = None):
    """Parser of a tuple of finite (x, y) pairs, ``count`` of them if given."""
    def parse(value) -> tuple:
        arr = _floats(value)
        if arr is None or arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1 or count not in (None, len(arr)):
            want = {None: "a list of [x, y] pairs", 1: "an [x, y] pair"}.get(count, f"{count} [x, y] pairs")
            raise ValueError(f"expected {want}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coordinates must be finite")
        return tuple(map(tuple, arr.tolist()))
    return parse


def _weights(count: Optional[int]):
    """Parser of a 1-D array of positive finite numbers, ``count`` of them if given."""
    def parse(value) -> np.ndarray:
        arr = _floats(value)
        if arr is None or arr.ndim != 1:
            raise ValueError(f"expected a list of numbers, got {value!r}")
        if count is not None and arr.size != count:
            raise ValueError(f"expected {count} entries, got {arr.size}")
        if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
            raise ValueError("entries must be positive and finite")
        return arr
    return parse


def _read(section: dict, key: str, errors: list, parse, default=None, required=False, prefix=""):
    """``parse(section[key])``, or ``default`` when the key is absent.

    A missing required key or a value ``parse`` rejects with a ValueError is
    recorded under ``prefix + key``, and gives None.
    """
    if key not in section:
        if required:
            errors.append(f"{prefix}{key}: required")
        return default
    try:
        return parse(section[key])
    except ValueError as exc:
        errors.append(f"{prefix}{key}: {exc}")
        return None


def _section(value, name: str, valid: tuple, errors: list) -> Optional[dict]:
    """``value`` if it is a mapping, else None; records that, and each unknown key, under ``name``."""
    if not isinstance(value, dict):
        errors.append(f"{name}: expected a mapping")
        return None
    for key in sorted(set(value) - set(valid), key=str):
        errors.append(f"{f'{name}.' if name else ''}{key}: unknown key; valid: {list(valid)}")
    return value


def load_config(path, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Parse and validate a YAML or JSON config file.

    ``overrides`` replace top level keys of the file before validation, so
    command line overrides pass the same checks. All validation failures,
    unknown keys and the tap profile's included, are collected and reported
    together, listed by field name.
    """
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a mapping at the top level")
    raw = {**raw, **(overrides or {})}

    errors: list = []
    _section(raw, "", _KEYS, errors)
    kk = _read(raw, "num_subcarriers", errors, _integer(1), required=True)
    uu = _read(raw, "num_destinations", errors, _integer(1), required=True)
    ptot_dbw = _read(raw, "ptot_dbw", errors, _number, required=True)
    noise_dbw = _read(raw, "noise_dbw", errors, _number, required=True)
    for key, db in (("ptot_dbw", ptot_dbw), ("noise_dbw", noise_dbw)):
        # a subnormal noise power overflows the gains it divides
        if db is not None and not sys.float_info.min <= _db_to_watts(db) < math.inf:
            errors.append(f"{key}: {db!r} dB is not a finite number of watts of at least {sys.float_info.min!r}")
    seed = _read(raw, "seed", errors, _integer(0), default=0)
    realizations = _read(raw, "realizations", errors, _integer(1), default=1)
    workers = _read(raw, "workers", errors, _integer(1), default=1)
    # a null weights entry takes the default too
    equal = None if uu is None else np.full(uu, 1.0 / uu)
    weights = _read(raw, "weights", errors, _weights(uu)) if raw.get("weights") is not None else equal

    protocols = raw.get("protocols", [PROTO_PROPOSED])
    if not isinstance(protocols, (list, tuple)) or not protocols:
        errors.append("protocols: expected a nonempty list")
        protocols = [PROTO_PROPOSED]
    bad = [p for p in protocols if p not in _PROTOCOLS]
    if bad:
        errors.append(f"protocols: unknown entries {bad}; valid: {list(_PROTOCOLS)}")
    repeated = [p for i, p in enumerate(protocols) if p in protocols[:i]]
    if repeated:
        errors.append(f"protocols: repeated entries {repeated}")
    if PROTO_REFERENCE in protocols and weights is not None and np.any(weights != weights[:1]):
        errors.append("protocols: the reference protocol requires equal weights")

    geometry = _section(raw.get("geometry", {}), "geometry", _GEOMETRY_KEYS, errors) or {}
    source = _read(geometry, "source_xy", errors, lambda xy: _points(1)([xy])[0], default=(0.0, 0.0),
                   prefix="geometry.")
    relay_xy = _read(geometry, "relay_xy", errors, _points(), default=_DEFAULT_RELAYS, prefix="geometry.")
    dest_xy = region = None
    if geometry.get("destination_xy") is not None:
        dest_xy = _read(geometry, "destination_xy", errors, _points(uu), prefix="geometry.")
    else:
        name = "geometry.destination_region"
        bounds = _section(geometry.get("destination_region", _DEFAULT_REGION), name, _REGION_KEYS, errors)
        if bounds is not None:
            bounds = {key: _read(bounds, key, errors, _number, required=True, prefix=f"{name}.")
                      for key in _REGION_KEYS}
            try:
                region = None if None in bounds.values() else channel.Region(**bounds)
            except ValueError as exc:
                errors.append(f"{name}: {exc}")
    if source is not None and relay_xy is not None:
        # the whole topology with fixed destinations, else the source against the relays
        try:
            channel.link_distances(source, relay_xy, dest_xy or ())
        except ValueError as exc:
            errors.append(f"geometry: {exc}")

    tap_raw = _section(raw.get("taps", {}), "taps", _TAP_KEYS, errors) or {}
    tap_args = {key: _read(tap_raw, key, errors, parse, prefix="taps.")
                for key, parse in zip(_TAP_KEYS, (_integer(1), _number, _number)) if key in tap_raw}
    taps = None
    if None not in tap_args.values():  # the profile checks its own ranges, with the tap defaults
        try:
            taps = channel.TapProfile(**tap_args)
        except ValueError as exc:
            errors.append(f"taps: {exc}")
    # a num_taps not given, or rejected, counts as the default
    if kk is not None and kk < (tap_args.get("num_taps") or channel.TapProfile().num_taps):
        errors.append("num_subcarriers: must be at least taps.num_taps")

    output_dir = raw.get("output_dir", "relayalloc_out")
    if not isinstance(output_dir, str) or not output_dir:
        errors.append("output_dir: expected a nonempty string")

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    return ExperimentConfig(num_subcarriers=kk, num_destinations=uu, ptot_dbw=ptot_dbw, noise_dbw=noise_dbw,
                            weights=weights, seed=seed, realizations=realizations, protocols=tuple(protocols),
                            source_xy=source, relay_xy=relay_xy, destination_region=region, destination_xy=dest_xy,
                            taps=taps, workers=workers, output_dir=output_dir)


def realization_seeds(master_seed: int, index: int) -> tuple:
    """(placement_seed, channel_seed) for one realization, counter derived."""
    state = np.random.SeedSequence([master_seed, index]).generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


def _run_realization(config: ExperimentConfig, index: int) -> dict:
    """All requested protocols on one synthesized realization."""
    placement_seed, channel_seed = realization_seeds(config.seed, index)
    dest = config.destination_xy
    if dest is None:
        dest = channel.place_destinations(config.destination_region, config.num_destinations, placement_seed)
    topo = config.topology_for(dest)
    real = channel.synthesize_realization(topo, config.taps, config.num_subcarriers, channel_seed)
    gains = channel.to_gains(real, config.noise_watts)
    params = config.solver_params()
    # shared by every protocol, so the front and price bracket are built once
    mode_sets = rates.classify(gains, params.ptot)

    uu = config.num_destinations
    single = config.realizations == 1  # only a single run emits per subcarrier tables
    out: dict = {
        "wsr": {},
        "user_rates": {},
        "status": {},
        "residual": math.nan,
        "assignments": {},
        "gain_tables": {"g_su": gains.g_su, "g1": mode_sets.g1} if single else {},
    }

    def record(proto: str, alloc: solver.Allocation) -> None:
        out["wsr"][proto] = alloc.wsr
        out["user_rates"][proto] = np.bincount(alloc.dest, weights=alloc.rate, minlength=uu)
        out["status"][proto] = alloc.status
        if single:
            out["assignments"][proto] = alloc.assignments

    for proto in config.protocols:
        if proto == PROTO_PROPOSED:
            alloc = solver.solve(params, gains, mode_sets)
            record(proto, alloc)
            out["residual"] = alloc.residual
        elif proto == PROTO_REFERENCE:
            record(proto, reference.solve_reference(gains, params.ptot, weights=params.weights,
                                                    g1_table=mode_sets.g1))
        elif proto == PROTO_HIGHPOWER:
            report = highpower.check_conditions(params, gains, mode_sets)
            if report.conditions_met:
                record(proto, highpower.solve_high_power(params, gains, report=report))
            else:
                out["wsr"][proto] = math.nan
                out["user_rates"][proto] = np.full(uu, math.nan)
                out["status"][proto] = "conditions_unmet"
    return out


def run_monte_carlo(config: ExperimentConfig) -> RunReport:
    """Run every realization and aggregate in realization index order."""
    rr = config.realizations
    results: list = []
    # a pool forks all its workers at once: none beyond the realizations or CPUs
    workers = min(config.workers, rr, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        mapped = map if pool is None else pool.map  # both yield in realization order
        for i, res in enumerate(mapped(_run_realization, [config] * rr, range(rr))):
            results.append(res)
            log.info("realization %d/%d done", i + 1, rr)

    return RunReport(
        config=config,
        wsr={p: np.array([res["wsr"][p] for res in results]) for p in config.protocols},
        user_rates={p: np.array([res["user_rates"][p] for res in results]) for p in config.protocols},
        statuses={p: [res["status"][p] for res in results] for p in config.protocols},
        residuals=np.array([res["residual"] for res in results]),
        assignments=results[0]["assignments"],
        gain_tables=results[0]["gain_tables"],
    )


def _fmt(x: float) -> str:
    return "%.12g" % x


def _write_csv(path: Path, header: list, rows: list) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit(report: RunReport, out_dir) -> list:
    """Write the result tables and the structured summary; returns paths.

    Files: ``summary.json``; ``wsr_realizations.csv`` (one row per
    realization); ``rates_<protocol>.csv`` (per destination rates per
    realization); ``cdf_user1_<protocol>.csv`` (sorted rate,
    cumulative_probability); for single runs additionally
    ``alloc_<protocol>.csv`` (k, u_k, mode, P_k, P_source, P_relay_1..N)
    and ``gains_step1.csv`` (k, u, g_direct, g_relay_aided). Output is
    deterministic: re-emitting an unchanged report is byte identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = report.config
    paths = []

    protos = list(cfg.protocols)
    rows = []
    for i in range(cfg.realizations):
        rows.append([str(i)] + [_fmt(report.wsr[p][i]) for p in protos])
    path = out / "wsr_realizations.csv"
    _write_csv(path, ["realization"] + [f"wsr_{p}" for p in protos], rows)
    paths.append(path)

    for p in protos:
        path = out / f"rates_{p}.csv"
        hdr = ["realization"] + [f"rate_u{u + 1}" for u in range(cfg.num_destinations)]
        _write_csv(path, hdr, [
            [str(i)] + [_fmt(v) for v in report.user_rates[p][i]]
            for i in range(cfg.realizations)
        ])
        paths.append(path)

        cdf = report.cdf_user1(p)
        path = out / f"cdf_user1_{p}.csv"
        _write_csv(path, ["rate", "cumulative_probability"],
                   [[_fmt(r), _fmt(q)] for r, q in cdf])
        paths.append(path)

    num_relays = len(cfg.relay_xy)
    for p, assign in sorted(report.assignments.items()):
        path = out / f"alloc_{p}.csv"
        hdr = ["k", "u_k", "mode", "P_k", "P_source"] + [f"P_relay_{i + 1}" for i in range(num_relays)]
        rows = []
        for a in assign:
            relay_p = np.zeros(num_relays)
            for idx, pw in zip(a.relay_indices, np.atleast_1d(a.relay_powers)):
                relay_p[idx] = pw
            rows.append([str(a.k + 1), str(a.u + 1), a.mode, _fmt(a.sum_power),
                         _fmt(a.broadcast_power + a.relaying_power)] + [_fmt(v) for v in relay_p])
        _write_csv(path, hdr, rows)
        paths.append(path)

    if report.gain_tables:
        path = out / "gains_step1.csv"
        g_su = report.gain_tables["g_su"]
        g1 = report.gain_tables["g1"]
        rows = []
        for k in range(g_su.shape[0]):
            for u in range(g_su.shape[1]):
                rows.append([str(k + 1), str(u + 1), _fmt(g_su[k, u]), _fmt(g1[k, u])])
        _write_csv(path, ["k", "u", "g_direct", "g_relay_aided"], rows)
        paths.append(path)

    summary = {
        "config": {
            "num_subcarriers": cfg.num_subcarriers,
            "num_destinations": cfg.num_destinations,
            "num_relays": num_relays,
            "ptot_dbw": cfg.ptot_dbw,
            "noise_dbw": cfg.noise_dbw,
            "ptot_watts": cfg.ptot_watts,
            "noise_watts": cfg.noise_watts,
            "weights": [float(w) for w in cfg.weights],
            "seed": cfg.seed,
            "realizations": cfg.realizations,
            "protocols": protos,
        },
        "average_wsr": {
            p: report.average_wsr[p] if math.isfinite(report.average_wsr[p]) else None for p in protos
        },
        "status_counts": {
            p: {s: report.statuses[p].count(s) for s in sorted(set(report.statuses[p]))}
            for p in protos
        },
        "max_budget_slack": (
            float(np.nanmax(report.residuals)) if np.any(np.isfinite(report.residuals)) else None
        ),
        # the closed form runs exactly where its conditions hold
        "highpower_conditions_met": (
            report.statuses[PROTO_HIGHPOWER].count(solver.STATUS_CLOSED_FORM) if PROTO_HIGHPOWER in protos else None
        ),
    }
    path = out / "summary.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n")
    paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relayalloc",
        description="Optimum resource allocation studies for relay aided OFDMA downlinks",
    )
    parser.add_argument("config", help="YAML or JSON experiment config")
    parser.add_argument("-o", "--output-dir", default=None, help="output directory (default: from config)")
    parser.add_argument("-p", "--protocols", default=None,
                        help="comma separated protocol override (proposed,reference,highpower)")
    parser.add_argument("-s", "--seed", type=int, default=None, help="master seed override")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.protocols is not None:
        overrides["protocols"] = [p.strip() for p in args.protocols.split(",") if p.strip()]
    try:
        config = load_config(args.config, overrides)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_monte_carlo(config)
        paths = emit(report, args.output_dir or config.output_dir)
    except (solver.ConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for p in sorted(report.average_wsr):
        print(f"average WSR [{p}]: {report.average_wsr[p]:.6g}")
    print(f"wrote {len(paths)} files to {args.output_dir or config.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
