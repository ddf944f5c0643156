"""Experiment runner: config in, allocation studies and plot data out.

A run is described by a small YAML or JSON config (physical quantities carry
unit suffixed keys such as ``ptot_dbw``; dB values are converted to linear
watts exactly once, at ingestion). Single realization runs additionally emit
per subcarrier tables; Monte-Carlo runs aggregate weighted sum rates and the
user 1 rate CDF over independently seeded realizations.

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
    """Validated experiment description with linear-unit quantities."""

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
    num_taps: int
    tap_decay: float
    shadowing_db_std: float
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
        return channel.TapProfile.exponential(
            num_taps=self.num_taps,
            decay=self.tap_decay,
            shadowing_db_std=self.shadowing_db_std,
        )

    def topology_for(self, dest_xy: np.ndarray) -> channel.Topology:
        return channel.Topology(
            source_xy=np.asarray(self.source_xy, dtype=float),
            relay_xy=np.asarray(self.relay_xy, dtype=float),
            dest_xy=np.asarray(dest_xy, dtype=float),
        )


@dataclass(frozen=True, eq=False)
class RunReport:
    """Per realization results plus aggregates for the requested protocols."""

    config: ExperimentConfig
    wsr: dict                 # protocol -> (R,) array, NaN when not computed
    user_rates: dict          # protocol -> (R, U) array
    statuses: dict            # protocol -> list of status strings
    residuals: np.ndarray     # (R,) proposed-protocol budget slack, NaN if absent
    highpower_met: np.ndarray # (R,) bool, False where conditions failed
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


def _has_bool(value) -> bool:
    """True for a YAML boolean, alone or in a list, which float() reads as 0 or 1."""
    return isinstance(value, bool) or (isinstance(value, (list, tuple)) and any(map(_has_bool, value)))


def _as_float(raw: dict, key: str, errors: list, default=None, required=False):
    if key not in raw:
        if required:
            errors.append(f"{key}: required")
        return default
    if _has_bool(raw[key]):
        errors.append(f"{key}: expected a number, got {raw[key]!r}")
        return default
    try:
        value = float(raw[key])
    except (TypeError, ValueError):
        errors.append(f"{key}: expected a number, got {raw[key]!r}")
        return default
    if not math.isfinite(value):
        errors.append(f"{key}: expected a finite number, got {raw[key]!r}")
        return default
    return value


def _as_int(raw: dict, key: str, errors: list, default=None, required=False, minimum=None):
    if key not in raw:
        if required:
            errors.append(f"{key}: required")
        return default
    value = raw[key]
    if not isinstance(value, int) or isinstance(value, bool):
        errors.append(f"{key}: expected an integer, got {value!r}")
        return default
    if minimum is not None and value < minimum:
        errors.append(f"{key}: must be >= {minimum}")
        return default
    return value


def _check_keys(raw: dict, valid: tuple, prefix: str, errors: list) -> None:
    for key in sorted(set(raw) - set(valid), key=str):
        errors.append(f"{prefix}{key}: unknown key; valid: {list(valid)}")


def _as_points(value, key: str, errors: list, count: Optional[int] = None) -> Optional[tuple]:
    """``value`` as a tuple of finite (x, y) pairs, ``count`` of them if given.

    Returns None after recording an error under ``key``.
    """
    try:
        arr = np.empty(0) if _has_bool(value) else np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1 or count not in (None, arr.shape[0]):
        want = {None: "a list of [x, y] pairs", 1: "an [x, y] pair"}.get(count, f"{count} [x, y] pairs")
        errors.append(f"{key}: expected {want}")
        return None
    if not np.all(np.isfinite(arr)):
        errors.append(f"{key}: coordinates must be finite")
        return None
    return tuple(map(tuple, arr.tolist()))


def load_config(path, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Parse and validate a YAML or JSON config file.

    ``overrides`` replace top level keys of the file before validation, so
    command line overrides pass the same checks. All validation failures,
    unknown keys included, are collected and reported together, listed by
    field name.
    """
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a mapping at the top level")
    raw = {**raw, **(overrides or {})}

    errors: list = []
    _check_keys(raw, _KEYS, "", errors)
    kk = _as_int(raw, "num_subcarriers", errors, required=True, minimum=1)
    uu = _as_int(raw, "num_destinations", errors, required=True, minimum=1)
    ptot_dbw = _as_float(raw, "ptot_dbw", errors, required=True)
    noise_dbw = _as_float(raw, "noise_dbw", errors, required=True)
    for key, db in (("ptot_dbw", ptot_dbw), ("noise_dbw", noise_dbw)):
        # a subnormal noise power overflows the gains it divides
        if db is not None and not sys.float_info.min <= _db_to_watts(db) < math.inf:
            errors.append(f"{key}: {db!r} dB is not a finite number of watts of at least {sys.float_info.min!r}")
    seed = _as_int(raw, "seed", errors, default=0, minimum=0)
    realizations = _as_int(raw, "realizations", errors, default=1, minimum=1)
    workers = _as_int(raw, "workers", errors, default=1, minimum=1)

    weights = raw.get("weights")
    if weights is None and uu is not None:
        weights = [1.0 / uu] * uu
    w_arr = None
    if weights is not None:
        try:
            w_arr = None if _has_bool(weights) else np.asarray(weights, dtype=float)
        except (TypeError, ValueError):
            pass
        if w_arr is None:
            errors.append(f"weights: expected a list of numbers, got {weights!r}")
        elif uu is not None and w_arr.shape != (uu,):
            errors.append(f"weights: expected {uu} entries, got {w_arr.size}")
        elif np.any(w_arr <= 0.0) or not np.all(np.isfinite(w_arr)):
            errors.append("weights: entries must be positive and finite")

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
    if (
        PROTO_REFERENCE in protocols
        and w_arr is not None
        and w_arr.size > 0
        and not np.all(w_arr == w_arr.flat[0])
    ):
        errors.append("protocols: the reference protocol requires equal weights")

    geometry = raw.get("geometry", {})
    if not isinstance(geometry, dict):
        errors.append("geometry: expected a mapping")
        geometry = {}
    _check_keys(geometry, _GEOMETRY_KEYS, "geometry.", errors)
    source = _as_points([geometry.get("source_xy", (0.0, 0.0))], "geometry.source_xy", errors, count=1)
    relay_xy = _as_points(geometry.get("relay_xy", _DEFAULT_RELAYS), "geometry.relay_xy", errors)

    dest_xy = region = None
    if geometry.get("destination_xy") is not None:
        dest_xy = _as_points(geometry["destination_xy"], "geometry.destination_xy", errors, count=uu)
    else:
        region_raw = geometry.get("destination_region", _DEFAULT_REGION)
        if isinstance(region_raw, dict):
            _check_keys(region_raw, _REGION_KEYS, "geometry.destination_region.", errors)
        try:
            flags = [k for k in _REGION_KEYS if _has_bool(region_raw[k])]
            if flags:
                raise TypeError(f"expected numbers, got booleans for {flags}")
            region = channel.Region(**{k: float(region_raw[k]) for k in _REGION_KEYS})
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"geometry.destination_region: {exc}")

    taps = raw.get("taps", {})
    if not isinstance(taps, dict):
        errors.append("taps: expected a mapping")
        taps = {}
    _check_keys(taps, _TAP_KEYS, "taps.", errors)
    num_taps = _as_int(taps, "num_taps", errors, default=6, minimum=1)
    tap_decay = _as_float(taps, "decay", errors, default=3.0)
    shadow_std = _as_float(taps, "shadowing_db_std", errors, default=0.0)
    if kk is not None and num_taps is not None and kk < num_taps:
        errors.append("num_subcarriers: must be at least taps.num_taps")

    output_dir = raw.get("output_dir", "relayalloc_out")
    if not isinstance(output_dir, str):
        errors.append("output_dir: expected a string")
        output_dir = "relayalloc_out"

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))

    config = ExperimentConfig(
        num_subcarriers=kk,
        num_destinations=uu,
        ptot_dbw=ptot_dbw,
        noise_dbw=noise_dbw,
        weights=w_arr,
        seed=seed,
        realizations=realizations,
        protocols=tuple(protocols),
        source_xy=source[0],
        relay_xy=relay_xy,
        destination_region=region,
        destination_xy=dest_xy,
        num_taps=num_taps,
        tap_decay=tap_decay,
        shadowing_db_std=shadow_std,
        workers=workers,
        output_dir=output_dir,
    )
    try:  # the tap profile checks its own ranges
        config.tap_profile()
    except ValueError as exc:
        raise ConfigError(f"invalid config:\n  taps: {exc}") from exc
    return config


def realization_seeds(master_seed: int, index: int) -> tuple:
    """(placement_seed, channel_seed) for one realization, counter derived."""
    state = np.random.SeedSequence([master_seed, index]).generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


def _run_realization(config: ExperimentConfig, index: int) -> dict:
    """All requested protocols on one synthesized realization."""
    placement_seed, channel_seed = realization_seeds(config.seed, index)
    if config.destination_xy is not None:
        dest = np.asarray(config.destination_xy, dtype=float)
    else:
        dest = channel.place_destinations(config.destination_region, config.num_destinations, placement_seed)
    topo = config.topology_for(dest)
    real = channel.synthesize_realization(topo, config.tap_profile(), config.num_subcarriers, channel_seed)
    gains = channel.to_gains(real, config.noise_watts)
    params = config.solver_params()
    mode_sets = rates.classify(gains, params.ptot)

    uu = config.num_destinations
    single = config.realizations == 1  # only a single run emits per subcarrier tables
    bracket = None  # (mu_lower, mu_upper), shared by the proposed and highpower protocols
    out: dict = {
        "wsr": {},
        "user_rates": {},
        "status": {},
        "residual": math.nan,
        "highpower_met": False,
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
            bracket = (alloc.mu_lower, alloc.mu_upper)
            record(proto, alloc)
            out["residual"] = alloc.residual
        elif proto == PROTO_REFERENCE:
            record(proto, reference.solve_reference(gains, params.ptot, weights=params.weights,
                                                    g1_table=mode_sets.g1))
        elif proto == PROTO_HIGHPOWER:
            report = highpower.check_conditions(params, gains, mode_sets, bracket)
            out["highpower_met"] = report.conditions_met
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
        highpower_met=np.array([res["highpower_met"] for res in results]),
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
        "highpower_conditions_met": (
            int(report.highpower_met.sum()) if PROTO_HIGHPOWER in protos else None
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
