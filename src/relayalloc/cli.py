"""Experiment runner: config in, allocation studies and plot data out.

A run is described by a small YAML or JSON config (physical quantities carry
unit suffixed keys such as ``ptot_dbw``; dB values are converted to linear
watts exactly once, at ingestion). Single realization runs additionally emit
per subcarrier tables; Monte-Carlo runs aggregate weighted sum rates and the
user 1 rate CDF over independently seeded realizations.

Per realization seeds are derived from the master seed with a counter based
scheme: realization ``i`` uses ``SeedSequence([seed, i])`` spawned into one
placement seed and one channel seed, so any realization can be reproduced in
isolation and worker count cannot affect results.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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
    "run_single",
    "run_monte_carlo",
    "emit",
    "main",
]

log = logging.getLogger("relayalloc")

PROTO_PROPOSED = "proposed"
PROTO_REFERENCE = "reference"
PROTO_HIGHPOWER = "highpower"
_PROTOCOLS = (PROTO_PROPOSED, PROTO_REFERENCE, PROTO_HIGHPOWER)

_SOLVER_KEYS = ("epsilon", "epsilon_is_relative", "highpower_factor")

_DEFAULT_RELAYS = ((-15.0, -5.0), (-5.0, -5.0), (5.0, -5.0), (15.0, -5.0))
_DEFAULT_REGION = {"x_min": -10.0, "x_max": 10.0, "y_min": -30.0, "y_max": -10.0}


class ConfigError(ValueError):
    """Config validation failure; message lists the offending fields."""


def _db_to_watts(db: float) -> float:
    return 10.0 ** (db / 10.0)


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
    num_taps: int = 6
    tap_decay: float = 3.0
    shadowing_db_std: float = 0.0
    epsilon: float = 1e-6
    epsilon_is_relative: bool = True
    highpower_factor: float = 100.0
    workers: int = 1
    output_dir: str = "relayalloc_out"

    @property
    def ptot_watts(self) -> float:
        return _db_to_watts(self.ptot_dbw)

    @property
    def noise_watts(self) -> float:
        return _db_to_watts(self.noise_dbw)

    def solver_params(self) -> solver.SolverParams:
        return solver.SolverParams(
            ptot=self.ptot_watts,
            weights=self.weights,
            epsilon=self.epsilon,
            epsilon_is_relative=self.epsilon_is_relative,
            highpower_factor=self.highpower_factor,
        )

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
    assignments: dict = field(default_factory=dict)  # single runs only
    gain_tables: dict = field(default_factory=dict)  # single runs only

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


def _as_float(raw: dict, key: str, errors: list, default=None, required=False):
    if key not in raw:
        if required:
            errors.append(f"{key}: required")
        return default
    try:
        return float(raw[key])
    except (TypeError, ValueError):
        errors.append(f"{key}: expected a number, got {raw[key]!r}")
        return default


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


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML or JSON config file.

    All validation failures are collected and reported together, listed by
    field name.
    """
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a mapping at the top level")

    errors: list = []
    kk = _as_int(raw, "num_subcarriers", errors, required=True, minimum=1)
    uu = _as_int(raw, "num_destinations", errors, required=True, minimum=1)
    ptot_dbw = _as_float(raw, "ptot_dbw", errors, required=True)
    noise_dbw = _as_float(raw, "noise_dbw", errors, required=True)
    seed = _as_int(raw, "seed", errors, default=0, minimum=0)
    realizations = _as_int(raw, "realizations", errors, default=1, minimum=1)
    workers = _as_int(raw, "workers", errors, default=1, minimum=1)

    weights = raw.get("weights")
    if weights is None and uu is not None:
        weights = [1.0 / uu] * uu
    w_arr = None
    if weights is not None:
        try:
            w_arr = np.asarray(weights, dtype=float)
        except (TypeError, ValueError):
            errors.append("weights: expected a list of numbers")
        else:
            if uu is not None and w_arr.shape != (uu,):
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
    source_xy = tuple(geometry.get("source_xy", (0.0, 0.0)))
    relay_xy = geometry.get("relay_xy", _DEFAULT_RELAYS)
    try:
        relay_arr = np.asarray(relay_xy, dtype=float)
        if relay_arr.ndim != 2 or relay_arr.shape[1] != 2 or relay_arr.shape[0] < 1:
            raise ValueError
    except (TypeError, ValueError):
        errors.append("geometry.relay_xy: expected a list of [x, y] pairs")
        relay_arr = np.asarray(_DEFAULT_RELAYS)

    dest_xy = geometry.get("destination_xy")
    region_raw = geometry.get("destination_region", None if dest_xy is not None else _DEFAULT_REGION)
    region = None
    if dest_xy is not None:
        try:
            dest_arr = np.asarray(dest_xy, dtype=float)
            if uu is not None and dest_arr.shape != (uu, 2):
                errors.append(f"geometry.destination_xy: expected {uu} [x, y] pairs")
            dest_xy = tuple(map(tuple, dest_arr.tolist()))
        except (TypeError, ValueError):
            errors.append("geometry.destination_xy: expected a list of [x, y] pairs")
            dest_xy = None
    if dest_xy is None:
        try:
            region = channel.Region(**{k: float(region_raw[k]) for k in ("x_min", "x_max", "y_min", "y_max")})
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"geometry.destination_region: {exc}")

    taps = raw.get("taps", {})
    if not isinstance(taps, dict):
        errors.append("taps: expected a mapping")
        taps = {}
    num_taps = _as_int(taps, "num_taps", errors, default=6, minimum=1)
    tap_decay = _as_float(taps, "decay", errors, default=3.0)
    shadow_std = _as_float(taps, "shadowing_db_std", errors, default=0.0)
    if kk is not None and num_taps is not None and kk < num_taps:
        errors.append("num_subcarriers: must be at least taps.num_taps")

    sol = raw.get("solver", {})
    if not isinstance(sol, dict):
        errors.append("solver: expected a mapping")
        sol = {}
    for key in sorted(set(sol) - set(_SOLVER_KEYS), key=str):
        errors.append(f"solver.{key}: unknown key; valid: {list(_SOLVER_KEYS)}")
    epsilon = _as_float(sol, "epsilon", errors, default=1e-6)
    eps_rel = bool(sol.get("epsilon_is_relative", True))
    hp_factor = _as_float(sol, "highpower_factor", errors, default=100.0)

    output_dir = raw.get("output_dir", "relayalloc_out")
    if not isinstance(output_dir, str):
        errors.append("output_dir: expected a string")
        output_dir = "relayalloc_out"

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))

    return ExperimentConfig(
        num_subcarriers=kk,
        num_destinations=uu,
        ptot_dbw=ptot_dbw,
        noise_dbw=noise_dbw,
        weights=w_arr,
        seed=seed,
        realizations=realizations,
        protocols=tuple(protocols),
        source_xy=source_xy,
        relay_xy=tuple(map(tuple, relay_arr.tolist())),
        destination_region=region,
        destination_xy=dest_xy,
        num_taps=num_taps,
        tap_decay=tap_decay,
        shadowing_db_std=shadow_std,
        epsilon=epsilon,
        epsilon_is_relative=eps_rel,
        highpower_factor=hp_factor,
        workers=workers,
        output_dir=output_dir,
    )


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
    bracket = None  # (mu_lower, mu_upper), shared by the proposed and highpower protocols
    out: dict = {
        "index": index,
        "wsr": {},
        "user_rates": {},
        "status": {},
        "residual": math.nan,
        "highpower_met": False,
        "assignments": {},
        "g_su": gains.g_su,
        "g1": mode_sets.g1,
    }

    for proto in config.protocols:
        if proto == PROTO_PROPOSED:
            alloc = solver.solve(params, gains, mode_sets)
            bracket = (alloc.mu_lower, alloc.mu_upper)
            out["wsr"][proto] = alloc.wsr
            out["user_rates"][proto] = solver.user_rates(alloc.assignments, gains)
            out["status"][proto] = alloc.status
            out["residual"] = alloc.residual
            out["assignments"][proto] = alloc.assignments
        elif proto == PROTO_REFERENCE:
            ref = reference.solve_reference(gains, params.ptot, weights=params.weights, g1_table=mode_sets.g1)
            out["wsr"][proto] = ref.wsr
            out["user_rates"][proto] = np.bincount(ref.dest, weights=ref.rates_per_subcarrier, minlength=uu)
            out["status"][proto] = "waterfill"
            # direct mode uses the broadcasting slot only in this protocol
            out["assignments"][proto] = solver._assemble(ref.dest, ref.mode, ref.power, gains,
                                                         direct_both_slots=False)
        elif proto == PROTO_HIGHPOWER:
            if bracket is None:
                bracket = solver.price_bracket(params, gains, mode_sets)
            report = highpower.check_conditions(params, gains, mu_upper=bracket[1], g1_table=mode_sets.g1)
            out["highpower_met"] = report.conditions_met
            if report.conditions_met:
                alloc = highpower.solve_high_power(params, gains, report=report, bracket=bracket)
                out["wsr"][proto] = alloc.wsr
                out["user_rates"][proto] = solver.user_rates(alloc.assignments, gains)
                out["status"][proto] = alloc.status
                out["assignments"][proto] = alloc.assignments
            else:
                out["wsr"][proto] = math.nan
                out["user_rates"][proto] = np.full(uu, math.nan)
                out["status"][proto] = "conditions_unmet"
    return out


def _job(args) -> dict:
    return _run_realization(*args)


def run_monte_carlo(config: ExperimentConfig) -> RunReport:
    """Run every realization and aggregate in realization index order."""
    rr = config.realizations
    uu = config.num_destinations
    results: list = [None] * rr
    if config.workers > 1 and rr > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            for res in pool.map(_job, [(config, i) for i in range(rr)]):
                results[res["index"]] = res
                log.info("realization %d/%d done", res["index"] + 1, rr)
    else:
        for i in range(rr):
            results[i] = _run_realization(config, i)
            log.info("realization %d/%d done", i + 1, rr)

    wsr = {p: np.full(rr, math.nan) for p in config.protocols}
    user_rates = {p: np.full((rr, uu), math.nan) for p in config.protocols}
    statuses = {p: ["absent"] * rr for p in config.protocols}
    residuals = np.full(rr, math.nan)
    hp_met = np.zeros(rr, dtype=bool)
    for i, res in enumerate(results):
        for p in config.protocols:
            wsr[p][i] = res["wsr"][p]
            user_rates[p][i] = res["user_rates"][p]
            statuses[p][i] = res["status"][p]
        residuals[i] = res["residual"]
        hp_met[i] = res["highpower_met"]

    assignments = {}
    gain_tables = {}
    if rr == 1:
        assignments = results[0]["assignments"]
        gain_tables = {"g_su": results[0]["g_su"], "g1": results[0]["g1"]}
    return RunReport(
        config=config,
        wsr=wsr,
        user_rates=user_rates,
        statuses=statuses,
        residuals=residuals,
        highpower_met=hp_met,
        assignments=assignments,
        gain_tables=gain_tables,
    )


def run_single(config: ExperimentConfig) -> RunReport:
    """Single realization study with per subcarrier tables."""
    if config.realizations != 1:
        raise ConfigError("realizations: run_single requires realizations = 1")
    return run_monte_carlo(config)


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

    try:
        config = load_config(args.config)
        overrides = {}
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed: must be nonnegative")
            overrides["seed"] = args.seed
        if args.protocols is not None:
            protos = tuple(p.strip() for p in args.protocols.split(",") if p.strip())
            bad = [p for p in protos if p not in _PROTOCOLS]
            if bad or not protos:
                raise ConfigError(f"protocols: unknown entries {bad}; valid: {list(_PROTOCOLS)}")
            overrides["protocols"] = protos
        if overrides:
            config = ExperimentConfig(**{**config.__dict__, **overrides})
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
