#!/usr/bin/env python3
"""relayalloc benchmark: Monte-Carlo CLI throughput, solve latency, layer costs.

One run measures one workload:

    python3 perfbench/run.py --workload mc_default --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the untraced end-to-end pass (``cli.main`` rounds, then
``solver.solve`` on the same realizations' gain tables) and prints the
end-to-end metrics. ``--trace 1`` alternates untraced and traced
``cli.main`` rounds and prints the per-layer metrics. Both then run the
check pass, which verifies every realization against computations made
apart from the solver (``checks.py``), plus a self-test of those checks on
corrupted allocations, plus a byte comparison of the CLI files with a plain
``python -m relayalloc.cli`` run in a fresh process. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

    python3 perfbench/run.py --repeat 10 --seconds 20 --tag baseline

runs every workload with seeds 1..10 (plus one traced run each) in child
processes, prints each metric's median, quartiles and spread next to its
bound in BENCHMARK.json, and writes ``perfbench/BENCH_<tag>.json``.
The package is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

GEOMETRY = {
    "source_xy": [0.0, 0.0],
    "relay_xy": [[-15.0, -5.0], [-5.0, -5.0], [5.0, -5.0], [15.0, -5.0]],
    "destination_region": {"x_min": -10.0, "x_max": 10.0, "y_min": -30.0, "y_max": -10.0},
}

# Each workload is the README geometry with 6 exponential taps and -30 dBW
# noise; README.md says which layers each one loads and which it leaves idle.
WORKLOADS = {
    "mc_default": {
        "num_subcarriers": 64, "num_destinations": 8, "ptot_dbw": 35.0,
        "realizations": 100, "protocols": ["proposed", "reference"],
    },
    "mc_wide_lowpower": {
        "num_subcarriers": 1024, "num_destinations": 32, "ptot_dbw": 0.0,
        "realizations": 10, "protocols": ["proposed", "reference"],
    },
    "mc_weighted_highpower": {
        "num_subcarriers": 64, "num_destinations": 8, "ptot_dbw": 80.0,
        "realizations": 100, "protocols": ["proposed", "highpower"],
        "weights": [0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05],
    },
}

# Distinct realizations the solve pass times, at least: solve_p90_ref then
# has ten of them above it. Where the CLI study has fewer (mc_wide_lowpower),
# the first ones are the study's own. A realization's search there takes
# either about 15 or about 49 price evaluations, so a median over the
# study's 10 realizations would jump between the two with the seed.
SOLVE_REALIZATIONS = 100
SETUP_REPEATS = 11
# Share of --seconds given to the solve() rounds, at least one; the cli.main
# rounds get the rest, and at least two.
SOLVE_SHARE = 0.4
# Price sweeps per reference-kernel run (see ReferenceKernel), and kernel
# runs timed on each side of a cli.main round.
KERNEL_PRICES = 40
KERNEL_RUNS = 5
# The traced pass's self times must cover at least this share of each traced
# cli.main round; the rest is argument parsing and printing in cli.main.
ACCOUNTED_MIN = 0.97

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import relayalloc; from relayalloc import cli; cli.load_config(sys.argv[2])"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "mc_realization_ref": "ref",
    "solve_p50_ref": "ref",
    "solve_p90_ref": "ref",
    "wsr_bound_share": "ratio",
    "peak_rss_mb": "MB",
}


def workload_config(name: str, seed: int) -> dict:
    cfg = {"noise_dbw": -30.0, "seed": seed, "workers": 1, "geometry": GEOMETRY}
    cfg.update(WORKLOADS[name])
    return cfg


def write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


def tree_digest(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def run_cli(cli, config_path: Path, out_dir: Path) -> int:
    """One cli.main call with its console lines captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(config_path), "-o", str(out_dir)])


def setup_once(config_path: Path) -> float:
    """Wall time of a fresh interpreter importing relayalloc and loading the
    workload config."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)],
                          cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return wall


def synthesize(relayalloc, config) -> list:
    """The config's realizations as gain tables, exactly as cli builds them."""
    channel, cli = relayalloc.channel, relayalloc.cli
    tables = []
    for i in range(config.realizations):
        placement_seed, channel_seed = cli.realization_seeds(config.seed, i)
        dest = channel.place_destinations(config.destination_region, config.num_destinations, placement_seed)
        real = channel.synthesize_realization(config.topology_for(dest), config.tap_profile(),
                                              config.num_subcarriers, channel_seed)
        tables.append(channel.to_gains(real, config.noise_watts))
    return tables


def warm_up(relayalloc, cfg: dict, work: Path) -> None:
    """One small cli.main call so imports and first-call costs are paid."""
    path = write_config(work / "warmup.json", dict(cfg, realizations=2))
    run_cli(relayalloc.cli, path, work / "warmup_out")


class Count:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


class ReferenceKernel:
    """A fixed computation that shares no code with relayalloc, timed next to it.

    On a shared host the machine's speed drifts with other load (by up to
    1.8x within seconds and from minute to minute on the VM of
    BENCH_baseline.json), and the solver's times move with it. The kernel does what the solver's inner loops do, at the
    workload's size: price sweeps over a (K, 2U) table of small numpy
    operations, then a Python loop over K rows. The median of the kernel
    runs next to a measured call or round is the time unit of that moment;
    the ``_ref`` metrics divide by it. Its inputs come from a fixed seed,
    never from --seed, so a change to relayalloc cannot change it.
    """

    def __init__(self, num_subcarriers: int, num_destinations: int) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.gain = rng.exponential(1.0, size=(num_subcarriers, 2 * num_destinations)) + 0.01
        self.weight = np.linspace(0.5, 1.5, 2 * num_destinations)
        self.rows = np.arange(num_subcarriers)
        self.times: list = []

    def run(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        for j in range(KERNEL_PRICES):
            mu = 0.02 * (j + 1)
            power = np.maximum(self.weight / mu - 1.0 / self.gain, 0.0)
            value = self.weight * np.log1p(self.gain * power) - mu * power
            acc += float(value[self.rows, value.argmax(axis=1)].sum())
        for row in self.gain:
            acc += math.log1p(0.5 * float(row[0])) + float(np.sort(row)[-1])
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]

    def unit(self, runs: int) -> float:
        """Median of ``runs`` fresh kernel runs: the time unit at this moment."""
        return statistics.median(self.run() for _ in range(runs))

    def median(self) -> float:
        return statistics.median(self.times)


def cli_round(cli, config_path: Path, out_dir: Path, per_round: int, count: Count, digests: list):
    """One cli.main round; returns its wall time, or None if it failed."""
    t0 = time.perf_counter()
    rc = run_cli(cli, config_path, out_dir)
    wall = time.perf_counter() - t0
    count.attempted += per_round
    if rc != 0:
        count.failed += per_round
        return None
    digests.append(tree_digest(out_dir))
    return wall


def solve_round(solver, params, tables: list, count: Count, times: list, rel_times: list, allocs: list,
                kernel: ReferenceKernel) -> float:
    """solve() once on every table, each call after one kernel run.

    Appends each table's call time to ``times[i]`` (seconds) and to
    ``rel_times[i]`` (divided by the median of this round's kernel runs);
    returns the round's wall time.
    """
    start = time.perf_counter()
    units, calls = [], {}
    for i, gains in enumerate(tables):
        units.append(kernel.run())
        count.attempted += 1
        t0 = time.perf_counter()
        try:
            allocs[i] = solver.solve(params, gains)
        except (solver.ConvergenceError, ValueError):
            count.failed += 1
            continue
        calls[i] = time.perf_counter() - t0
    unit = statistics.median(units)
    for i, t in calls.items():
        times[i].append(t)
        rel_times[i].append(t / unit)
    return time.perf_counter() - start


def check_pass(relayalloc, config, tables: list, allocs: list, out_dir: Path) -> dict:
    """Verify every realization's outputs and the CLI files; returns a report.

    ``tables`` may extend past the CLI's realizations (see SOLVE_REALIZATIONS);
    the CLI files are compared on the realizations they hold.
    """
    import checks

    cli, rates, reference, highpower, solver = (relayalloc.cli, relayalloc.rates, relayalloc.reference,
                                                relayalloc.highpower, relayalloc.solver)
    protocols = list(config.protocols)
    params = config.solver_params()
    summary, csv_wsr, csv_rates, problems = checks.read_cli_outputs(out_dir, protocols, config.realizations)
    gaps, shortfalls = [], []
    met = 0
    wsrs, shares = [], []
    for i, gains in enumerate(tables):
        alloc = allocs[i] if allocs[i] is not None else solver.solve(params, gains)
        wsrs.append(alloc.wsr)
        mode_sets = rates.classify(gains, params.ptot)
        in_cli = i < config.realizations
        out = checks.Outputs(proposed=alloc, g1=mode_sets.g1, csv_wsr=csv_wsr[i] if in_cli else None,
                             csv_rates=csv_rates[i] if in_cli else None)
        if cli.PROTO_REFERENCE in protocols:
            out.reference = reference.solve_reference(gains, params.ptot, weights=params.weights,
                                                      g1_table=mode_sets.g1)
        if cli.PROTO_HIGHPOWER in protocols:
            out.highpower_checked = True
            report = highpower.check_conditions(params, gains)
            if report.conditions_met:
                met += in_cli
                out.highpower = highpower.solve_high_power(params, gains, report=report)
        inst = checks.Instance(gains.g_su, gains.g_sr, gains.g_ru, params.weights, params.ptot)
        res = checks.check_realization(inst, out)
        problems += [f"realization {i}: {p}" for p in res["problems"]]
        gaps.append(res["rel_gap"])
        shares.append(alloc.wsr / res["dual_bound"])
        if res["ref_shortfall"] is not None:
            shortfalls.append(res["ref_shortfall"])
    problems += checks.check_summary(summary, protocols, config.realizations, wsrs[:config.realizations],
                                     met if cli.PROTO_HIGHPOWER in protocols else None)
    # A proposed WSR below the reference one by more than the rounding of
    # the two sums; checks.REF_SHORTFALL_BOUND caps how far below.
    below = sum(s > checks.REL_TOL for s in shortfalls)
    return {"problems": problems, "max_rel_gap": max(gaps), "highpower_met": met, "below_reference": below,
            "max_ref_shortfall": max(shortfalls, default=0.0),
            "wsr_mean": statistics.fmean(wsrs), "wsr_bound_share": statistics.fmean(shares)}


def plain_cli_run(config_path: Path, work: Path):
    """A plain `python -m relayalloc.cli` run in a fresh process.

    Returns (problems, peak resident MB of that process, its output dir).
    """
    plain = work / "plain_out"
    shutil.rmtree(plain, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err_path = work / "plain.err"
    with err_path.open("w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "relayalloc.cli", str(config_path), "-o", str(plain)],
                                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        return [f"plain CLI run exited with {proc.returncode}: {err_path.read_text().strip()}"], 0.0, plain
    return [], usage.ru_maxrss / 1024.0, plain


def same_files(plain: Path, out_dir: Path) -> list:
    if not plain.is_dir() or tree_digest(plain) != tree_digest(out_dir):
        return ["CLI pass files differ from a plain relayalloc run"]
    return []


def corruption_selftest(relayalloc) -> list:
    """Corrupt a known allocation four ways; each must be flagged.

    The instance is realization 0 of the mc_default geometry at 0 dBW and the
    README seed: it has direct subcarriers and relay-aided ones with two and
    three decoding relays. Returns problems.
    """
    import checks

    cli, rates, solver = relayalloc.cli, relayalloc.rates, relayalloc.solver
    path = write_config(WORK / "selftest" / "config.json", dict(workload_config("mc_default", 20260818), ptot_dbw=0.0))
    config = replace(cli.load_config(path), realizations=1)
    gains = synthesize(relayalloc, config)[0]
    params = config.solver_params()
    alloc = solver.solve(params, gains)
    g1 = rates.classify(gains, params.ptot).g1
    inst = checks.Instance(gains.g_su, gains.g_sr, gains.g_ru, params.weights, params.ptot)
    reported = {"proposed": list(solver.user_rates(alloc.assignments, gains))}
    g1_enum = checks.enumerated_relay_gain(inst.g_su, inst.g_sr, inst.g_ru)

    def flagged(candidate) -> bool:
        out = checks.Outputs(proposed=candidate, g1=g1, csv_rates=reported)
        return bool(checks.check_realization(inst, out, g1_enum)["problems"])

    problems = []
    if flagged(alloc):
        problems.append("self-test: the untouched allocation is flagged")
    rows = list(alloc.assignments)
    k_live = max(range(len(rows)), key=lambda k: rows[k].sum_power)
    multi = [k for k, a in enumerate(rows) if a.mode == rates.MODE_RELAY and len(a.relay_indices) > 1]
    if not multi:
        return problems + ["self-test: no relay-aided subcarrier with several relays to corrupt"]

    def with_row(k, row):
        return replace(alloc, assignments=rows[:k] + [row] + rows[k + 1:])

    a = rows[k_live]
    scaled = with_row(k_live, replace(a, sum_power=1.01 * a.sum_power, broadcast_power=1.01 * a.broadcast_power,
                                      relaying_power=1.01 * a.relaying_power,
                                      relay_powers=1.01 * a.relay_powers))
    k_multi = max(multi, key=lambda k: rows[k].sum_power)
    a = rows[k_multi]
    j = int(max(range(len(a.relay_indices)), key=lambda i: a.relay_powers[i]))
    dropped = with_row(k_multi, replace(
        a, relay_indices=a.relay_indices[:j] + a.relay_indices[j + 1:],
        relay_powers=[p for i, p in enumerate(a.relay_powers) if i != j],
        broadcast_power=a.broadcast_power + float(a.relay_powers[j])))
    nudged = replace(alloc, wsr=alloc.wsr * (1.0 + 1e-7))
    a = rows[k_live]
    swapped = with_row(k_live, replace(a, u=(a.u + 1) % params.num_destinations))
    for what, bad in (("scaled power", scaled), ("dropped relay", dropped),
                      ("nudged WSR", nudged), ("swapped destination", swapped)):
        if not flagged(bad):
            problems.append(f"self-test: {what} was not flagged")
    return problems


def end_to_end_run(relayalloc, name: str, seed: int, seconds: float, work: Path):
    """Untraced pass: cli.main rounds interleaved with solve() rounds.

    The first pair of rounds sizes the plan: about SOLVE_SHARE of ``seconds``
    goes to solve() rounds and the rest to cli.main rounds. Interleaving
    spreads both, the reference kernel's samples and the set-up processes
    over the same window. The solve percentiles are taken over realizations,
    each at the median of its calls in the run. On the VM of
    BENCH_baseline.json about one call in ten ran a third or more slower
    than the same realization's other calls, so the p90 of single calls
    measured that jitter rather than the solver's slow realizations.
    """
    cli, solver = relayalloc.cli, relayalloc.solver
    cfg = workload_config(name, seed)
    config_path = write_config(work / "config.json", cfg)
    problems, peak_rss_mb, plain_dir = plain_cli_run(config_path, work)
    config = cli.load_config(config_path)
    per_round = config.realizations
    warm_up(relayalloc, cfg, work)
    tables = synthesize(relayalloc, replace(config, realizations=max(per_round, SOLVE_REALIZATIONS)))
    params = config.solver_params()
    kernel = ReferenceKernel(config.num_subcarriers, config.num_destinations)
    kernel.unit(KERNEL_RUNS)
    kernel.times.clear()

    count = Count()
    digests: list = []
    out_dir = work / "cli_out"
    walls, rel_rounds, setup = [], [], []
    allocs = [None] * len(tables)
    times, rel_times = [[] for _ in tables], [[] for _ in tables]

    def timed_cli_round() -> float:
        before = kernel.unit(KERNEL_RUNS)
        wall = cli_round(cli, config_path, out_dir, per_round, count, digests)
        if wall:
            walls.append(wall)
            rel_rounds.append(wall / per_round / statistics.median([before, kernel.unit(KERNEL_RUNS)]))
        return wall or 0.0

    first_cli = timed_cli_round()
    first_solve = solve_round(solver, params, tables, count, times, rel_times, allocs, kernel)
    n_solve = max(1, round(seconds * SOLVE_SHARE / first_solve))
    n_cli = max(2, round((seconds - n_solve * first_solve) / (first_cli or first_solve)))
    spawns = math.ceil(SETUP_REPEATS / n_cli)
    solve_done = 1
    for block in range(n_cli):
        if block:
            timed_cli_round()
        while solve_done * n_cli < n_solve * (block + 1):
            solve_round(solver, params, tables, count, times, rel_times, allocs, kernel)
            solve_done += 1
        for _ in range(min(spawns, SETUP_REPEATS - len(setup))):
            setup.append(setup_once(config_path))

    if any(d != digests[0] for d in digests):
        problems.append("CLI rounds wrote different files")
    t_check = time.perf_counter()
    report = check_pass(relayalloc, config, tables, allocs, out_dir)
    problems += report["problems"]
    problems += same_files(plain_dir, out_dir)
    problems += corruption_selftest(relayalloc)
    check_s = time.perf_counter() - t_check

    def p90(values: list) -> float:
        return statistics.quantiles(values, n=10, method="inclusive")[-1]

    per_real = [statistics.median(t) for t in times if t]
    rel_per_real = [statistics.median(t) for t in rel_times if t]

    metrics = {
        "setup_s": statistics.median(setup),
        "mc_realization_ref": statistics.median(rel_rounds),
        "solve_p50_ref": statistics.median(rel_per_real),
        "solve_p90_ref": p90(rel_per_real),
        "wsr_bound_share": report["wsr_bound_share"],
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "mc_realizations_per_s": per_round / statistics.median(walls),
        "solve_ms_p50": 1e3 * statistics.median(per_real),
        "solve_ms_p90": 1e3 * p90(per_real),
        "kernel_ms": 1e3 * kernel.median(),
        "cli_rounds": len(walls),
        "solve_rounds": solve_done,
        "check_s": round(check_s, 3),
        "wsr_mean": report["wsr_mean"],
        "max_rel_gap": report["max_rel_gap"],
        "highpower_met": report["highpower_met"],
        "below_reference": report["below_reference"],
        "max_ref_shortfall": report["max_ref_shortfall"],
    }
    return {name_: (value, END_TO_END_UNITS[name_]) for name_, value in metrics.items()}, count, problems, info


def traced_run(relayalloc, name: str, seed: int, seconds: float, work: Path):
    import spans

    cli = relayalloc.cli
    cfg = workload_config(name, seed)
    config_path = write_config(work / "config.json", cfg)
    config = cli.load_config(config_path)
    warm_up(relayalloc, cfg, work)
    per_round = config.realizations

    count = Count()
    digests: list = []
    tracer = spans.Tracer(relayalloc)
    plain_walls, traced_walls, accounted = [], [], []
    out_dir = work / "cli_out"
    deadline = time.perf_counter() + seconds
    while True:
        plain_walls.append(cli_round(cli, config_path, out_dir, per_round, count, digests))
        tracer.round = len(traced_walls)
        tracer.realization = -1
        tracer.install()
        try:
            wall = cli_round(cli, config_path, out_dir, per_round, count, digests)
        finally:
            tracer.remove()
        traced_walls.append(wall)
        if wall:
            accounted.append(tracer.top_level_seconds(tracer.round) / wall)
        if time.perf_counter() >= deadline:
            break
    plain_walls = [w for w in plain_walls if w]
    rounds = len(traced_walls)
    traced_walls = [w for w in traced_walls if w]
    spans_path = work / "spans.jsonl"
    tracer.write_jsonl(spans_path, rounds - 1)

    calls, incl, excl = tracer.totals()
    n_real = rounds * per_round

    def per_real_ms(table, key):
        return 1e3 * table.get(key, 0.0) / n_real

    evals = [e for _, _, e, _ in tracer.solves]
    statuses = [s for _, _, _, s in tracer.solves]
    metrics = {}

    def put(metric, value, unit):
        metrics[metric] = (value, unit)

    for key in ("channel.place_destinations", "channel.synthesize_realization", "channel.to_gains",
                "rates.classify", "rates.effective_gain_table", "rates.relay_aided_solution",
                "solver.solve", "solver.price_bracket", "solver.initial_price", "solver.solve_at_price",
                "solver.user_rates", "highpower.check_conditions", "highpower.solve_high_power",
                "reference.solve_reference", "reference.waterfill"):
        put(f"{key}_ms", per_real_ms(incl, key), "ms")
    for key in ("rates.effective_gain_table", "rates.relay_aided_solution", "solver.price_bracket",
                "solver.solve_at_price"):
        put(f"{key}_calls", calls.get(key, 0) / n_real, "count")
    put("solver.solve_self_ms", per_real_ms(excl, "solver.solve"), "ms")
    put("solver.search_evals_p50", statistics.median(evals) if evals else 0.0, "count")
    put("solver.search_evals_max", max(evals) if evals else 0, "count")
    put("solver.bracket_collapse_count", statuses.count("bracket_collapse") / rounds, "count")
    put("highpower.conditions_met_count", calls.get("highpower.solve_high_power", 0) / rounds, "count")
    put("cli.load_config_ms", 1e3 * incl.get("cli.load_config", 0.0) / rounds, "ms")
    put("cli.run_monte_carlo_self_ms", per_real_ms(excl, "cli.run_monte_carlo"), "ms")
    put("cli.emit_ms", 1e3 * incl.get("cli.emit", 0.0) / rounds, "ms")
    put("trace.traced_wall_s", statistics.median(traced_walls), "s")
    put("trace.untraced_wall_s", statistics.median(plain_walls), "s")
    put("trace.overhead_share", statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "ratio")
    put("trace.accounted_share", min(accounted), "ratio")

    problems = []
    if any(d != digests[0] for d in digests):
        problems.append("traced and untraced CLI rounds wrote different files")
    if min(accounted) < ACCOUNTED_MIN:
        problems.append(f"span self times cover only {min(accounted):.3f} of a traced round")
    tables = synthesize(relayalloc, config)
    report = check_pass(relayalloc, config, tables, [None] * len(tables), out_dir)
    put("solver.below_reference_count", report["below_reference"], "count")
    put("solver.wsr_mean", report["wsr_mean"], "nats")
    problems += report["problems"]
    problems += plain_cli_run(config_path, work)[0]
    problems += same_files(work / "plain_out", out_dir)
    problems += corruption_selftest(relayalloc)
    info = {"traced_rounds": rounds, "spans_file": str(spans_path.relative_to(ROOT)),
            "max_rel_gap": report["max_rel_gap"]}
    return metrics, count, problems, info


def load_package():
    import relayalloc
    import relayalloc.cli

    return relayalloc


def single_run(args) -> int:
    relayalloc = load_package()

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = traced_run if args.trace else end_to_end_run
    metrics, count, problems, info = runner(relayalloc, args.workload, args.seed, args.seconds, work)
    for key, value in info.items():
        print(f"# {key}: {value}")
    for p in problems:
        print(f"FAIL {p}")
    print(f"workload {args.workload}: attempted {count.attempted}, failed {count.failed}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": count.attempted,
        "failed": count.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def machine_description() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def child_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a child process: its result object plus its ``# key: value`` lines."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    result["problems"] = [line for line in lines if line.startswith("FAIL ")]
    return result


def spread_stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def repeat_runs(args) -> int:
    bounds = {}
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(bench.read_text())["end_to_end"]}
    names = [args.workload] if args.workload else list(WORKLOADS)
    seeds = list(range(1, args.repeat + 1))
    record = {"tag": args.tag, "seconds": args.seconds, "seeds": seeds,
              "machine": machine_description(), "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(child_run(name, seed, args.seconds, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        traced = child_run(name, seeds[0], args.seconds, 1)
        stats = {}
        print(f"\n{name}: {'metric':<24}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for key in runs[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in runs]
            s = spread_stats(values)
            s.update(unit=runs[0]["metrics"][key]["unit"], values=values, bound=bounds.get(key))
            stats[key] = s
            bound = "" if s["bound"] is None else f"{s['bound']:g}"
            print(f"{name}: {key:<24}{s['median']:>12.6g}{s['q1']:>12.6g}{s['q3']:>12.6g}"
                  f"{s['spread']:>9.3g}{bound:>8}")
        plain = {}
        for key in ("mc_realizations_per_s", "solve_ms_p50", "solve_ms_p90", "kernel_ms"):
            values = [float(r["info"][key]) for r in runs]
            plain[key] = dict(spread_stats(values), values=values)
            print(f"{name}: {'(plain) ' + key:<24}{plain[key]['median']:>12.6g}{plain[key]['q1']:>12.6g}"
                  f"{plain[key]['q3']:>12.6g}{plain[key]['spread']:>9.4f}")
        record["workloads"][name] = {
            "end_to_end": stats,
            "plain_timings": plain,
            "max_rel_gap": max(float(r["info"]["max_rel_gap"]) for r in runs),
            "below_reference": [int(r["info"]["below_reference"]) for r in runs],
            "max_ref_shortfall": max(float(r["info"]["max_ref_shortfall"]) for r in runs),
            "problems": [p for r in runs + [traced] for p in r["problems"]],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{name}: correct={record['workloads'][name]['correct']} "
              f"failed={sum(record['workloads'][name]['failed'])}\n", flush=True)
    out = HERE / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload, each with its own seed")
    parser.add_argument("--tag", default="local")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "relayalloc" / "__init__.py").is_file():
        print(f"error: no relayalloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.repeat:
        return repeat_runs(args)
    if args.workload is None:
        parser.error("--workload is required")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
