"""Span recording around relayalloc's public functions, from outside the package.

``Tracer.install`` replaces module attributes with timing wrappers. The
package's modules call each other through module attributes (``rates.classify``,
``solver.price_bracket`` looked up as a module global, and so on), so the
wrappers see the nested calls too. Each span keeps its parent span and the
realization it ran for; self time is the span's duration minus the time its
children cover. Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

# (module name, function name) pairs wrapped by the traced pass.
TRACED = (
    ("channel", "place_destinations"),
    ("channel", "synthesize_realization"),
    ("channel", "to_gains"),
    ("rates", "classify"),
    ("rates", "effective_gain_table"),
    ("rates", "relay_aided_solution"),
    ("solver", "solve"),
    ("solver", "price_bracket"),
    ("solver", "initial_price"),
    ("solver", "solve_at_price"),
    ("solver", "user_rates"),
    ("highpower", "check_conditions"),
    ("highpower", "solve_high_power"),
    ("reference", "solve_reference"),
    ("reference", "waterfill"),
    ("cli", "load_config"),
    ("cli", "run_monte_carlo"),
    ("cli", "emit"),
)


class Tracer:
    """Wraps functions, records spans, and restores the originals on ``remove``.

    A span is ``[id, name, parent_id, round, realization, start, end]``.
    ``realization`` is the index passed to ``cli.realization_seeds``, which
    every realization calls first; spans outside a realization carry -1.
    ``solver.solve`` calls are handed a ``trace`` callback that counts the
    price evaluations of the search; ``solves`` keeps (round, realization,
    evaluations, status) per call.
    """

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list = []
        self.solves: list = []
        self.round = 0
        self.realization = -1
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, qualname: str, fn, ends_realizations: bool = False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            span = [sid, qualname, parent, self.round, self.realization, clock(), 0.0]
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                span[6] = clock()
                stack.pop()
                if ends_realizations:
                    self.realization = -1

        return wrapper

    def _wrap_solve(self, solve_fn):
        def counted(*args, **kwargs):
            if "trace" in kwargs or len(args) >= 4:
                return solve_fn(*args, **kwargs)
            evals = [0]

            def count(*_):
                evals[0] += 1

            alloc = solve_fn(*args, trace=count, **kwargs)
            self.solves.append((self.round, self.realization, evals[0], alloc.status))
            return alloc

        return self._wrap("solver.solve", counted)

    def install(self) -> None:
        for mod_name, fn_name in TRACED:
            module = getattr(self.package, mod_name)
            original = getattr(module, fn_name)
            self._saved.append((module, fn_name, original))
            if (mod_name, fn_name) == ("solver", "solve"):
                setattr(module, fn_name, self._wrap_solve(original))
            else:
                ends = (mod_name, fn_name) == ("cli", "run_monte_carlo")
                setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", original, ends))
        cli = self.package.cli
        seeds = cli.realization_seeds
        self._saved.append((cli, "realization_seeds", seeds))

        def mark(master_seed, index):
            self.realization = int(index)
            return seeds(master_seed, index)

        cli.realization_seeds = mark

    def remove(self) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def self_times(self) -> list:
        """Self time of every span, indexed like ``spans``."""
        own = [s[6] - s[5] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                own[s[2]] -= s[6] - s[5]
        return own

    def totals(self, rounds=None):
        """Per name: (calls, inclusive seconds, self seconds) over the given rounds."""
        own = self.self_times()
        calls = defaultdict(int)
        incl = defaultdict(float)
        excl = defaultdict(float)
        for s, t in zip(self.spans, own):
            if rounds is not None and s[3] not in rounds:
                continue
            calls[s[1]] += 1
            incl[s[1]] += s[6] - s[5]
            excl[s[1]] += t
        return calls, incl, excl

    def top_level_seconds(self, round_id: int) -> float:
        """Summed self time of every span of a round, which equals the
        summed duration of its top-level spans."""
        own = self.self_times()
        return sum(t for s, t in zip(self.spans, own) if s[3] == round_id)

    def write_jsonl(self, path: Path, round_id: int) -> int:
        """Write the spans of one round, times in ms from the round's first span."""
        own = self.self_times()
        rows = [(s, t) for s, t in zip(self.spans, own) if s[3] == round_id]
        if not rows:
            return 0
        t0 = rows[0][0][5]
        with path.open("w") as fh:
            for s, t in rows:
                fh.write(json.dumps({
                    "id": s[0], "name": s[1], "parent": s[2], "realization": s[4],
                    "start_ms": (s[5] - t0) * 1e3, "dur_ms": (s[6] - s[5]) * 1e3, "self_ms": t * 1e3,
                }) + "\n")
        return len(rows)
