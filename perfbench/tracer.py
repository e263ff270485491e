"""Spans and counts around the public functions of each layer.

Layers are the program's modules.  ``Tracer.install`` rebinds each traced
function everywhere the program binds it: a function imported by name is
bound in several modules (``run_greedy`` in ``greedy``, ``bounds``, ``cli``
and the package), and a call through any of those names must be recorded.
``Tracer.restore`` puts every original binding back.

A span is (name, start, end, parent span, op id); spans are kept in memory
and summarized when the run ends.  ``SetFunction.mask_value`` is counted but
not timed, which keeps the overhead of its many calls low.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import sys
import time
from math import prod

# Timed functions, by module.  Each gets `<module>.<fn>.calls` and `.s`.
TIMED = {
    "objective": ("total_curvature",),
    "greedy": ("run_greedy", "run_parallel_greedy", "brute_force_optimum"),
    "graphmetrics": ("independence_number", "clique_number", "clique_cover_number",
                     "has_sibling_condition", "pseudo_independence_number", "has_p_sibling"),
    "bounds": ("certify",),
    "suites": ("random_cover_entries",),
    "serialize": ("load_instance", "load_graph", "load_assignment"),
    "structure": ("earliest_schedule",),
}
# Layers whose self time is reported; `cli` is the root span of every op.
LAYERS = ("cli", "bounds", "suites", "objective", "greedy", "graphmetrics",
          "serialize", "structure")
ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = -1
        self.mask_calls = 0
        self.mask_distinct = 0
        self._mask_seen: set = set()
        self.leaves = 0
        self.profiles = 0
        self.bytes_read = 0
        self.row_times: list = []
        self._rebound: list = []

    # -- spans ---------------------------------------------------------

    def _enter(self) -> tuple:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _leave(self, idx: int, parent: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.op)

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """The root span of one op: one CLI invocation."""
        self.op = op_id
        idx, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._leave(idx, parent, ROOT_SPAN, start)
            self._mask_seen.clear()

    def _timed(self, name: str, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx, parent = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(idx, parent, name, start)
            if after is not None:
                after(args, result)
            return result
        return traced

    # -- per-function counts -------------------------------------------

    def _count_leaves(self, args, outcome) -> None:
        first = outcome[0] if isinstance(outcome, tuple) else outcome
        self.leaves += first.resolutions_explored

    def _count_profiles(self, args, kwargs):
        agents = args[1] if len(args) > 1 else kwargs["agents"]
        self.profiles += prod(max(1, len(d)) for d in agents.decisions)
        return args, kwargs

    def _count_bytes(self, args, result) -> None:
        self.bytes_read += os.path.getsize(args[0])

    def _time_rows(self, args, kwargs):
        """Timestamp each pull from certify's entries: a row's time is the
        gap to the next pull, the last row's the gap to exhaustion."""
        def rows(entries):
            last = None
            for entry in entries:
                now = time.perf_counter()
                if last is not None:
                    self.row_times.append((self.op, now - last))
                last = now
                yield entry
            if last is not None:
                self.row_times.append((self.op, time.perf_counter() - last))
        return (rows(args[0]),) + tuple(args[1:]), kwargs

    # -- installation --------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "pargreedy" or name.startswith("pargreedy.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._rebound.append((module, attr, original))

    def install(self) -> None:
        objective = importlib.import_module("pargreedy.objective")
        for mod_name, fns in TIMED.items():
            module = importlib.import_module(f"pargreedy.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                before = after = None
                if name in ("greedy.run_greedy", "greedy.run_parallel_greedy"):
                    after = self._count_leaves
                elif name == "greedy.brute_force_optimum":
                    before = self._count_profiles
                elif mod_name == "serialize":
                    after = self._count_bytes
                elif name == "bounds.certify":
                    before = self._time_rows
                original = getattr(module, fn_name)
                self._rebind(original, self._timed(name, original, before, after))

        cls = objective.SetFunction
        original_mask_value = cls.mask_value
        seen = self._mask_seen

        def mask_value(f, mask):
            self.mask_calls += 1
            key = (id(f), mask)
            if key not in seen:
                seen.add(key)
                self.mask_distinct += 1
            return original_mask_value(f, mask)

        cls.mask_value = mask_value
        self._rebound.append((cls, "mask_value", original_mask_value))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    # -- summary -------------------------------------------------------

    def summary(self, records: list) -> dict:
        """Per-layer metrics of the ops in ``records`` (see
        ``measure.measure``), per op unless the name says otherwise.  Span
        times are scaled by their op's host-speed factor, as op times are."""
        ops = max(1, len(records))
        items = sum(r["items"] for r in records)
        op_times = sorted(r["s"] * r["scale"] for r in records)
        row_times = sorted(t * records[op]["scale"] for op, t in self.row_times)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += (end - start) * records[op]["scale"]
        calls: dict = {}
        busy: dict = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        for idx, (name, start, end, _, op) in enumerate(self.spans):
            dur = (end - start) * records[op]["scale"]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            self_s[name.split(".")[0]] += dur - child[idx]

        out: dict = {}
        for mod_name, fns in TIMED.items():
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                out[f"{name}.calls"] = (calls.get(name, 0) / ops, "1/op")
                out[f"{name}.s"] = (busy.get(name, 0.0) / ops, "s/op")
        out["objective.mask_value.calls"] = (self.mask_calls / ops, "1/op")
        out["objective.mask_value.distinct_frac"] = (
            self.mask_distinct / self.mask_calls if self.mask_calls else 0.0, "1")
        out["greedy.leaves"] = (self.leaves / ops, "1/op")
        out["greedy.profiles"] = (self.profiles / ops, "1/op")
        graph_calls = sum(calls.get(f"graphmetrics.{fn}", 0) for fn in TIMED["graphmetrics"])
        out["graphmetrics.calls_per_item"] = (graph_calls / max(1, items), "1/item")
        out["bounds.row_s_p50"] = (statistics.median(row_times) if row_times else 0.0, "s")
        out["bounds.row_s_p98"] = (percentile(row_times, 98) if row_times else 0.0, "s")
        out["serialize.bytes_read"] = (self.bytes_read / ops, "B/op")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer] / ops, "s/op")
        out["trace.op_s_p50"] = (statistics.median(op_times) if op_times else 0.0, "s")
        out["trace.op_s_mean"] = (sum(op_times) / ops, "s")
        return out


def percentile(values: list, pct: int) -> float:
    """The pct-th percentile, by the inclusive method of ``statistics``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
