"""Spans and counters recorded around the benchmark's calls into the program.

A span is (name, start, end, parent, op id); spans live in memory and are
written out once, when the run ends.  Work is recorded in units: one
``setup`` (fresh import of the program plus building the inputs) or one
``round`` (every op of the workload once).  The per-layer metrics describe
one fresh invocation, so each is the median over setups plus the median
over traced rounds.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("graphs", "gauge", "spectral", "caging", "bloch", "cli")

# Per-layer metrics derived from spans: metric name -> span name.
SPAN_TIMES = {
    "graphs.factorize_s": "graphs.factorize",
    "graphs.lotus_patch_s": "graphs.lotus_patch",
    "gauge.canonical_ccam_s": "gauge.canonical_ccam",
    "gauge.chain_ccam_s": "gauge.chain_ccam",
    "gauge.lotus_ccam_s": "gauge.lotus_ccam",
    "spectral.theorem_s": "spectral.theorem",
    "spectral.oracle_s": "spectral.oracle",
    "caging.poly_s": "caging.poly",
    "caging.zero_table_s": "caging.zero_table",
    "caging.amplitudes_s": "caging.amplitudes",
    "caging.krylov_s": "caging.krylov",
    "caging.cls_cover_s": "caging.cls_cover",
    "bloch.band_sweep_s": "bloch.band_sweep",
    "bloch.dos_map_s": "bloch.dos_map",
    "cli.main_s": "cli.main",
}
SPAN_CALLS = {
    "graphs.factorize_calls": "graphs.factorize",
    "gauge.canonical_ccam_calls": "gauge.canonical_ccam",
    "spectral.theorem_calls": "spectral.theorem",
    "spectral.oracle_calls": "spectral.oracle",
    "caging.poly_calls": "caging.poly",
    "bloch.band_sweep_calls": "bloch.band_sweep",
    "cli.main_calls": "cli.main",
}
# Counters summed per unit; worst-case counters take the maximum instead.
SUMMED = {
    "graphs.factorizations_listed": "count",
    "gauge.edges_built": "count",
    "spectral.theorem_blocks": "count",
    "spectral.oracle_flops": "flop",
    "caging.poly_updates": "count",
    "caging.matvecs": "count",
    "caging.krylov_dim": "count",
    "caging.cls_states": "count",
    "bloch.k_points": "count",
    "cli.bytes_out": "B",
    "cli.ops_failed": "count",
}
MAXED = {
    "spectral.max_dev": "1",
    "caging.poly_state_mib": "MiB",
    "caging.cls_worst_residual": "1",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name in SPAN_TIMES}
    units.update({name: "count" for name in SPAN_CALLS})
    units.update(SUMMED)
    units.update(MAXED)
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["bench.self_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class NullTracer:
    """Records nothing; the untraced run passes this one."""

    enabled = False

    @contextmanager
    def op(self, kind: str):
        yield

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float):
        pass


class Tracer:
    """Collects spans and counters for the units it is given."""

    enabled = True

    def __init__(self):
        self.units: list[dict] = []
        self._stack: list[int] = []
        self._op_id = -1

    def begin(self, kind: str):
        self.units.append({"kind": kind, "spans": [], "counters": defaultdict(float)})
        self._stack = []

    def _open(self, name: str) -> int:
        spans = self.units[-1]["spans"]
        parent = self._stack[-1] if self._stack else -1
        spans.append([name, time.perf_counter(), None, parent, self._op_id])
        self._stack.append(len(spans) - 1)
        return len(spans) - 1

    def _close(self, idx: int):
        self.units[-1]["spans"][idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str):
        self._op_id += 1
        idx = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close(idx)

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def count(self, name: str, value: float):
        counters = self.units[-1]["counters"]
        if name in MAXED:
            counters[name] = max(counters[name], float(value))
        else:
            counters[name] += value

    # -- derived metrics ---------------------------------------------------

    @staticmethod
    def _unit_values(unit: dict, scale) -> dict[str, float]:
        spans = unit["spans"]
        length = [scale(start, end) for _name, start, end, _parent, _op in spans]
        child_time = defaultdict(float)
        for i, (_name, _start, _end, parent, _op) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += length[i]
        durations = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        for i, (name, _start, _end, _parent, _op) in enumerate(spans):
            durations[name] += length[i]
            calls[name] += 1
            prefix = name.split(".", 1)[0]
            owner = "bench" if prefix == "op" else prefix
            self_time[owner] += length[i] - child_time[i]
        out = {metric: durations[span] for metric, span in SPAN_TIMES.items()}
        out.update({metric: float(calls[span]) for metric, span in SPAN_CALLS.items()})
        for name in list(SUMMED) + list(MAXED):
            out[name] = float(unit["counters"].get(name, 0.0))
        for owner in LAYERS + ("bench",):
            out[f"{owner}.self_s"] = self_time[owner]
        out["trace.spans"] = float(len(spans))
        return out

    def per_layer(self, overhead_s: float, scale) -> dict[str, float]:
        """Median over setups plus median over rounds, for every metric.
        ``scale(start, end)`` gives a span's duration."""
        by_kind: dict[str, list[dict[str, float]]] = defaultdict(list)
        for unit in self.units:
            by_kind[unit["kind"]].append(self._unit_values(unit, scale))
        out = {}
        for name in per_layer_units():
            if name == "trace.overhead_s":
                continue
            total = 0.0
            for values in by_kind.values():
                samples = [v[name] for v in values]
                total = (max(total, statistics.median(samples)) if name in MAXED
                         else total + statistics.median(samples))
            out[name] = total
        out["trace.overhead_s"] = overhead_s
        return out

    def dump(self) -> list[dict]:
        return [{"kind": u["kind"], "spans": u["spans"], "counters": dict(u["counters"])}
                for u in self.units]
