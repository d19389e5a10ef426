#!/usr/bin/env python3
"""Benchmark of the caged library and its CLI.

    python3 bench/run.py --workload spectra --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each round imports the program afresh (its caches start cold, as
in a new ``caged`` process), builds the workload's inputs from the seed and
answers every op once; rounds repeat, at least twice, while the next one
fits in ``--seconds``.  Every answer is checked against ``reference.py``.
Every duration is scaled to a reference machine speed (``speed.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
records the machine and the ledger of ops by kind.  See README.md in this
directory.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

# One process and no helper threads: every BLAS/OpenMP pool gets one thread,
# which must be fixed before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# The standard-library modules the program imports load here, once, so that
# every fresh import of the program below does the same work.  This one-off
# import is reported as once_s but left out of setup_s: it is not the
# program's work, and a single sample of it varies from 0.08 to 0.30 s.
import cmath  # noqa: E402,F401
import fractions  # noqa: E402,F401
import re  # noqa: E402,F401

import numpy as np  # noqa: E402

_T_ONCE = time.perf_counter()

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEED = speed.Speedometer()

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MODULES = ("graphs", "gauge", "spectral", "caging", "bloch", "cli")
# Set-ups made before the first round, so the set-up median has several
# samples even when few rounds fill the run.
EXTRA_SETUPS = 4
# Per-op medians need repeats; a traced run also needs one round each way.
MIN_ROUNDS = 2


def import_program() -> types.SimpleNamespace:
    """Import ``caged`` from scratch, dropping any earlier copy and its caches."""
    for name in [n for n in sys.modules if n == "caged" or n.startswith("caged.")]:
        del sys.modules[name]
    importlib.import_module("caged")
    return types.SimpleNamespace(**{m: importlib.import_module(f"caged.{m}") for m in MODULES})


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "platform": platform.platform(),
    }


class Ledger:
    """Attempted and failed ops by kind, failures tagged with their fault."""

    def __init__(self):
        self.kinds: dict[str, dict] = {}
        self.wrong: list[str] = []

    def record(self, kind: str, fault: str | None = None, wrong: str | None = None):
        entry = self.kinds.setdefault(kind, {"attempted": 0, "failed": 0, "faults": {}})
        entry["attempted"] += 1
        if fault is not None or wrong is not None:
            entry["failed"] += 1
            tag = fault if fault is not None else "wrong-answer"
            entry["faults"][tag] = entry["faults"].get(tag, 0) + 1
        if wrong is not None:
            self.wrong.append(wrong)

    def totals(self) -> tuple[int, int]:
        return (sum(e["attempted"] for e in self.kinds.values()),
                sum(e["failed"] for e in self.kinds.values()))


def run_round(ops, tr, ledger: Ledger) -> list[tuple[float, float]]:
    """Answer every op once; returns each op's (start, end).  Checks and
    calibration kernels run between ops, outside the timed calls."""
    latencies = []
    for op in ops:
        SPEED.tick()
        try:
            with tr.op(op.kind):
                start = time.perf_counter()
                answer = op.run(tr)
                latencies.append((start, time.perf_counter()))
        except Exception:  # the program raised: a wrong answer, keep going
            ledger.record(op.kind, wrong=f"{op.kind} {op.label}: {traceback.format_exc()}")
            continue
        try:
            op.check(tr, answer)
            ledger.record(op.kind)
            continue
        except wl.NamedFault as fault:
            ledger.record(op.kind, fault=fault.tag)
        except Exception as exc:  # wl.Mismatch, or an answer the check cannot read
            ledger.record(op.kind, wrong=f"{op.kind} {op.label}: {exc!r}")
        if op.kind.startswith("cli"):
            tr.count("cli.ops_failed", 1)
    return latencies


def op_medians(rounds: list[list[tuple[float, float]]], scale) -> np.ndarray:
    """Each op's median latency over the rounds, each latency passed through
    ``scale(start, end)``.  An op that raised has no latency; rounds then
    differ in length only if the program is flaky, and the shortest common
    prefix is used."""
    n = min(len(r) for r in rounds)
    return np.median(np.array([[scale(*t) for t in r[:n]] for r in rounds]), axis=0)


def unscaled(start: float, end: float) -> float:
    return end - start


def time_metrics(setups: list[tuple[float, float]], per_op: np.ndarray, scale) -> dict:
    return {
        "setup_s": (statistics.median(scale(*t) for t in setups), "s"),
        "wall_s": (float(per_op.sum()), "s"),
        "op_p50_ms": (float(np.percentile(per_op, 50)) * 1e3, "ms"),
        "op_p90_ms": (float(np.percentile(per_op, 90)) * 1e3, "ms"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "caged", "__init__.py")):
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    null = tracing.NullTracer()
    tracer = tracing.Tracer() if args.trace else None
    ledger = Ledger()
    refcache: dict = {}
    setup_samples: list[tuple[float, float]] = []
    for _ in range(EXTRA_SETUPS):
        SPEED.calibrate()
        start = time.perf_counter()
        wl.setup(args.workload, wl.Context(import_program(), refcache), null, args.seed)
        setup_samples.append((start, time.perf_counter()))

    rounds: list[dict] = []
    latencies = {False: [], True: []}  # per traced-ness: one list per round
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        tr = tracer if traced else null
        round_start = time.perf_counter()
        if traced:
            tracer.begin("setup")
        SPEED.calibrate()
        start = time.perf_counter()
        ctx = wl.Context(import_program(), refcache)
        ops, built = wl.setup(args.workload, ctx, tr, args.seed)
        if not traced:
            setup_samples.append((start, time.perf_counter()))
        try:
            wl.check_setup(built, tr)
        except Exception as exc:
            ledger.wrong.append(f"set-up: {exc!r}")
        if traced:
            tracer.begin("round")
        latencies[traced].append(run_round(ops, tr, ledger))
        del ops, built, ctx
        SPEED.calibrate()
        rounds.append({"traced": traced,
                       "wall_s": sum(end - start for start, end in latencies[traced][-1]),
                       "real_s": time.perf_counter() - round_start})
        typical = statistics.median(r["real_s"] for r in rounds)
        if (len(rounds) >= MIN_ROUNDS
                and time.perf_counter() - begin + typical > args.seconds):
            break

    # Every round answers the same ops in the same order, so each op's
    # latency is taken as its median over the rounds: with three or more
    # rounds, one round that a busy machine slowed down does not move it.
    per_op = op_medians(latencies[False], SPEED.scaled)
    if tracer is None:
        metrics = time_metrics(setup_samples, per_op, SPEED.scaled)
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    else:
        overhead = float(op_medians(latencies[True], SPEED.scaled).sum() - per_op.sum())
        units = tracing.per_layer_units()
        values = tracer.per_layer(overhead_s=overhead, scale=SPEED.scaled)
        metrics = {name: (values[name], units[name]) for name in units}
    measured = time_metrics(setup_samples, op_medians(latencies[False], unscaled), unscaled)

    attempted, failed = ledger.totals()
    correct = not ledger.wrong
    for message in ledger.wrong[:20]:
        print(f"wrong: {message}", file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "ledger": ledger.kinds,
              "rounds": rounds, "speed": SPEED.summary(),
              "unscaled": {k: v for k, (v, _u) in measured.items()},
              "setup_samples_s": [end - start for start, end in setup_samples],
              "once_s": _T_ONCE - _T0}
    if tracer is not None:
        out_dir = os.path.join(HERE, "results")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(dict(report, metrics={k: v for k, (v, _u) in metrics.items()},
                           units=tracer.dump()), fh)
        report["trace_file"] = os.path.relpath(path, os.path.dirname(HERE))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
