"""Execution-engine benchmark — naive vs jit throughput.

Runs the fig8 workload set end to end (DBT + functional execution, trace
collection off) under both ``VMConfig.exec_engine`` settings and writes
per-workload and aggregate wall times to ``BENCH_exec.json`` in the repo
root.  Each measurement is the best of ``REPS`` runs after a warm-up
pass, so one-time costs (imports, decode-cache population, jit source
compilation) don't pollute the engine comparison.

The same file carries the overhead gate on what every run pays: telemetry
is always on, so the jit timings above include it, and if a prior
``BENCH_exec.json`` from the *same machine* exists, the fresh jit total
must stay within :data:`JIT_TOTAL_LIMIT` of it — a change may slow the
default path by at most 2%.

``REPRO_BENCH_BUDGET`` overrides the V-ISA budget per run (``make
bench-quick`` uses this); the aggregate-speedup and overhead assertions
only apply at the full default budget, where timings are stable enough
to gate on.
"""

import json
import os
import pathlib
import time

from benchmarks.conftest import BENCH_BUDGET
from repro.harness.runner import run_vm
from repro.obs.regress import machine_metadata
from repro.vm.config import VMConfig

WORKLOADS = ("gzip", "mcf", "twolf", "vortex")
ENGINES = ("naive", "jit")
REPS = 5
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_exec.json"
#: The jit engine's hard floor over naive.  The committed record runs
#: well above this (>5x); the in-run assertion is looser so CI jitter
#: cannot flake it, while ``repro bench-compare`` against the committed
#: record still gates the recorded speedup within its 5% tolerance.
MIN_JIT_AGGREGATE_SPEEDUP = 4.0
#: the jit total may be at most 2% slower than the prior record...
JIT_TOTAL_LIMIT = 1.02
#: ...plus a small absolute slack so sub-hundredth-second jitter on very
#: fast machines cannot trip a 2% relative gate
JIT_TOTAL_SLACK_S = 0.02


def _budget():
    return int(os.environ.get("REPRO_BENCH_BUDGET", BENCH_BUDGET))


def _output_path():
    """Where this run's record is written.

    ``REPRO_BENCH_OUTPUT`` redirects the record (``make bench-gate``
    writes a scratch file and diffs it against the committed baseline
    with ``repro bench-compare``); the overhead gate's prior record
    always comes from the committed :data:`OUTPUT`.
    """
    override = os.environ.get("REPRO_BENCH_OUTPUT")
    return pathlib.Path(override) if override else OUTPUT


def _time_once(workload, engine, budget):
    config = VMConfig(exec_engine=engine)
    started = time.perf_counter()
    run_vm(workload, config, budget=budget, collect_trace=False)
    return time.perf_counter() - started


def _best_time(workload, engine, budget):
    return min(_time_once(workload, engine, budget) for _ in range(REPS))


def _prior_record(budget):
    """The previous BENCH_exec.json, if it can gate this run.

    Comparable means: same workloads, budget, rep count and machine
    (metadata block identical).  A record without machine metadata, or
    from other hardware, yields None and the overhead gate is skipped.
    """
    try:
        prior = json.loads(OUTPUT.read_text())
    except (OSError, ValueError):
        return None
    if (prior.get("workloads") == list(WORKLOADS)
            and prior.get("budget") == budget
            and prior.get("reps") == REPS
            and prior.get("machine") == machine_metadata()):
        return prior
    return None


def test_exec_engine_speedup():
    budget = _budget()
    for workload in WORKLOADS:            # warm caches for both engines
        for engine in ENGINES:
            _time_once(workload, engine, budget)

    rows = []
    totals = dict.fromkeys(ENGINES, 0.0)
    for workload in WORKLOADS:
        times = {engine: _best_time(workload, engine, budget)
                 for engine in ENGINES}
        for engine in ENGINES:
            totals[engine] += times[engine]
        rows.append({
            "workload": workload,
            "naive_seconds": round(times["naive"], 4),
            "jit_seconds": round(times["jit"], 4),
            "jit_speedup": round(times["naive"] / times["jit"], 2),
        })

    jit_aggregate = totals["naive"] / totals["jit"]
    prior = _prior_record(budget)
    record = {
        "benchmark": "exec_engine",
        "workloads": list(WORKLOADS),
        "budget": budget,
        "reps": REPS,
        "rows": rows,
        "naive_total_seconds": round(totals["naive"], 4),
        "jit_total_seconds": round(totals["jit"], 4),
        "jit_aggregate_speedup": round(jit_aggregate, 2),
        "machine": machine_metadata(),
    }
    output = _output_path()
    output.write_text(json.dumps(record, indent=2) + "\n")

    print()
    for row in rows:
        print(f"{row['workload']:8s} naive {row['naive_seconds']:.3f}s, "
              f"jit {row['jit_seconds']:.3f}s "
              f"({row['jit_speedup']:.2f}x)")
    print(f"aggregate speedup: jit {jit_aggregate:.2f}x -> {output.name}")

    if budget >= BENCH_BUDGET:
        assert jit_aggregate >= MIN_JIT_AGGREGATE_SPEEDUP, (
            f"jit engine only {jit_aggregate:.2f}x faster than naive "
            f"(need >= {MIN_JIT_AGGREGATE_SPEEDUP}x)")
        if prior is not None:
            baseline = prior["jit_total_seconds"]
            limit = baseline * JIT_TOTAL_LIMIT + JIT_TOTAL_SLACK_S
            print(f"jit total gate: {totals['jit']:.3f}s vs "
                  f"prior {baseline:.3f}s (limit {limit:.3f}s)")
            assert totals["jit"] <= limit, (
                f"jit total {totals['jit']:.3f}s exceeds "
                f"{JIT_TOTAL_LIMIT:.0%} of the prior record "
                f"{baseline:.3f}s — what every run pays must stay "
                f"within 2%")
        else:
            print("jit total gate: no comparable prior record; "
                  "recorded fresh baseline")
