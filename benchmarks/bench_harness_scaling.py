"""Harness scaling — the same experiment executed serially, over a
process pool, and from a warm result cache; plus one cold report.

Writes the three wall-clock times to ``BENCH_harness.json`` in the repo
root and asserts the central harness property: all three strategies render
byte-identical tables.  The record also holds one cold, serial,
cache-less ``generate_report`` over the full suite at the benchmark
budget: its run-point counts (requested, unique, simulator runs) and its
process CPU seconds.
"""

import json
import pathlib
import time

from benchmarks.conftest import BENCH_BUDGET, machine_metadata
from repro.harness.experiments import fig8
from repro.harness.parallel import PointRunner
from repro.harness.report import generate_report
from repro.harness.resultcache import ResultCache

WORKLOADS = ("gzip", "mcf", "twolf", "vortex")
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_harness.json"


def _timed(runner):
    started = time.perf_counter()
    result = fig8.run(workloads=WORKLOADS, budget=BENCH_BUDGET,
                      runner=runner)
    return result.render(), time.perf_counter() - started


def test_harness_scaling(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))

    serial_table, serial_s = _timed(PointRunner())
    parallel_table, parallel_s = _timed(PointRunner(workers=4))
    warm_runner = PointRunner(cache=cache)
    _timed(warm_runner)                       # populate the cache
    cached_table, cached_s = _timed(warm_runner)

    assert parallel_table == serial_table
    assert cached_table == serial_table
    # the warm rerun must answer every point from the cache
    assert warm_runner.last_report["executed"] == 0
    assert warm_runner.last_report["cache_hits"] == \
        warm_runner.last_report["unique"]
    assert cached_s < serial_s

    report_runner = PointRunner()
    started = time.process_time()
    generate_report(budget=BENCH_BUDGET, runner=report_runner)
    report_cpu_s = time.process_time() - started
    report = report_runner.report

    record = {
        "experiment": "fig8",
        "workloads": list(WORKLOADS),
        "budget": BENCH_BUDGET,
        "run_points": warm_runner.last_report["unique"],
        "serial_seconds": serial_s,
        "parallel4_seconds": parallel_s,
        "cached_seconds": cached_s,
        "report": {
            "budget": BENCH_BUDGET,
            "requested": report.requested,
            "unique": report.unique,
            "runs": report.runs,
            "cpu_seconds": report_cpu_s,
        },
        "machine": machine_metadata(),
    }
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(f"serial {serial_s:.2f}s, parallel(4) {parallel_s:.2f}s, "
          f"cached {cached_s:.3f}s; report {report.render()}, "
          f"cpu {report_cpu_s:.1f}s -> {OUTPUT.name}")
