"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper over the full
twelve-workload suite and prints the rows the paper reports.  Timing-wise
each experiment is heavy (it runs the DBT plus trace-driven simulation), so
benchmarks run a single round.

``--repro-workers N`` fans the run points of each experiment out over N
worker processes; ``--repro-cache-dir PATH`` answers repeated runs from the
persistent result cache.  Both default off so that timings measure the
actual simulation.
"""

import pytest

from repro.harness.parallel import PointRunner
from repro.harness.resultcache import ResultCache
# machine_metadata moved to repro.obs.regress so the bench-compare
# sentinel shares the exact same host-identity block the benchmarks
# embed; re-exported here for the benchmark modules.
from repro.obs.regress import machine_metadata  # noqa: F401

#: V-ISA instruction budget per workload per configuration.  The paper ran
#: benchmarks to completion (up to 4.3G instructions); our synthetic
#: workloads complete in far less, and all reported metrics are
#: ratios/rates that stabilise well below this budget.
BENCH_BUDGET = 60_000


def pytest_addoption(parser):
    parser.addoption("--repro-workers", type=int, default=1,
                     help="worker processes per experiment's run points")
    parser.addoption("--repro-cache-dir", default=None,
                     help="persistent run-point cache directory "
                          "(off by default: benchmarks time real runs)")


@pytest.fixture
def harness_runner(request):
    """A fresh PointRunner per benchmark, honouring the CLI options."""
    workers = request.config.getoption("--repro-workers")
    cache_dir = request.config.getoption("--repro-cache-dir")
    cache = ResultCache(cache_dir) if cache_dir else None
    return PointRunner(workers=workers, cache=cache)


@pytest.fixture
def bench_once(benchmark):
    """Run the experiment exactly once under pytest-benchmark timing and
    print its rendered table."""

    def _run(experiment_fn):
        result = benchmark.pedantic(experiment_fn, rounds=1, iterations=1)
        print()
        print(result.render())
        if getattr(result, "run_report", None):
            report = result.run_report
            print(f"[{report['executed']} executed in "
                  f"{report['runs']} runs, "
                  f"{report['cache_hits']} cached, "
                  f"run {report['run_seconds']:.1f}s, "
                  f"eval {report['eval_seconds']:.1f}s]")
        return result

    return _run
