"""Equivalence and caching properties of the parallel run layer.

The contract: serial execution, process-pool execution, and cache-answered
execution are indistinguishable — the experiment tables they produce are
byte-identical — and the cache key covers everything that can change a
result (config, budget, scale, evals), so any such change is a miss.
"""

import json
import pathlib

import pytest

from repro.harness.experiments import fig5, fig8
from repro.harness.parallel import PointRunner, RunObserver
from repro.harness.resultcache import ResultCache, point_key
from repro.harness.runpoints import RunPoint, execute_point, ildp_ipc
from repro.ildp_isa.opcodes import IFormat
from repro.vm.config import VMConfig

WORKLOADS = ("gzip", "mcf")
BUDGET = 20_000


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path))


def _point(workload="gzip", budget=BUDGET, **config_kwargs):
    return RunPoint.vm(workload, VMConfig(**config_kwargs), budget=budget)


class TestExecutionEquivalence:
    def test_serial_parallel_cached_tables_identical(self, cache):
        serial = fig5.run(workloads=WORKLOADS, budget=BUDGET,
                          runner=PointRunner()).render()
        parallel = fig5.run(workloads=WORKLOADS, budget=BUDGET,
                            runner=PointRunner(workers=2)).render()

        warm = PointRunner(cache=cache)
        first = fig5.run(workloads=WORKLOADS, budget=BUDGET,
                         runner=warm).render()
        second = fig5.run(workloads=WORKLOADS, budget=BUDGET,
                          runner=warm).render()

        assert parallel == serial
        assert first == serial
        assert second == serial

    def test_pool_and_serial_summaries_bit_identical(self):
        points = [_point("gzip"), _point("mcf")]
        serial = [execute_point(p) for p in points]
        runner = PointRunner(workers=2)
        pooled = runner.run(points)
        # elapsed and telemetry_host are wall-clock / process-local
        # measurements, everything else is determined
        for a, b in zip(serial, pooled):
            a, b = dict(a), dict(b)
            a.pop("elapsed"), b.pop("elapsed")
            a.pop("telemetry_host"), b.pop("telemetry_host")
            assert json.loads(json.dumps(a)) == json.loads(json.dumps(b))

    def test_warm_cache_answers_every_point(self, cache):
        runner = PointRunner(cache=cache)
        fig8.run(workloads=WORKLOADS, budget=BUDGET, runner=runner)
        executed_cold = runner.last_report["executed"]
        assert executed_cold > 0

        rerun = PointRunner(cache=ResultCache(cache.root))
        fig8.run(workloads=WORKLOADS, budget=BUDGET, runner=rerun)
        # acceptance criterion: cache-hit count == run-point count
        assert rerun.last_report["executed"] == 0
        assert rerun.last_report["cache_hits"] == \
            rerun.last_report["unique"] == executed_cold


class TestDeduplication:
    def test_duplicates_computed_once(self):
        runner = PointRunner()
        out = runner.run([_point(), _point(), _point("mcf")])
        assert runner.last_report["requested"] == 3
        assert runner.last_report["unique"] == 2
        assert runner.last_report["executed"] == 2
        assert out[0] == out[1]
        assert out[2]["workload"] == "mcf"

    def test_dedupe_distinguishes_evals(self):
        spec = ildp_ipc(pes=4, comm=0)
        plain = _point()
        with_eval = RunPoint.vm("gzip", VMConfig(), budget=BUDGET,
                                evals=(spec,))
        runner = PointRunner()
        runner.run([plain, with_eval])
        assert runner.last_report["unique"] == 2


class TestCacheKey:
    def test_identical_points_same_key(self):
        assert point_key(_point()) == point_key(_point())

    def test_config_change_misses(self, cache):
        runner = PointRunner(cache=cache)
        runner.run([_point()])
        runner.run([_point(fmt=IFormat.BASIC)])
        assert runner.report.cache_hits == 0
        assert runner.report.executed == 2

    def test_budget_change_misses(self, cache):
        runner = PointRunner(cache=cache)
        runner.run([_point()])
        runner.run([_point(budget=BUDGET + 1)])
        assert runner.report.cache_hits == 0
        assert runner.report.executed == 2

    def test_eval_change_misses(self, cache):
        runner = PointRunner(cache=cache)
        runner.run([RunPoint.vm("gzip", VMConfig(), budget=BUDGET,
                                evals=(ildp_ipc(pes=4, comm=0),))])
        runner.run([RunPoint.vm("gzip", VMConfig(), budget=BUDGET,
                                evals=(ildp_ipc(pes=8, comm=0),))])
        assert runner.report.cache_hits == 0

    def test_same_point_hits(self, cache):
        runner = PointRunner(cache=cache)
        runner.run([_point()])
        runner.run([_point()])
        assert runner.report.cache_hits == 1
        assert runner.report.executed == 1

    def test_collect_trace_not_in_key(self):
        with_trace = VMConfig(collect_trace=True)
        without = VMConfig(collect_trace=False)
        assert "collect_trace" not in with_trace.key_fields()
        assert point_key(RunPoint.vm("gzip", with_trace)) == \
            point_key(RunPoint.vm("gzip", without))

    def test_telemetry_not_in_key(self):
        on = VMConfig(telemetry=True)
        off = VMConfig(telemetry=False)
        assert "telemetry" not in on.key_fields()
        assert point_key(RunPoint.vm("gzip", on)) == \
            point_key(RunPoint.vm("gzip", off))

    def test_stale_schema_entry_misses(self, cache, monkeypatch):
        """An entry cached under an older SCHEMA_VERSION must miss
        cleanly once the schema is bumped — never be returned."""
        from repro.harness import runpoints

        monkeypatch.setattr(runpoints, "SCHEMA_VERSION",
                            runpoints.SCHEMA_VERSION - 1)
        old = PointRunner(cache=cache)
        old.run([_point()])
        assert old.report.executed == 1
        monkeypatch.undo()

        fresh = PointRunner(cache=ResultCache(cache.root))
        fresh.run([_point()])
        assert fresh.report.cache_hits == 0
        assert fresh.report.executed == 1


class TestCacheRobustness:
    def test_corrupt_entry_reexecuted(self, cache):
        runner = PointRunner(cache=cache)
        point = _point()
        runner.run([point])
        path = pathlib.Path(cache._path(point_key(point)))
        path.write_text("{not json")

        rerun = PointRunner(cache=ResultCache(cache.root))
        rerun.run([point])
        assert rerun.report.cache_hits == 0
        assert rerun.report.executed == 1
        # ... and the entry was rewritten cleanly
        again = PointRunner(cache=ResultCache(cache.root))
        again.run([point])
        assert again.report.cache_hits == 1

    def test_key_collision_detected(self, cache):
        """An entry whose recorded point differs from the request is not
        returned, even if it landed under the same file name."""
        a, b = _point(), _point("mcf")
        runner = PointRunner(cache=cache)
        runner.run([a])
        path = pathlib.Path(cache._path(point_key(a)))
        entry = json.loads(path.read_text())
        entry["point"] = b.key_dict()
        path.write_text(json.dumps(entry))

        rerun = PointRunner(cache=ResultCache(cache.root))
        rerun.run([a])
        assert rerun.report.cache_hits == 0

    def test_unwritable_root_degrades_gracefully(self, tmp_path):
        """A bad --cache-dir must not kill the sweep — the run simply
        isn't memoized."""
        blocked = tmp_path / "not-a-dir"
        blocked.write_text("in the way")
        runner = PointRunner(cache=ResultCache(str(blocked)))
        out = runner.run([_point()])
        assert out[0]["workload"] == "gzip"
        assert runner.cache.stores == 0
        assert runner.cache.store_failures == 1

    def test_clear(self, cache):
        runner = PointRunner(cache=cache)
        runner.run([_point()])
        assert cache.stores == 1
        cache.clear()
        rerun = PointRunner(cache=ResultCache(cache.root))
        rerun.run([_point()])
        assert rerun.report.cache_hits == 0


class TestTelemetryMerge:
    def test_runner_aggregates_summaries(self):
        runner = PointRunner()
        runner.run([_point("gzip"), _point("mcf")])
        merged = runner.telemetry
        # both runs' event totals folded into events.* counters
        assert merged.counters["events.fragment_created"].value > 0
        assert merged.counters["fragments.profiled"].value > 0
        assert merged.counters["exec.fragment_entries"].value > 0
        # host blocks merged too: the VM phase timers carry spans
        assert merged.timers["phase.vm.interpret"].count > 0

    def test_pool_and_serial_merge_same_deterministic_counters(self):
        points = [_point("gzip"), _point("mcf")]
        serial, pooled = PointRunner(), PointRunner(workers=2)
        serial.run(points)
        pooled.run(points)
        serial_counters = {
            name: counter.value
            for name, counter in serial.telemetry.counters.items()
            if name != "interp.decode_misses"}
        pooled_counters = {
            name: counter.value
            for name, counter in pooled.telemetry.counters.items()
            if name != "interp.decode_misses"}
        # everything except the process-local decode-miss count agrees
        assert serial_counters == pooled_counters


class TestRunReport:
    def test_render_mentions_counts(self):
        runner = PointRunner()
        runner.run([_point(), _point()])
        line = runner.report.render()
        assert "2 requested" in line
        assert "1 unique" in line
        assert "1 executed" in line

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            PointRunner(workers=0)


@pytest.fixture
def four_cores(monkeypatch):
    """Un-clamp the pool on single-core CI: pretend we have 4 cores."""
    from repro.harness import parallel

    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)


def _deterministic(summary):
    """A summary minus its host fields, normalised through JSON."""
    kept = {key: value for key, value in summary.items()
            if key not in ("elapsed", "telemetry_host")}
    return json.loads(json.dumps(kept))


class Events(RunObserver):
    """Records the observer callbacks in the order they fire."""

    def __init__(self):
        self.events = []

    def on_point_start(self, point):
        self.events.append(("start", point.evals))

    def on_point_done(self, point, summary):
        self.events.append(("done", point.evals, tuple(summary["evals"])))


class TestRunGrouping:
    """Points that differ only in their evaluators share one simulator
    run, and each still gets the summary it would get alone."""

    FAST = ildp_ipc(pes=8, comm=0)
    NARROW = ildp_ipc(pes=4, comm=0)

    def _shared(self):
        return [RunPoint.vm("gzip", VMConfig(), budget=BUDGET,
                            evals=(self.FAST,)),
                RunPoint.vm("gzip", VMConfig(), budget=BUDGET,
                            evals=(self.NARROW, self.FAST))]

    def test_points_of_one_run_execute_once(self, monkeypatch):
        from repro.harness import runpoints

        calls = []
        real_run_vm = runpoints.run_vm

        def counting_run_vm(*args, **kwargs):
            calls.append(args[0])
            return real_run_vm(*args, **kwargs)

        monkeypatch.setattr(runpoints, "run_vm", counting_run_vm)
        points = self._shared()
        observer = Events()
        runner = PointRunner(observer=observer)
        out = runner.run(points)
        monkeypatch.undo()

        assert calls == ["gzip"]
        assert runner.last_report["runs"] == 1
        assert runner.last_report["executed"] == 2
        for point, summary in zip(points, out):
            assert _deterministic(summary) == \
                _deterministic(execute_point(point))
        fast, narrow = self.FAST.key(), self.NARROW.key()
        assert observer.events == [
            ("start", points[0].evals), ("start", points[1].evals),
            ("done", points[0].evals, (fast,)),
            ("done", points[1].evals, (narrow, fast))]
        # the union of evaluators ran once each, in one run
        timers = out[0]["telemetry_host"]["timers"]
        assert timers["run.vm"]["count"] == 1
        assert timers["eval.ildp_ipc"]["count"] == 2
        assert out[1]["telemetry_host"] == out[0]["telemetry_host"]

    def test_pool_executes_each_run_once(self, four_cores):
        shared = self._shared()
        points = [shared[0], _point("mcf"), shared[1]]
        runner = PointRunner(workers=2)
        out = runner.run(points)
        assert runner.report.pool_failures == 0
        assert runner.last_report["runs"] == 2
        assert runner.last_report["executed"] == 3
        for point, summary in zip(points, out):
            assert _deterministic(summary) == \
                _deterministic(execute_point(point))
        timers = out[0]["telemetry_host"]["timers"]
        assert timers["run.vm"]["count"] == 1
        assert timers["eval.ildp_ipc"]["count"] == 2
        assert out[2]["telemetry_host"] == out[0]["telemetry_host"]

    def test_cached_member_leaves_only_the_others_evaluators(self, cache):
        cached, missed = self._shared()
        PointRunner(cache=cache).run([cached])

        runner = PointRunner(cache=ResultCache(cache.root))
        out = runner.run([cached, missed])
        assert runner.last_report["cache_hits"] == 1
        assert runner.last_report["executed"] == 1
        assert runner.last_report["runs"] == 1
        timers = out[1]["telemetry_host"]["timers"]
        assert timers["eval.ildp_ipc"]["count"] == len(missed.evals)
        for point, summary in zip((cached, missed), out):
            assert _deterministic(summary) == \
                _deterministic(execute_point(point))

    def test_traced_and_untraced_runs_stay_apart(self):
        runner = PointRunner()
        runner.run([_point(), self._shared()[0]])
        assert runner.last_report["runs"] == 2

    def test_report_counts_each_run_once(self):
        runner = PointRunner()
        runner.run(self._shared())
        report = runner.report
        assert report.run_seconds > 0
        assert report.eval_seconds > 0
        assert "2 executed in 1 runs" in report.render()


class TestCacheCorruptionCounter:
    def test_unparsable_entry_counts_corrupt(self, cache):
        point = _point()
        PointRunner(cache=cache).run([point])
        path = pathlib.Path(cache._path(point_key(point)))
        path.write_text("{not json")

        fresh = ResultCache(cache.root)
        assert fresh.get(point) is None
        assert fresh.corrupt == 1
        assert fresh.misses == 0
        assert "corrupt=1" in repr(fresh)

    def test_identity_mismatch_counts_corrupt(self, cache):
        a, b = _point(), _point("mcf")
        PointRunner(cache=cache).run([a])
        path = pathlib.Path(cache._path(point_key(a)))
        entry = json.loads(path.read_text())
        entry["point"] = b.key_dict()
        path.write_text(json.dumps(entry))

        fresh = ResultCache(cache.root)
        assert fresh.get(a) is None
        assert fresh.corrupt == 1

    def test_runner_report_carries_corrupt_delta(self, cache):
        point = _point()
        PointRunner(cache=cache).run([point])
        path = pathlib.Path(cache._path(point_key(point)))
        path.write_text("truncated...")

        rerun = PointRunner(cache=ResultCache(cache.root))
        rerun.run([point])
        assert rerun.report.cache_corrupt == 1
        assert "1 corrupt cache entries" in rerun.report.render()

    def test_clear_tolerates_unlink_race(self, cache, monkeypatch):
        PointRunner(cache=cache).run([_point()])

        def racing_unlink(path):
            raise FileNotFoundError(path)

        from repro.harness import resultcache

        monkeypatch.setattr(resultcache.os, "unlink", racing_unlink)
        assert cache.clear() == 0       # lost every race, raised nothing
