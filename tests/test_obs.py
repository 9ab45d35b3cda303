"""Tests for the repro.obs telemetry subsystem.

Unit coverage for the metrics registry (creation-on-use, serialisation,
merge semantics) and summary merging, plus VM integration: every run
carries telemetry, the run loop reads the clock only around translated
stints and captures, and the ``repro profile`` CLI renders the report.
"""

import io
import json

import pytest

import repro.vm.system as system_mod
from repro.harness.runner import run_vm
from repro.harness.runpoints import RunPoint, execute_point
from repro.obs.profile import hot_fragment_table, phase_breakdown_lines
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import Telemetry, merge_summary
from repro.vm.config import VMConfig


class TestRegistryMetrics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        assert registry.counter("c") is counter

    def test_gauge_overwrites(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.set(3)
        assert gauge.value == 3

    def test_timer_spans(self):
        timer = MetricsRegistry().timer("t")
        timer.add(0.5)
        timer.add(0.25, count=3)
        assert timer.seconds == pytest.approx(0.75)
        assert timer.count == 4
        with timer.time():
            pass
        assert timer.count == 5

    def test_histogram_buckets(self):
        histogram = MetricsRegistry().histogram("h", bounds=(10, 20))
        histogram.observe(5)      # <= 10
        histogram.observe(10)     # inclusive upper edge
        histogram.observe(15)
        histogram.observe(1000)   # overflow
        assert histogram.counts == [2, 1, 1]
        assert histogram.total == 4
        histogram.reset()
        assert histogram.counts == [0, 0, 0] and histogram.total == 0

    def test_histogram_bounds_validated(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", bounds=(5, 3))
        with pytest.raises(ValueError):
            registry.histogram("dup", bounds=(3, 3))

    def test_histogram_rebounds_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1, 2))
        assert registry.histogram("h", bounds=(1, 2)) is not None
        with pytest.raises(ValueError):
            registry.histogram("h", bounds=(1, 3))


class TestRegistryMerge:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7)
        registry.timer("t").add(1.0, count=2)
        registry.histogram("h", bounds=(10,)).observe(3)
        return registry

    def test_to_dict_json_able_and_sorted(self):
        registry = self._populated()
        registry.counter("a").inc()
        data = registry.to_dict()
        json.dumps(data)
        assert list(data["counters"]) == ["a", "c"]

    def test_merge_semantics(self):
        a, b = self._populated(), self._populated()
        b.gauge("g").set(3)         # lower: max keeps 7
        b.counter("only_b").inc()
        a.merge(b)
        assert a.counters["c"].value == 4
        assert a.counters["only_b"].value == 1
        assert a.gauges["g"].value == 7
        assert a.timers["t"].seconds == pytest.approx(2.0)
        assert a.timers["t"].count == 4
        assert a.histograms["h"].counts == [2, 0]
        assert a.histograms["h"].total == 2

    def test_merge_is_associative_on_counters(self):
        payload = self._populated().to_dict()
        once = MetricsRegistry().merge_dict(payload).merge_dict(payload)
        twice = MetricsRegistry()
        twice.merge(self._populated())
        twice.merge(self._populated())
        assert once.to_dict() == twice.to_dict()

    def test_merge_bounds_mismatch_raises(self):
        a = self._populated()
        payload = self._populated().to_dict()
        payload["histograms"]["h"]["bounds"] = [99]
        with pytest.raises(ValueError):
            a.merge_dict(payload)


class TestMergeSummary:
    def test_folds_counters_and_host(self):
        telemetry = Telemetry()
        telemetry.registry.counter("exec.fragment_entries").inc(4)
        telemetry.registry.timer("phase.vm.interpret").add(0.5)
        telemetry.decode_misses = 9

        aggregate = MetricsRegistry()
        for _ in range(2):
            merge_summary(aggregate, telemetry.summary(),
                          host=telemetry.host_summary())
        assert aggregate.counters["exec.fragment_entries"].value == 8
        assert aggregate.counters["interp.decode_misses"].value == 18
        assert aggregate.timers["phase.vm.interpret"].seconds == \
            pytest.approx(1.0)

    def test_host_optional(self):
        aggregate = merge_summary(MetricsRegistry(), Telemetry().summary())
        assert aggregate.timers == {}


@pytest.fixture(scope="module")
def default_run():
    """One default-config gzip run shared by the integration tests."""
    return run_vm("gzip", VMConfig(), budget=40_000, collect_trace=False)


class TestVMIntegration:
    def test_default_run_carries_telemetry(self, default_run):
        counters = default_run.vm.telemetry.summary()["counters"]
        assert counters["exec.fragment_entries"] > 0
        assert counters["jit.promotions"] > 0

    def test_fragment_entries_count_executor_runs(self, default_run):
        # one FragmentExecutor.run per translated stint (no corruption
        # faults here, so every run gets past entry verification)
        registry = default_run.vm.telemetry.registry
        assert registry.counters["exec.fragment_entries"].value == \
            registry.timers["phase.vm.translated"].count

    def test_phase_timers_recorded(self, default_run):
        timers = default_run.vm.telemetry.registry.timers
        assert timers["phase.vm.interpret"].count > 0
        assert timers["phase.vm.translated"].count > 0
        assert timers["phase.translate.codegen"].count == \
            default_run.stats.fragments_created

    def test_finalize_mirrors_stats_gauges(self, default_run):
        gauges = default_run.vm.telemetry.registry.gauges
        for name, value in default_run.stats.summary().items():
            assert gauges[f"stats.{name}"].value == value
        assert gauges["tcache.fragments_live"].value == \
            len(default_run.tcache.fragments)
        assert gauges["tcache.invalidations"].value == \
            default_run.tcache.invalidations

    def test_summary_views_json_able(self, default_run):
        telemetry = default_run.vm.telemetry
        json.dumps(telemetry.summary())
        json.dumps(telemetry.host_summary())
        histogram = telemetry.summary()["histograms"]
        assert histogram["tcache.fragment_sizes"]["total"] == \
            default_run.stats.fragments_created

    def test_report_renderers(self, default_run):
        table = hot_fragment_table(default_run.tcache, top=3)
        assert len(table) == 2 + min(3, len(default_run.tcache.fragments))
        assert "V-entry" in table[1]
        breakdown = phase_breakdown_lines(default_run.vm.telemetry.registry)
        assert any("vm.interpret" in line for line in breakdown)

    def test_hot_fragment_table_ranks_by_execution_count(self, default_run):
        fragments = default_run.tcache.fragments
        table = hot_fragment_table(default_run.tcache, top=len(fragments))
        rows = [line.split() for line in table[2:]]
        ranked = sorted(fragments,
                        key=lambda f: (-f.execution_count, f.fid))
        assert [int(row[0]) for row in rows] == [f.fid for f in ranked]
        assert [int(row[2]) for row in rows] == \
            [f.execution_count for f in ranked]
        assert ranked[0].execution_count > ranked[-1].execution_count


class TestRunLoopClock:
    def test_harness_point_reads_clock_per_stint(self, monkeypatch):
        calls = []
        clock = system_mod.perf_counter

        def counted():
            calls.append(None)
            return clock()

        monkeypatch.setattr(system_mod, "perf_counter", counted)
        summary = execute_point(RunPoint.vm("gzip", budget=20_000))
        timers = summary["telemetry_host"]["timers"]
        stints = timers["phase.vm.translated"]["count"] + \
            timers["phase.vm.capture"]["count"]
        bound = 2 * stints + 2
        assert len(calls) <= bound
        assert bound < summary["stats"]["interpreted"]


class TestProfileCli:
    def test_profile_renders_report(self):
        from repro.cli import main

        out = io.StringIO()
        code = main(["profile", "gzip", "--budget", "20000"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "hot fragments" in text
        assert "by executions" in text
        assert "phase times" in text
        assert "vm.interpret" in text
