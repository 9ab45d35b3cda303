"""Span tracing: the tracer, its Chrome export, and the instrumented
VM/translator/harness layers."""

import io
import json

import pytest

from repro.harness.parallel import PointRunner
from repro.harness.runner import run_vm
from repro.harness.runpoints import RunPoint, execute_point
from repro.obs.trace import (
    NULL_TRACER,
    MultiSpan,
    NullTracer,
    Tracer,
    make_tracer,
    span_contains,
    validate_chrome_trace,
)
from repro.vm.config import VMConfig


def completes_named(doc, name):
    return [event for event in validate_chrome_trace(doc)
            if event["name"] == name]


class TestTracer:
    def test_begin_end_records_complete_event(self):
        tracer = Tracer(epoch=0.0)
        tracer.begin("work", cat="test", detail=1)
        tracer.end(extra=2)
        (event,) = completes_named(tracer.to_chrome(), "work")
        assert event["ph"] == "X"
        assert event["cat"] == "test"
        assert event["dur"] >= 0
        assert event["args"] == {"detail": 1, "extra": 2}

    def test_span_nesting_is_positional(self):
        tracer = Tracer(epoch=0.0)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        doc = tracer.to_chrome()
        (outer,) = completes_named(doc, "outer")
        (inner,) = completes_named(doc, "inner")
        assert span_contains(outer, inner)
        assert not span_contains(inner, outer)

    def test_end_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            Tracer().end()

    def test_unwind_closes_all_open_spans(self):
        tracer = Tracer()
        tracer.begin("a")
        tracer.begin("b")
        tracer.unwind()
        doc = tracer.to_chrome()
        assert len(completes_named(doc, "a")) == 1
        assert len(completes_named(doc, "b")) == 1

    def test_open_spans_flushed_as_unfinished(self):
        tracer = Tracer()
        tracer.begin("open")
        (event,) = completes_named(tracer.to_chrome(), "open")
        assert event["args"]["unfinished"] is True

    def test_metadata_events_name_tracks(self):
        tracer = Tracer(process_name="proc", thread_name="thread")
        events = tracer.to_chrome()["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "proc") in names
        assert ("thread_name", "thread") in names

    def test_instant_event(self):
        tracer = Tracer()
        tracer.instant("marker", cat="test", n=3)
        events = tracer.to_chrome()["traceEvents"]
        (instant,) = [e for e in events if e["ph"] == "i"]
        assert instant["name"] == "marker"
        assert instant["args"] == {"n": 3}

    def test_add_complete_places_span_on_other_track(self):
        tracer = Tracer(epoch=0.0)
        tracer.add_complete("remote", 1.0, 2.5, tid=7)
        (event,) = completes_named(tracer.to_chrome(), "remote")
        assert event["tid"] == 7
        assert event["ts"] == pytest.approx(1.0e6)
        assert event["dur"] == pytest.approx(1.5e6)

    def test_overflow_counts_dropped(self):
        tracer = Tracer(max_events=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.events) == 2
        assert tracer.dropped == 3
        assert tracer.to_chrome()["otherData"]["dropped"] == 3

    def test_flame_lines_rank_by_total(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
        lines = tracer.flame_lines()
        assert "root" in lines[1]
        assert any("leaf" in line for line in lines[2:])

    def test_export_is_json_serialisable(self):
        tracer = Tracer()
        with tracer.span("x", arg="v"):
            tracer.instant("i")
        json.dumps(tracer.to_chrome())

    def test_write_round_trips(self, tmp_path):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        path = tmp_path / "trace.json"
        tracer.write(path)
        doc = json.loads(path.read_text())
        assert len(completes_named(doc, "x")) == 1

    def test_multispan_enters_all(self):
        order = []

        class CM:
            def __init__(self, tag):
                self.tag = tag

            def __enter__(self):
                order.append(("enter", self.tag))

            def __exit__(self, *exc):
                order.append(("exit", self.tag))
                return False

        with MultiSpan(CM("a"), CM("b")):
            pass
        assert order == [("enter", "a"), ("enter", "b"),
                         ("exit", "b"), ("exit", "a")]

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"name": "x"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 0.0}]})


class TestNullTracer:
    def test_all_operations_are_noops(self, tmp_path):
        tracer = NullTracer()
        assert not tracer.enabled
        tracer.begin("a")
        tracer.end()
        with tracer.span("b"):
            tracer.instant("c")
        tracer.add_complete("d", 0.0, 1.0)
        tracer.unwind()
        tracer.write(tmp_path / "never.json")
        assert not (tmp_path / "never.json").exists()
        assert tracer.to_chrome()["traceEvents"] == []
        assert tracer.flame_lines() == []

    def test_make_tracer_selects_by_config(self):
        assert make_tracer(VMConfig(trace=True)).enabled
        assert make_tracer(VMConfig()) is NULL_TRACER

    def test_trace_flag_excluded_from_cache_key(self):
        on = VMConfig(trace=True).key_fields()
        off = VMConfig().key_fields()
        assert on == off
        assert "trace" not in on


class TestVMTracing:
    @pytest.fixture(scope="class")
    def traced(self):
        result = run_vm("gzip", VMConfig(trace=True), budget=30_000,
                        collect_trace=False)
        return result, result.vm.tracer.to_chrome()

    def test_run_loop_phases_present(self, traced):
        _result, doc = traced
        for name in ("vm.run", "vm.interpret", "vm.capture",
                     "vm.translated", "translate", "translate.codegen"):
            assert completes_named(doc, name), f"no {name} spans"

    def test_nesting_run_capture_translate_codegen(self, traced):
        _result, doc = traced
        (run,) = completes_named(doc, "vm.run")
        capture = completes_named(doc, "vm.capture")[0]
        translate = completes_named(doc, "translate")[0]
        codegen = completes_named(doc, "translate.codegen")[0]
        assert span_contains(run, capture)
        assert span_contains(capture, translate)
        assert span_contains(translate, codegen)

    def test_interpret_spans_coalesced(self, traced):
        result, doc = traced
        spans = completes_named(doc, "vm.interpret")
        stepped = sum(span["args"]["instructions"] for span in spans)
        # run-loop interpreter stints coalesce into few spans; the
        # counted instructions stay at or below the stats total (the
        # remainder is interpreted *inside* vm.capture spans, where the
        # superblock recorder steps the interpreter itself)
        assert 0 < len(spans) < stepped
        assert stepped <= result.stats.interpreted_instructions

    def test_tcache_instants_emitted(self, traced):
        _result, doc = traced
        instants = [e for e in doc["traceEvents"]
                    if e["ph"] == "i" and e["name"] == "tcache.fragment"]
        assert len(instants) == _result.stats.fragments_created

    def test_no_op_parity_with_tracing_off(self):
        on = run_vm("gzip", VMConfig(trace=True), budget=30_000,
                    collect_trace=False)
        off = run_vm("gzip", VMConfig(), budget=30_000,
                     collect_trace=False)
        assert vars(on.stats) == vars(off.stats)
        assert on.vm.state.regs == off.vm.state.regs
        assert on.vm.state.pc == off.vm.state.pc
        assert on.vm.console_text() == off.vm.console_text()

    def test_trap_unwinds_open_spans(self):
        # syscall workloads deliver traps mid-stint; the export must
        # still balance (validate raises on negative/missing durations)
        result = run_vm("perlbmk", VMConfig(trace=True), budget=30_000,
                        collect_trace=False)
        doc = result.vm.tracer.to_chrome()
        validate_chrome_trace(doc)
        assert completes_named(doc, "vm.run")


class TestHarnessTracing:
    def test_serial_points_become_spans(self):
        tracer = Tracer()
        runner = PointRunner(tracer=tracer)
        runner.run([RunPoint.vm("gzip", budget=20_000)])
        doc = tracer.to_chrome()
        spans = completes_named(doc, "gzip (modified/sw_pred.ras)")
        assert len(spans) == 1
        assert spans[0]["args"]["kind"] == "vm"

    def test_cache_hits_become_instants(self, tmp_path):
        from repro.harness.resultcache import ResultCache

        tracer = Tracer()
        cache = ResultCache(str(tmp_path))
        point = RunPoint.vm("gzip", budget=20_000)
        PointRunner(cache=cache).run([point])
        PointRunner(cache=cache, tracer=tracer).run([point])
        instants = [e for e in tracer.to_chrome()["traceEvents"]
                    if e["ph"] == "i"]
        assert any(e["name"].startswith("cache-hit gzip")
                   for e in instants)

    def test_pool_spans_land_on_worker_tracks(self):
        # drive the track placement directly with synthetic chunk
        # results, so the test needs no process pool
        tracer = Tracer(epoch=0.0)
        runner = PointRunner(workers=2, tracer=tracer)
        points = [RunPoint.vm("gzip", budget=1), RunPoint.vm("mcf", budget=1)]
        chunks = [[points[0]], [points[1]]]
        chunk_results = [[({}, 1.0, 2.0, [])],
                         [({}, 1.5, 2.5, [("eval.ildp_ipc", 2.0, 2.4)])]]
        runner._note_pool_spans(chunks, chunk_results)
        doc = tracer.to_chrome()
        by_tid = {}
        for event in validate_chrome_trace(doc):
            by_tid.setdefault(event["tid"], []).append(event)
        assert [e["name"] for e in by_tid[1]] == \
            ["gzip (modified/sw_pred.ras)"]
        run, evaluation = by_tid[2]
        assert run["name"].startswith("mcf")
        assert evaluation["name"] == "eval.ildp_ipc"
        assert span_contains(run, evaluation)
        meta = {e["args"]["name"] for e in doc["traceEvents"]
                if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"worker-1", "worker-2"} <= meta

    def test_eval_spans_nest_in_run_spans(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "t.json"
        code = main(["experiment", "fig9", "-w", "gcc", "--budget", "5000",
                     "--no-cache", "--trace-out", str(path)],
                    out=io.StringIO())
        assert code == 0
        completes = validate_chrome_trace(json.loads(path.read_text()))
        runs = [e for e in completes if e["name"].startswith("gcc (")]
        evals = [e for e in completes if e["name"] == "eval.ildp_ipc"]
        assert len(runs) == 2 and len(evals) == 6
        # one span per run and evaluator call, inside its run's span
        per_run = sorted(sum(span_contains(run, e) for e in evals)
                         for run in runs)
        assert per_run == [1, 5]

    def test_execute_chunk_reports_timestamps(self):
        from repro.harness.parallel import _execute_chunk

        (result,) = _execute_chunk([RunPoint.vm("gzip", budget=5_000)])
        summary, started, ended, spans = result
        assert summary["workload"] == "gzip"
        assert ended >= started
        assert spans == []      # no evaluators, no eval spans

    def test_point_labels(self):
        assert RunPoint.original("gzip").label() == "gzip (original)"
        assert "gzip (" in RunPoint.vm("gzip").label()
