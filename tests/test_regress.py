"""The benchmark-regression sentinel (repro.obs.regress)."""

import copy
import io
import json
import pathlib

import pytest

from repro.cli import main
from repro.obs.regress import (
    CONTEXT_BLOCKS,
    classify,
    compare_benchmarks,
    flatten_metrics,
    machine_metadata,
)

BASELINE = {
    "benchmark": "exec_engine",
    "workloads": ["gzip", "mcf"],
    "budget": 60_000,
    "reps": 3,
    "rows": [
        {"workload": "gzip", "naive_seconds": 0.16,
         "jit_seconds": 0.06, "speedup": 2.8},
        {"workload": "mcf", "naive_seconds": 0.10,
         "jit_seconds": 0.04, "speedup": 2.3},
    ],
    "jit_total_seconds": 0.10,
    "aggregate_speedup": 2.51,
    "telemetry_on_ratio": 1.14,
    "run_points_executed": 16,
    "machine": {"python": "3.11.7", "cpu_count": 1},
}


def doctored(**changes):
    doc = copy.deepcopy(BASELINE)
    doc.update(changes)
    return doc


class TestClassify:
    def test_suffix_rules(self):
        assert classify("jit_total_seconds") == "time"
        assert classify("rows.gzip.naive_seconds") == "time"
        assert classify("elapsed") == "time"
        assert classify("aggregate_speedup") == "higher"
        assert classify("rows.gzip.speedup") == "higher"
        assert classify("telemetry_on_ratio") == "lower"
        assert classify("run_points_executed") == "exact"
        assert classify("events.fragment_created") == "exact"


class TestFlatten:
    def test_rows_key_by_workload(self):
        metrics = flatten_metrics(BASELINE)
        assert metrics["rows.gzip.speedup"] == 2.8
        assert metrics["rows.mcf.naive_seconds"] == 0.10

    def test_context_and_machine_excluded(self):
        metrics = flatten_metrics(BASELINE)
        assert not any(name.startswith("machine") for name in metrics)
        assert "budget" not in metrics
        assert "reps" not in metrics

    def test_nested_dicts_dotted(self):
        metrics = flatten_metrics({"telemetry": {"counters": {"a": 2}}})
        assert metrics == {"telemetry.counters.a": 2}

    def test_non_numeric_ignored(self):
        metrics = flatten_metrics({"name": "x", "flag": True, "n": 1})
        assert metrics == {"n": 1}

    def test_context_blocks_excluded(self):
        # context blocks (the host's "machine" identity) describe where
        # a record was made — their numbers must not become gated metrics
        doc = {block: {"cpu_count": 8} for block in CONTEXT_BLOCKS}
        doc["aggregate_speedup"] = 6.8
        assert flatten_metrics(doc) == {"aggregate_speedup": 6.8}


class TestCompare:
    def test_self_compare_passes(self):
        comparison = compare_benchmarks(BASELINE, copy.deepcopy(BASELINE))
        assert comparison.ok
        assert comparison.skipped is None
        assert not comparison.regressions

    def test_ten_percent_slowdown_regresses(self):
        current = doctored(jit_total_seconds=0.115)
        comparison = compare_benchmarks(BASELINE, current)
        assert not comparison.ok
        names = [d.name for d in comparison.regressions]
        assert names == ["jit_total_seconds"]

    def test_small_jitter_tolerated(self):
        current = doctored(jit_total_seconds=0.104)
        assert compare_benchmarks(BASELINE, current).ok

    def test_speedup_drop_regresses(self):
        current = doctored(aggregate_speedup=2.0)
        comparison = compare_benchmarks(BASELINE, current)
        assert [d.name for d in comparison.regressions] == \
            ["aggregate_speedup"]

    def test_speedup_gain_is_improvement(self):
        current = doctored(aggregate_speedup=3.0)
        comparison = compare_benchmarks(BASELINE, current)
        assert comparison.ok
        (delta,) = [d for d in comparison.deltas
                    if d.name == "aggregate_speedup"]
        assert delta.verdict == "improved"

    def test_count_drift_regresses_exactly(self):
        current = doctored(run_points_executed=17)
        comparison = compare_benchmarks(BASELINE, current)
        assert not comparison.ok
        (delta,) = comparison.regressions
        assert delta.kind == "exact"

    def test_machine_mismatch_warns_not_fails(self):
        current = doctored(machine={"python": "3.12.1", "cpu_count": 8},
                           jit_total_seconds=9.99)
        comparison = compare_benchmarks(BASELINE, current)
        assert comparison.ok
        assert "different machines" in comparison.skipped

    def test_missing_machine_metadata_skips(self):
        current = doctored()
        del current["machine"]
        comparison = compare_benchmarks(BASELINE, current)
        assert comparison.ok
        assert "machine metadata" in comparison.skipped

    def test_context_mismatch_skips(self):
        current = doctored(budget=10_000, jit_total_seconds=9.99)
        comparison = compare_benchmarks(BASELINE, current)
        assert comparison.ok
        assert "budget" in comparison.skipped

    def test_runs_per_rep_mismatch_skips(self):
        # a record timed with averaged reps never gates one without
        current = doctored(runs_per_rep=4, jit_total_seconds=9.99)
        comparison = compare_benchmarks(BASELINE, current)
        assert comparison.ok
        assert "runs_per_rep" in comparison.skipped

    def test_missing_metric_warns(self):
        current = doctored()
        del current["telemetry_on_ratio"]
        comparison = compare_benchmarks(BASELINE, current)
        assert comparison.ok
        assert any("telemetry_on_ratio" in w for w in comparison.warnings)

    def test_render_lines_name_result(self):
        lines = compare_benchmarks(BASELINE, BASELINE).render_lines()
        assert lines[-1].startswith("result: OK")
        lines = compare_benchmarks(
            BASELINE, doctored(jit_total_seconds=0.2)).render_lines()
        assert lines[-1].startswith("result: REGRESSED")

    def test_machine_metadata_shape(self):
        block = machine_metadata()
        assert set(block) == {"python", "implementation", "cpu_count",
                              "platform", "machine"}


class TestBenchCompareCli:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_identical_records_exit_zero(self, tmp_path):
        path = self.write(tmp_path, "base.json", BASELINE)
        code, text = self.run_cli("bench-compare", path, path)
        assert code == 0
        assert "result: OK" in text

    def test_doctored_slowdown_exits_nonzero(self, tmp_path):
        base = self.write(tmp_path, "base.json", BASELINE)
        slow = self.write(tmp_path, "slow.json",
                          doctored(jit_total_seconds=0.115))
        code, text = self.run_cli("bench-compare", base, slow)
        assert code == 1
        assert "regressed" in text

    def test_committed_baseline_self_compares_clean(self):
        record = str(pathlib.Path(__file__).resolve().parent.parent
                     / "BENCH_exec.json")
        code, text = self.run_cli("bench-compare", record, record)
        assert code == 0
        assert "result: OK" in text

    def test_unreadable_file_exits_two(self, tmp_path):
        base = self.write(tmp_path, "base.json", BASELINE)
        code, text = self.run_cli("bench-compare", base,
                                  str(tmp_path / "missing.json"))
        assert code == 2

    def test_cross_machine_warns_and_exits_zero(self, tmp_path):
        base = self.write(tmp_path, "base.json", BASELINE)
        other = self.write(
            tmp_path, "other.json",
            doctored(machine={"python": "3.12.1", "cpu_count": 64},
                     jit_total_seconds=42.0))
        code, text = self.run_cli("bench-compare", base, other)
        assert code == 0
        assert "gate skipped" in text

    def test_tolerance_flag_widens_gate(self, tmp_path):
        base = self.write(tmp_path, "base.json", BASELINE)
        slow = self.write(tmp_path, "slow.json",
                          doctored(jit_total_seconds=0.115))
        code, _text = self.run_cli("bench-compare", base, slow,
                                   "--tolerance", "0.25")
        assert code == 0


class TestEndToEndRecord:
    """``BENCH_e2e.json`` (``scripts/record_e2e.py``) gated by its own
    BENCHMARK.json rules."""

    ROOT = pathlib.Path(__file__).resolve().parent.parent

    @pytest.fixture
    def record(self):
        return json.loads((self.ROOT / "BENCH_e2e.json").read_text())

    @staticmethod
    def scaled(record, run, metric, factor):
        doc = copy.deepcopy(record)
        doc["runs"][run]["metrics"][metric]["value"] *= factor
        return doc

    def regressed(self, record, current):
        return [d.name for d in compare_benchmarks(record,
                                                   current).regressions]

    def test_self_compare_exits_zero(self):
        record = str(self.ROOT / "BENCH_e2e.json")
        out = io.StringIO()
        assert main(["bench-compare", record, record], out=out) == 0
        assert "result: OK" in out.getvalue()

    def test_record_carries_benchmark_rules(self, record):
        spec = json.loads((self.ROOT / "BENCHMARK.json").read_text())
        assert record["end_to_end"] == spec["end_to_end"]
        assert set(record["runs"]) == {"fig8", "fig9", "untraced",
                                       "fig8-trace", "fig9-trace",
                                       "untraced-trace"}
        assert all(run["failed"] == 0 for run in record["runs"].values())

    def test_ref_cpu_s_gated_by_its_bound(self, record):
        # BENCHMARK.json bounds ref_cpu_s at 12%
        assert self.regressed(record, self.scaled(
            record, "fig9", "ref_cpu_s", 1.15)) == ["fig9.ref_cpu_s"]
        assert not self.regressed(record, self.scaled(
            record, "fig9", "ref_cpu_s", 1.10))

    def test_kips_drop_regresses(self, record):
        assert self.regressed(record, self.scaled(
            record, "fig9", "kips", 0.85)) == ["fig9.kips"]

    def test_peak_rss_gated_by_its_bound(self, record):
        assert self.regressed(record, self.scaled(
            record, "fig8", "peak_rss_mb", 1.03)) == ["fig8.peak_rss_mb"]

    def test_count_drift_regresses(self, record):
        drifted = copy.deepcopy(record)
        drifted["runs"]["fig9-trace"]["metrics"]["uarch.ildp_records"][
            "value"] += 1
        assert self.regressed(record, drifted) == \
            ["fig9-trace.uarch.ildp_records"]

    def test_failures_may_not_rise(self, record):
        failing = copy.deepcopy(record)
        failing["runs"]["untraced"]["failed"] += 1
        assert self.regressed(record, failing) == ["untraced.failed"]

    def test_attempted_follows_run_speed(self, record):
        # a timed run repeats whole passes until its time is up, so a
        # faster tree attempts more operations
        faster = copy.deepcopy(record)
        faster["runs"]["untraced"]["attempted"] += 120
        assert compare_benchmarks(record, faster).ok

    def test_layer_seconds_reported_not_gated(self, record):
        slow = copy.deepcopy(record)
        for run in ("fig8-trace", "fig9-trace"):
            for metric in slow["runs"][run]["metrics"].values():
                if metric["unit"] in ("s", "ratio"):
                    metric["value"] *= 2
        comparison = compare_benchmarks(record, slow)
        assert comparison.ok
        doubled = [d for d in comparison.deltas if d.current != d.baseline]
        assert doubled and all(d.kind == "reported" for d in doubled)

    @staticmethod
    def on_other_platform(record):
        doc = copy.deepcopy(record)
        doc["machine"]["platform"] += "-other"
        return doc

    @staticmethod
    def compare_files(tmp_path, record, current):
        paths = []
        for name, doc in (("base.json", record), ("fresh.json", current)):
            path = tmp_path / name
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        out = io.StringIO()
        return main(["bench-compare", *paths], out=out), out.getvalue()

    def test_other_platform_still_gates_counts(self, record, tmp_path):
        # counts do not depend on the host, so records from another
        # kernel release still gate them
        current = self.on_other_platform(record)
        current["runs"]["fig8-trace"]["metrics"]["vm.i_insns"]["value"] += 1
        code, text = self.compare_files(tmp_path, record, current)
        assert code == 1
        (line,) = [line for line in text.splitlines()
                   if "fig8-trace.vm.i_insns:" in line]
        assert line.endswith("[exact] regressed")
        assert "result: REGRESSED (1 of" in text

    def test_other_platform_reports_timings_ungated(self, record, tmp_path):
        current = self.on_other_platform(record)
        for run in current["runs"].values():
            for metric in run["metrics"].values():
                if metric["unit"] != "count":
                    metric["value"] *= 2
        code, text = self.compare_files(tmp_path, record, current)
        assert code == 0
        assert "records are from different machines (platform differ)" \
            in text
        assert "fig9.ref_cpu_s" in text and "[reported] ok" in text
        assert "result: OK" in text
