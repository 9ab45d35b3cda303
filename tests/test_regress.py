"""The benchmark-regression sentinel (repro.obs.regress)."""

import copy
import io
import json

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
        import pathlib

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
