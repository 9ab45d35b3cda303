"""CLI tests."""

import io

import pytest

from repro.cli import main
from repro.harness.report import REPORT_SECTIONS


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCli:
    def test_workloads_lists_all_twelve(self):
        code, text = run_cli("workloads")
        assert code == 0
        assert len(text.strip().splitlines()) == 12
        assert "gzip" in text and "perlbmk" in text

    def test_run(self):
        code, text = run_cli("run", "gzip", "--budget", "30000")
        assert code == 0
        assert "dynamic_expansion" in text
        assert "insts/translated inst" in text

    def test_run_basic_format(self):
        code, text = run_cli("run", "gzip", "--fmt", "basic",
                             "--budget", "30000")
        assert code == 0
        assert "basic" in text

    def test_translate_shows_fragment(self):
        code, text = run_cli("translate", "gzip", "--budget", "30000")
        assert code == 0
        assert "hottest fragment" in text
        assert "<-" in text  # RTL notation lines

    def test_experiment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code, text = run_cli("experiment", "fig5", "-w", "gzip",
                             "--budget", "20000")
        assert code == 0
        assert "Fig. 5" in text
        assert "gzip" in text
        assert "1 executed" in text

    def test_experiment_second_run_hits_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code, first = run_cli("experiment", "fig5", "-w", "gzip",
                              "--budget", "20000")
        assert code == 0
        code, second = run_cli("experiment", "fig5", "-w", "gzip",
                               "--budget", "20000")
        assert code == 0
        assert "1 cache hits, 0 executed" in second
        # the rendered table itself is byte-identical
        assert first.split("run points:")[0] == \
            second.split("run points:")[0]

    def test_experiment_no_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code, text = run_cli("experiment", "fig5", "-w", "gzip",
                             "--budget", "20000", "--no-cache")
        assert code == 0
        assert "0 cache hits, 1 executed" in text
        assert not any(tmp_path.iterdir())

    def test_report_writes_every_section(self, tmp_path):
        output = tmp_path / "report.md"
        code, text = run_cli("report", "-w", "gzip", "--budget", "2000",
                             "--no-cache", "-o", str(output))
        assert code == 0
        assert "0 cache hits" in text
        assert f"wrote {output}" in text
        report = output.read_text()
        assert "Workloads: gzip; budget 2,000" in report
        for _name, title in REPORT_SECTIONS:
            assert f"## {title}" in report

    def test_trace_writes_valid_chrome_json(self, tmp_path):
        import json

        from repro.obs.trace import span_contains, validate_chrome_trace

        path = tmp_path / "trace.json"
        code, text = run_cli("trace", "gzip", "--budget", "20000",
                             "-o", str(path))
        assert code == 0
        assert "flame summary" in text
        assert "vm.run" in text
        doc = json.loads(path.read_text())
        completes = validate_chrome_trace(doc)
        (run,) = [e for e in completes if e["name"] == "vm.run"]
        captures = [e for e in completes if e["name"] == "vm.capture"]
        assert captures and all(span_contains(run, c) for c in captures)

    def test_run_trace_out(self, tmp_path):
        import json

        from repro.obs.trace import validate_chrome_trace

        path = tmp_path / "run.json"
        code, text = run_cli("run", "gzip", "--budget", "20000",
                             "--trace-out", str(path))
        assert code == 0
        assert f"wrote {path}" in text
        validate_chrome_trace(json.loads(path.read_text()))

    def test_experiment_telemetry_and_trace_out(self, tmp_path,
                                                monkeypatch):
        import json

        from repro.obs.trace import validate_chrome_trace

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = tmp_path / "harness.json"
        code, text = run_cli("experiment", "fig5", "-w", "gzip",
                             "--budget", "20000", "--telemetry",
                             "--trace-out", str(path))
        assert code == 0
        assert "aggregate telemetry" in text
        assert "exec.fragment_entries" in text
        completes = validate_chrome_trace(json.loads(path.read_text()))
        names = {e["name"] for e in completes}
        assert "experiment.fig5" in names
        assert any(name.startswith("gzip (") for name in names)

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("run", "doom")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("experiment", "fig99")


class TestChaosCli:
    def test_default_schedule_converges(self):
        code, text = run_cli("chaos", "gzip")
        assert code == 0
        assert "converged" in text
        assert "injected" in text

    def test_explicit_spec_and_seed(self):
        code, text = run_cli("chaos", "mcf", "--fault-spec",
                             "translate@every=2,times=2",
                             "--fault-seed", "99")
        assert code == 0
        assert "seed 99" in text
        assert "translate" in text

    def test_capacity_bound(self):
        code, text = run_cli("chaos", "gzip", "--tcache-capacity", "100")
        assert code == 0
        assert "capacity_flushes" in text

    def test_watchdog_exits_nonzero(self):
        code, text = run_cli("chaos", "gzip", "--max-host-steps", "50")
        assert code == 1
        assert "watchdog" in text

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            run_cli("chaos", "gzip", "--fault-spec", "bogus")


class TestFuzzCli:
    def test_clean_campaign_exits_zero(self):
        code, text = run_cli("fuzz", "--count", "4", "--seed", "21")
        assert code == 0
        assert "0 finding(s)" in text
        assert "shape mix" in text

    def test_corpus_dir_written(self, tmp_path):
        corpus = tmp_path / "corpus"
        code, text = run_cli("fuzz", "--count", "3", "--seed", "21",
                             "--corpus-dir", str(corpus))
        assert code == 0
        assert "wrote 3 corpus records" in text
        assert (corpus / "MANIFEST.json").exists()
        assert len(list(corpus.glob("*.json"))) == 4  # 3 + manifest

    def test_trace_out(self, tmp_path):
        trace = tmp_path / "fuzz.trace.json"
        code, _text = run_cli("fuzz", "--count", "2", "--seed", "21",
                              "--trace-out", str(trace))
        assert code == 0
        assert trace.exists()
