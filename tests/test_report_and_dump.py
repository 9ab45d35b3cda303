"""Tests for the report generator and the translation-cache dump tool."""

import io

import pytest

from repro.harness.report import REPORT_SECTIONS, generate_report
from repro.harness.runner import run_vm
from repro.tcache.dump import (
    cache_totals_line,
    fragment_map,
    print_fragment_map,
)
from repro.vm.config import VMConfig


class TestReport:
    def test_single_section(self):
        text = generate_report(workloads=("gzip",), budget=15_000,
                               sections=["fig5"])
        assert "# Reproduction report" in text
        assert "straightened instruction count" in text
        assert "| gzip |" in text

    def test_all_sections_registered(self):
        from repro.harness import experiments

        for name, _title in REPORT_SECTIONS:
            assert hasattr(experiments, name)

    def test_notes_italicised(self):
        text = generate_report(workloads=("gzip",), budget=15_000,
                               sections=["overhead"])
        assert "*paper:" in text


class TestFragmentMap:
    @pytest.fixture(scope="class")
    def tcache(self):
        return run_vm("gap", budget=40_000, collect_trace=False).tcache

    def test_header_totals(self, tcache):
        lines = fragment_map(tcache)
        assert str(len(tcache.fragments)) in lines[1]
        assert str(tcache.total_code_bytes()) in lines[1]

    def test_header_reports_patches_and_invalidations(self, tcache):
        line = cache_totals_line(tcache)
        assert f"{tcache.patches_applied} patches applied" in line
        assert f"{tcache.invalidations} invalidations" in line
        assert f"{tcache.flush_count} flushes" in line
        # the fragment-map header embeds the same totals line
        assert fragment_map(tcache)[1] == line

    def test_invalidations_survive_flush(self, tcache):
        import copy

        snapshot = copy.deepcopy(tcache)
        before = snapshot.invalidations
        snapshot.flush()
        assert snapshot.patches_applied == 0
        assert snapshot.invalidations == before

    def test_one_line_per_fragment(self, tcache):
        lines = fragment_map(tcache)
        assert len(lines) == 4 + len(tcache.fragments)

    def test_print_to_stream(self, tcache):
        out = io.StringIO()
        print_fragment_map(tcache, out=out)
        assert "translation cache" in out.getvalue()

    def test_map_cli(self):
        from repro.cli import main

        out = io.StringIO()
        code = main(["map", "gzip", "--budget", "20000"], out=out)
        assert code == 0
        assert "fragments" in out.getvalue()


class TestStatsReport:
    def test_render_lines_cover_summary(self):
        stats = run_vm("gzip", budget=20_000, collect_trace=False).stats
        lines = stats.render_lines()
        summary = stats.summary()
        assert len(lines) == len(summary)
        for line, (name, value) in zip(lines, summary.items()):
            assert line.startswith(name)
            assert line.endswith(f"= {value}")

    def test_render_lines_aligned(self):
        stats = run_vm("gzip", budget=20_000, collect_trace=False).stats
        columns = {line.index("=") for line in stats.render_lines()}
        assert len(columns) == 1
