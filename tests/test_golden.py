"""Golden-output gate: every experiment table of the report, byte for byte.

``tests/golden/report-5k.md`` is the output of ``python -m repro report
--budget 5000 --no-cache``.  A change that claims to be behaviour-neutral
(an engine rewrite, a faster timing model) must leave it unchanged;
docs/testing.md says how to regenerate it for a change that is meant to
move a table.
"""

import difflib
import io
import pathlib

import pytest

from repro.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "report-5k.md"


def test_report_matches_golden(tmp_path):
    output = tmp_path / "report.md"
    code = main(["report", "--budget", "5000", "--no-cache",
                 "-o", str(output)], out=io.StringIO())
    assert code == 0
    if output.read_bytes() != GOLDEN.read_bytes():
        diff = difflib.unified_diff(
            GOLDEN.read_text().splitlines(), output.read_text().splitlines(),
            "golden", "fresh", lineterm="", n=1)
        pytest.fail(f"report differs from {GOLDEN.name}:\n"
                    + "\n".join(list(diff)[:60]))
